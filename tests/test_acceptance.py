"""End-to-end acceptance suite: ten numbered criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they print. The heavy training fixtures are module-scoped and shared, so the
whole suite runs in a few minutes single-threaded.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mvhash import cli
from mvhash.centers import generate_centers, min_pairwise_distance
from mvhash.data import MultiViewDataset, SynthSpec, make_synthetic
from mvhash.loss import central_similarity_loss, quantization_loss, total_loss
from mvhash.net import Dims, PARAM_NAMES, block_views, forward, init_params, backward
from mvhash.retrieval import (
    RetrievalIndex,
    curves,
    mean_average_precision,
    pack_codes,
    random_ranking_map,
)
from mvhash.trainer import TrainConfig, encode, train


def verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---- shared fixtures -------------------------------------------------------

STANDARD = SynthSpec(
    num_classes=10, samples_per_class=100, d_img=64, d_txt=64,
    cluster_spread=0.3, cross_view_consistency=0.9, seed=42,
)
HARD_KW = dict(
    num_classes=10, samples_per_class=100, d_img=64, d_txt=64,
    cluster_spread=0.6, cross_view_consistency=0.8,
)


@pytest.fixture(scope="module")
def standard_dataset():
    return make_synthetic(STANDARD)


@pytest.fixture(scope="module")
def standard_run(standard_dataset):
    """100-epoch training on the standard dataset, K=16, seed 42."""
    cset = generate_centers(10, 16, seed=42)
    cfg = TrainConfig(epochs=100, seed=42, eval_every=10)
    return train(standard_dataset, cset, cfg)


@pytest.fixture(scope="module")
def hard_runs():
    """Per-seed ablation grid on the harder dataset (sigma=0.6, cons=0.8)."""
    out = {}
    for seed in (0, 1, 2):
        ds = make_synthetic(SynthSpec(seed=seed, **HARD_KW))
        maps = {}
        for name, kw in [
            ("full", {}),
            ("concat", {"fusion": "concat"}),
            ("image", {"fusion": "image"}),
            ("text", {"fusion": "text"}),
            ("quant", {"loss_mode": "quant"}),
        ]:
            cfg = TrainConfig(epochs=100, seed=seed, eval_every=100, **kw)
            maps[name] = train(ds, generate_centers(10, 16, seed=seed), cfg).final_map
        cfg = TrainConfig(epochs=100, seed=seed, eval_every=100)
        maps["full64"] = train(ds, generate_centers(10, 64, seed=seed), cfg).final_map
        _, _, rl = ds.subset(ds.retrieval_mask)
        _, _, ql = ds.subset(ds.query_mask)
        dummy = RetrievalIndex.from_signs(
            np.ones((rl.shape[0], 16), dtype=np.int8), rl
        )
        maps["baseline"] = random_ranking_map(ql, dummy, seed=seed)
        out[seed] = maps
    return out


# ---- 1. popcount distance equals the inner-product identity ----------------

def test_criterion_01_hamming_identity():
    rng = np.random.default_rng(1)
    checked = 0
    for k in (16, 32, 64, 128):
        a = rng.choice((-1, 1), size=(1000, k)).astype(np.int8)
        b = rng.choice((-1, 1), size=(1000, k)).astype(np.int8)
        index = RetrievalIndex.from_signs(b, np.ones((1000, 1), dtype=np.uint8))
        for i in range(1000):
            inner = int(a[i].astype(np.int64) @ b[i].astype(np.int64))
            if index.distances(a[i])[i] != (k - inner) // 2:
                verdict(1, False, f"mismatch at K={k}, pair {i}")
            checked += 1
    verdict(1, True, f"popcount == (K - <a,b>)/2 on {checked} random pairs")


# ---- 2. center separation ---------------------------------------------------

def test_criterion_02_center_separation():
    for v, k in ((10, 16), (16, 16), (32, 64), (100, 128)):
        cset = generate_centers(v, k, seed=0)
        c = cset.centers.astype(np.int64)
        g = c @ c.T
        iu = np.triu_indices(v, k=1)
        dists = (k - g[iu]) // 2
        if not (dists == k // 2).all():
            verdict(2, False, f"Hadamard V={v} K={k}: distances != K/2")
    worst = 0.0
    for seed in range(100):
        cset = generate_centers(12, 24, seed=seed)  # K not a power of two
        assert cset.method == "bernoulli"
        worst = max(worst, cset.mean_pairwise_inner())
    ok = worst <= 0.0
    verdict(2, ok, f"Hadamard pairs at K/2; Bernoulli worst mean inner {worst:.4f} <= 0"
            if ok else f"Bernoulli mean inner {worst:.4f} > 0")


# ---- 3. gradient correctness -------------------------------------------------

def _end_to_end_loss(params, xi, xt, targets, lam):
    he, _ = forward(params, xi, xt)
    report, _ = total_loss(he, targets, lam)
    return report.l_total


def test_criterion_03_gradients():
    rng = np.random.default_rng(3)
    eps = 1e-6
    worst_net, worst_loss = 0.0, 0.0
    for trial in range(20):
        dims = Dims(d_img=8, d_txt=8, d=6, code_length=4)
        params = init_params(dims, seed=trial)
        n = 3
        xi = rng.normal(size=(n, 8))
        xt = rng.normal(size=(n, 8))
        targets = rng.choice((-1, 1), size=(n, 4))
        lam = 0.25

        he, cache = forward(params, xi, xt)
        _, grad_he = total_loss(he, targets, lam)
        analytic = block_views(backward(params, cache, grad_he), dims)
        for name in PARAM_NAMES:
            block = getattr(params, name)
            fd = np.zeros_like(block)
            it = np.nditer(block, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = block[idx]
                block[idx] = orig + eps
                lp = _end_to_end_loss(params, xi, xt, targets, lam)
                block[idx] = orig - eps
                lm = _end_to_end_loss(params, xi, xt, targets, lam)
                block[idx] = orig
                fd[idx] = (lp - lm) / (2 * eps)
            denom = max(np.linalg.norm(fd), 1e-8)
            rel = np.linalg.norm(analytic[name] - fd) / denom
            worst_net = max(worst_net, rel)

        # loss-only gradients w.r.t. the hash logits, tighter tolerance
        he_free = rng.uniform(-0.95, 0.95, size=(n, 4))
        for fn, args in ((central_similarity_loss, (targets,)), (quantization_loss, ())):
            _, g = fn(he_free, *args)
            fd = np.zeros_like(he_free)
            it = np.nditer(he_free, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = he_free[idx]
                he_free[idx] = orig + eps
                lp = fn(he_free, *args)[0]
                he_free[idx] = orig - eps
                lm = fn(he_free, *args)[0]
                he_free[idx] = orig
                fd[idx] = (lp - lm) / (2 * eps)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
            worst_loss = max(worst_loss, rel)
    ok = worst_net < 1e-4 and worst_loss < 1e-6
    verdict(3, ok, f"worst relative error: network {worst_net:.2e} (<1e-4), "
                   f"loss-only {worst_loss:.2e} (<1e-6)")


# ---- 4. metric oracle equivalence --------------------------------------------

def _brute_force(q_codes, q_labels, r_codes, r_labels, r_cap=None, k_grid=None):
    """Independent mAP / mAP@k / Recall@k from first principles."""
    n, kbits = r_codes.shape
    aps, rows = [], {}
    for q, lab in zip(q_codes, q_labels):
        d = (q != r_codes).sum(axis=1)
        order = sorted(range(n), key=lambda i: (d[i], i))
        rel = [(r_labels[i] & lab).any() for i in order]
        m = sum(rel)
        cap = n if r_cap is None else min(r_cap, n)
        hits, s = 0, 0.0
        for r in range(cap):
            if rel[r]:
                hits += 1
                s += hits / (r + 1)
        aps.append(s / m if m else 0.0)
        if k_grid:
            for kk in k_grid:
                hits, s = 0, 0.0
                for r in range(min(kk, n)):
                    if rel[r]:
                        hits += 1
                        s += hits / (r + 1)
                ap_k = s / m if m else 0.0
                rec_k = hits / m if m else 0.0
                rows.setdefault(kk, []).append((ap_k, rec_k))
    table = [
        (kk, float(np.mean([a for a, _ in v])), float(np.mean([r for _, r in v])))
        for kk, v in sorted(rows.items())
    ]
    return float(np.mean(aps)), table


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 201))
        q = int(rng.integers(1, 21))
        kbits = int(rng.choice((8, 16)))
        v = int(rng.integers(2, 6))
        r_codes = rng.choice((-1, 1), size=(n, kbits)).astype(np.int8)
        q_codes = rng.choice((-1, 1), size=(q, kbits)).astype(np.int8)
        r_labels = rng.integers(0, 2, size=(n, v)).astype(np.uint8)
        q_labels = rng.integers(0, 2, size=(q, v)).astype(np.uint8)
        r_labels[r_labels.sum(axis=1) == 0, 0] = 1
        q_labels[q_labels.sum(axis=1) == 0, 0] = 1
        index = RetrievalIndex.from_signs(r_codes, r_labels)
        k_grid = [1, max(2, n // 4), max(3, n // 2), n]
        k_grid = sorted(set(k_grid))
        got_map = mean_average_precision(q_codes, q_labels, index)
        got_curv = curves(q_codes, q_labels, index, k_grid)
        want_map, want_curv = _brute_force(
            q_codes, q_labels, r_codes, r_labels, k_grid=k_grid
        )
        worst = max(worst, abs(got_map - want_map))
        for (gk, gm, gr), (wk, wm, wr) in zip(got_curv, want_curv):
            assert gk == wk
            worst = max(worst, abs(gm - wm), abs(gr - wr))
    ok = worst <= 1e-12
    verdict(4, ok, f"50 micro-instances; worst |impl - oracle| = {worst:.2e} (<=1e-12)")


# ---- 5. end-to-end learning ---------------------------------------------------

def test_criterion_05_end_to_end_learning(standard_run):
    losses = [r.l_total for r in standard_run.epoch_losses]
    maps = standard_run.eval_maps
    ratio = losses[-1] / losses[0]
    final, peak = maps[-1], max(maps)
    ok = ratio < 0.10 and final >= 0.95 and final >= peak - 0.02
    verdict(5, ok, f"loss ratio {ratio:.4f} (<0.10), final mAP {final:.4f} "
                   f"(>=0.95), peak-final {peak - final:.4f} (<=0.02)")


# ---- 6. bit-length monotonicity -----------------------------------------------

def test_criterion_06_bit_length_monotonicity(hard_runs):
    detail, ok = [], True
    for seed, maps in hard_runs.items():
        good = maps["full64"] >= maps["full"] - 0.01
        ok &= good
        detail.append(f"seed {seed}: mAP64 {maps['full64']:.3f} vs mAP16 {maps['full']:.3f}")
    verdict(6, ok, "; ".join(detail))


# ---- 7. ablation ordering -------------------------------------------------------

def test_criterion_07_ablation_ordering(hard_runs):
    order_hits, quant_ok, detail = 0, True, []
    for seed, maps in hard_runs.items():
        best_single = max(maps["image"], maps["text"])
        ordered = maps["full"] >= maps["concat"] >= best_single
        order_hits += ordered
        gap = abs(maps["quant"] - maps["baseline"])
        quant_ok &= gap <= 0.05
        detail.append(
            f"seed {seed}: full {maps['full']:.3f} >= concat {maps['concat']:.3f} "
            f">= single {best_single:.3f} ({'ok' if ordered else 'violated'}), "
            f"quant-baseline gap {gap:.3f}"
        )
    ok = order_hits >= 2 and quant_ok
    verdict(7, ok, f"ordering holds in {order_hits}/3 seeds (need >=2); " + "; ".join(detail))


# ---- 8. curve shapes -------------------------------------------------------------

def test_criterion_08_curve_shapes(standard_dataset):
    ds = standard_dataset
    cset = generate_centers(10, 32, seed=42)
    run = train(ds, cset, TrainConfig(epochs=100, seed=42, eval_every=100))
    ri, rt, rl = ds.subset(ds.retrieval_mask)
    qi, qt, ql = ds.subset(ds.query_mask)
    index = RetrievalIndex.from_signs(encode(run.params, ri, rt), rl)
    q_codes = encode(run.params, qi, qt)
    big_r = index.size
    recall_ok, map_ok, nq = 0, 0, q_codes.shape[0]
    for i in range(nq):
        res = index.query_topk(q_codes[i], big_r)
        rel = ((rl[res.ids] @ ql[i].astype(np.int64)) > 0).astype(float)
        cum = np.cumsum(rel)
        recall = cum / cum[-1]
        recall_ok += bool((np.diff(recall) >= 0).all() and recall[-1] == 1.0)
        prec = cum / np.arange(1, big_r + 1)
        # running-normalised AP@k: mean precision over relevant ranks <= k
        ap = np.where(cum > 0, np.cumsum(prec * rel) / np.maximum(cum, 1), 0.0)
        first = int(np.argmax(rel > 0))
        map_ok += bool((np.diff(ap[first:]) <= 1e-12).all())
    ok = recall_ok == nq and map_ok >= 0.9 * nq
    verdict(8, ok, f"recall monotone & hits 1.0 at k=R on {recall_ok}/{nq} queries; "
                   f"AP@k non-increasing past first hit on {map_ok}/{nq} (need >=90%)")


# ---- 9. scan performance ----------------------------------------------------------

def test_criterion_09_scan_performance():
    rng = np.random.default_rng(9)
    codes = rng.choice((-1, 1), size=(1_000_000, 128)).astype(np.int8)
    labels = np.ones((1_000_000, 1), dtype=np.uint8)
    index = RetrievalIndex(pack_codes(codes), labels, 128)
    query = codes[12345]
    index.query_topk(query, 100)  # warm-up
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        index.query_topk(query, 100)
        times.append(time.perf_counter() - t0)
    best = min(times) * 1000
    ok = best < 250.0
    verdict(9, ok, f"top-100 over 1M 128-bit codes: best of 5 = {best:.1f} ms (<250 ms)")


# ---- 10. manifest-driven determinism ------------------------------------------------

def _replay(manifest_path, src, dst):
    """Rebuild a subcommand's argv from its manifest, re-rooted under dst."""
    m = json.loads(Path(manifest_path).read_text())
    sub, cfg = m["subcommand"], m["config"]
    swap = lambda p: p.replace(str(src), str(dst))
    if sub == "synth":
        out_dir = Path(swap(m["outputs"]["image_features"])).parent
        return ["synth", "--classes", str(cfg["classes"]),
                "--per-class", str(cfg["per_class"]),
                "--d-img", str(cfg["d_img"]), "--d-txt", str(cfg["d_txt"]),
                "--sigma", str(cfg["sigma"]),
                "--consistency", str(cfg["consistency"]),
                "--proto-scale", str(cfg["proto_scale"]),
                "--seed", str(m["seed"]), "--out-dir", str(out_dir)]
    if sub == "centers":
        return ["centers", "--classes", str(cfg["classes"]),
                "--bits", str(cfg["bits"]), "--seed", str(m["seed"]),
                "--out", swap(m["outputs"]["centers"])]
    if sub == "train":
        argv = ["train"]
        for key, flag in (("image_features", "--image-features"),
                          ("text_features", "--text-features"),
                          ("labels", "--labels"), ("splits", "--splits"),
                          ("centers", "--centers")):
            argv += [flag, swap(m["inputs"][key])]
        argv += ["--out", swap(m["outputs"]["checkpoint"]),
                 "--epochs", str(cfg["epochs"]),
                 "--batch-size", str(cfg["batch_size"]),
                 "--learning-rate", str(cfg["learning_rate"]),
                 "--beta1", str(cfg["adam_betas"][0]),
                 "--beta2", str(cfg["adam_betas"][1]),
                 "--adam-epsilon", str(cfg["adam_epsilon"]),
                 "--lam", str(cfg["lambda"]),
                 "--dropout", str(cfg["dropout_p"]),
                 "--hidden-dim", str(cfg["hidden_dim"]),
                 "--eval-every", str(cfg["eval_every"]),
                 "--seed", str(m["seed"])]
        return argv
    if sub == "encode":
        return ["encode", "--checkpoint", swap(m["inputs"]["checkpoint"]),
                "--image-features", swap(m["inputs"]["image_features"]),
                "--text-features", swap(m["inputs"]["text_features"]),
                "--labels", swap(m["inputs"]["labels"]),
                "--splits", swap(m["inputs"]["splits"]),
                "--split", cfg["split"],
                "--out", swap(m["outputs"]["codes"])]
    if sub == "eval":
        return ["eval", "--codes", swap(m["inputs"]["codes"]),
                "--queries", swap(m["inputs"]["queries"]),
                "--out", swap(m["outputs"]["metrics"])]
    raise AssertionError(f"no replay rule for {sub}")


def test_criterion_10_determinism(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    data = run_a / "data"
    assert cli.run(["synth", "--classes", "4", "--per-class", "30",
                    "--d-img", "8", "--d-txt", "8", "--sigma", "0.2",
                    "--consistency", "0.9", "--proto-scale", "1.0",
                    "--seed", "7", "--out-dir", str(data)]) == 0
    assert cli.run(["centers", "--classes", "4", "--bits", "8",
                    "--seed", "7", "--out", str(run_a / "centers.cshc")]) == 0
    assert cli.run(["train",
                    "--image-features", str(data / "image_features.csft"),
                    "--text-features", str(data / "text_features.csft"),
                    "--labels", str(data / "labels.cslb"),
                    "--splits", str(data / "splits.json"),
                    "--centers", str(run_a / "centers.cshc"),
                    "--out", str(run_a / "model.csmv"),
                    "--epochs", "10", "--hidden-dim", "8", "--seed", "7",
                    "--eval-every", "5"]) == 0
    for split in ("retrieval", "query"):
        assert cli.run(["encode", "--checkpoint", str(run_a / "model.csmv"),
                        "--image-features", str(data / "image_features.csft"),
                        "--text-features", str(data / "text_features.csft"),
                        "--labels", str(data / "labels.cslb"),
                        "--splits", str(data / "splits.json"),
                        "--split", split,
                        "--out", str(run_a / f"{split}.cscd")]) == 0
    assert cli.run(["eval", "--codes", str(run_a / "retrieval.cscd"),
                    "--queries", str(run_a / "query.cscd"),
                    "--out", str(run_a / "metrics.csv")]) == 0

    manifests = [
        data / "image_features.csft.manifest.json",
        run_a / "centers.cshc.manifest.json",
        run_a / "model.csmv.manifest.json",
        run_a / "retrieval.cscd.manifest.json",
        run_a / "query.cscd.manifest.json",
        run_a / "metrics.csv.manifest.json",
    ]
    outputs = []
    for mpath in manifests:
        argv = _replay(mpath, run_a, run_b)
        assert cli.run(argv) == 0
        m = json.loads(mpath.read_text())
        outputs.extend(m["outputs"].values())
        if m["subcommand"] == "train":  # the checkpoint's JSON sidecar records the config
            outputs.append(m["outputs"]["checkpoint"] + ".json")

    diffs = []
    for out in outputs:
        a_bytes = Path(out).read_bytes()
        b_bytes = Path(out.replace(str(run_a), str(run_b))).read_bytes()
        if a_bytes != b_bytes:
            diffs.append(Path(out).name)
    ok = not diffs
    verdict(10, ok, f"{len(outputs)} pipeline outputs bit-identical after "
                    f"manifest replay" if ok else f"differing files: {diffs}")
