"""Command-line pipeline: centers, synth, train, encode, index, query, eval, curves.

Every subcommand writes a RunManifest JSON next to its first output so a run
can be reproduced bit-exactly: resolved config, input/output paths, seed, and
sha256 checksums of the outputs. Exit codes: 0 success, 1 pipeline failure,
2 usage error.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, centers as centers_mod, formats, retrieval, trainer
from .data import MultiViewDataset, SynthSpec, make_synthetic
from .errors import FormatError, InvalidArgument
from .net import FUSION_MODES

SEED_ENV = "MVHASH_SEED"


def _default_seed():
    return int(os.environ.get(SEED_ENV, "0"))


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_manifest(anchor_path, subcommand, config, inputs, outputs, seed):
    manifest = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "seed": seed,
        "checksums": {str(p): _sha256(p) for p in outputs.values()},
    }
    path = Path(str(anchor_path) + ".manifest.json")
    formats._atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return path


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [
        ",".join(f"{x:.6f}" if isinstance(x, float) else str(x) for x in row) for row in rows
    ]
    formats._atomic_write(path, "".join(line + "\n" for line in lines).encode())


# ---- subcommand implementations ----

def cmd_centers(args):
    cset = centers_mod.generate_centers(args.classes, args.bits, args.seed)
    formats.save_centers(cset, args.out)
    _write_manifest(
        args.out, "centers",
        {"classes": args.classes, "bits": args.bits},
        {}, {"centers": args.out}, args.seed,
    )
    mind = centers_mod.min_pairwise_distance(cset) if args.classes >= 2 else args.bits
    print(f"wrote {args.out}: V={cset.num_classes} K={cset.code_length} "
          f"method={cset.method} min_pairwise_distance={mind} "
          f"mean_pairwise_inner={cset.mean_pairwise_inner() if args.classes >= 2 else 0.0:.4f}")
    return 0


def cmd_synth(args):
    spec = SynthSpec(
        num_classes=args.classes,
        samples_per_class=args.per_class,
        d_img=args.d_img,
        d_txt=args.d_txt,
        cluster_spread=args.sigma,
        cross_view_consistency=args.consistency,
        seed=args.seed,
        prototype_scale=args.proto_scale,
    )
    ds = make_synthetic(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "image_features": out / "image_features.csft",
        "text_features": out / "text_features.csft",
        "labels": out / "labels.cslb",
        "splits": out / "splits.json",
    }
    formats.save_features(ds.image_features, paths["image_features"])
    formats.save_features(ds.text_features, paths["text_features"])
    formats.save_labels(ds.labels, paths["labels"])
    splits = {
        "train": np.flatnonzero(ds.train_mask).tolist(),
        "retrieval": np.flatnonzero(ds.retrieval_mask).tolist(),
        "query": np.flatnonzero(ds.query_mask).tolist(),
    }
    formats._atomic_write(paths["splits"], (json.dumps(splits) + "\n").encode())
    _write_manifest(
        paths["image_features"], "synth",
        {"classes": args.classes, "per_class": args.per_class,
         "d_img": args.d_img, "d_txt": args.d_txt,
         "sigma": args.sigma, "consistency": args.consistency,
         "proto_scale": args.proto_scale},
        {}, paths, args.seed,
    )
    print(f"wrote synthetic dataset ({len(ds)} samples) to {out}")
    return 0


def _load_splits(path, n, names):
    """Index arrays of the named splits; each must hold distinct integers in [0, n)."""
    splits = json.loads(Path(path).read_text())
    out = {}
    for name in names:
        idx = splits.get(name) if isinstance(splits, dict) else None
        if not isinstance(idx, list):
            raise FormatError(f"{path}: split {name!r} is missing or not a list")
        seen = set()
        for i in idx:
            if type(i) is not int or not 0 <= i < n:
                raise FormatError(f"{path}: split {name!r} has index {i!r}, "
                                  f"not an integer in [0, {n})")
            if i in seen:
                raise FormatError(f"{path}: split {name!r} repeats index {i}")
            seen.add(i)
        out[name] = np.asarray(idx, dtype=np.int64)
    return out


def _load_dataset(args):
    img = formats.load_features(args.image_features)
    txt = formats.load_features(args.text_features)
    labels = formats.load_labels(args.labels)
    n = img.shape[0]
    masks = {}
    for name, idx in _load_splits(args.splits, n, ("train", "retrieval", "query")).items():
        masks[name] = np.zeros(n, dtype=bool)
        masks[name][idx] = True
    return MultiViewDataset(
        image_features=img, text_features=txt, labels=labels,
        train_mask=masks["train"], retrieval_mask=masks["retrieval"],
        query_mask=masks["query"],
    )


def ablation_config(args, config: trainer.TrainConfig) -> trainer.TrainConfig:
    """Map the mutually exclusive ablation flags onto a TrainConfig."""
    if args.central_only:
        config.loss_mode = "central"
    elif args.quant_only:
        config.loss_mode = "quant"
    elif args.image_only:
        config.fusion = "image"
    elif args.text_only:
        config.fusion = "text"
    elif args.concat_fusion:
        config.fusion = "concat"
    return config


def cmd_train(args):
    dataset = _load_dataset(args)
    cset = formats.load_centers(args.centers)
    config = trainer.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        adam_betas=(args.beta1, args.beta2),
        adam_epsilon=args.adam_epsilon,
        lam=args.lam,
        dropout_p=args.dropout,
        seed=args.seed,
        eval_every=args.eval_every,
    )
    config = ablation_config(args, config)
    report = trainer.train(
        dataset, cset, config, dims_hidden=args.hidden_dim, log_csv_path=args.log_csv
    )
    sidecar = {
        "fusion": config.fusion,
        "loss_mode": config.loss_mode,
        "train_config": {
            "epochs": config.epochs, "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "adam_betas": list(config.adam_betas),
            "adam_epsilon": config.adam_epsilon, "lambda": config.lam,
            "dropout_p": config.dropout_p, "seed": config.seed,
            "eval_every": config.eval_every,
        },
    }
    formats.save_checkpoint(report.params, args.out, sidecar=sidecar)
    outputs = {"checkpoint": args.out}
    if args.log_csv:
        outputs["log_csv"] = args.log_csv
    _write_manifest(args.out, "train", sidecar["train_config"] | {
        "fusion": config.fusion, "loss_mode": config.loss_mode,
        "hidden_dim": args.hidden_dim,
    }, {
        "image_features": args.image_features, "text_features": args.text_features,
        "labels": args.labels, "splits": args.splits, "centers": args.centers,
    }, outputs, args.seed)
    first, last = report.epoch_losses[0].l_total, report.epoch_losses[-1].l_total
    line = f"trained {config.epochs} epochs: loss {first:.4f} -> {last:.4f}"
    if report.final_map is not None:
        line += f", test mAP {report.final_map:.4f}"
    print(line)
    return 0


def cmd_encode(args):
    if args.split and not args.splits:
        raise InvalidArgument("--split needs --splits")
    params = formats.load_checkpoint(args.checkpoint)
    side = json.loads(Path(str(args.checkpoint) + ".json").read_text())
    fusion = side.get("fusion", "gmu")
    img = formats.load_features(args.image_features, expected_dim=params.dims.d_img)
    txt = formats.load_features(args.text_features, expected_dim=params.dims.d_txt)
    labels = formats.load_labels(args.labels)
    if args.split:
        take = _load_splits(args.splits, img.shape[0], (args.split,))[args.split]
        img, txt, labels = img[take], txt[take], labels[take]
    codes = trainer.encode(params, img, txt, fusion=fusion)
    formats.save_codes(retrieval.pack_codes(codes), labels, params.dims.code_length, args.out)
    inputs = {
        "checkpoint": args.checkpoint, "image_features": args.image_features,
        "text_features": args.text_features, "labels": args.labels,
    }
    if args.splits:
        inputs["splits"] = args.splits
    _write_manifest(args.out, "encode", {"split": args.split, "fusion": fusion}, inputs,
                    {"codes": args.out}, None)
    print(f"encoded {codes.shape[0]} samples at K={params.dims.code_length} -> {args.out}")
    return 0


def _load_index(path):
    packed, labels, k = formats.load_codes(path)
    return retrieval.RetrievalIndex(packed, labels, k)


def _load_index_and_queries(args):
    """The --codes index and the --queries file as (index, +-1 codes, labels)."""
    index = _load_index(args.codes)
    q_packed, q_labels, qk = formats.load_codes(args.queries)
    if qk != index.code_length:
        raise InvalidArgument(f"query K={qk} != index K={index.code_length}")
    return index, retrieval.unpack_codes(q_packed, qk), q_labels


def cmd_index(args):
    index = _load_index(args.codes)
    counts = index.labels.sum(axis=0)
    print(f"{args.codes}: R={index.size} K={index.code_length} "
          f"classes={index.labels.shape[1]} "
          f"label_counts=[{counts.min()}..{counts.max()}]")
    return 0


def cmd_query(args):
    index, q_codes, q_labels = _load_index_and_queries(args)
    rows = []
    for qid, code in enumerate(q_codes):
        result = index.query_topk(code, args.k)
        for rank, (item, dist) in enumerate(zip(result.ids, result.distances), 1):
            rows.append((qid, rank, int(item), int(dist)))
    _write_csv(args.out, ["query_id", "rank", "item_id", "hamming_distance"], rows)
    _write_manifest(args.out, "query", {"k": args.k},
                    {"codes": args.codes, "queries": args.queries},
                    {"results": args.out}, None)
    print(f"wrote top-{args.k} results for {q_codes.shape[0]} queries -> {args.out}")
    return 0


def cmd_eval(args):
    index, q_codes, q_labels = _load_index_and_queries(args)
    r_cap = args.r_cap or index.size
    value = retrieval.mean_average_precision(q_codes, q_labels, index, r_cap)
    _write_csv(args.out, ["num_queries", "retrieval_size", "code_length", "r_cap", "map"],
               [(q_codes.shape[0], index.size, index.code_length, r_cap, value)])
    _write_manifest(args.out, "eval", {"r_cap": r_cap},
                    {"codes": args.codes, "queries": args.queries},
                    {"metrics": args.out}, None)
    print(f"mAP = {value:.6f} (Q={q_codes.shape[0]}, R={index.size}, K={index.code_length})")
    return 0


def cmd_curves(args):
    index, q_codes, q_labels = _load_index_and_queries(args)
    k_grid = sorted(set(args.k_grid))
    rows = retrieval.curves(q_codes, q_labels, index, k_grid)
    _write_csv(args.out, ["k", "map_at_k", "recall_at_k"], rows)
    _write_manifest(args.out, "curves", {"k_grid": k_grid},
                    {"codes": args.codes, "queries": args.queries},
                    {"curves": args.out}, None)
    print(f"wrote {len(rows)} curve points -> {args.out}")
    return 0


# ---- argument parsing ----

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvhash",
        description="Multi-view hashing pipeline: centers, training, encoding, "
                    "Hamming retrieval, and evaluation.",
    )
    p.add_argument("--version", action="version", version=f"mvhash {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("centers", help="generate hash centers (CSHC file)")
    c.add_argument("--classes", type=int, required=True)
    c.add_argument("--bits", type=int, required=True)
    c.add_argument("--seed", type=int, default=_default_seed())
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_centers)

    s = sub.add_parser("synth", help="generate a synthetic two-view dataset")
    s.add_argument("--classes", type=int, default=10)
    s.add_argument("--per-class", type=int, default=100)
    s.add_argument("--d-img", type=int, default=64)
    s.add_argument("--d-txt", type=int, default=64)
    s.add_argument("--sigma", type=float, default=0.3)
    s.add_argument("--consistency", type=float, default=0.9)
    s.add_argument("--proto-scale", type=float, default=0.16)
    s.add_argument("--seed", type=int, default=_default_seed())
    s.add_argument("--out-dir", required=True)
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="train the fusion head (CSMV checkpoint)")
    t.add_argument("--image-features", required=True)
    t.add_argument("--text-features", required=True)
    t.add_argument("--labels", required=True)
    t.add_argument("--splits", required=True)
    t.add_argument("--centers", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--log-csv")
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--learning-rate", type=float, default=1e-3)
    t.add_argument("--beta1", type=float, default=0.9)
    t.add_argument("--beta2", type=float, default=0.999)
    t.add_argument("--adam-epsilon", type=float, default=1e-8)
    t.add_argument("--lam", type=float, default=0.25)
    t.add_argument("--dropout", type=float, default=0.1)
    t.add_argument("--hidden-dim", type=int, default=84)
    t.add_argument("--eval-every", type=int, default=0)
    t.add_argument("--seed", type=int, default=_default_seed())
    ab = t.add_mutually_exclusive_group()
    ab.add_argument("--central-only", action="store_true",
                    help="drop the quantization loss (lambda = 0)")
    ab.add_argument("--quant-only", action="store_true",
                    help="drop the central-similarity loss")
    ab.add_argument("--image-only", action="store_true",
                    help="force the fusion gate to 1 (image view only)")
    ab.add_argument("--text-only", action="store_true",
                    help="force the fusion gate to 0 (text view only)")
    ab.add_argument("--concat-fusion", action="store_true",
                    help="replace gated fusion with concatenation + linear map")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("encode", help="binarize a dataset with a checkpoint (CSCD file)")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--image-features", required=True)
    e.add_argument("--text-features", required=True)
    e.add_argument("--labels", required=True)
    e.add_argument("--splits", help="splits.json to subset by --split")
    e.add_argument("--split", choices=["train", "retrieval", "query"])
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_encode)

    i = sub.add_parser("index", help="inspect a CSCD code file")
    i.add_argument("--codes", required=True)
    i.set_defaults(func=cmd_index)

    q = sub.add_parser("query", help="top-k Hamming search, CSV output")
    q.add_argument("--codes", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_query)

    ev = sub.add_parser("eval", help="mAP of a query set against an index, CSV output")
    ev.add_argument("--codes", required=True)
    ev.add_argument("--queries", required=True)
    ev.add_argument("--r-cap", type=int, default=0, help="AP rank cap (0 = full R)")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    cv = sub.add_parser("curves", help="mAP@k / Recall@k over a k grid, CSV output")
    cv.add_argument("--codes", required=True)
    cv.add_argument("--queries", required=True)
    cv.add_argument("--k-grid", type=int, nargs="+", required=True)
    cv.add_argument("--out", required=True)
    cv.set_defaults(func=cmd_curves)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # pipeline failure -> exit 1, module-tagged
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
