"""The four workloads. Each is a closed loop with one client: the next op
starts when the previous one has returned.

A workload builds its inputs from the seed in setup(), runs one op per
op() call and checks the op's outputs against the oracles in checks.py
outside the timed region. A failed check or an exception counts as a
failed op; it does not stop the run.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks

MAX_LOGGED_ERRORS = 10

# Runs `python -m mvhash.cli ARGV...`, then reports the process's own peak
# resident set (VmHWM; ru_maxrss would include the parent's, inherited at exec).
STAGE_LAUNCHER = """\
import runpy, sys
try:
    runpy.run_module("mvhash.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("perfbench-vmhwm-kib " + hwm + "\\n")
"""


def vm_hwm_kib():
    """Peak resident set of this process, from /proc/self/status (Linux)."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    name = ""
    min_ops = 1
    include_import = True   # setup_s counts the in-process mvhash import
    ops_in_process = True    # reference-kernel samples interrupt the op, not run beside it
    reference = None         # calib.Reference of an untraced run

    def __init__(self, mv, seed, workdir, tracer):
        self.mv = mv
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    # ---- accounting ----

    def outcome(self, what, problem):
        """Count one attempted op; problem is None when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_LOGGED_ERRORS:
                self.errors.append(f"{what}: {problem}")
                print(f"[{self.name}] FAILED {what}: {problem}", file=sys.stderr)

    def _stolen(self):
        """Seconds of reference-kernel samples that interrupted this process's ops."""
        return self.reference.stolen if self.reference and self.ops_in_process else 0.0

    def call(self, what, fn, *args, **kwargs):
        """Run one program call; returns (result, seconds, problem)."""
        stolen = self._stolen()
        t0 = time.perf_counter()
        problem = result = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed op is counted, not fatal
            tb = traceback.format_exc(limit=3).strip().splitlines()[-1]
            problem = f"{type(exc).__name__}: {exc} ({tb})"
        dt = time.perf_counter() - t0 - (self._stolen() - stolen)
        return result, dt, problem

    # ---- interface ----

    def release(self):
        """Drop the inputs of a previous setup() before building new ones."""

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        pass

    def op(self, i):
        """Run op i; returns its latency in seconds."""
        raise NotImplementedError

    def counts(self):
        """Exact per-layer counts computed by the bench."""
        return {}

    def detail(self, latencies):
        """Workload-specific metrics: name -> (value, unit, samples)."""
        return {}

    def peak_rss_kib(self):
        return vm_hwm_kib()


class Scan(Workload):
    """Top-100 over 1M random 128-bit codes, one query at a time."""

    name = "scan"
    N, K, V, TOPK, POOL, CHECKED = 1_000_000, 128, 10, 100, 512, 20
    min_ops = CHECKED

    def release(self):
        self.index = self.packed = None

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.packed = rng.integers(0, 256, size=(self.N, self.K // 8), dtype=np.uint8)
        labels = np.zeros((self.N, self.V), dtype=np.uint8)
        labels[np.arange(self.N), rng.integers(0, self.V, size=self.N)] = 1
        self.queries = np.where(rng.random((self.POOL, self.K)) < 0.5, 1, -1).astype(np.int8)
        self.q_packed = checks.pack_signs(self.queries)
        self.index = self.mv.retrieval.RetrievalIndex(self.packed, labels, self.K)

    def warmup(self):
        self.index.query_topk(self.queries[-1], self.TOPK)

    def op(self, i):
        j = i % self.POOL
        res, dt, problem = self.call("query_topk", self.index.query_topk,
                                     self.queries[j], self.TOPK)
        if problem is None and (i < self.CHECKED or i % 10 == 0):
            dist = checks.oracle_distances(self.packed, self.q_packed[j])
            problem = checks.check_topk(res.ids, res.distances, dist, self.TOPK)
        self.outcome(f"query {i}", problem)
        return dt

    def counts(self):
        return {"retrieval.bytes_scanned_per_query": self.N * 8 * -(-self.K // 64),
                "retrieval.candidates_per_k": checks.candidates_per_k(
                    self.packed, self.q_packed[:self.CHECKED], self.TOPK)}



class EvalMultilabel(Workload):
    """Full-R mAP and curves over 100k multi-label codes near class centers."""

    name = "eval-multilabel"
    R, K, V, Q_MAP, Q_CURVES, FLIP = 100_000, 64, 24, 300, 100, 0.15
    K_GRID = [1, 5, 10, 25, 50, 100, 200]
    MAP_PER_ROUND = 3
    min_ops = 10

    def release(self):
        self.index = self.r_packed = None

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        centers = self.mv.centers.generate_centers(self.V, self.K, self.seed).centers
        n = self.R + self.Q_MAP + self.Q_CURVES
        # 1-3 distinct active labels per row; the code is one active class's
        # center with ~15% of its bits flipped
        slot = rng.random((n, self.V)).argsort(axis=1).argsort(axis=1)
        labels = (slot < rng.integers(1, 4, size=n)[:, None]).astype(np.uint8)
        base = centers[slot.argmin(axis=1)]
        codes = np.where(rng.random((n, self.K)) < self.FLIP, -base, base).astype(np.int8)
        self.r_labels = labels[:self.R]
        self.r_packed = checks.pack_signs(codes[:self.R])
        q = slice(self.R, self.R + self.Q_MAP)
        c = slice(self.R + self.Q_MAP, n)
        self.map_q, self.map_l = codes[q], labels[q]
        self.curve_q, self.curve_l = codes[c], labels[c]
        self.index = self.mv.retrieval.RetrievalIndex.from_signs(codes[:self.R], self.r_labels)
        self.aps = {}
        self.curve_rows = {}
        self.map_times, self.curve_times = [], []

    def warmup(self):
        r = self.mv.retrieval
        r.mean_average_precision(self.map_q[-1:], self.map_l[-1:], self.index)
        r.curves(self.curve_q[-1:], self.curve_l[-1:], self.index, self.K_GRID)

    def ranked_relevance(self, code, label):
        dist = checks.oracle_distances(self.r_packed, checks.pack_signs(code))
        rel = checks.relevance_mask(self.r_labels, label)
        return rel[checks.oracle_order(dist)], int(rel.sum())

    def op(self, i):
        r = self.mv.retrieval
        check = i % 3 == 0
        latency = 0.0
        for t in range(self.MAP_PER_ROUND):
            j = (self.MAP_PER_ROUND * i + t) % self.Q_MAP
            ap, dt, problem = self.call("mean_average_precision", r.mean_average_precision,
                                        self.map_q[j:j + 1], self.map_l[j:j + 1], self.index)
            latency += dt
            self.map_times.append(dt)
            if problem is None and j in self.aps:
                problem = checks.check_same(f"AP of query {j}", ap, self.aps[j])
            elif problem is None:
                self.aps[j] = ap
                if check and t == 0:
                    problem = checks.check_ap(ap, *self.ranked_relevance(
                        self.map_q[j], self.map_l[j]))
            self.outcome(f"mAP query {j}", problem)
        j = i % self.Q_CURVES
        rows, dt, problem = self.call("curves", r.curves, self.curve_q[j:j + 1],
                                      self.curve_l[j:j + 1], self.index, self.K_GRID)
        latency += dt
        self.curve_times.append(dt)
        if problem is None and j in self.curve_rows:
            problem = checks.check_same(f"curves of query {j}", rows, self.curve_rows[j])
        elif problem is None:
            self.curve_rows[j] = rows
            if check:
                problem = checks.check_curve_rows(rows, *self.ranked_relevance(
                    self.curve_q[j], self.curve_l[j]), self.K_GRID)
        self.outcome(f"curves query {j}", problem)
        return latency

    def full_map(self):
        """mAP over all Q_MAP queries, once every query has been run."""
        if len(self.aps) < self.Q_MAP:
            return None
        return float(np.mean([self.aps[j] for j in range(self.Q_MAP)]))

    def counts(self):
        return {"retrieval.bytes_scanned_per_query": self.R * 8 * -(-self.K // 64),
                "retrieval.candidates_per_k": checks.candidates_per_k(
                    self.r_packed, checks.pack_signs(self.curve_q[:20]), max(self.K_GRID))}

    def detail(self, latencies):
        out = {"map_qps": (len(self.map_times) / sum(self.map_times), "queries/s",
                           len(self.map_times)),
               "curves_qps": (len(self.curve_times) / sum(self.curve_times), "queries/s",
                              len(self.curve_times))}
        full = self.full_map()
        if full is not None:
            out["full_map"] = (full, "mAP", self.Q_MAP)
            out["full_map_hex"] = (full.hex(), "float64", self.Q_MAP)
        return out


class TrainMultilabel(Workload):
    """20x the acceptance STANDARD dataset, half the rows two-class mixtures;
    train with one evaluate_map at the last epoch, then encode 100k rows."""

    name = "train-multilabel"
    CLASSES, PER_CLASS, DIM, K, HIDDEN, EPOCHS = 20, 1000, 64, 64, 84, 10
    ENCODE_ROWS = 100_000
    MAP_FLOOR = 0.5
    min_ops = 3   # about 30 s: fewer ops spread more from run to run

    def release(self):
        self.dataset = self.enc_img = self.enc_txt = None

    def setup(self):
        mv = self.mv
        spec = mv.data.SynthSpec(
            num_classes=self.CLASSES, samples_per_class=self.PER_CLASS,
            d_img=self.DIM, d_txt=self.DIM, cluster_spread=0.3,
            cross_view_consistency=0.9, seed=self.seed)
        ds = mv.data.make_synthetic(spec)
        rng = np.random.default_rng([self.seed, 3])
        n = len(ds)
        cls = ds.labels.argmax(axis=1)
        rows = rng.permutation(n)[:n // 2]
        # a partner of another class: shift the class by 1..V-1, pick a member
        other = (cls[rows] + rng.integers(1, self.CLASSES, size=rows.size)) % self.CLASSES
        partner = other * self.PER_CLASS + rng.integers(0, self.PER_CLASS, size=rows.size)
        img, txt, labels = (a.copy() for a in (ds.image_features, ds.text_features, ds.labels))
        img[rows] = (ds.image_features[rows] + ds.image_features[partner]) / 2
        txt[rows] = (ds.text_features[rows] + ds.text_features[partner]) / 2
        labels[rows] = ds.labels[rows] | ds.labels[partner]
        self.dataset = mv.data.MultiViewDataset(
            image_features=img, text_features=txt, labels=labels,
            train_mask=ds.train_mask, retrieval_mask=ds.retrieval_mask,
            query_mask=ds.query_mask)
        self.centers = mv.centers.generate_centers(self.CLASSES, self.K, self.seed)
        reps = -(-self.ENCODE_ROWS // n)
        self.enc_img = np.tile(img, (reps, 1))[:self.ENCODE_ROWS]
        self.enc_txt = np.tile(txt, (reps, 1))[:self.ENCODE_ROWS]
        self.config = mv.trainer.TrainConfig(
            epochs=self.EPOCHS, batch_size=64, dropout_p=0.1, seed=self.seed,
            eval_every=self.EPOCHS)
        self.first = None
        self.train_times, self.encode_times, self.maps = [], [], []

    def op(self, i):
        mv = self.mv
        ckpt = self.workdir / "model.csmv"
        report, t_train, problem = self.call("train", mv.trainer.train, self.dataset,
                                             self.centers, self.config, dims_hidden=self.HIDDEN)
        latency = t_train
        if problem is None:
            _, t_save, problem = self.call("save_checkpoint", mv.formats.save_checkpoint,
                                           report.params, ckpt)
            latency += t_save
        if problem is None:
            codes, t_enc, problem = self.call("encode", mv.trainer.encode, report.params,
                                              self.enc_img, self.enc_txt)
            latency += t_enc
        if problem is None:
            self.train_times.append(t_train)
            self.encode_times.append(t_enc)
            self.maps.append(report.final_map)
            with self.tracer.pause():
                problem = self.check(report, ckpt, codes)
        self.outcome(f"training run {i}", problem)
        return latency

    def check(self, report, ckpt, codes):
        got = {"test_map": report.final_map, "checkpoint sha256": sha256_file(ckpt),
               "encoded codes sha256": hashlib.sha256(codes.tobytes()).hexdigest()}
        if self.first is not None:
            for key, value in got.items():
                problem = checks.check_same(key, value, self.first[key])
                if problem:
                    return problem
            return None
        self.first = got
        if not report.final_map >= self.MAP_FLOOR:
            return f"test_map {report.final_map} below the floor {self.MAP_FLOOR}"
        ds, enc = self.dataset, self.mv.trainer.encode
        ri, rt, rl = ds.subset(ds.retrieval_mask)
        qi, qt, ql = ds.subset(ds.query_mask)
        want = checks.oracle_map(enc(report.params, qi, qt), ql, enc(report.params, ri, rt), rl)
        if not checks.close(report.final_map, want, rel=1e-9):
            return f"test_map {report.final_map!r} != oracle mAP {want!r}"
        return None

    def counts(self):
        ds = self.dataset
        return {"retrieval.bytes_scanned_per_query":
                int(ds.retrieval_mask.sum()) * 8 * -(-self.K // 64),
                "centers.tied_bits": checks.tied_bits(ds.labels[ds.train_mask],
                                                      self.centers.centers)}

    def detail(self, latencies):
        n_train = int(self.dataset.train_mask.sum())
        out = {}
        if self.train_times:
            out["train_samples_per_s"] = (
                n_train * self.EPOCHS / float(np.median(self.train_times)), "samples/s",
                len(self.train_times))
            out["encode_rows_per_s"] = (
                self.ENCODE_ROWS / float(np.median(self.encode_times)), "rows/s",
                len(self.encode_times))
            out["test_map"] = (self.maps[0], "mAP", len(self.maps))
            out["test_map_hex"] = (self.maps[0].hex(), "float64", len(self.maps))
            out["checkpoint_sha256"] = (self.first["checkpoint sha256"], "sha256",
                                        len(self.maps))
        return out


class CliWalkthrough(Workload):
    """The README walkthrough at the acceptance STANDARD size, one
    `python -m mvhash.cli` process per stage (in-process when traced)."""

    name = "cli-walkthrough"
    include_import = False   # each stage imports mvhash in its own process
    ops_in_process = False   # untraced, each stage is a child process; the
                             # reference kernel runs between stages
    min_ops = 2
    K_GRID = ["1", "5", "10", "25", "50", "100", "200"]
    # stage -> manifest written next to its first output (index writes none)
    MANIFESTS = {
        "synth": "data/image_features.csft", "centers": "centers.cshc",
        "train": "model.csmv", "encode_retrieval": "retrieval.cscd",
        "encode_query": "query.cscd", "query": "top10.csv", "eval": "metrics.csv",
        "curves": "curves.csv",
    }

    def __init__(self, *args, in_process=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.in_process = in_process
        self.first = {}
        self.stage_times = {}
        self.startup = []
        self.last_dir = None
        self.stage_hwm_kib = 0

    def env(self):
        env = dict(os.environ)
        env.pop("MVHASH_SEED", None)
        src = str(Path(self.mv.cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return env

    def process(self, argv, cwd):
        """Run `python -m mvhash.cli argv` in cwd; returns the exit code."""
        done = subprocess.run([sys.executable, "-c", STAGE_LAUNCHER, *argv], cwd=cwd,
                              env=self.env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        err = done.stderr.splitlines()
        if err and err[-1].startswith("perfbench-vmhwm-kib "):
            self.stage_hwm_kib = max(self.stage_hwm_kib, int(err.pop().split()[1]))
        if done.returncode != 0:
            print("\n".join(err)[-500:], file=sys.stderr)
        return done.returncode

    def peak_rss_kib(self):
        return self.stage_hwm_kib

    def setup(self):
        t0 = time.perf_counter()
        code = self.process(["--version"], self.workdir)
        self.startup.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"`mvhash --version` exited {code}")

    def stages(self, d):
        """(stage, argv) pairs of the README walkthrough, writing under d."""
        s = str(self.seed)
        data = [f"--image-features={d}/data/image_features.csft",
                f"--text-features={d}/data/text_features.csft",
                f"--labels={d}/data/labels.cslb"]
        splits = f"--splits={d}/data/splits.json"
        codes = [f"--codes={d}/retrieval.cscd", f"--queries={d}/query.cscd"]
        return [
            ("synth", ["synth", "--classes", "10", "--per-class", "100", "--d-img", "64",
                       "--d-txt", "64", "--sigma", "0.3", "--consistency", "0.9",
                       "--seed", s, f"--out-dir={d}/data"]),
            ("centers", ["centers", "--classes", "10", "--bits", "16", "--seed", s,
                         f"--out={d}/centers.cshc"]),
            ("train", ["train", *data, splits, f"--centers={d}/centers.cshc",
                       f"--out={d}/model.csmv", "--epochs", "100", "--seed", s,
                       f"--log-csv={d}/train_log.csv"]),
            ("encode_retrieval", ["encode", f"--checkpoint={d}/model.csmv", "--split",
                                  "retrieval", *data, splits, f"--out={d}/retrieval.cscd"]),
            ("encode_query", ["encode", f"--checkpoint={d}/model.csmv", "--split", "query",
                              *data, splits, f"--out={d}/query.cscd"]),
            ("index", ["index", codes[0]]),
            ("query", ["query", *codes, "--k", "10", f"--out={d}/top10.csv"]),
            ("eval", ["eval", *codes, f"--out={d}/metrics.csv"]),
            ("curves", ["curves", *codes, "--k-grid", *self.K_GRID, f"--out={d}/curves.csv"]),
        ]

    def run_stage(self, argv, pdir):
        if not self.in_process:
            return self.process(argv, pdir)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.mv.cli.run(argv)
        if code != 0:
            print(err.getvalue().strip()[-500:], file=sys.stderr)
        return code

    def op(self, i):
        pdir = self.workdir / f"pipeline-{i}"
        pdir.mkdir(parents=True, exist_ok=True)
        # relative paths in a subprocess (cwd = pdir), absolute ones in-process
        d = str(pdir) if self.in_process else "."
        latency = 0.0
        for stage, argv in self.stages(d):
            code, dt, problem = self.call(stage, self.run_stage, argv, pdir)
            latency += dt
            self.stage_times.setdefault(stage, []).append(dt)
            if problem is None:
                problem = checks.check_stage_exit(stage, code)
            if problem is None and stage in self.MANIFESTS:
                problem = self.check_manifest(stage, pdir / self.MANIFESTS[stage])
            self.outcome(f"pipeline {i} stage {stage}", problem)
            if self.reference:
                self.reference.sample()
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        self.last_dir = pdir
        return latency

    def check_manifest(self, stage, anchor):
        try:
            manifest = json.loads(Path(str(anchor) + ".manifest.json").read_text())
        except (OSError, ValueError) as exc:
            return f"stage {stage} manifest unreadable: {exc}"
        got = {Path(k).name: v for k, v in manifest["checksums"].items()}
        if stage not in self.first:
            self.first[stage] = got
            return None
        return checks.check_checksums(stage, got, self.first[stage])

    def counts(self):
        mv, d = self.mv, self.last_dir
        packed, r_labels, k = mv.formats.load_codes(d / "retrieval.cscd")
        q_packed, _, _ = mv.formats.load_codes(d / "query.cscd")
        splits = json.loads((d / "data" / "splits.json").read_text())
        labels = mv.formats.load_labels(d / "data" / "labels.cslb")[splits["train"]]
        centers = mv.formats.load_centers(d / "centers.cshc").centers
        return {"retrieval.bytes_scanned_per_query": packed.shape[0] * 8 * -(-k // 64),
                "retrieval.candidates_per_k": checks.candidates_per_k(packed, q_packed, 10),
                "centers.tied_bits": checks.tied_bits(labels, centers),
                "cli.startup_s": float(np.median(self.startup))}

    def detail(self, latencies):
        out = {"cli_pipeline_s": (float(np.median(latencies)), "s", len(latencies)),
               "cli.startup_s": (float(np.median(self.startup)), "s", len(self.startup))}
        for stage, times in self.stage_times.items():
            out[f"cli.{stage}_s"] = (float(np.median(times)), "s", len(times))
        return out


WORKLOADS = {w.name: w for w in (Scan, EvalMultilabel, TrainMultilabel, CliWalkthrough)}
