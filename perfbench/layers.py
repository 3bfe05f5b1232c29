"""Which mvhash calls the traced run wraps, and the per-layer metrics derived
from the spans. Layers are mvhash's modules.

Times are per call: `_ms` in milliseconds, `_s` in seconds. Self time is a
span's duration minus its child spans. A metric whose layer a workload does
not run reads 0.
"""

import os

import numpy as np

STAGES = ("synth", "centers", "train", "encode_retrieval", "encode_query",
          "index", "query", "eval", "curves")
FILE_KINDS = ("centers", "features", "labels", "codes", "checkpoint")

# (metric, span name, statistic); statistics: self or incl mean per call
SPAN_METRICS = [
    ("retrieval.distances_ms", "retrieval.distances", "self"),
    ("retrieval.select_ms", "retrieval.select", "self"),
    ("retrieval.rank_ms", "retrieval.rank", "self"),
    ("retrieval.index_build_s", "retrieval.index_build", "incl"),
    ("retrieval.relevance_ms", "retrieval.relevance", "incl"),
    ("retrieval.average_precision_ms", "retrieval.average_precision", "self"),
    ("net.check_finite_ms", "net.check_finite", "incl"),
    ("loss.total_loss_ms", "loss.total_loss", "incl"),
    ("trainer.adam_step_ms", "trainer.adam_step", "incl"),
    ("trainer.evaluate_map_s", "trainer.evaluate_map", "incl"),
    ("centers.semantic_centers_for_s", "centers.semantic_centers_for", "incl"),
    ("data.make_synthetic_s", "data.make_synthetic", "incl"),
] + [
    (f"formats.{op}_{kind}_ms", f"formats.{op}_{kind}", "incl")
    for kind in FILE_KINDS for op in ("save", "load")
] + [
    (f"cli.{stage}_s", f"cli.{stage}", "incl") for stage in STAGES
]

# metrics the workloads compute themselves (exact counts, or cli start-up)
BENCH_METRICS = ("retrieval.bytes_scanned_per_query", "retrieval.candidates_per_k",
                 "centers.tied_bits", "cli.startup_s")

PER_LAYER = (
    [m for m, _, _ in SPAN_METRICS]
    + ["net.forward_ms", "net.backward_ms", "trainer.epoch_s", "trainer.encode_s",
       "trainer.steps", "retrieval.relevance_calls_per_query"]
    + list(BENCH_METRICS)
    + [f"formats.{d}.{stage}" for stage in STAGES for d in ("bytes_written", "bytes_read")]
    + ["trace.overhead_op_p50_ms", "trace.overhead_op_p90_ms"]
)


def unit(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("formats.bytes") or metric.startswith("retrieval.bytes"):
        return "bytes"
    return "count"


def _query_topk_name(index, query_code, k):
    return "retrieval.rank" if k >= index.size else "retrieval.select"


def _cli_stage_name(argv):
    stage = argv[0]
    if stage == "encode":
        stage += "_" + argv[argv.index("--split") + 1]
    return "cli." + stage


def _file_bytes(direction, path_arg, sidecar=False):
    def hook(tracer, sid, result, *args, **kwargs):
        path = str(kwargs["path"] if "path" in kwargs else args[path_arg])
        size = os.path.getsize(path)
        if sidecar:
            size += os.path.getsize(path + ".json")
        tracer.counts[(direction, tracer.stage(sid))] += size
    return hook


def _epochs(tracer, sid, report, *args, **kwargs):
    tracer.epoch_seconds.extend(report.epoch_seconds)


def _curves_queries(tracer, sid, rows, query_codes, *args, **kwargs):
    tracer.counts["curves_queries"] += np.atleast_2d(query_codes).shape[0]


def targets(mv):
    """(owner, attribute, span name[, on_exit]) for every wrapped call."""
    r, f = mv.retrieval, mv.formats
    out = [
        (r.RetrievalIndex, "__init__", "retrieval.index_build"),
        (r.RetrievalIndex, "distances", "retrieval.distances"),
        (r.RetrievalIndex, "query_topk", _query_topk_name),
        (r, "relevance", "retrieval.relevance"),
        (r, "average_precision", "retrieval.average_precision"),
        (r, "mean_average_precision", "retrieval.mean_average_precision"),
        (r, "curves", "retrieval.curves", _curves_queries),
        (mv.net, "forward", "net.forward"),
        (mv.net, "backward", "net.backward"),
        (mv.net.ModelParams, "check_finite", "net.check_finite"),
        (mv.loss, "total_loss", "loss.total_loss"),
        (mv.trainer, "train", "trainer.train", _epochs),
        (mv.trainer, "adam_step", "trainer.adam_step"),
        (mv.trainer, "evaluate_map", "trainer.evaluate_map"),
        (mv.trainer, "encode", "trainer.encode"),
        # trainer binds semantic_centers_for at import, so wrap its name there
        (mv.trainer, "semantic_centers_for", "centers.semantic_centers_for"),
        (mv.data, "make_synthetic", "data.make_synthetic"),
        (mv.cli, "make_synthetic", "data.make_synthetic"),
        (mv.cli, "run", _cli_stage_name),
    ]
    save_path_arg = {"centers": 1, "features": 1, "labels": 1, "codes": 3, "checkpoint": 1}
    for kind in FILE_KINDS:
        out.append((f, f"save_{kind}", f"formats.save_{kind}",
                    _file_bytes("bytes_written", save_path_arg[kind], kind == "checkpoint")))
        out.append((f, f"load_{kind}", f"formats.load_{kind}", _file_bytes("bytes_read", 0)))
    return out


def per_layer(tracer, bench_counts, overhead):
    """All PER_LAYER metrics from one traced run."""
    by_name, by_parent = tracer.summary()
    scale = {"ms": 1e3, "s": 1.0}

    def mean(rows, col):
        calls = sum(row[0] for row in rows)
        return sum(row[col] for row in rows) / calls if calls else 0.0

    out = {}
    for metric, span, stat in SPAN_METRICS:
        rows = [by_name[span]] if span in by_name else []
        out[metric] = mean(rows, 2 if stat == "self" else 1) * scale[unit(metric)]
    # per training step: only the calls made by trainer.train
    for metric, span in (("net.forward_ms", "net.forward"), ("net.backward_ms", "net.backward")):
        rows = [v for (n, p), v in by_parent.items() if n == span and p == "trainer.train"]
        out[metric] = mean(rows, 2) * 1e3
    # encode as a caller sees it, not the calls inside evaluate_map
    rows = [v for (n, p), v in by_parent.items()
            if n == "trainer.encode" and p != "trainer.evaluate_map"]
    out["trainer.encode_s"] = mean(rows, 1)
    out["trainer.epoch_s"] = float(np.mean(tracer.epoch_seconds)) if tracer.epoch_seconds else 0.0
    trains = by_name["trainer.train"][0] if "trainer.train" in by_name else 0
    steps = by_name["trainer.adam_step"][0] if "trainer.adam_step" in by_name else 0
    out["trainer.steps"] = steps / trains if trains else 0
    queries = tracer.counts["curves_queries"]
    out["retrieval.relevance_calls_per_query"] = (
        tracer.under("retrieval.relevance", "retrieval.curves") / queries if queries else 0)
    for stage in STAGES:
        runs = by_name[f"cli.{stage}"][0] if f"cli.{stage}" in by_name else 0
        for d in ("bytes_written", "bytes_read"):
            total = tracer.counts[(d, f"cli.{stage}")]
            out[f"formats.{d}.{stage}"] = total / runs if runs else 0
    for metric in BENCH_METRICS:
        out[metric] = bench_counts.get(metric, 0)
    out["trace.overhead_op_p50_ms"], out["trace.overhead_op_p90_ms"] = overhead
    return {m: out[m] for m in PER_LAYER}
