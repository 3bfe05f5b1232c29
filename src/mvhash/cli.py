"""Command-line pipeline: centers, synth, train, encode, index, query, eval, curves.

Each subparser declares its file flags once: inputs, and outputs with the files they write.
Every subcommand but index writes a JSON manifest next to its first file: the resolved
command line (`argv`, every default spelled out), the file flags' values keyed by dest, and
the sha256 of every file it wrote, the checkpoint sidecar included. `mvhash <argv...>`
re-runs the stage bit-exactly. Exit codes: 0 success, 1 pipeline failure, 2 usage error.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, centers as centers_mod, formats, retrieval, trainer
from .data import SPLITS, MultiViewDataset, SynthSpec, make_synthetic
from .errors import FormatError, InvalidArgument, ShapeMismatch


def _argv(args):
    """The parsed arguments written back as a command line, defaults included."""
    argv = [args.subcommand]
    for action in args.parser._actions:
        flag, value = action.option_strings[:1], getattr(args, action.dest, None)
        if not flag or value is None:  # --help, or an optional left unset
            continue
        if action.nargs == 0:  # store_const: the flag whose const was chosen
            argv += flag if value == action.const else []
        elif isinstance(value, list):  # --k-grid
            argv += [*flag, *map(str, value)]
        else:  # one token, so a value that begins with "-" parses back
            argv.append(f"{flag[0]}={value}")
    return argv


def _file(parser, flag, role, writes=lambda value: [value], **kwargs):
    """A file flag of `role` "input" or "output"; an output writes the files writes(value)."""
    action = parser.add_argument(flag, **kwargs)
    action.role, action.writes = role, writes


def _given(args, role):
    """(action, value) of each file flag of `role` that the stage was given."""
    return [(a, getattr(args, a.dest)) for a in args.parser._actions
            if getattr(a, "role", None) == role and getattr(args, a.dest)]


def _written(args):
    """dest -> the files that each output flag the stage was given writes."""
    return {a.dest: [str(f) for f in a.writes(value)] for a, value in _given(args, "output")}


def _write_manifest(args, files):
    """The manifest, the last of `files`, with the sha256 of each file before it."""
    if not files:  # index declares no output
        return
    *written, path = files
    manifest = {
        "tool_version": __version__,
        "argv": _argv(args),
        "inputs": {a.dest: value for a, value in _given(args, "input")},
        "outputs": {a.dest: value for a, value in _given(args, "output")},
        "checksums": {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in written},
    }
    formats._atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _from_flags(cls, args, **given):
    """A `cls` dataclass: each field not in `given` is read from the flag with that dest."""
    names = {f.name for f in dataclasses.fields(cls)} - set(given)
    return cls(**{name: getattr(args, name) for name in names}, **given)


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [
        ",".join(f"{x:.6f}" if isinstance(x, float) else str(x) for x in row) for row in rows
    ]
    formats._atomic_write(path, "".join(line + "\n" for line in lines).encode())


# ---- subcommand implementations; run writes the manifest of the files they wrote ----

def cmd_centers(args):
    cset = centers_mod.generate_centers(args.classes, args.bits, args.seed)
    formats.save_centers(cset, args.out)
    mind = centers_mod.min_pairwise_distance(cset) if args.classes >= 2 else args.bits
    print(f"wrote {args.out}: V={cset.num_classes} K={cset.code_length} "
          f"method={cset.method} min_pairwise_distance={mind} "
          f"mean_pairwise_inner={cset.mean_pairwise_inner() if args.classes >= 2 else 0.0:.4f}")


def cmd_synth(args):
    ds = make_synthetic(_from_flags(SynthSpec, args))
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or under one
        raise FormatError(f"{args.out_dir}: cannot write: {exc.strerror}") from exc
    img, txt, labels, splits_path = _written(args)["out_dir"]
    formats.save_features(ds.image_features, img)
    formats.save_features(ds.text_features, txt)
    formats.save_labels(ds.labels, labels)
    splits = {name: np.flatnonzero(getattr(ds, f"{name}_mask")).tolist() for name in SPLITS}
    formats._atomic_write(splits_path, (json.dumps(splits) + "\n").encode())
    print(f"wrote synthetic dataset ({len(ds)} samples) to {Path(args.out_dir)}")


def _load_splits(path, n, names):
    """Index arrays of the named splits; each must hold distinct integers in [0, n)."""
    splits = formats.load_json_object(path)
    out = {}
    for name in names:
        idx = splits.get(name)
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


def _load_rows(args, dims=None):
    """The feature and label arrays, checked for equal row counts before any split is read;
    a checkpoint's `dims` fixes the feature widths."""
    img = formats.load_features(args.image_features, None if dims is None else dims.d_img)
    txt = formats.load_features(args.text_features, None if dims is None else dims.d_txt)
    labels = formats.load_labels(args.labels)
    rows = {args.image_features: len(img), args.text_features: len(txt), args.labels: len(labels)}
    if len(set(rows.values())) > 1:
        raise ShapeMismatch("row counts differ: " + ", ".join(f"{f} {n}" for f, n in rows.items()))
    return img, txt, labels


def cmd_train(args):
    img, txt, labels = _load_rows(args)
    masks = {}
    for name, idx in _load_splits(args.splits, len(img), SPLITS).items():
        masks[f"{name}_mask"] = np.zeros(len(img), dtype=bool)
        masks[f"{name}_mask"][idx] = True
    dataset = MultiViewDataset(img, txt, labels, **masks)
    cset = formats.load_centers(args.centers)
    config = _from_flags(trainer.TrainConfig, args, adam_betas=(args.beta1, args.beta2))
    report = trainer.train(
        dataset, cset, config, dims_hidden=args.hidden_dim, log_csv_path=args.log_csv
    )
    formats.save_checkpoint(report.params, args.out)
    first, last = report.epoch_losses[0].l_total, report.epoch_losses[-1].l_total
    line = f"trained {config.epochs} epochs: loss {first:.4f} -> {last:.4f}"
    if report.final_map is not None:
        line += f", test mAP {report.final_map:.4f}"
    print(line)


def cmd_encode(args):
    if (args.split is None) != (args.splits is None):
        raise InvalidArgument("--split and --splits must be given together")
    params = formats.load_checkpoint(args.checkpoint)
    img, txt, labels = _load_rows(args, params.dims)
    if args.split:
        take = _load_splits(args.splits, len(img), (args.split,))[args.split]
        img, txt, labels = img[take], txt[take], labels[take]
    codes = trainer.encode(params, img, txt)
    formats.save_codes(retrieval.pack_codes(codes), labels, params.dims.code_length, args.out)
    print(f"encoded {codes.shape[0]} samples at K={params.dims.code_length} -> {args.out}")


def _load_index(path):
    packed, labels, k = formats.load_codes(path)
    return retrieval.RetrievalIndex(packed, labels, k)


def _load_index_and_queries(args):
    """The --codes index and the --queries file as (index, +-1 codes, labels)."""
    index = _load_index(args.codes)
    q_packed, q_labels, qk = formats.load_codes(args.queries)
    if qk != index.code_length:
        raise InvalidArgument(f"{args.queries} has K={qk}, {args.codes} K={index.code_length}")
    if q_labels.shape[1] != (v := index.labels.shape[1]):
        raise InvalidArgument(f"{args.queries} has {q_labels.shape[1]} classes, {args.codes} {v}")
    if not len(q_packed):
        raise InvalidArgument(f"{args.queries}: empty query set")
    return index, retrieval.unpack_codes(q_packed, qk), q_labels


def cmd_index(args):
    index = _load_index(args.codes)
    counts = index.labels.sum(axis=0)
    span = f"{counts.min()}..{counts.max()}" if counts.size else ""  # a file may hold no classes
    print(f"{args.codes}: R={index.size} K={index.code_length} classes={counts.size} "
          f"label_counts=[{span}]")


def cmd_query(args):
    index, q_codes, q_labels = _load_index_and_queries(args)
    rows = []
    for qid, code in enumerate(q_codes):
        result = index.query_topk(code, args.k)
        for rank, (item, dist) in enumerate(zip(result.ids, result.distances), 1):
            rows.append((qid, rank, int(item), int(dist)))
    _write_csv(args.out, ["query_id", "rank", "item_id", "hamming_distance"], rows)
    print(f"wrote top-{args.k} results for {q_codes.shape[0]} queries -> {args.out}")


def cmd_eval(args):
    index, q_codes, q_labels = _load_index_and_queries(args)
    r_cap = args.r_cap or index.size
    value = retrieval.mean_average_precision(q_codes, q_labels, index, r_cap)
    _write_csv(args.out, ["num_queries", "retrieval_size", "code_length", "r_cap", "map"],
               [(q_codes.shape[0], index.size, index.code_length, r_cap, value)])
    print(f"mAP = {value:.6f} (Q={q_codes.shape[0]}, R={index.size}, K={index.code_length})")


def cmd_curves(args):
    index, q_codes, q_labels = _load_index_and_queries(args)
    rows = retrieval.curves(q_codes, q_labels, index, sorted(set(args.k_grid)))
    _write_csv(args.out, ["k", "map_at_k", "recall_at_k"], rows)
    print(f"wrote {len(rows)} curve points -> {args.out}")


# ---- argument parsing ----

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvhash",
        description="Multi-view hashing pipeline: centers, training, encoding, "
                    "Hamming retrieval, and evaluation.",
    )
    p.add_argument("--version", action="version", version=f"mvhash {__version__}")
    # train and synth flags default to their dataclass fields
    cfg, spec = trainer.TrainConfig, SynthSpec
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("centers", help="generate hash centers (CSHC file)")
    c.add_argument("--classes", type=int, required=True)
    c.add_argument("--bits", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    _file(c, "--out", "output", required=True)

    s = sub.add_parser("synth", help="generate a synthetic two-view dataset")
    s.add_argument("--classes", dest="num_classes", type=int, default=10)
    s.add_argument("--per-class", dest="samples_per_class", type=int, default=100)
    s.add_argument("--d-img", type=int, default=64)
    s.add_argument("--d-txt", type=int, default=64)
    s.add_argument("--sigma", dest="cluster_spread", type=float, default=spec.cluster_spread)
    s.add_argument("--consistency", dest="cross_view_consistency", type=float,
                   default=spec.cross_view_consistency)
    s.add_argument("--proto-scale", dest="prototype_scale", type=float,
                   default=spec.prototype_scale)
    s.add_argument("--seed", type=int, default=spec.seed)
    _file(s, "--out-dir", "output", required=True, writes=lambda out_dir: [Path(out_dir) / name
          for name in ("image_features.csft", "text_features.csft", "labels.cslb", "splits.json")])

    t = sub.add_parser("train", help="train the fusion head (CSMV checkpoint)")
    for flag in ("--image-features", "--text-features", "--labels", "--splits", "--centers"):
        _file(t, flag, "input", required=True)
    _file(t, "--out", "output", required=True, writes=lambda out: [out, formats.sidecar(out)])
    _file(t, "--log-csv", "output")
    t.add_argument("--epochs", type=int, default=cfg.epochs)
    t.add_argument("--batch-size", type=int, default=cfg.batch_size)
    t.add_argument("--learning-rate", type=float, default=cfg.learning_rate)
    t.add_argument("--beta1", type=float, default=cfg.adam_betas[0])
    t.add_argument("--beta2", type=float, default=cfg.adam_betas[1])
    t.add_argument("--adam-epsilon", type=float, default=cfg.adam_epsilon)
    t.add_argument("--lam", type=float, default=cfg.lam, help="0 drops the quantization loss")
    t.add_argument("--dropout", dest="dropout_p", type=float, default=cfg.dropout_p)
    t.add_argument("--hidden-dim", type=int, default=trainer.DEFAULT_HIDDEN_DIM)
    t.add_argument("--eval-every", type=int, default=cfg.eval_every)
    t.add_argument("--seed", type=int, default=cfg.seed)
    ab = t.add_mutually_exclusive_group()
    ab.add_argument("--quant-only", dest="loss_mode", action="store_const", const="quant",
                    help="drop the central-similarity loss")
    ab.add_argument("--image-only", dest="fusion", action="store_const", const="image",
                    help="force the fusion gate to 1 (image view only)")
    ab.add_argument("--text-only", dest="fusion", action="store_const", const="text",
                    help="force the fusion gate to 0 (text view only)")
    ab.add_argument("--concat-fusion", dest="fusion", action="store_const", const="concat",
                    help="replace gated fusion with concatenation + linear map")
    t.set_defaults(fusion=cfg.fusion, loss_mode=cfg.loss_mode)

    e = sub.add_parser("encode", help="binarize a dataset with a checkpoint (CSCD file)")
    for flag in ("--checkpoint", "--image-features", "--text-features", "--labels"):
        _file(e, flag, "input", required=True)
    _file(e, "--splits", "input", help="splits.json to subset by --split")
    e.add_argument("--split", choices=SPLITS)
    _file(e, "--out", "output", required=True)

    i = sub.add_parser("index", help="inspect a CSCD code file")
    _file(i, "--codes", "input", required=True)

    for name, summary, flag, kwargs in (  # the retrieval stages: an index and a query set
            ("query", "top-k Hamming search, CSV output", "--k", {"default": 10}),
            ("eval", "mAP of a query set against an index, CSV output", "--r-cap",
             {"default": 0, "help": "AP rank cap (0 = full R)"}),
            ("curves", "mAP@k / Recall@k over a k grid, CSV output", "--k-grid",
             {"nargs": "+", "required": True})):
        r = sub.add_parser(name, help=summary)
        _file(r, "--codes", "input", required=True)
        _file(r, "--queries", "input", required=True)
        r.add_argument(flag, type=int, **kwargs)
        _file(r, "--out", "output", required=True)
    for name, sp in sub.choices.items():  # stage <name> runs cmd_<name>; _argv reads sp's actions
        sp.set_defaults(func=globals()[f"cmd_{name}"], parser=sp)
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
    try:  # every file the stage writes, then its manifest; a directory among them fails first
        files = [f for fs in _written(args).values() for f in fs]
        files += [files[0] + ".manifest.json"] if files else []
        if busy := [f for f in files if Path(f).is_dir()]:
            raise FormatError(f"{busy[0]}: cannot write: Is a directory")
        args.func(args)
        _write_manifest(args, files)
        return 0
    except Exception as exc:  # pipeline failure -> exit 1, module-tagged
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
