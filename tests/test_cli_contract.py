"""The CLI's file contract, one table over the stages, each run through cli.run in a
fresh directory: a stage that succeeds leaves exactly the files its manifest's
checksums list, plus the manifest; a stage that fails exits 1, prints one
`error [errors.<Name>]: ` line naming the file or the value at fault, and leaves
no file (the training log's rows, written as epochs finish, are the exception); a
usage error exits 2, prints argparse's usage and leaves no file."""

import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from mvhash import cli, formats

BIG = str(2**32)  # one more than a u32 header field holds
# the strerror that a failed read or write quotes, by errno name, for the rows' messages
STRERROR = {name: os.strerror(getattr(errno, name))
            for name in ("ENOENT", "ENOTDIR", "EISDIR", "EEXIST")}

TRAIN = ["train", "--image-features", "{img}", "--text-features", "{txt}", "--labels", "{lab}",
         "--splits", "{spl}", "--centers", "{cshc}", "--epochs", "1", "--hidden-dim", "4"]
ENCODE = ["encode", "--checkpoint", "{csmv}", "--image-features", "{img}",
          "--text-features", "{txt}", "--labels", "{lab}"]
PAIR = ["--codes", "{ret}", "--queries", "{qry}"]
CENTERS = ["centers", "--classes", "4", "--bits", "8"]
QUERY_SPLIT = ["--splits", "{spl}", "--split", "query"]
TRAIN_OUT = ["--out", "m.csmv", "--log-csv", "log.csv"]
NOT_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


def _swap(argv, old, new):
    return [new if a == old else a for a in argv]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Absolute paths of one small dataset (40 rows, 4 classes), its centers, a checkpoint
    and code files, and of faulty inputs written beside them, so that a failed run's
    directory stays empty: copies of wrong magic or cut to half their bytes, splits files
    and checkpoint sidecars that are not JSON, not an object, missing a split or holding a
    bad index, feature and label files of 20 rows, and code files that are empty or of
    another K or V."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"img": root / "d" / "image_features.csft", "txt": root / "d" / "text_features.csft",
             "lab": root / "d" / "labels.cslb", "spl": root / "d" / "splits.json",
             "cshc": root / "c.cshc", "csmv": root / "m.csmv", "ret": root / "r.cscd",
             "qry": root / "q.cscd"}
    paths = {k: str(v) for k, v in paths.items()}
    for argv in (["synth", "--classes", "4", "--per-class", "10", "--d-img", "3", "--d-txt", "3",
                  "--out-dir", str(root / "d")],
                 [*CENTERS, "--out", "{cshc}"],
                 [*TRAIN, "--out", "{csmv}"],
                 [*ENCODE, "--splits", "{spl}", "--split", "retrieval", "--out", "{ret}"],
                 [*ENCODE, *QUERY_SPLIT, "--out", "{qry}"]):
        assert cli.run([a.format(**paths) for a in argv]) == 0
    raw = {key: Path(path).read_bytes() for key, path in paths.items()}
    split = json.loads(raw["spl"])
    query = split["query"]
    assert query[0] == 0  # the duplicate index that the rows' message quotes
    faults = {
        "magic_cshc": b"XXXX" + raw["cshc"][4:], "half_csmv": raw["csmv"][:len(raw["csmv"]) // 2],
        "magic_ret": b"XXXX" + raw["ret"][4:], "half_qry": raw["qry"][:len(raw["qry"]) // 2],
        "bad_json": b"{not json", "json_list": b"[1, 2]", "not_utf8": b"\xff",
        # checkpoints whose sidecar, <path>.json, is not JSON, not an object, or missing
        "side_bad_json": raw["csmv"], "side_json_list": raw["csmv"], "side_missing": raw["csmv"],
        "no_train": json.dumps({"retrieval": [0], "query": [1]}).encode(),
        **{f"empty_{name}": json.dumps({**split, name: []}).encode()
           for name in ("retrieval", "query")},
        **{f"index_{name}": json.dumps({**split, "query": [*query, bad]}).encode()
           for name, bad in (("negative", -1), ("out_of_range", 40), ("float", 2.0),
                             ("duplicate", query[0]))},
    }

    def fault(key):
        paths[key] = str(root / f"{key}.bad")
        return paths[key]

    for key, data in faults.items():
        Path(fault(key)).write_bytes(data)
    formats.sidecar(paths["side_bad_json"]).write_bytes(faults["bad_json"])
    formats.sidecar(paths["side_json_list"]).write_bytes(faults["json_list"])
    formats.save_features(formats.load_features(paths["img"])[:20], fault("short_img"))
    formats.save_features(formats.load_features(paths["txt"])[:20], fault("short_txt"))
    formats.save_labels(formats.load_labels(paths["lab"])[:20], fault("short_lab"))
    for key, k, v, n in (("empty_codes", 8, 4, 0), ("k16_codes", 16, 4, 2), ("v5_codes", 8, 5, 2)):
        formats.save_codes(np.zeros((n, k // 8), np.uint8), np.ones((n, v)), k, fault(key))
    return paths


def _files(root):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv, anchor", [
    (["synth", "--classes", "2", "--per-class", "3", "--d-img", "2", "--d-txt", "2",
      "--out-dir", "d"], "d/image_features.csft"),
    (["centers", "--classes", "4", "--bits", "8", "--out", "c.cshc"], "c.cshc"),
    ([*TRAIN, "--out", "m.csmv"], "m.csmv"),
    ([*TRAIN, "--out", "m.csmv", "--log-csv", "log.csv"], "m.csmv"),
    ([*ENCODE, "--out", "all.cscd"], "all.cscd"),
    ([*ENCODE, "--splits", "{spl}", "--split", "query", "--out", "q.cscd"], "q.cscd"),
    (["query", *PAIR, "--k", "3", "--out", "top.csv"], "top.csv"),
    (["eval", *PAIR, "--out", "map.csv"], "map.csv"),
    (["curves", *PAIR, "--k-grid", "1", "5", "--out", "curves.csv"], "curves.csv"),
    (["index", "--codes", "{ret}"], None),
], ids=["synth", "centers", "train", "train-log-csv", "encode", "encode-split", "query", "eval",
        "curves", "index"])
def test_a_stage_writes_exactly_the_files_its_manifest_lists(inputs, tmp_path, monkeypatch,
                                                             argv, anchor):
    monkeypatch.chdir(tmp_path)
    assert cli.run([a.format(**inputs) for a in argv]) == 0
    if anchor is None:  # index declares no output, so writes no manifest
        assert _files(tmp_path) == set()
        return
    manifest = f"{anchor}.manifest.json"
    checksums = json.loads((tmp_path / manifest).read_text())["checksums"]
    assert _files(tmp_path) == {*checksums, manifest}


def _fails(row, argv, fault, left=(), **kwargs):
    """The failure table's row `row`: `fault` is "<errors name>: <message>", and `left` the
    files the failure may leave; argv and fault are formatted with the inputs and STRERROR."""
    return pytest.param(argv, fault, left, id=row, **kwargs)


@pytest.mark.parametrize("argv, fault, left", [
    # an input that is missing, or a directory
    _fails("missing-centers", [*_swap(TRAIN, "{cshc}", "nope.cshc"), "--out", "m.csmv"],
           "FormatError: nope.cshc: cannot read: {ENOENT}"),
    _fails("missing-codes", ["curves", "--codes", "nope.cscd", "--queries", "{qry}",
                             "--k-grid", "1", "--out", "c.csv"],
           "FormatError: nope.cscd: cannot read: {ENOENT}"),
    _fails("missing-queries", ["query", "--codes", "{ret}", "--queries", "nope.cscd",
                               "--out", "top.csv"],
           "FormatError: nope.cscd: cannot read: {ENOENT}"),
    _fails("dir-labels", [*_swap(ENCODE, "{lab}", "adir"), "--out", "r.cscd"],
           "FormatError: adir: cannot read: {EISDIR}"),
    _fails("dir-codes", ["eval", "--codes", "adir", "--queries", "{qry}", "--out", "map.csv"],
           "FormatError: adir: cannot read: {EISDIR}"),
    _fails("index-missing-codes", ["index", "--codes", "nope.cscd"],
           "FormatError: nope.cscd: cannot read: {ENOENT}"),
    _fails("index-dir-codes", ["index", "--codes", "adir"],
           "FormatError: adir: cannot read: {EISDIR}"),
    _fails("missing-splits", [*ENCODE, "--splits", "nope.json", "--split", "query",
                              "--out", "q.cscd"],
           "FormatError: nope.json: cannot read: {ENOENT}"),
    _fails("missing-sidecar", [*_swap(ENCODE, "{csmv}", "{side_missing}"), *QUERY_SPLIT,
                               "--out", "q.cscd"],
           "FormatError: {side_missing}.json: cannot read: {ENOENT}"),
    # an output whose parent is missing or is a file, or that is a directory
    _fails("out-no-parent", [*ENCODE, "--out", "nodir/r.cscd"],
           "FormatError: nodir/r.cscd: cannot write: {ENOENT}"),
    _fails("out-under-file", [*ENCODE, "--out", "afile/r.cscd"],
           "FormatError: afile/r.cscd: cannot write: {ENOTDIR}"),
    _fails("checkpoint-under-file", [*TRAIN, "--out", "afile/m.csmv"],
           "FormatError: afile/m.csmv: cannot write: {ENOTDIR}"),
    _fails("csv-no-parent", ["query", *PAIR, "--out", "nodir/top.csv"],
           "FormatError: nodir/top.csv: cannot write: {ENOENT}"),
    _fails("csv-under-file", ["curves", *PAIR, "--k-grid", "1", "--out", "afile/c.csv"],
           "FormatError: afile/c.csv: cannot write: {ENOTDIR}"),
    _fails("out-is-dir", ["eval", *PAIR, "--out", "adir"],
           "FormatError: adir: cannot write: {EISDIR}"),
    _fails("centers-no-parent", [*CENTERS, "--out", "nodir/c.cshc"],
           "FormatError: nodir/c.cshc: cannot write: {ENOENT}"),
    _fails("centers-under-file", [*CENTERS, "--out", "afile/c.cshc"],
           "FormatError: afile/c.cshc: cannot write: {ENOTDIR}"),
    _fails("log-no-parent", [*TRAIN, "--out", "m.csmv", "--log-csv", "nodir/log.csv"],
           "FormatError: nodir/log.csv: cannot write: {ENOENT}"),
    _fails("log-under-file", [*TRAIN, "--out", "m.csmv", "--log-csv", "afile/log.csv"],
           "FormatError: afile/log.csv: cannot write: {ENOTDIR}"),
    # synth's --out-dir on a file, or under one
    _fails("out-dir-is-file", ["synth", "--classes", "2", "--per-class", "3", "--out-dir", "afile"],
           "FormatError: afile: cannot write: {EEXIST}"),
    _fails("out-dir-under-file", ["synth", "--classes", "2", "--per-class", "3",
                                  "--out-dir", "afile/d"],
           "FormatError: afile/d: cannot write: {ENOTDIR}"),
    # sizes a u32 header field cannot hold, refused before anything is allocated
    _fails("bits-u32", ["centers", "--classes", "4", "--bits", BIG, "--out", "c.cshc"],
           f"InvalidArgument: code_length {BIG} is outside [2, 2^32)"),
    _fails("classes-u32", ["centers", "--classes", BIG, "--bits", "8", "--out", "c.cshc"],
           f"InvalidArgument: num_classes {BIG} is outside [1, 2^32)"),
    _fails("hidden-dim-u32", [*TRAIN, "--hidden-dim", BIG, "--out", "m.csmv"],
           f"InvalidArgument: d {BIG} is outside [1, 2^32)"),
    # an output that is a directory, refused before the stage does any work
    _fails("sidecar-is-dir", [*TRAIN, "--out", "m3.csmv", "--log-csv", "log.csv"],
           "FormatError: m3.csmv.json: cannot write: {EISDIR}"),
    _fails("train-manifest-is-dir", [*TRAIN, "--out", "m4.csmv"],
           "FormatError: m4.csmv.manifest.json: cannot write: {EISDIR}"),
    _fails("centers-manifest-is-dir", [*CENTERS, "--out", "c6.cshc"],
           "FormatError: c6.cshc.manifest.json: cannot write: {EISDIR}"),
    # an input of the wrong magic, or cut short
    _fails("magic-centers", [*_swap(TRAIN, "{cshc}", "{magic_cshc}"), "--out", "m.csmv"],
           "FormatError: {magic_cshc}: bad magic b'XXXX', expected b'CSHC'"),
    _fails("half-checkpoint", [*_swap(ENCODE, "{csmv}", "{half_csmv}"), "--out", "r.cscd"],
           "FormatError: {half_csmv}: truncated reading parameters at byte offset 36"),
    _fails("magic-codes", ["query", "--codes", "{magic_ret}", "--queries", "{qry}",
                           "--out", "top.csv"],
           "FormatError: {magic_ret}: bad magic b'XXXX', expected b'CSCD'"),
    _fails("half-queries", ["eval", "--codes", "{ret}", "--queries", "{half_qry}",
                            "--out", "map.csv"],
           "FormatError: {half_qry}: truncated reading code_length at byte offset 12"),
    # a splits file or a sidecar that is not JSON, or not an object
    _fails("splits-undecodable", [*ENCODE, "--splits", "{bad_json}", "--split", "query",
                                  "--out", "q.cscd"],
           "FormatError: {bad_json}: not valid JSON: " + NOT_JSON),
    _fails("splits-not-object", [*ENCODE, "--splits", "{json_list}", "--split", "query",
                                 "--out", "q.cscd"],
           "FormatError: {json_list}: expected a JSON object, got list"),
    _fails("splits-not-utf8", [*ENCODE, "--splits", "{not_utf8}", "--split", "query",
                               "--out", "q.cscd"],
           "FormatError: {not_utf8}: not valid JSON: "
           "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    _fails("train-splits-undecodable", [*_swap(TRAIN, "{spl}", "{bad_json}"), "--out", "m.csmv"],
           "FormatError: {bad_json}: not valid JSON: " + NOT_JSON),
    _fails("sidecar-undecodable", [*_swap(ENCODE, "{csmv}", "{side_bad_json}"), *QUERY_SPLIT,
                                   "--out", "q.cscd"],
           "FormatError: {side_bad_json}.json: not valid JSON: " + NOT_JSON),
    _fails("sidecar-not-object", [*_swap(ENCODE, "{csmv}", "{side_json_list}"), *QUERY_SPLIT,
                                  "--out", "q.cscd"],
           "FormatError: {side_json_list}.json: expected a JSON object, got list"),
    # a split that is missing, empty where it is evaluated on, or holds a bad index
    _fails("splits-without-train", [*_swap(TRAIN, "{spl}", "{no_train}"), "--out", "m.csmv"],
           "FormatError: {no_train}: split 'train' is missing or not a list"),
    *(_fails(f"empty-{name}-split", [*_swap(TRAIN, "{spl}", f"{{empty_{name}}}"),
                                     "--out", "m.csmv", "--log-csv", "log.csv",
                                     "--eval-every", "2"],
             f"InvalidArgument: empty {name} split, which eval_every > 0 evaluates on")
      for name in ("retrieval", "query")),
    *(_fails(f"{stage}-index-{name}", argv, f"FormatError: {{index_{name}}}: split 'query' {end}")
      for name, end in (("negative", "has index -1, not an integer in [0, 40)"),
                        ("out_of_range", "has index 40, not an integer in [0, 40)"),
                        ("float", "has index 2.0, not an integer in [0, 40)"),
                        ("duplicate", "repeats index 0"))
      for stage, argv in (
          ("train", [*_swap(TRAIN, "{spl}", f"{{index_{name}}}"), "--out", "m.csmv"]),
          ("encode", [*ENCODE, "--splits", f"{{index_{name}}}", "--split", "query",
                      "--out", "q.cscd"]))),
    _fails("split-without-splits", [*ENCODE, "--split", "query", "--out", "q.cscd"],
           "InvalidArgument: --split and --splits must be given together"),
    _fails("splits-without-split", [*ENCODE, "--splits", "{spl}", "--out", "all.cscd"],
           "InvalidArgument: --split and --splits must be given together"),
    # feature and label files of differing row counts, checked before --splits is read
    _fails("rows-labels-query", [*_swap(ENCODE, "{lab}", "{short_lab}"), *QUERY_SPLIT,
                                 "--out", "o"],
           "ShapeMismatch: row counts differ: {img} 40, {txt} 40, {short_lab} 20"),
    _fails("rows-text-retrieval", [*_swap(ENCODE, "{txt}", "{short_txt}"), "--splits", "{spl}",
                                   "--split", "retrieval", "--out", "o"],
           "ShapeMismatch: row counts differ: {img} 40, {short_txt} 20, {lab} 40"),
    _fails("rows-labels-every-row", [*_swap(ENCODE, "{lab}", "{short_lab}"), "--out", "o"],
           "ShapeMismatch: row counts differ: {img} 40, {txt} 40, {short_lab} 20"),
    _fails("rows-train-image", [*_swap(TRAIN, "{img}", "{short_img}"), *TRAIN_OUT],
           "ShapeMismatch: row counts differ: {short_img} 20, {txt} 40, {lab} 40"),
    _fails("rows-train-text", [*_swap(TRAIN, "{txt}", "{short_txt}"), *TRAIN_OUT],
           "ShapeMismatch: row counts differ: {img} 40, {short_txt} 20, {lab} 40"),
    _fails("rows-train-labels", [*_swap(TRAIN, "{lab}", "{short_lab}"), *TRAIN_OUT],
           "ShapeMismatch: row counts differ: {img} 40, {txt} 40, {short_lab} 20"),
    _fails("rows-train-image-splits-missing",
           [*_swap(_swap(TRAIN, "{img}", "{short_img}"), "{spl}", "nope.json"), *TRAIN_OUT],
           "ShapeMismatch: row counts differ: {short_img} 20, {txt} 40, {lab} 40"),
    # a code file that is empty, or of another K or V than the index
    _fails("empty-index", ["index", "--codes", "{empty_codes}"],
           "FormatError: {empty_codes}: index is empty"),
    _fails("eval-empty-index", ["eval", "--codes", "{empty_codes}", "--queries", "{qry}",
                                "--out", "map.csv"],
           "FormatError: {empty_codes}: index is empty"),
    *(_fails(f"{codes}-queries-{stage}", [stage, "--codes", "{ret}",
                                          "--queries", f"{{{codes}_codes}}", "--out", "o", *flag],
             f"InvalidArgument: {message}")
      for codes, message in (("empty", "{empty_codes}: empty query set"),
                             ("k16", "{k16_codes} has K=16, {ret} K=8"),
                             ("v5", "{v5_codes} has 5 classes, {ret} 4"))
      for stage, flag in (("query", ["--k", "-3"]), ("eval", []),
                          ("curves", ["--k-grid", "1", "5"]))),
    # a value out of range, or more classes than K bits can tell apart
    _fails("centers-capacity", ["centers", "--classes", "100", "--bits", "4", "--out", "c.cshc"],
           "CapacityError: 100 classes need more than the 2^4 distinct codes available"),
    *(_fails(f"seed-{stage}", [*argv, "--seed", "-1"],
             "InvalidArgument: seed must be >= 0, got -1")
      for stage, argv in (("centers", [*CENTERS, "--out", "c.cshc"]),
                          ("synth", ["synth", "--out-dir", "data"]),
                          ("train", [*TRAIN, "--out", "m.csmv"]))),
    _fails("synth-sigma-nan", ["synth", "--out-dir", "data", "--sigma", "nan"],
           "InvalidArgument: cluster_spread must be in (0, inf), got nan"),
    _fails("synth-proto-scale-inf", ["synth", "--out-dir", "data", "--proto-scale", "inf"],
           "InvalidArgument: prototype_scale must be in (0, inf), got inf"),
    # finite as float64, but image features past the largest float32; the --out-dir exists,
    # since synth leaves behind a directory that it made
    _fails("synth-sigma-1e39", ["synth", "--out-dir", "adir", "--sigma", "1e39"],
           "InvalidArgument: adir/image_features.csft: non-finite float32 at row 0, column 0"),
    *(_fails(f"train-{flag[2:]}-{value}", [*TRAIN, *TRAIN_OUT, flag, value],
             f"InvalidArgument: {message}")
      for flag, value, message in (
          ("--learning-rate", "nan", "learning_rate must be in (0, inf), got nan"),
          ("--learning-rate", "inf", "learning_rate must be in (0, inf), got inf"),
          ("--lam", "nan", "lam must be in [0, inf), got nan"),
          ("--beta1", "1.0", "adam_betas[0] must be in [0, 1), got 1.0"),
          ("--adam-epsilon", "0", "adam_epsilon must be in (0, inf), got 0.0"),
          ("--eval-every", "-1", "eval_every must be >= 0, got -1"))),
    _fails("r-cap-negative", ["eval", *PAIR, "--r-cap", "-5", "--out", "map.csv"],
           "InvalidArgument: r_cap must be >= 0, got -5"),
    _fails("k-grid-zero", ["curves", *PAIR, "--k-grid", "0", "5", "10", "--out", "c.csv"],
           "InvalidArgument: k_grid value must be >= 1, got 0"),
    _fails("k-grid-negative", ["curves", *PAIR, "--k-grid", "-3", "5", "--out", "c.csv"],
           "InvalidArgument: k_grid value must be >= 1, got -3"),
    # the one exception: the log keeps the rows of the epochs that finished, also in a run
    # that diverges (numpy's overflow warnings on the way are ignored here; a process prints them)
    _fails("log-csv-rows", [*TRAIN, "--out", "nodir/m.csmv", "--log-csv", "log.csv"],
           "FormatError: nodir/m.csmv: cannot write: {ENOENT}", ("log.csv",)),
    _fails("diverged", [*TRAIN, *TRAIN_OUT, "--epochs", "5", "--learning-rate", "1e308"],
           "DivergenceError: non-finite hash logits at epoch 2", ("log.csv",),
           marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_a_failed_stage_exits_one_naming_the_fault_and_leaves_no_file(
        inputs, tmp_path, monkeypatch, capsys, argv, fault, left):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    dirs = ["adir", "m3.csmv.json", "m4.csmv.manifest.json", "c6.cshc.manifest.json"]
    for name in dirs:
        (tmp_path / name).mkdir()
    values = {**inputs, **STRERROR}
    assert cli.run([a.format(**values) for a in argv]) == 1
    name, message = fault.format(**values).split(": ", 1)
    assert capsys.readouterr() == ("", f"error [errors.{name}]: {message}\n")
    assert _files(tmp_path) == {"afile", *left}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"afile", *dirs, *left})


@pytest.mark.parametrize("argv, error", [
    ([], None),
    (["centers", "--classes", "4", "--bits", "8", "--out", "c.cshc", "--bogus", "1"],
     "mvhash: error: unrecognized arguments: --bogus 1"),
    (["frobnicate"], "mvhash: error: argument subcommand: invalid choice: 'frobnicate'"),
    ([*TRAIN, "--out", "m.csmv", "--quant-only", "--image-only"],
     "mvhash train: error: argument --image-only: not allowed with argument --quant-only"),
    (["centers", "--classes", "4", "--bits", "x", "--out", "c.cshc"],
     "mvhash centers: error: argument --bits: invalid int value: 'x'"),
    ([*ENCODE, "--splits", "{spl}", "--split", "bogus", "--out", "r.cscd"],
     "mvhash encode: error: argument --split: invalid choice: 'bogus'"),
], ids=["no-arguments", "unknown-flag", "unknown-subcommand", "two-ablation-flags",
        "bad-int", "bad-choice"])
def test_a_usage_error_exits_two_and_leaves_no_file(
        inputs, tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    assert cli.run([a.format(**inputs) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: mvhash ")
    if error is None:  # no arguments: the usage alone
        assert err == cli.build_parser().format_usage()
    else:  # the usage, then argparse's one error line
        assert err.count("error:") == 1 and err.splitlines()[-1].startswith(error), err
    assert list(tmp_path.iterdir()) == []
