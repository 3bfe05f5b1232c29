"""The CLI's file contract, one table over the stages, each run through cli.run in a
fresh directory: a stage that succeeds leaves exactly the files its manifest's
checksums list, plus the manifest; a stage that fails exits 1, prints one
`error [errors.<Name>]: ` line naming the file or the value at fault, and leaves
no file (the training log's rows, written as epochs finish, are the exception); a
usage error exits 2, prints argparse's usage and leaves no file."""

import errno
import json
import os
import re

import pytest

from mvhash import cli

BIG = str(2**32)  # one more than a u32 header field holds

TRAIN = ["train", "--image-features", "{img}", "--text-features", "{txt}", "--labels", "{lab}",
         "--splits", "{spl}", "--centers", "{cshc}", "--epochs", "1", "--hidden-dim", "4"]
ENCODE = ["encode", "--checkpoint", "{csmv}", "--image-features", "{img}",
          "--text-features", "{txt}", "--labels", "{lab}"]
PAIR = ["--codes", "{ret}", "--queries", "{qry}"]


def _swap(argv, old, new):
    return [new if a == old else a for a in argv]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Absolute paths of one small dataset, its centers, a checkpoint and code files."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"img": root / "d" / "image_features.csft", "txt": root / "d" / "text_features.csft",
             "lab": root / "d" / "labels.cslb", "spl": root / "d" / "splits.json",
             "cshc": root / "c.cshc", "csmv": root / "m.csmv", "ret": root / "r.cscd",
             "qry": root / "q.cscd"}
    paths = {k: str(v) for k, v in paths.items()}
    for argv in (["synth", "--classes", "4", "--per-class", "10", "--d-img", "3", "--d-txt", "3",
                  "--out-dir", str(root / "d")],
                 ["centers", "--classes", "4", "--bits", "8", "--out", "{cshc}"],
                 [*TRAIN, "--out", "{csmv}"],
                 [*ENCODE, "--splits", "{spl}", "--split", "retrieval", "--out", "{ret}"],
                 [*ENCODE, "--splits", "{spl}", "--split", "query", "--out", "{qry}"]):
        assert cli.run([a.format(**paths) for a in argv]) == 0
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


@pytest.mark.parametrize("argv, named, left", [
    # an input that is missing, or a directory
    (_swap(TRAIN, "{cshc}", "nope.cshc") + ["--out", "m.csmv"], "nope.cshc: cannot read", ()),
    (["curves", "--codes", "nope.cscd", "--queries", "{qry}", "--k-grid", "1", "--out", "c.csv"],
     "nope.cscd: cannot read", ()),
    (["query", "--codes", "{ret}", "--queries", "nope.cscd", "--out", "top.csv"],
     "nope.cscd: cannot read", ()),
    ([*_swap(ENCODE, "{lab}", "adir"), "--out", "r.cscd"], "adir: cannot read", ()),
    (["eval", "--codes", "adir", "--queries", "{qry}", "--out", "map.csv"],
     "adir: cannot read", ()),
    # an output whose parent is missing or is a file, or that is a directory
    ([*ENCODE, "--out", "nodir/r.cscd"], "nodir/r.cscd: cannot write", ()),
    ([*ENCODE, "--out", "afile/r.cscd"], "afile/r.cscd: cannot write", ()),
    ([*TRAIN, "--out", "afile/m.csmv"], "afile/m.csmv: cannot write", ()),
    (["query", *PAIR, "--out", "nodir/top.csv"], "nodir/top.csv: cannot write", ()),
    (["curves", *PAIR, "--k-grid", "1", "--out", "afile/c.csv"], "afile/c.csv: cannot write", ()),
    (["eval", *PAIR, "--out", "adir"], "adir: cannot write", ()),
    # synth's --out-dir on a file, or under one
    (["synth", "--classes", "2", "--per-class", "3", "--out-dir", "afile"],
     f"afile: cannot write: {os.strerror(errno.EEXIST)}", ()),
    (["synth", "--classes", "2", "--per-class", "3", "--out-dir", "afile/d"],
     f"afile/d: cannot write: {os.strerror(errno.ENOTDIR)}", ()),
    # sizes a u32 header field cannot hold, refused before anything is allocated
    (["centers", "--classes", "4", "--bits", BIG, "--out", "c.cshc"],
     f"code_length {BIG} is outside [2, 2^32)", ()),
    (["centers", "--classes", BIG, "--bits", "8", "--out", "c.cshc"],
     f"num_classes {BIG} is outside [1, 2^32)", ()),
    ([*TRAIN, "--hidden-dim", BIG, "--out", "m.csmv"], f"d {BIG} is outside [1, 2^32)", ()),
    # an output that is a directory, refused before the stage does any work
    ([*TRAIN, "--out", "m3.csmv", "--log-csv", "log.csv"], "m3.csmv.json: cannot write", ()),
    ([*TRAIN, "--out", "m4.csmv"], "m4.csmv.manifest.json: cannot write", ()),
    (["centers", "--classes", "4", "--bits", "8", "--out", "c6.cshc"],
     "c6.cshc.manifest.json: cannot write", ()),
    # the one exception: the log keeps the rows of the epochs that finished
    ([*TRAIN, "--out", "nodir/m.csmv", "--log-csv", "log.csv"], "nodir/m.csmv: cannot write",
     ("log.csv",)),
], ids=["missing-centers", "missing-codes", "missing-queries", "dir-labels", "dir-codes",
        "out-no-parent", "out-under-file", "checkpoint-under-file", "csv-no-parent",
        "csv-under-file", "out-is-dir", "out-dir-is-file", "out-dir-under-file", "bits-u32",
        "classes-u32", "hidden-dim-u32", "sidecar-is-dir", "train-manifest-is-dir",
        "centers-manifest-is-dir", "log-csv-rows"])
def test_a_failed_stage_exits_one_naming_the_fault_and_leaves_no_file(
        inputs, tmp_path, monkeypatch, capsys, argv, named, left):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    dirs = ["adir", "m3.csmv.json", "m4.csmv.manifest.json", "c6.cshc.manifest.json"]
    for name in dirs:
        (tmp_path / name).mkdir()
    assert cli.run([a.format(**inputs) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error \[errors\.\w+\]: [^\n]*\n", err), err
    assert named.format(**inputs) in err
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
