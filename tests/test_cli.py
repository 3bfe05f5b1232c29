import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvhash import cli, formats, net, trainer
from mvhash.centers import min_pairwise_distance
from mvhash.retrieval import unpack_codes
from oracles import ranking


def run(*argv):
    return cli.run(list(argv))


def test_centers_subcommand(tmp_path, capsys):
    out = tmp_path / "c.cshc"
    assert run("centers", "--classes", "21", "--bits", "64", "--seed", "7",
               "--out", str(out)) == 0
    cs = formats.load_centers(out)
    assert cs.num_classes == 21 and cs.code_length == 64
    assert min_pairwise_distance(cs) >= 16
    assert "min_pairwise_distance" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "c.cshc.manifest.json").read_text())
    assert set(manifest) == {"tool_version", "argv", "inputs", "outputs", "checksums"}
    assert manifest["argv"] == ["centers", "--classes=21", "--bits=64", "--seed=7",
                                f"--out={out}"]
    assert str(out) in manifest["checksums"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> centers -> train -> encode(retrieval,query) shared by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run("synth", "--classes", "4", "--per-class", "30", "--d-img", "8",
               "--d-txt", "8", "--sigma", "0.2", "--consistency", "1.0",
               "--proto-scale", "1.0",
               "--seed", "5", "--out-dir", str(data)) == 0
    centers = root / "centers.cshc"
    assert run("centers", "--classes", "4", "--bits", "8", "--seed", "5",
               "--out", str(centers)) == 0
    ckpt = root / "model.csmv"
    assert run(
        "train",
        "--image-features", str(data / "image_features.csft"),
        "--text-features", str(data / "text_features.csft"),
        "--labels", str(data / "labels.cslb"),
        "--splits", str(data / "splits.json"),
        "--centers", str(centers),
        "--out", str(ckpt),
        "--log-csv", str(root / "log.csv"),
        "--epochs", "40", "--learning-rate", "0.01",
        "--hidden-dim", "8", "--seed", "5",
        "--eval-every", "25",
    ) == 0
    for split in ("retrieval", "query"):
        assert run(
            "encode",
            "--checkpoint", str(ckpt),
            "--image-features", str(data / "image_features.csft"),
            "--text-features", str(data / "text_features.csft"),
            "--labels", str(data / "labels.cslb"),
            "--splits", str(data / "splits.json"),
            "--split", split,
            "--out", str(root / f"{split}.cscd"),
        ) == 0
    return root


def test_train_writes_log_and_manifest(pipeline):
    log = (pipeline / "log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,l_central,l_quant,l_total,test_map"
    assert len(log) == 41
    manifest = json.loads((pipeline / "model.csmv.manifest.json").read_text())
    assert manifest["argv"][0] == "train"
    assert "--lam=0.25" in manifest["argv"] and "--dropout=0.1" in manifest["argv"]
    assert manifest["outputs"]["log_csv"] == str(pipeline / "log.csv")


def test_train_config_is_in_the_manifest_and_not_the_sidecar(pipeline):
    manifest = json.loads((pipeline / "model.csmv.manifest.json").read_text())
    sidecar = json.loads((pipeline / "model.csmv.json").read_text())
    assert {"--eval-every=25", "--lam=0.25"} <= set(manifest["argv"])
    assert sorted(sidecar) == ["csmv_sha256", "fusion"]
    assert sidecar["fusion"] == "gmu"


def test_index_subcommand(pipeline, capsys):
    assert run("index", "--codes", str(pipeline / "retrieval.cscd")) == 0
    out = capsys.readouterr().out
    assert "R=24" in out and "K=8" in out


def test_index_of_a_code_file_without_label_classes(tmp_path, capsys):
    codes = tmp_path / "c.cscd"
    formats.save_codes(np.zeros((3, 1), dtype=np.uint8), np.zeros((3, 0)), 8, codes)
    assert run("index", "--codes", str(codes)) == 0
    assert capsys.readouterr().out == f"{codes}: R=3 K=8 classes=0 label_counts=[]\n"


def test_query_subcommand(pipeline):
    out = pipeline / "query_results.csv"
    assert run("query", "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(pipeline / "query.cscd"),
               "--k", "5", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "query_id,rank,item_id,hamming_distance"
    assert len(lines) == 1 + 12 * 5  # 4 classes x 3 query samples, top 5 each


@pytest.mark.parametrize("k", [10, 30])  # a select of 10 and the full ranking of R = 24
def test_query_csv_bytes_hold_the_oracle_ranking(pipeline, tmp_path, k):
    out = tmp_path / "top.csv"
    assert run("query", "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(pipeline / "query.cscd"), "--k", str(k), "--out", str(out)) == 0
    (codes, _, bits), (queries, _, _) = (formats.load_codes(pipeline / f"{split}.cscd")
                                         for split in ("retrieval", "query"))
    rows = np.unpackbits(codes, axis=1, bitorder="little")[:, :bits]
    lines = ["query_id,rank,item_id,hamming_distance"]
    for qid, q in enumerate(np.unpackbits(queries, axis=1, bitorder="little")[:, :bits]):
        order, d = ranking(rows, q)
        lines += [f"{qid},{rank},{item},{d[item]}" for rank, item in enumerate(order[:k], 1)]
    assert out.read_bytes() == "".join(line + "\n" for line in lines).encode()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # only synth, centers and train draw random numbers; every other process skips the import
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, mvhash.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_importing_the_package_loads_only_its_version():
    # every public name is imported from its module; the package root runs nothing
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = ("import sys, mvhash; print(mvhash.__version__); "
            "print(sorted(m for m in sys.modules if m.startswith('mvhash.') or m == 'numpy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [cli.__version__, "[]"]


def test_eval_subcommand(pipeline):
    out = pipeline / "eval.csv"
    assert run("eval", "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(pipeline / "query.cscd"),
               "--out", str(out)) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "num_queries,retrieval_size,code_length,r_cap,map"
    assert row.split(",")[3] == "24"  # the default --r-cap 0 means full R
    value = float(row.split(",")[4])
    assert 0.0 <= value <= 1.0
    assert value > 0.9  # clean separable data learns easily


def test_curves_subcommand(pipeline):
    out = pipeline / "curves.csv"
    assert run("curves", "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(pipeline / "query.cscd"),
               "--k-grid", "1", "5", "10", "24", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,map_at_k,recall_at_k"
    recalls = [float(l.split(",")[2]) for l in lines[1:]]
    assert recalls == sorted(recalls)
    assert recalls[-1] == pytest.approx(1.0)


def test_encode_manifest_records_splits(pipeline, tmp_path):
    for split in ("retrieval", "query"):
        manifest = json.loads((pipeline / f"{split}.cscd.manifest.json").read_text())
        assert manifest["inputs"]["splits"] == str(pipeline / "data" / "splits.json")
    out = tmp_path / "all.cscd"
    assert run(*_encode_args(pipeline, out)) == 0
    assert "splits" not in json.loads((tmp_path / "all.cscd.manifest.json").read_text())["inputs"]


def _encode_args(pipeline, out, *extra):
    data = pipeline / "data"
    return ["encode", "--checkpoint", str(pipeline / "model.csmv"),
            "--image-features", str(data / "image_features.csft"),
            "--text-features", str(data / "text_features.csft"),
            "--labels", str(data / "labels.cslb"), "--out", str(out), *extra]


@pytest.mark.parametrize("split", ["retrieval", "query"])
def test_train_without_evaluation_may_have_an_empty_split(pipeline, tmp_path, split):
    # with --eval-every above 0 the run fails before writing (the CLI contract table)
    data, splits = pipeline / "data", tmp_path / "splits.json"
    splits.write_text(json.dumps({**json.loads((data / "splits.json").read_text()), split: []}))
    ckpt, log = tmp_path / "m.csmv", tmp_path / "log.csv"
    assert run("train", "--image-features", str(data / "image_features.csft"),
               "--text-features", str(data / "text_features.csft"),
               "--labels", str(data / "labels.cslb"), "--splits", str(splits),
               "--centers", str(pipeline / "centers.cshc"), "--out", str(ckpt),
               "--log-csv", str(log), "--epochs", "4", "--hidden-dim", "8",
               "--eval-every", "0") == 0
    assert len(log.read_text().splitlines()) == 5 and ckpt.exists()


@pytest.mark.parametrize("fusion", ["concat", "image"])
def test_encode_uses_the_fusion_of_a_checkpoint_saved_without_sidecar_keys(pipeline, tmp_path,
                                                                          fusion):
    data = pipeline / "data"
    img = formats.load_features(data / "image_features.csft")
    txt = formats.load_features(data / "text_features.csft")
    params = net.init_params(net.Dims(img.shape[1], txt.shape[1], 8, 16), seed=4, fusion=fusion)
    ckpt, out = tmp_path / "m.csmv", tmp_path / "all.cscd"
    formats.save_checkpoint(params, ckpt)
    argv = _encode_args(pipeline, out)
    argv[argv.index("--checkpoint") + 1] = str(ckpt)
    assert run(*argv) == 0
    codes, _, k = formats.load_codes(out)
    want = trainer.encode(params, img, txt)
    assert k == 16 and (unpack_codes(codes, k) == want).all()
    gmu = net.ModelParams(params.dims, params.init_seed, params.flat, "gmu")
    assert (trainer.encode(gmu, img, txt) != want).any()  # the mode changes these codes


def test_ablation_flag_mapping():
    parser = cli.build_parser()
    for flags, fusion, loss_mode in [
        ([], "gmu", "full"),
        (["--quant-only"], "gmu", "quant"),
        (["--image-only"], "image", "full"),
        (["--text-only"], "text", "full"),
        (["--concat-fusion"], "concat", "full"),
    ]:
        args = parser.parse_args([
            "train", "--image-features", "x", "--text-features", "x",
            "--labels", "x", "--splits", "x", "--centers", "x", "--out", "x",
            *flags,
        ])
        assert (args.fusion, args.loss_mode) == (fusion, loss_mode)


_TRAIN = ["train", "--image-features", "i.csft", "--text-features", "t.csft",
          "--labels", "l.cslb", "--splits", "s.json", "--centers", "c.cshc",
          "--out", "m.csmv"]
_ENCODE = ["encode", "--checkpoint", "m.csmv", "--image-features", "i.csft",
           "--text-features", "t.csft", "--labels", "l.cslb", "--out", "r.cscd"]
_CODES = ["--codes", "r.cscd", "--queries", "q.cscd"]


@pytest.mark.parametrize("argv", [
    ["centers", "--classes", "4", "--bits", "8", "--out=-x"],
    ["synth", "--out-dir", "d", "--sigma", "0.25", "--proto-scale", "1e-08"],
    _TRAIN,
    [*_TRAIN, "--lam", "0"],
    [*_TRAIN, "--quant-only", "--lam", "0.5"],
    [*_TRAIN, "--image-only", "--log-csv", "log.csv"],
    [*_TRAIN, "--text-only", "--learning-rate", "1e-08"],
    [*_TRAIN, "--concat-fusion", "--seed", "3"],
    _ENCODE,
    [*_ENCODE, "--splits", "s.json", "--split", "query"],
    ["index", "--codes=-c.cscd"],
    ["query", *_CODES, "--k", "5", "--out", "top.csv"],
    ["eval", *_CODES, "--r-cap", "7", "--out", "m.csv"],
    ["curves", *_CODES, "--k-grid", "10", "1", "5", "1", "--out", "c.csv"],
], ids=["centers", "synth", "train", "lam-0", "quant-only", "image-only",
        "text-only", "concat-fusion", "encode", "encode-split", "index", "query", "eval",
        "curves"])
def test_argv_round_trips_through_the_parser(argv):
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    assert parser.parse_args(cli._argv(args)) == args


def test_seed_defaults_to_zero_whatever_the_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("MVHASH_SEED", "abc")  # read by older versions, by nothing now
    out = tmp_path / "c.cshc"
    assert run("centers", "--classes", "4", "--bits", "8", "--out", str(out)) == 0
    assert "--seed=0" in json.loads((tmp_path / "c.cshc.manifest.json").read_text())["argv"]
    assert formats.load_centers(out).seed == 0


def test_argv_spells_out_every_default():
    parser = cli.build_parser()
    assert cli._argv(parser.parse_args(["centers", "--classes", "4", "--bits", "8",
                                        "--out=-x"])) == \
        ["centers", "--classes=4", "--bits=8", "--seed=0", "--out=-x"]
    synth = cli._argv(parser.parse_args(["synth", "--out-dir", "d"]))
    assert synth[-5:] == ["--sigma=0.3", "--consistency=0.9", "--proto-scale=0.16", "--seed=0",
                          "--out-dir=d"]
    train = cli._argv(parser.parse_args([*_TRAIN, "--image-only", "--learning-rate", "1e-08"]))
    assert "--image-only" in train and "--learning-rate=1e-08" in train
    assert "--seed=0" in train and "--lam=0.25" in train and "--hidden-dim=84" in train
    assert not any(a.startswith("--log-csv") for a in train)
    assert not {"--quant-only", "--text-only", "--concat-fusion"} & set(train)
    encode = cli._argv(parser.parse_args(_ENCODE))
    assert not any(a.startswith(("--splits", "--split=")) for a in encode)
    curves = cli._argv(parser.parse_args(["curves", *_CODES, "--k-grid", "10", "1", "5",
                                          "--out", "c.csv"]))
    assert curves[curves.index("--k-grid"):][:4] == ["--k-grid", "10", "1", "5"]


def _manifest_io(first_output):
    manifest = json.loads(Path(str(first_output) + ".manifest.json").read_text())
    return manifest["inputs"], manifest["outputs"]


def test_manifest_inputs_and_outputs_are_pinned(pipeline, tmp_path):
    """Each manifest names exactly the file flags its stage was given, keyed by dest."""
    data = pipeline / "data"
    views = {"image_features": str(data / "image_features.csft"),
             "text_features": str(data / "text_features.csft"),
             "labels": str(data / "labels.cslb")}
    splits, centers = str(data / "splits.json"), str(pipeline / "centers.cshc")
    ckpt = str(pipeline / "model.csmv")

    assert _manifest_io(data / "image_features.csft") == ({}, {"out_dir": str(data)})
    assert _manifest_io(centers) == ({}, {"out": centers})
    train_inputs = {**views, "splits": splits, "centers": centers}
    assert _manifest_io(ckpt) == (train_inputs, {"out": ckpt, "log_csv": str(pipeline / "log.csv")})
    bare = str(tmp_path / "bare.csmv")
    assert run("train", *(f"--{k.replace('_', '-')}={v}" for k, v in train_inputs.items()),
               f"--out={bare}", "--epochs=1", "--hidden-dim=8") == 0
    assert _manifest_io(bare) == (train_inputs, {"out": bare})

    for split in ("retrieval", "query"):
        codes = str(pipeline / f"{split}.cscd")
        assert _manifest_io(codes) == (
            {"checkpoint": ckpt, **views, "splits": splits}, {"out": codes})
    everything = str(tmp_path / "all.cscd")
    assert run(*_encode_args(pipeline, everything)) == 0
    assert _manifest_io(everything) == ({"checkpoint": ckpt, **views}, {"out": everything})

    pair = {"codes": str(pipeline / "retrieval.cscd"), "queries": str(pipeline / "query.cscd")}
    codes_args = ["--codes", pair["codes"], "--queries", pair["queries"]]
    # the three retrieval stages share one declaration, so each argv is pinned whole
    for stage, extra, flag in [("query", ["--k", "3"], ["--k=3"]), ("eval", [], ["--r-cap=0"]),
                               ("curves", ["--k-grid", "1", "5"], ["--k-grid", "1", "5"])]:
        out = str(tmp_path / f"{stage}.csv")
        assert run(stage, *codes_args, *extra, "--out", out) == 0
        assert _manifest_io(out) == (pair, {"out": out})
        argv = json.loads(Path(out + ".manifest.json").read_text())["argv"]
        assert argv == [stage, f"--codes={pair['codes']}", f"--queries={pair['queries']}",
                        *flag, f"--out={out}"]

    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert run("index", "--codes", everything) == 0  # index writes no manifest
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
