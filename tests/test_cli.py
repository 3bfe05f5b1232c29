import json

import numpy as np
import pytest

from mvhash import cli, formats
from mvhash.centers import min_pairwise_distance


def run(*argv):
    return cli.run(list(argv))


def test_no_arguments_is_usage_error(capsys):
    assert run() == 2


def test_unknown_flag_is_usage_error():
    assert run("centers", "--classes", "4", "--bits", "8", "--bogus", "1") == 2


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 2


def test_centers_subcommand(tmp_path, capsys):
    out = tmp_path / "c.cshc"
    assert run("centers", "--classes", "21", "--bits", "64", "--seed", "7",
               "--out", str(out)) == 0
    cs = formats.load_centers(out)
    assert cs.num_classes == 21 and cs.code_length == 64
    assert min_pairwise_distance(cs) >= 16
    assert "min_pairwise_distance" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "c.cshc.manifest.json").read_text())
    assert manifest["subcommand"] == "centers"
    assert manifest["seed"] == 7
    assert str(out) in manifest["checksums"]


def test_centers_capacity_failure_exits_one(tmp_path):
    assert run("centers", "--classes", "100", "--bits", "4",
               "--out", str(tmp_path / "c.cshc")) == 1


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
    assert manifest["subcommand"] == "train"
    assert manifest["config"]["lambda"] == 0.25
    assert manifest["config"]["dropout_p"] == 0.1


def test_train_manifest_and_sidecar_record_eval_every(pipeline):
    manifest = json.loads((pipeline / "model.csmv.manifest.json").read_text())
    sidecar = json.loads((pipeline / "model.csmv.json").read_text())
    assert manifest["config"]["eval_every"] == 25
    assert sidecar["train_config"]["eval_every"] == 25


def test_index_subcommand(pipeline, capsys):
    assert run("index", "--codes", str(pipeline / "retrieval.cscd")) == 0
    out = capsys.readouterr().out
    assert "R=24" in out and "K=8" in out


def test_query_subcommand(pipeline):
    out = pipeline / "query_results.csv"
    assert run("query", "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(pipeline / "query.cscd"),
               "--k", "5", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "query_id,rank,item_id,hamming_distance"
    assert len(lines) == 1 + 12 * 5  # 4 classes x 3 query samples, top 5 each


def test_eval_subcommand(pipeline):
    out = pipeline / "eval.csv"
    assert run("eval", "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(pipeline / "query.cscd"),
               "--out", str(out)) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "num_queries,retrieval_size,code_length,r_cap,map"
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


@pytest.mark.parametrize("stage", ["eval", "curves"])
def test_empty_query_file_exits_one(pipeline, tmp_path, capsys, stage):
    queries, out = tmp_path / "empty.cscd", tmp_path / "out.csv"
    formats.save_codes(np.zeros((0, 1), dtype=np.uint8), np.zeros((0, 4)), 8, queries)
    extra = ["--k-grid", "1", "5"] if stage == "curves" else []
    assert run(stage, "--codes", str(pipeline / "retrieval.cscd"),
               "--queries", str(queries), "--out", str(out), *extra) == 1
    assert "empty query set" in capsys.readouterr().err
    assert not out.exists()


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


def test_encode_split_without_splits_fails(pipeline, tmp_path, capsys):
    out = tmp_path / "q.cscd"
    assert run(*_encode_args(pipeline, out, "--split", "query")) != 0
    assert "--splits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, message", [
    (-1, "index -1, not an integer in [0, 120)"),
    (120, "index 120, not an integer in [0, 120)"),
    (2.0, "index 2.0, not an integer"),
    ("dup", "repeats index"),
], ids=["negative", "out_of_range", "float", "duplicate"])
@pytest.mark.parametrize("stage", ["train", "encode"])
def test_bad_split_index_rejected(pipeline, tmp_path, capsys, stage, bad, message):
    data = pipeline / "data"
    splits = json.loads((data / "splits.json").read_text())
    query = splits["query"]
    query.append(query[0] if bad == "dup" else bad)
    path = tmp_path / "splits.json"
    path.write_text(json.dumps(splits))
    if stage == "train":
        argv = ["train", "--image-features", str(data / "image_features.csft"),
                "--text-features", str(data / "text_features.csft"),
                "--labels", str(data / "labels.cslb"), "--splits", str(path),
                "--centers", str(pipeline / "centers.cshc"),
                "--out", str(tmp_path / "m.csmv"), "--epochs", "1"]
    else:
        argv = _encode_args(pipeline, tmp_path / "q.cscd",
                            "--splits", str(path), "--split", "query")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "'query'" in err and message in err


def test_diverged_train_exits_one_tagged_divergence(pipeline, tmp_path, capsys):
    data = pipeline / "data"
    out = tmp_path / "m.csmv"
    with np.errstate(all="ignore"):
        code = run("train", "--image-features", str(data / "image_features.csft"),
                   "--text-features", str(data / "text_features.csft"),
                   "--labels", str(data / "labels.cslb"),
                   "--splits", str(data / "splits.json"),
                   "--centers", str(pipeline / "centers.cshc"),
                   "--out", str(out), "--epochs", "5", "--learning-rate", "1e308")
    assert code == 1
    assert "[errors.DivergenceError]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--learning-rate", "nan"), ("--learning-rate", "inf"),
                                         ("--lam", "nan"), ("--beta1", "1.0"),
                                         ("--adam-epsilon", "0")])
def test_train_rejects_bad_numbers_before_training(pipeline, tmp_path, capsys, flag, value):
    data = pipeline / "data"
    out, log = tmp_path / "m.csmv", tmp_path / "log.csv"
    code = run("train", "--image-features", str(data / "image_features.csft"),
               "--text-features", str(data / "text_features.csft"),
               "--labels", str(data / "labels.cslb"),
               "--splits", str(data / "splits.json"),
               "--centers", str(pipeline / "centers.cshc"),
               "--out", str(out), "--log-csv", str(log), "--epochs", "1", flag, value)
    assert code == 1
    assert "[errors.InvalidArgument]" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


def test_conflicting_ablation_flags(tmp_path):
    assert run("train", "--image-features", "x", "--text-features", "x",
               "--labels", "x", "--splits", "x", "--centers", "x",
               "--out", "x", "--central-only", "--quant-only") == 2


def test_missing_input_file_exits_one(tmp_path):
    assert run("index", "--codes", str(tmp_path / "nope.cscd")) == 1


def test_ablation_flag_mapping():
    parser = cli.build_parser()
    from mvhash.trainer import TrainConfig

    for flag, field, value in [
        ("--central-only", "loss_mode", "central"),
        ("--quant-only", "loss_mode", "quant"),
        ("--image-only", "fusion", "image"),
        ("--text-only", "fusion", "text"),
        ("--concat-fusion", "fusion", "concat"),
    ]:
        args = parser.parse_args([
            "train", "--image-features", "x", "--text-features", "x",
            "--labels", "x", "--splits", "x", "--centers", "x", "--out", "x",
            flag,
        ])
        cfg = cli.ablation_config(args, TrainConfig())
        assert getattr(cfg, field) == value
