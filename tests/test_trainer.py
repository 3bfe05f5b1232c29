import numpy as np
import pytest

from mvhash import net, trainer
from mvhash.centers import generate_centers
from mvhash.data import SynthSpec, make_synthetic
from mvhash.errors import DivergenceError, InvalidArgument, ShapeMismatch

SMALL = net.Dims(d_img=8, d_txt=8, d=6, code_length=4)


def _config(**kw):
    base = dict(epochs=5, batch_size=16, seed=1, dropout_p=0.0)
    base.update(kw)
    return trainer.TrainConfig(**base)


def test_adam_zero_gradient_is_fixed_point():
    p = net.init_params(SMALL, seed=0)
    before = p.flat.copy()
    trainer.adam_step(p, np.zeros_like(p.flat), trainer.AdamState(p), 1, _config())
    assert (p.flat == before).all()


def test_adam_moments_decay_after_nonzero_step():
    p = net.init_params(SMALL, seed=0)
    state = trainer.AdamState(p)
    trainer.adam_step(p, np.ones_like(p.flat), state, 1, _config())
    m_before = state.m.copy()
    trainer.adam_step(p, np.zeros_like(p.flat), state, 2, _config())
    assert np.allclose(state.m, 0.9 * m_before)


def test_adam_first_step_is_normalized_gradient():
    p = net.init_params(SMALL, seed=0)
    before = p.flat.copy()
    g = np.random.default_rng(2).normal(size=p.flat.shape)
    trainer.adam_step(p, g, trainer.AdamState(p), 1, _config(learning_rate=1e-3))
    # bias-corrected m_hat/sqrt(v_hat) = g/|g| on step one
    assert np.allclose(p.flat, before - 1e-3 * np.sign(g), atol=1e-5)


def test_adam_update_is_nonlinear_in_gradient():
    # doubling the gradient leaves the (normalized) update nearly unchanged,
    # unlike plain SGD where it would double
    g = np.full(SMALL.param_count(), 0.3)
    p1 = net.init_params(SMALL, seed=0)
    trainer.adam_step(p1, g, trainer.AdamState(p1), 1, _config(learning_rate=1e-3))
    p2 = net.init_params(SMALL, seed=0)
    trainer.adam_step(p2, 2 * g, trainer.AdamState(p2), 1, _config(learning_rate=1e-3))
    assert np.allclose(p1.W_i, p2.W_i, atol=1e-8)


def test_adam_rejects_nonfinite_gradient():
    p = net.init_params(SMALL, seed=0)
    g = np.zeros_like(p.flat)
    net.block_views(g, SMALL)["W_hash"][0, 0] = np.nan
    with pytest.raises(DivergenceError, match="W_hash"):
        trainer.adam_step(p, g, trainer.AdamState(p), 1, _config())


@pytest.mark.parametrize("grad", [
    np.array([0.5]), np.zeros(SMALL.param_count() - 1), 0.0, {"W_i": np.zeros((6, 6))},
], ids=["one", "short", "scalar", "dict"])
def test_adam_rejects_gradient_not_shaped_like_params(grad):
    p = net.init_params(SMALL, seed=0)
    before = p.flat.copy()
    with pytest.raises(ShapeMismatch, match="gradient shape"):
        trainer.adam_step(p, grad, trainer.AdamState(p), 1, _config())
    assert (p.flat == before).all()


def test_adam_step_leaves_the_gradient_unchanged():
    p = net.init_params(SMALL, seed=0)
    state = trainer.AdamState(p)
    g = np.random.default_rng(5).normal(size=p.flat.shape)
    g_copy = g.copy()
    for step in (1, 2):
        trainer.adam_step(p, g, state, step, _config())
        assert g.tobytes() == g_copy.tobytes()
        assert not np.shares_memory(g, state.scratch) and not np.shares_memory(g, state.denom)


def _seed_adam_step(blocks, grads, m, v, step_index, config):
    """The per-block Adam loop the flat update replaced, kept as its oracle."""
    b1, b2 = config.adam_betas
    lr, eps = config.learning_rate, config.adam_epsilon
    for name, p in blocks.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1**step_index)
        v_hat = v[name] / (1 - b2**step_index)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


# SMALL, and the train-multilabel benchmark head (44,584 parameters)
@pytest.mark.parametrize("dims", [SMALL, net.Dims(d_img=64, d_txt=64, d=84, code_length=64)],
                         ids=["small", "train_multilabel"])
def test_flat_adam_step_matches_per_block_loop(dims):
    p = net.init_params(dims, seed=3)
    blocks = {k: a.copy() for k, a in p.blocks().items()}
    m = {k: np.zeros_like(a) for k, a in blocks.items()}
    v = {k: np.zeros_like(a) for k, a in blocks.items()}
    state = trainer.AdamState(p)
    cfg = _config(learning_rate=3e-3, adam_betas=(0.8, 0.99), adam_epsilon=1e-7)
    rng = np.random.default_rng(4)
    for step in range(1, 8):
        scale = 10.0 ** rng.integers(-6, 3)
        grad = scale * rng.normal(size=p.flat.shape)
        trainer.adam_step(p, grad, state, step, cfg)
        _seed_adam_step(blocks, net.block_views(grad, dims), m, v, step, cfg)
        state_m, state_v = net.block_views(state.m, dims), net.block_views(state.v, dims)
        for name in net.PARAM_NAMES:
            assert (p.blocks()[name] == blocks[name]).all(), (step, name)
            assert (state_m[name] == m[name]).all() and (state_v[name] == v[name]).all()


def test_blocks_are_views_of_flat_after_init_and_train():
    def assert_views(params):
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        for name, block in params.blocks().items():
            assert np.shares_memory(block, params.flat), name
        params.flat[:] = np.arange(params.flat.size)
        assert np.concatenate([b.ravel() for b in params.blocks().values()]).tolist() \
            == list(range(params.flat.size))

    assert_views(net.init_params(SMALL, seed=0))
    ds = _tiny_dataset()
    report = trainer.train(ds, generate_centers(4, 8, seed=0), _config(epochs=2), dims_hidden=8)
    assert_views(report.params)


@pytest.mark.parametrize("rows", ["1d", 1, "R-1", "R", "R+1", "2R+3"])
def test_encode_in_row_blocks_equals_one_forward(rows):
    R = trainer._ENCODE_ROWS
    n = {"1d": 1, "R-1": R - 1, "R": R, "R+1": R + 1, "2R+3": 2 * R + 3}.get(rows, rows)
    dims = net.Dims(d_img=8, d_txt=8, d=6, code_length=37)
    p = net.init_params(dims, seed=5)
    rng = np.random.default_rng(6)
    img, txt = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    if rows == "1d":
        img, txt = img[0], txt[0]
    for fusion in ("gmu", "concat"):
        want = net.binarize(net.forward(p, img, txt, fusion=fusion)[0])
        got = trainer.encode(p, img, txt, fusion=fusion)
        assert got.dtype == np.int8 and got.shape == (n, 37)
        assert (got == want).all()


def test_encode_checks_row_counts_and_widths():
    p = net.init_params(SMALL, seed=0)
    R = trainer._ENCODE_ROWS
    with pytest.raises(ShapeMismatch, match="batch sizes differ"):
        trainer.encode(p, np.ones((R, 8)), np.ones((R + 1, 8)))
    with pytest.raises(ShapeMismatch):
        trainer.encode(p, np.ones((0, 7)), np.ones((0, 8)))
    assert trainer.encode(p, np.ones((0, 8)), np.ones((0, 8))).shape == (0, 4)


def test_config_validation():
    with pytest.raises(InvalidArgument):
        trainer.TrainConfig(epochs=0)
    with pytest.raises(InvalidArgument):
        trainer.TrainConfig(batch_size=0)
    with pytest.raises(InvalidArgument):
        trainer.TrainConfig(learning_rate=0)
    with pytest.raises(InvalidArgument):
        trainer.TrainConfig(dropout_p=1.0)
    with pytest.raises(InvalidArgument):
        trainer.TrainConfig(fusion="sum")


@pytest.mark.parametrize("field, value, name", [
    ("learning_rate", float("nan"), "learning_rate"),
    ("learning_rate", float("inf"), "learning_rate"),
    ("lam", float("nan"), "lam"),
    ("lam", float("inf"), "lam"),
    ("adam_betas", (1.0, 0.999), "adam_betas"),
    ("adam_betas", (0.9, float("nan")), "adam_betas"),
    ("adam_betas", (float("nan"), 0.999), "adam_betas"),
    ("adam_betas", (-0.1, 0.999), "adam_betas"),
    ("adam_epsilon", 0.0, "adam_epsilon"),
    ("adam_epsilon", -1e-8, "adam_epsilon"),
    ("adam_epsilon", float("nan"), "adam_epsilon"),
    ("dropout_p", float("nan"), "dropout_p"),
])
def test_config_rejects_bad_numbers(field, value, name):
    with pytest.raises(InvalidArgument, match=name):
        trainer.TrainConfig(**{field: value})


def test_config_keeps_large_finite_learning_rate():
    assert trainer.TrainConfig(learning_rate=1e307).learning_rate == 1e307


def _tiny_dataset(seed=0, consistency=1.0):
    return make_synthetic(SynthSpec(
        num_classes=4, samples_per_class=30, d_img=8, d_txt=8,
        cluster_spread=0.2, cross_view_consistency=consistency, seed=seed,
    ))


def test_train_is_deterministic():
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    cfg = _config(epochs=3, dropout_p=0.1, eval_every=3)
    r1 = trainer.train(ds, cs, cfg, dims_hidden=8)
    r2 = trainer.train(ds, cs, cfg, dims_hidden=8)
    assert [l.l_total for l in r1.epoch_losses] == [l.l_total for l in r2.epoch_losses]
    assert r1.eval_maps == r2.eval_maps
    for name, arr in r1.params.blocks().items():
        assert (arr == r2.params.blocks()[name]).all()


def test_train_loss_decreases_on_separable_data():
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    report = trainer.train(ds, cs, _config(epochs=30), dims_hidden=8)
    assert report.epoch_losses[-1].l_total < report.epoch_losses[0].l_total
    assert len(report.epoch_losses) == 30
    assert len(report.epoch_seconds) == 30


def test_train_rejects_class_mismatch():
    ds = _tiny_dataset()
    cs = generate_centers(5, 8, seed=0)
    with pytest.raises(InvalidArgument):
        trainer.train(ds, cs, _config())


def test_train_writes_csv_log(tmp_path):
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    path = tmp_path / "log.csv"
    trainer.train(ds, cs, _config(epochs=2, eval_every=2), dims_hidden=8,
                  log_csv_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,l_central,l_quant,l_total,test_map"
    assert len(lines) == 3
    assert lines[2].split(",")[4] != ""  # eval ran on the last epoch


def test_csv_log_keeps_finished_epochs_when_training_diverges(tmp_path):
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    path = tmp_path / "log.csv"
    # one step per epoch; steps of 1e308 overflow the hash logits in epoch 2
    cfg = _config(epochs=5, batch_size=1000, learning_rate=1e308)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        trainer.train(ds, cs, cfg, dims_hidden=8, log_csv_path=path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"epoch,l_central,l_quant,l_total,test_map"
    assert lines[1].startswith(b"1,") and len(lines[1].split(b",")) == 5
    assert lines[2:] == [b""]


def test_non_finite_parameters_after_adam_step_raise_divergence(monkeypatch):
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)

    def overflowing_step(params, grad, state, step_index, config):
        params.b_hash[0] = np.inf

    monkeypatch.setattr(trainer, "adam_step", overflowing_step)
    with pytest.raises(DivergenceError, match="b_hash"):
        trainer.train(ds, cs, _config(epochs=1), dims_hidden=8)


def test_encode_deterministic_and_pure():
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    report = trainer.train(ds, cs, _config(epochs=5), dims_hidden=8)
    c1 = trainer.encode(report.params, ds.image_features, ds.text_features)
    c2 = trainer.encode(report.params, ds.image_features, ds.text_features)
    assert (c1 == c2).all()
    # duplicate samples encode identically
    img = np.vstack([ds.image_features[:1], ds.image_features[:1]])
    txt = np.vstack([ds.text_features[:1], ds.text_features[:1]])
    codes = trainer.encode(report.params, img, txt)
    assert (codes[0] == codes[1]).all()


def test_near_duplicates_collide_after_convergence():
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    report = trainer.train(ds, cs, _config(epochs=60), dims_hidden=8)
    img = ds.image_features[:20]
    txt = ds.text_features[:20]
    a = trainer.encode(report.params, img, txt)
    b = trainer.encode(report.params, img + 1e-6, txt + 1e-6)
    assert (a == b).mean() > 0.99


def test_epoch_time_roughly_linear_in_n():
    cs = generate_centers(4, 8, seed=0)
    cfg = _config(epochs=3, batch_size=32)
    small = make_synthetic(SynthSpec(4, 60, 8, 8, 0.2, 1.0, 0))
    big = make_synthetic(SynthSpec(4, 120, 8, 8, 0.2, 1.0, 0))
    t_small = min(trainer.train(small, cs, cfg, dims_hidden=8).epoch_seconds)
    t_big = min(trainer.train(big, cs, cfg, dims_hidden=8).epoch_seconds)
    assert t_big <= max(2.5 * t_small, t_small + 0.05)  # slack for timer noise
