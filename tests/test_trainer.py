import dataclasses
import glob
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from mvhash import loss, net, retrieval, trainer, workers
from mvhash.centers import generate_centers
from mvhash.data import SynthSpec, make_synthetic
from mvhash.errors import DivergenceError, InvalidArgument, ShapeMismatch
from oracles import CHECKPOINT_BLOCKS, seed_adam_step

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


# SMALL, and the train-multilabel benchmark head (44,584 parameters)
@pytest.mark.parametrize("dims", [SMALL, net.Dims(d_img=64, d_txt=64, d=84, code_length=64)],
                         ids=["small", "train_multilabel"])
def test_flat_adam_step_matches_per_block_loop(dims):
    p = net.init_params(dims, seed=3)
    blocks = {k: a.copy() for k, a in net.block_views(p.flat, p.dims).items()}
    m = {k: np.zeros_like(a) for k, a in blocks.items()}
    v = {k: np.zeros_like(a) for k, a in blocks.items()}
    state = trainer.AdamState(p)
    cfg = _config(learning_rate=3e-3, adam_betas=(0.8, 0.99), adam_epsilon=1e-7)
    rng = np.random.default_rng(4)
    for step in range(1, 8):
        scale = 10.0 ** rng.integers(-6, 3)
        grad = scale * rng.normal(size=p.flat.shape)
        trainer.adam_step(p, grad, state, step, cfg)
        seed_adam_step(blocks, net.block_views(grad, dims), m, v, step, cfg)
        state_m, state_v = net.block_views(state.m, dims), net.block_views(state.v, dims)
        for name in CHECKPOINT_BLOCKS:
            assert (net.block_views(p.flat, p.dims)[name] == blocks[name]).all(), (step, name)
            assert (state_m[name] == m[name]).all() and (state_v[name] == v[name]).all()


def test_blocks_are_views_of_flat_after_init_and_train():
    def assert_views(params):
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        # the named attributes, not block_views(flat), whose views hold by construction
        blocks = {name: getattr(params, name) for name in CHECKPOINT_BLOCKS}
        for name, block in blocks.items():
            assert np.shares_memory(block, params.flat), name
        params.flat[:] = np.arange(params.flat.size)
        assert np.concatenate([b.ravel() for b in blocks.values()]).tolist() \
            == list(range(params.flat.size))

    assert_views(net.init_params(SMALL, seed=0))
    ds = _tiny_dataset()
    report = trainer.train(ds, generate_centers(4, 8, seed=0), _config(epochs=2), dims_hidden=8)
    assert_views(report.params)


def _cpus(monkeypatch, cpus):
    """Pins the usable CPU count."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _no_openblas(monkeypatch):
    """The library lookup finds nothing to hold at one thread, as where numpy is built on
    MKL or Accelerate: workers.one_blas_thread sets nothing and yields False."""
    monkeypatch.setattr(workers, "_openblas", lambda: None)


@pytest.mark.parametrize("rows", ["1d", 0, 1, "R-1", "R", "R+1", "2R+3", "5R"])
def test_encode_in_row_blocks_equals_one_forward(rows, monkeypatch, pool):
    R = trainer._ENCODE_ROWS
    n = {"1d": 1, "R-1": R - 1, "R": R, "R+1": R + 1, "2R+3": 2 * R + 3, "5R": 5 * R}.get(rows, rows)
    dims = net.Dims(d_img=8, d_txt=8, d=6, code_length=37)
    rng = np.random.default_rng(6)
    img, txt = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    if rows == "1d":
        img, txt = img[0], txt[0]
    blocks, most = max(1, -(-n // R)), 1
    for fusion in ("gmu", "concat"):
        p = net.init_params(dims, seed=5, fusion=fusion)
        want = net.binarize(net.forward(p, img, txt)[0])
        serial = [net.binarize(net.forward(p, np.atleast_2d(img)[s:s + R],
                                           np.atleast_2d(txt)[s:s + R])[0])
                  for s in range(0, max(n, 1), R)]
        assert (np.concatenate(serial) == want).all()
        for cpus in (1, 2, 3):
            for pinned in (True, False):
                with monkeypatch.context() as m:
                    _cpus(m, cpus)
                    if not pinned:
                        _no_openblas(m)
                    threads = min(cpus, blocks) if pinned else 1
                    calls = pool.watch(threads)
                    got = trainer.encode(p, img, txt)
                most = max(most, threads)
                assert len(set(calls)) == threads
                assert len(pool.helpers) == most - 1  # no helper woken that no block needs
                assert len(calls) == blocks
                assert got.dtype == np.int8 and got.shape == (n, 37)
                assert (got == want).all()
                pool.check_idle(3, calls)


@pytest.mark.parametrize("pinned, threads", [(True, 3), (False, 1)])
def test_encode_uses_every_cpu_exactly_when_blas_is_pinned(monkeypatch, pool, pinned, threads):
    R = trainer._ENCODE_ROWS
    p = net.init_params(SMALL, seed=0)
    x = np.random.default_rng(1).normal(size=(3 * R, 8))
    with monkeypatch.context() as m:
        _no_openblas(m)
        want = trainer.encode(p, x, x)  # serial: no helper yet
    _cpus(monkeypatch, 3)
    if not pinned:
        _no_openblas(monkeypatch)
    calls = pool.watch(threads)
    assert (trainer.encode(p, x, x) == want).all()
    assert len(set(calls)) == threads and len(pool.helpers) == threads - 1
    pool.check_idle(3, calls)


def test_encode_takes_each_block_once_with_more_threads_than_cores(monkeypatch, pool):
    R = trainer._ENCODE_ROWS
    p = net.init_params(SMALL, seed=0)
    x = np.random.default_rng(3).normal(size=(40 * R + 5, 8))
    with monkeypatch.context() as m:
        _no_openblas(m)
        want = trainer.encode(p, x, x)
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(2):  # the second call reuses the 7 helpers of the first
            calls = pool.watch(8)
            got = trainer.encode(p, x, x)
            assert len(pool.helpers) == 7
            assert len(set(calls)) == 8 and len(calls) == 41  # each block taken exactly once
            assert (got == want).all()
            pool.check_idle(8, calls)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("pinned", [True, False])
def test_encode_raises_the_first_failing_block_error(monkeypatch, pool, cpus, pinned):
    R = trainer._ENCODE_ROWS
    p = net.init_params(SMALL, seed=0)
    rng = np.random.default_rng(2)
    img, txt = rng.normal(size=(5 * R, 8)), rng.normal(size=(5 * R, 8))
    img[4 * R + 7, 3] = np.inf  # the last block
    txt[3 * R + 1, 0] = np.nan  # an earlier block, with its own message
    with pytest.raises(InvalidArgument) as serial:
        net.forward(p, img[3 * R:4 * R], txt[3 * R:4 * R])
    assert str(serial.value) == "text features contains NaN/Inf"
    _cpus(monkeypatch, cpus)
    if not pinned:
        _no_openblas(monkeypatch)
    sizes = []
    for _ in range(3):
        with pytest.raises(InvalidArgument) as got:
            trainer.encode(p, img, txt)
        assert str(got.value) == str(serial.value)
        pool.check_idle(cpus)
        sizes.append(len(pool.helpers))
    assert sizes == [cpus - 1 if pinned else 0] * 3  # the helpers of the first call are reused
    img[3 * R + 1], txt[3 * R + 1] = 0.0, 0.0  # now only the last block fails, on its image
    with pytest.raises(InvalidArgument, match="^image features contains NaN/Inf$"):
        trainer.encode(p, img, txt)
    pool.check_idle(cpus)
    # both blocks of 2R rows fail, and with two threads both are in flight at once
    img, txt = img[:2 * R], txt[:2 * R]
    img[R + 5, 0], txt[2] = np.inf, np.nan
    threads = min(cpus, 2) if pinned else 1
    calls = pool.watch(threads)
    with pytest.raises(InvalidArgument, match="^text features contains NaN/Inf$"):
        trainer.encode(p, img, txt)
    assert len(set(calls)) == threads
    assert len(calls) == threads  # a serial encode stops at the failed block
    pool.check_idle(cpus, calls)


def test_encode_inputs_are_freed_once_it_returns(monkeypatch, pool):
    p = net.init_params(SMALL, seed=0)
    img = np.random.default_rng(4).normal(size=(4 * trainer._ENCODE_ROWS, 8))
    held = weakref.ref(img)
    _cpus(monkeypatch, 2)
    calls = pool.watch(2)
    trainer.encode(p, img, img)
    assert len(set(calls)) == 2
    del img
    assert held() is None  # no helper holds its last job, nor the rows that job read


def test_encode_checks_row_counts_and_widths():
    p = net.init_params(SMALL, seed=0)
    R = trainer._ENCODE_ROWS
    with pytest.raises(ShapeMismatch, match="batch sizes differ"):
        trainer.encode(p, np.ones((R, 8)), np.ones((R + 1, 8)))
    with pytest.raises(ShapeMismatch):
        trainer.encode(p, np.ones((0, 7)), np.ones((0, 8)))
    assert trainer.encode(p, np.ones((0, 8)), np.ones((0, 8))).shape == (0, 4)


# Run in fresh interpreters: it reads the OpenBLAS thread count through its own ctypes lookup,
# not mvhash's, and trains the 64/64/84/64 head at batch 64, whose gate product and gradient
# reductions two BLAS threads sum in another order than one. It prints what it saw as JSON.
_BLAS_PROBE = r"""
import ctypes, glob, hashlib, json, os, sys, threading
import numpy as np
from mvhash import net, trainer
from mvhash.centers import generate_centers
from mvhash.data import SynthSpec, make_synthetic
from mvhash.errors import DivergenceError

lib = ctypes.CDLL(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")[0])
count, set_count = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
local, meet, a_done = threading.local(), threading.Barrier(2), threading.Event()
inside, forward = [], net.forward

def counted(*args, **kwargs):  # the count that every forward, in train and encode, runs under
    local.calls = getattr(local, "calls", 0) + 1
    if getattr(local, "name", None) and local.calls == 1:
        meet.wait(60)  # both threads are inside train
    if getattr(local, "name", None) == "b" and local.calls == 3:
        a_done.wait(60)  # thread a has left train while b has steps to go
    inside.append(count())
    return forward(*args, **kwargs)

net.forward = counted
ds = make_synthetic(SynthSpec(num_classes=8, samples_per_class=40, d_img=64, d_txt=64, seed=3))
cs = generate_centers(8, 64, seed=3)

def train(**kw):
    cfg = trainer.TrainConfig(epochs=2, batch_size=64, seed=3, **kw)
    return trainer.train(ds, cs, cfg, dims_hidden=84).params

def sha(params):
    return hashlib.sha256(params.flat.tobytes()).hexdigest()

def in_thread(name, shas):
    local.name = name
    shas[name] = sha(train())
    if name == "a":
        a_done.set()

out = {"start": count(), "sha": sha(train()), "after": {"train": count()}}
if sys.argv[1] == "all":
    set_count(3)  # a count other than 1, also on a one-CPU host
    out["set"] = count()
    trainer.encode(train(), ds.image_features, ds.text_features)
    out["after"]["encode"] = count()
    with np.errstate(all="ignore"):
        try:
            train(learning_rate=1e308)
        except DivergenceError:
            out["after"]["DivergenceError"] = count()
    shas = {}
    threads = [threading.Thread(target=in_thread, args=(name, shas)) for name in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out["threads"], out["after"]["threads"] = shas, count()
out["inside"] = sorted(set(inside))
print(json.dumps(out))
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
OPENBLAS_FILES = glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")  # not mvhash's
needs_openblas = pytest.mark.skipif(not OPENBLAS_FILES, reason="no OpenBLAS in numpy.libs/")


@pytest.fixture(scope="module")
def blas_probes():
    """The probe with the BLAS thread variables unset ("all" of it), and with
    OPENBLAS_NUM_THREADS=1 (its first training only)."""
    path = [str(Path(trainer.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    out = {}
    for name, extra in (("all", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE, name], env={**env, **extra},
                              capture_output=True, text=True, check=True, timeout=300)
        out[name] = json.loads(done.stdout)
    return out


@needs_openblas
def test_train_bytes_do_not_depend_on_the_blas_thread_variables(blas_probes):
    unset, pinned = blas_probes["all"], blas_probes["pinned"]
    assert pinned["start"] == 1
    assert unset["sha"] == pinned["sha"]
    assert unset["inside"] == pinned["inside"] == [1]  # every forward ran under one thread


@needs_openblas
def test_blas_thread_count_is_restored_after_train_encode_and_divergence(blas_probes):
    unset = blas_probes["all"]
    assert unset["set"] == 3
    assert unset["after"] == {"train": unset["start"], "encode": 3, "DivergenceError": 3,
                              "threads": 3}


@needs_openblas
def test_two_threads_training_at_once_both_get_the_pinned_bytes(blas_probes):
    unset, pinned = blas_probes["all"], blas_probes["pinned"]
    assert unset["threads"] == {"a": pinned["sha"], "b": pinned["sha"]}
    assert unset["after"]["threads"] == 3 and unset["inside"] == [1]


@needs_openblas
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the fork start method")
def test_a_child_forked_during_a_hold_has_no_holders_and_the_saved_count():
    import ctypes

    lib = ctypes.CDLL(OPENBLAS_FILES[0])
    count, set_count = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    before, held, release = count(), threading.Event(), threading.Event()

    def hold():
        with workers.one_blas_thread():
            held.set()
            release.wait(60)

    set_count(3)  # a count other than 1, also on a one-CPU host
    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(60) and count() == 1
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        child = ctx.Process(target=lambda: out.put((workers._holders, count())))
        child.start()
        got = out.get(timeout=60)
        child.join(60)
    finally:
        release.set()
        holder.join(60)
        after = count()
        set_count(before)
    assert got == (0, 3) and after == 3


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
    with pytest.raises(InvalidArgument, match="unknown loss mode 'central'"):  # it is lam = 0
        trainer.TrainConfig(loss_mode="central")


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
    ("eval_every", -1, "eval_every"),
    ("eval_every", -3, "eval_every"),
    # counts that range() or the eval schedule would take only after the centers are built
    ("epochs", 2.5, "epochs"),
    ("batch_size", 2.5, "batch_size"),
    ("eval_every", 1.5, "eval_every"),
    ("seed", 1.5, "seed"),
    ("adam_betas", (0.9, 0.999, 0.9), r"^adam_betas must be a pair, got \(0.9, 0.999, 0.9\)$"),
    # each of these got past the old checks as a bare TypeError
    ("learning_rate", "0.1", "^learning_rate must be a real number, got '0.1'$"),
    ("dropout_p", "0.1", "^dropout_p must be a real number, got '0.1'$"),
    ("lam", None, "^lam must be a real number, got None$"),
    ("adam_betas", 0.9, "^adam_betas must be a pair, got 0.9$"),
    ("adam_betas", ("a", 0.9), r"^adam_betas\[0\] must be a real number, got 'a'$"),
    ("adam_betas", ((0.1, 0.2), 0.3), r"^adam_betas\[0\] must be a real number, got \(0.1, 0.2\)$"),
    # float() would raise a bare OverflowError
    pytest.param("lam", 10**400, "^lam is outside the float range$", id="lam-10**400"),
])
def test_config_rejects_bad_numbers(field, value, name):
    with pytest.raises(InvalidArgument, match=name):
        trainer.TrainConfig(**{field: value})


def test_config_rejects_a_negative_seed_and_keeps_a_large_one():
    with pytest.raises(InvalidArgument, match="^seed must be >= 0, got -1$"):
        trainer.TrainConfig(seed=-1)
    # default_rng and the tie coins take any integer >= 0; init_params gets a draw < 2^63
    assert trainer.TrainConfig(seed=2**64).seed == 2**64


def test_config_keeps_large_finite_learning_rate():
    assert trainer.TrainConfig(learning_rate=1e307).learning_rate == 1e307


@pytest.mark.parametrize("betas", [[0.0, 0.5], np.array([0.9, 0.999]), (np.float32(0.5), 0)])
def test_config_takes_any_pair_of_betas_as_given(betas):
    assert trainer.TrainConfig(adam_betas=betas).adam_betas is betas


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
    for name, arr in net.block_views(r1.params.flat, r1.params.dims).items():
        assert (arr == net.block_views(r2.params.flat, r2.params.dims)[name]).all()


def test_train_loss_decreases_on_separable_data():
    ds = _tiny_dataset()
    cs = generate_centers(4, 8, seed=0)
    report = trainer.train(ds, cs, _config(epochs=30), dims_hidden=8)
    assert report.epoch_losses[-1].l_total < report.epoch_losses[0].l_total
    assert len(report.epoch_losses) == 30
    assert len(report.epoch_seconds) == 30


def test_train_rejects_a_fractional_hidden_width():
    # numpy raised a bare TypeError on it
    with pytest.raises(InvalidArgument, match=r"^d must be an integer, got 3\.5$"):
        trainer.train(_tiny_dataset(), generate_centers(4, 8, seed=0), _config(), dims_hidden=3.5)


@pytest.mark.parametrize("step, message", [(0, "step_index must be >= 1, got 0"),
                                           (1.5, "step_index must be an integer, got 1.5")])
def test_adam_rejects_a_step_index_that_is_not_a_count(step, message):
    p = net.init_params(SMALL, seed=0)
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        trainer.adam_step(p, np.zeros_like(p.flat), trainer.AdamState(p), step, _config())


def test_train_rejects_class_mismatch():
    ds = _tiny_dataset()
    cs = generate_centers(5, 8, seed=0)
    with pytest.raises(InvalidArgument):
        trainer.train(ds, cs, _config())


def test_train_rejects_an_empty_train_split():
    ds = _tiny_dataset()
    empty = dataclasses.replace(ds, train_mask=np.zeros_like(ds.train_mask))
    with pytest.raises(InvalidArgument, match="^empty training set$"):
        trainer.train(empty, generate_centers(4, 8, seed=0), _config())


@pytest.mark.parametrize("split", ["retrieval", "query"])
def test_train_with_evaluation_rejects_an_empty_split_before_its_first_step(
        split, tmp_path, monkeypatch):
    ds = _tiny_dataset()
    empty = dataclasses.replace(ds, **{f"{split}_mask": np.zeros(len(ds), bool)})
    cs, path = generate_centers(4, 8, seed=0), tmp_path / "log.csv"
    with monkeypatch.context() as m:
        m.setattr(net, "forward", None)  # a step would call it
        with pytest.raises(InvalidArgument, match=f"^empty {split} split, "):
            trainer.train(empty, cs, _config(eval_every=2), dims_hidden=8, log_csv_path=path)
    assert not path.exists()  # not even the CSV header
    report = trainer.train(empty, cs, _config(epochs=2), dims_hidden=8, log_csv_path=path)
    assert len(report.epoch_losses) == 2 and report.final_map is None


def test_non_finite_loss_raises_divergence():
    # lam * l_quant overflows to inf in the first step, while the hash logits are finite
    cfg = _config(lam=1e308)
    diverged = pytest.raises(DivergenceError, match="^non-finite loss at epoch 1$")
    with np.errstate(over="ignore"), diverged:
        trainer.train(_tiny_dataset(), generate_centers(4, 8, seed=0), cfg, dims_hidden=8)


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


@pytest.mark.parametrize("loss_mode", loss.LOSS_MODES)
def test_each_step_calls_the_traced_functions_once(monkeypatch, loss_mode):
    # the benchmark's trace wraps these module attributes; train must reach
    # every one of them once per step, in every loss mode
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(net, "forward"), (net, "backward"),
                         (loss, "total_loss"), (trainer, "adam_step")]:
        counting(module, name)
    ds = _tiny_dataset()
    cfg = _config(epochs=2, batch_size=16, loss_mode=loss_mode)
    trainer.train(ds, generate_centers(4, 8, seed=0), cfg, dims_hidden=8)
    steps = 2 * -(-int(ds.train_mask.sum()) // 16)
    assert calls == dict.fromkeys(["forward", "total_loss", "backward", "adam_step"], steps)


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


@pytest.mark.parametrize("fusion", net.FUSION_MODES)
def test_trained_model_encodes_and_evaluates_in_its_fusion_mode(fusion):
    ds = _tiny_dataset(consistency=0.8)
    cfg = _config(epochs=4, eval_every=4, fusion=fusion)
    report = trainer.train(ds, generate_centers(4, 8, seed=0), cfg, dims_hidden=8)
    p = report.params
    assert p.fusion == fusion
    twin = net.ModelParams(p.dims, p.init_seed, p.flat.copy(), fusion)

    def forward_codes(mask):
        img, txt, labels = ds.subset(mask)
        return net.binarize(net.forward(twin, img, txt)[0]), labels

    img, txt = ds.image_features, ds.text_features
    assert (trainer.encode(p, img, txt) == forward_codes(np.ones(len(ds), bool))[0]).all()
    (r, rl), (q, ql) = forward_codes(ds.retrieval_mask), forward_codes(ds.query_mask)
    want = retrieval.mean_average_precision(q, ql, retrieval.RetrievalIndex.from_signs(r, rl))
    assert trainer.evaluate_map(p, ds) == want == report.final_map


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
