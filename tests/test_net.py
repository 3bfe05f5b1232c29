import math
import re

import numpy as np
import pytest

from mvhash import net
from mvhash.errors import InvalidArgument, ShapeMismatch
from oracles import CHECKPOINT_BLOCKS, central_difference, seed_backward, seed_init_blocks

SMALL = net.Dims(d_img=8, d_txt=8, d=6, code_length=4)


def test_init_deterministic():
    a = net.init_params(SMALL, seed=5)
    b = net.init_params(SMALL, seed=5)
    for name, arr in net.block_views(a.flat, a.dims).items():
        assert (arr == net.block_views(b.flat, b.dims)[name]).all()


@pytest.mark.parametrize("dims", [SMALL, net.Dims(d_img=64, d_txt=48, d=84, code_length=37)])
def test_init_matches_per_block_draws(dims):
    p = net.init_params(dims, seed=2**63 + 5)
    want = seed_init_blocks(dims, 2**63 + 5)
    assert list(net.block_views(p.flat, p.dims)) == list(want) == list(CHECKPOINT_BLOCKS)
    for name, block in net.block_views(p.flat, p.dims).items():
        assert block.shape == want[name].shape and (block == want[name]).all(), name
    assert (p.flat == np.concatenate([a.ravel() for a in want.values()])).all()


def test_init_biases_zero_and_scale():
    p = net.init_params(net.Dims(64, 64, 64, 16), seed=1)
    assert (p.b_vnorm == 0).all() and (p.b_hash == 0).all()
    # uniform(-1/8, 1/8) has std (1/8)/sqrt(3); check within 20% of 1/sqrt(64)... of the
    # uniform std, sampled over a 64x64 matrix
    expected = (1 / math.sqrt(64)) / math.sqrt(3)
    assert abs(p.W_i.std() - expected) / expected < 0.2


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_init_rejects_a_seed_outside_u64_before_drawing(seed, monkeypatch):
    def no_draw(*args):
        raise AssertionError("weights were drawn before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    message = "must be >= 0, got -1" if seed < 0 else f"{seed} is outside [0, 2^64)"
    with pytest.raises(InvalidArgument, match=f"^init_seed {re.escape(message)}$"):
        net.init_params(SMALL, seed)


def test_init_rejects_bad_dims():
    with pytest.raises(InvalidArgument, match="^d_img must be >= 1, got 0$"):
        net.Dims(0, 8, 6, 4)
    with pytest.raises(InvalidArgument, match=r"^d must be an integer, got 3\.5$"):
        net.Dims(d_img=8, d_txt=8, d=3.5, code_length=4)


@pytest.mark.parametrize("field", ["d_img", "d_txt", "d", "code_length"])
def test_dims_hold_what_a_u32_csmv_field_holds(field):
    fields = {"d_img": 8, "d_txt": 8, "d": 6, "code_length": 4}
    assert getattr(net.Dims(**{**fields, field: 2**32 - 1}), field) == 2**32 - 1
    with pytest.raises(InvalidArgument, match=rf"^{field} 4294967296 is outside \[1, 2\^32\)$"):
        net.Dims(**{**fields, field: 2**32})


def test_init_seed_must_be_an_integer():
    # 1.5 used to build, then fail in struct.pack when saved
    with pytest.raises(InvalidArgument, match=r"^init_seed must be an integer, got 1\.5$"):
        net.ModelParams(SMALL, 1.5, np.zeros(SMALL.param_count()))
    with pytest.raises(InvalidArgument, match=r"^init_seed must be an integer, got 1\.5$"):
        net.init_params(SMALL, 1.5)
    assert type(net.init_params(SMALL, np.uint64(3)).init_seed) is int


def test_params_carry_a_known_fusion_mode():
    assert net.init_params(SMALL, seed=0).fusion == "gmu"
    for fusion in net.FUSION_MODES:
        assert net.init_params(SMALL, seed=0, fusion=fusion).fusion == fusion
    with pytest.raises(InvalidArgument, match="unknown fusion mode 'sum'"):
        net.init_params(SMALL, seed=0, fusion="sum")
    with pytest.raises(InvalidArgument, match="unknown fusion mode"):
        net.ModelParams(SMALL, 0, np.zeros(SMALL.param_count()), None)


def _zero_params(dims=SMALL):
    p = net.init_params(dims, seed=0)
    for arr in net.block_views(p.flat, p.dims).values():
        arr[:] = 0.0
    return p


def test_forward_zero_params_fixed_point():
    p = _zero_params()
    he, cache = net.forward(p, np.ones(8), np.ones(8))
    assert (cache.z == 0.5).all()
    assert (cache.h_i == 0).all() and (cache.h_t == 0).all()
    assert (he == 0).all()


def test_forward_gate_saturation():
    rng = np.random.default_rng(0)
    p = net.init_params(SMALL, seed=1)
    img, txt = rng.normal(size=8), rng.normal(size=8)
    _, cache = net.forward(p, img, txt)
    # scale gate rows so the (positive-logit) gate saturates toward 1
    logits = np.concatenate([cache.x_i, cache.x_t], axis=1) @ p.W_z.T
    p.W_z *= np.where(logits[0] > 0, 1e3, -1e3)[:, None]
    _, cache2 = net.forward(p, img, txt)
    assert np.allclose(cache2.h_f, cache2.h_i, atol=1e-6)


def test_forward_matches_scalar_oracle():
    # independent scalar re-implementation of the five-step forward pass
    dims = net.Dims(d_img=2, d_txt=2, d=2, code_length=2)
    p = net.init_params(dims, seed=7)
    img, txt = np.array([0.3, -1.2]), np.array([0.8, 0.1])

    def dot(mat, vec):
        return [sum(mat[r][c] * vec[c] for c in range(len(vec))) for r in range(len(mat))]

    x_i = [a + b for a, b in zip(dot(p.W_vnorm.tolist(), img.tolist()), p.b_vnorm)]
    x_t = [a + b for a, b in zip(dot(p.W_tnorm.tolist(), txt.tolist()), p.b_tnorm)]
    h_i = [math.tanh(v) for v in dot(p.W_i.tolist(), x_i)]
    h_t = [math.tanh(v) for v in dot(p.W_t.tolist(), x_t)]
    z = [1 / (1 + math.exp(-v)) for v in dot(p.W_z.tolist(), x_i + x_t)]
    h_f = [zz * a + (1 - zz) * b for zz, a, b in zip(z, h_i, h_t)]
    he_ref = [math.tanh(v + bb) for v, bb in zip(dot(p.W_hash.tolist(), h_f), p.b_hash)]

    he, _ = net.forward(p, img, txt)
    assert np.allclose(he[0], he_ref, atol=1e-12, rtol=0)


# SMALL, and the train-multilabel benchmark head with its batch of 64
@pytest.mark.parametrize("dims, n", [(SMALL, 3), (net.Dims(64, 64, 84, 64), 64)],
                         ids=["small", "train_multilabel"])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("fusion, gate", [("image", 1.0), ("text", 0.0)])
def test_pinned_gate_forward_is_the_kept_view_alone(fusion, gate, dropout, dims, n):
    rng = np.random.default_rng(34)
    p = net.init_params(dims, seed=35, fusion=fusion)
    img, txt = rng.normal(size=(n, dims.d_img)), rng.normal(size=(n, dims.d_txt))
    masks = (rng.random((2, n, dims.d)) < 0.9) / 0.9 if dropout else None
    he, cache = net.forward(p, img, txt, dropout_masks=masks)
    feats, W_norm, b_norm, W, view = {
        "image": (img, p.W_vnorm, p.b_vnorm, p.W_i, 0),
        "text": (txt, p.W_tnorm, p.b_tnorm, p.W_t, 1),
    }[fusion]
    x = feats @ W_norm.T + b_norm
    if dropout:
        x = x * masks[view]
    h = np.tanh(x @ W.T)
    assert (cache.z == gate).all()
    assert (he == np.tanh(h @ p.W_hash.T + p.b_hash)).all()


def test_forward_range_invariants():
    rng = np.random.default_rng(3)
    p = net.init_params(SMALL, seed=2)
    he, cache = net.forward(p, rng.normal(size=(16, 8)), rng.normal(size=(16, 8)))
    assert ((cache.z > 0) & (cache.z < 1)).all()
    assert ((he > -1) & (he < 1)).all()
    # the gate mixture lies elementwise between its two inputs
    lo = np.minimum(cache.h_i, cache.h_t)
    hi = np.maximum(cache.h_i, cache.h_t)
    assert ((cache.h_f >= lo - 1e-12) & (cache.h_f <= hi + 1e-12)).all()


def test_forward_is_pure():
    rng = np.random.default_rng(4)
    p = net.init_params(SMALL, seed=2)
    img, txt = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    he1, _ = net.forward(p, img, txt)
    he2, _ = net.forward(p, img, txt)
    assert (he1 == he2).all()


def test_forward_shape_and_finite_errors():
    p = net.init_params(SMALL, seed=2)
    with pytest.raises(ShapeMismatch):
        net.forward(p, np.ones(5), np.ones(8))
    with pytest.raises(ShapeMismatch, match="^batch sizes differ: 2 vs 3$"):
        net.forward(p, np.ones((2, 8)), np.ones((3, 8)))
    bad = np.ones(8)
    bad[0] = np.nan
    with pytest.raises(InvalidArgument):
        net.forward(p, bad, np.ones(8))


@pytest.mark.parametrize("dtype, size", [(np.float32, 0), (np.float64, 1)])
def test_params_reject_a_flat_buffer_of_another_dtype_or_size(dtype, size):
    n = SMALL.param_count()
    flat = np.zeros(n + size, dtype)
    with pytest.raises(ShapeMismatch, match=rf"^flat parameters: expected float64 \({n},\), "
                                            rf"got {np.dtype(dtype)} \({n + size},\)$"):
        net.ModelParams(SMALL, 0, flat)


def finite_difference_grads(p, img, txt, grad_he, masks=None, eps=1e-5):
    """Central differences of sum(grad_he * he) w.r.t. every parameter."""
    def f(_):  # each block is a view of p.flat, so forward sees the perturbation
        return np.sum(grad_he * net.forward(p, img, txt, dropout_masks=masks)[0])

    return {name: central_difference(f, arr, eps)
            for name, arr in net.block_views(p.flat, p.dims).items()}


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for name, g in net.block_views(analytic, SMALL).items():
        ref = numeric[name]
        denom = max(np.abs(ref).max(), np.abs(g).max(), 1e-8)
        assert np.abs(g - ref).max() / denom < rtol, name


@pytest.mark.parametrize("fusion", net.FUSION_MODES)
def test_backward_matches_finite_differences(fusion):
    rng = np.random.default_rng(10)
    p = net.init_params(SMALL, seed=11, fusion=fusion)
    img, txt = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    grad_he = rng.normal(size=(3, 4))
    he, cache = net.forward(p, img, txt)
    analytic = net.backward(p, cache, grad_he)
    numeric = finite_difference_grads(p, img, txt, grad_he)
    assert_grads_close(analytic, numeric)


def test_backward_with_dropout_masks():
    rng = np.random.default_rng(12)
    p = net.init_params(SMALL, seed=13)
    img, txt = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    keep = 0.9
    masks = ((rng.random((4, 6)) < keep) / keep, (rng.random((4, 6)) < keep) / keep)
    grad_he = rng.normal(size=(4, 4))
    he, cache = net.forward(p, img, txt, dropout_masks=masks)
    analytic = net.backward(p, cache, grad_he)
    numeric = finite_difference_grads(p, img, txt, grad_he, masks=masks)
    assert_grads_close(analytic, numeric)


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(14)
    p = net.init_params(SMALL, seed=15)
    he, cache = net.forward(p, rng.normal(size=(2, 8)), rng.normal(size=(2, 8)))
    grad = net.backward(p, cache, np.zeros_like(he))
    assert grad.shape == p.flat.shape and (grad == 0).all()


def test_backward_gate_grad_vanishes_when_views_agree():
    # force h_i == h_t by sharing weights and feeding identical views
    p = net.init_params(SMALL, seed=16)
    p.W_tnorm[:] = p.W_vnorm
    p.b_tnorm[:] = p.b_vnorm
    p.W_t[:] = p.W_i
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 8))
    he, cache = net.forward(p, x, x)
    assert np.allclose(cache.h_i, cache.h_t)
    grad = net.backward(p, cache, rng.normal(size=(3, 4)))
    assert np.abs(net.block_views(grad, SMALL)["W_z"]).max() < 1e-12


# SMALL, and the train-multilabel benchmark head with its batch of 64
@pytest.mark.parametrize("dims, n", [(SMALL, 3), (net.Dims(64, 64, 84, 64), 64)],
                         ids=["small", "train_multilabel"])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("fusion", net.FUSION_MODES)
def test_flat_backward_equals_per_block_oracle(fusion, dropout, dims, n):
    rng = np.random.default_rng(30)
    p = net.init_params(dims, seed=31, fusion=fusion)
    img, txt = rng.normal(size=(n, dims.d_img)), rng.normal(size=(n, dims.d_txt))
    masks = None
    if dropout:
        masks = tuple((rng.random((n, dims.d)) < 0.9) / 0.9 for _ in range(2))
    he, cache = net.forward(p, img, txt, dropout_masks=masks)
    grad_he = rng.normal(size=he.shape)
    grad = net.backward(p, cache, grad_he)
    assert grad.dtype == np.float64 and grad.shape == p.flat.shape
    want = seed_backward(p, cache, grad_he)
    for name, block in net.block_views(grad, dims).items():
        assert (block == want[name]).all(), name


@pytest.mark.parametrize("fusion, unused", [("image", ("W_tnorm", "b_tnorm", "W_t")),
                                            ("text", ("W_vnorm", "b_vnorm", "W_i"))])
def test_backward_leaves_gate_and_unused_view_at_zero(fusion, unused):
    rng = np.random.default_rng(32)
    p = net.init_params(SMALL, seed=33, fusion=fusion)
    masks = tuple((rng.random((4, 6)) < 0.9) / 0.9 for _ in range(2))
    he, cache = net.forward(p, rng.normal(size=(4, 8)), rng.normal(size=(4, 8)),
                            dropout_masks=masks)
    grads = net.block_views(net.backward(p, cache, rng.normal(size=he.shape)), SMALL)
    for name, block in grads.items():
        if name == "W_z" or name in unused:
            assert (block == 0).all(), name
        else:
            assert (block != 0).any(), name


def test_backward_rejects_mismatched_cache():
    rng = np.random.default_rng(18)
    p = net.init_params(SMALL, seed=19)
    he, cache = net.forward(p, rng.normal(size=(2, 8)), rng.normal(size=(2, 8)))
    with pytest.raises(ShapeMismatch, match=r"^grad_he shape \(5, 4\) != he shape \(2, 4\)$"):
        net.backward(p, cache, np.zeros((5, 4)))
    other = net.init_params(net.Dims(8, 8, 5, 4), seed=19)
    with pytest.raises(InvalidArgument, match="^cache was produced under different dims$"):
        net.backward(other, cache, np.zeros_like(he))


@pytest.mark.parametrize("made, run", [("concat", "gmu"), ("gmu", "concat"), ("image", "text")])
def test_backward_rejects_cache_of_another_fusion_mode(made, run):
    rng = np.random.default_rng(20)
    img, txt = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    he, cache = net.forward(net.init_params(SMALL, seed=21, fusion=made), img, txt)
    params = net.init_params(SMALL, seed=21, fusion=run)
    with pytest.raises(InvalidArgument, match=f"fusion '{made}', params run '{run}'"):
        net.backward(params, cache, np.ones_like(he))


def test_binarize():
    assert net.binarize(np.array([0.9, -0.2, 0.0001, -0.9])).tolist() == [1, -1, 1, -1]
    assert net.binarize(np.zeros(4)).tolist() == [-1, -1, -1, -1]
    assert net.binarize(np.array([-0.0, 0.0])).tolist() == [-1, -1]
    assert net.binarize(np.ones((2, 3))).dtype == np.int8
    he = np.array([0.3, -0.7, 0.01, -0.001])
    assert (net.binarize(he) == net.binarize(0.5 * he)).all()
    for bad in (np.nan, np.inf, -np.inf):  # a sign would make up a bit
        with pytest.raises(InvalidArgument, match="^hash logits contain NaN/Inf$"):
            net.binarize(np.array([0.5, bad]))


def test_gate_values():
    p = _zero_params()
    z = net.forward(p, np.ones(8), np.ones(8))[1].z
    assert (z == 0.5).all()
    rng = np.random.default_rng(20)
    p2 = net.init_params(SMALL, seed=21)
    z2 = net.forward(p2, rng.normal(size=8), rng.normal(size=8))[1].z
    assert ((z2 > 0) & (z2 < 1)).all()


def test_gate_swap_symmetry():
    # negating the gate matrix while swapping its halves and the two inputs
    # flips the gate: z -> 1 - z
    dims = net.Dims(d_img=8, d_txt=8, d=6, code_length=4)
    p = net.init_params(dims, seed=22)
    p.W_tnorm[:] = p.W_vnorm
    p.b_tnorm[:] = p.b_vnorm
    rng = np.random.default_rng(23)
    a, b = rng.normal(size=8), rng.normal(size=8)
    z = net.forward(p, a, b)[1].z
    d = dims.d
    p.W_z[:] = -np.concatenate([p.W_z[:, d:], p.W_z[:, :d]], axis=1)
    z_swapped = net.forward(p, b, a)[1].z
    assert np.allclose(z_swapped, 1.0 - z, atol=1e-12)
