import math

import numpy as np
import pytest

from mvhash import loss as L
from mvhash.errors import InvalidArgument
from oracles import central_difference, seed_batch_loss


def test_central_loss_perfect_match_limit():
    c = np.array([[1, -1, 1, -1]], dtype=float)
    he = c * (1 - 1e-9)
    val, _ = L.central_similarity_loss(he, c)
    assert val < 1e-6


def test_central_loss_at_half_probability():
    # he = 0 maps every bit to p = 0.5: ln 2 per bit, summed over K bits
    he = np.zeros((3, 4))
    c = np.sign(np.random.default_rng(0).normal(size=(3, 4)))
    val, _ = L.central_similarity_loss(he, c)
    assert val == pytest.approx(4 * math.log(2), rel=1e-12)


def test_central_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    he = rng.uniform(-0.9, 0.9, size=(3, 4))
    c = np.sign(rng.normal(size=(3, 4)))
    _, g = L.central_similarity_loss(he, c)
    ref = central_difference(lambda x: L.central_similarity_loss(x, c)[0], he, 1e-7)
    assert np.abs(g - ref).max() / np.abs(ref).max() < 1e-6


def test_central_loss_rejects_out_of_range():
    for bad in (1.2, -1.0000001, np.nan, np.inf, -np.inf):  # NaN compares False
        with pytest.raises(InvalidArgument, match=r"outside \[-1, 1\]"):
            L.central_similarity_loss(np.array([[bad, 0.0]]), np.array([[1, 1]]))


def test_central_loss_rejects_a_shape_mismatch():
    message = r"^shape mismatch: he \(2, 4\) vs centers \(2, 3\)$"
    with pytest.raises(InvalidArgument, match=message):
        L.central_similarity_loss(np.zeros((2, 4)), np.ones((2, 3)))


def test_central_loss_nonnegative_and_zero_only_at_center():
    rng = np.random.default_rng(2)
    he = rng.uniform(-0.99, 0.99, size=(5, 8))
    c = np.sign(rng.normal(size=(5, 8)))
    val, _ = L.central_similarity_loss(he, c)
    assert val > 0


def test_central_loss_is_additive_over_samples():
    # no sample-sample interaction: loss of a concatenated batch is the
    # sample-count-weighted mean of the parts (the linear-complexity property)
    rng = np.random.default_rng(3)
    he_a = rng.uniform(-0.9, 0.9, size=(3, 6))
    he_b = rng.uniform(-0.9, 0.9, size=(5, 6))
    c_a = np.sign(rng.normal(size=(3, 6)))
    c_b = np.sign(rng.normal(size=(5, 6)))
    la, _ = L.central_similarity_loss(he_a, c_a)
    lb, _ = L.central_similarity_loss(he_b, c_b)
    lab, _ = L.central_similarity_loss(np.vstack([he_a, he_b]), np.vstack([c_a, c_b]))
    assert lab == pytest.approx((3 * la + 5 * lb) / 8, rel=1e-12)


def test_quantization_loss_zero_at_corners():
    he = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    val, g = L.quantization_loss(he)
    assert val == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(g, 0.0)


def test_quantization_loss_at_zero():
    val, _ = L.quantization_loss(np.zeros((1, 1)))
    assert val == pytest.approx(math.log(math.cosh(1.0)), rel=1e-12)
    assert val == pytest.approx(0.433781, abs=1e-6)


def test_quantization_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    he = rng.uniform(0.1, 0.9, size=(3, 4)) * np.sign(rng.normal(size=(3, 4)))
    _, g = L.quantization_loss(he)
    ref = central_difference(lambda x: L.quantization_loss(x)[0], he, 1e-7)
    assert np.abs(g - ref).max() / np.abs(ref).max() < 1e-6


def test_quantization_loss_rejects_nan():
    with pytest.raises(InvalidArgument, match="^hash logits contain NaN/Inf$"):
        L.quantization_loss(np.array([[0.5, np.nan]]))


def test_quantization_loss_sign_flip_invariant():
    rng = np.random.default_rng(5)
    he = rng.uniform(-0.9, 0.9, size=(4, 7))
    flips = np.sign(rng.normal(size=(4, 7)))
    assert L.quantization_loss(he)[0] == pytest.approx(
        L.quantization_loss(he * flips)[0], rel=1e-12
    )


def test_total_loss_identity():
    rng = np.random.default_rng(6)
    he = rng.uniform(-0.9, 0.9, size=(3, 4))
    c = np.sign(rng.normal(size=(3, 4)))
    report, g = L.total_loss(he, c, lam=0.25)
    assert report.l_total == report.l_central + 0.25 * report.l_quant
    l_c, g_c = L.central_similarity_loss(he, c)
    l_q, g_q = L.quantization_loss(he)
    assert np.allclose(g, g_c + 0.25 * g_q)


def test_total_loss_lambda_zero_is_central_only():
    rng = np.random.default_rng(7)
    he = rng.uniform(-0.9, 0.9, size=(2, 4))
    c = np.sign(rng.normal(size=(2, 4)))
    report, g = L.total_loss(he, c, lam=0.0)
    assert report.l_total == report.l_central
    assert np.allclose(g, L.central_similarity_loss(he, c)[1])


def test_total_loss_arithmetic():
    # lam=0.25, L_c=0.5, L_q=0.2 -> 0.55 (checked through the report fields)
    report = L.LossReport(l_central=0.5, l_quant=0.2, l_total=0.5 + 0.25 * 0.2)
    assert report.l_total == pytest.approx(0.55)


def test_total_loss_rejects_negative_lambda():
    with pytest.raises(InvalidArgument):
        L.total_loss(np.zeros((1, 2)), np.ones((1, 2)), lam=-0.1)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), -1.0, "x"])
def test_total_loss_rejects_non_finite_or_negative_lambda(lam):
    with pytest.raises(InvalidArgument, match="^lam must be "):
        L.total_loss(np.zeros((1, 2)), np.ones((1, 2)), lam=lam)


def test_total_loss_rejects_unknown_mode():
    with pytest.raises(InvalidArgument, match="unknown loss mode 'bce'"):
        L.total_loss(np.zeros((1, 2)), np.ones((1, 2)), mode="bce")
    with pytest.raises(InvalidArgument, match="unknown loss mode 'central'"):  # it is lam = 0
        L.total_loss(np.zeros((1, 2)), np.ones((1, 2)), mode="central")


@pytest.mark.parametrize("mode", ["full", "central", "quant"])
@pytest.mark.parametrize("lam", [0.0, 0.25, 3.0])
def test_total_loss_mode_matches_seed_dispatch(mode, lam):
    rng = np.random.default_rng(8)
    he = np.tanh(rng.normal(size=(64, 37)))
    he[0, :3] = [1.0, -1.0, 0.0]  # the clamped corners and the quantization subgradient
    c = np.sign(rng.normal(size=(64, 37)))
    if mode == "central":  # the oracle's central mode, whatever its lam, is full at lam = 0
        report, g = L.total_loss(he, c, 0.0, "full")
    else:
        report, g = L.total_loss(he, c, lam, mode)
    want, want_g = seed_batch_loss(he, c, lam, mode)
    assert (report.l_central, report.l_quant, report.l_total) == (
        want.l_central, want.l_quant, want.l_total)
    assert g.tobytes() == want_g.tobytes()
    if mode == "central":  # lam = 0, but the quantization term is still reported
        assert report.l_quant == L.quantization_loss(he)[0] > 0
