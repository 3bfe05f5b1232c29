"""Central-similarity BCE loss, log-cosh quantization loss, and their blend."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, real

PROB_EPS = 1e-7  # tanh outputs can round to +-1; clamp before logs
DEFAULT_LAMBDA = 0.25
LOSS_MODES = ("full", "quant")  # quant: BCE removed; lam = 0 is central-only


@dataclass(frozen=True)
class LossReport:
    l_central: float
    l_quant: float
    l_total: float


def central_similarity_loss(
    he_batch: np.ndarray, center_batch: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean BCE between codes and their semantic centers, both mapped to [0,1].

    Reduction: mean over samples of the per-bit sum. Returns (loss, dloss/dhe).
    """
    he = np.asarray(he_batch, dtype=np.float64)
    c = np.asarray(center_batch, dtype=np.float64)
    if he.shape != c.shape:
        raise InvalidArgument(f"shape mismatch: he {he.shape} vs centers {c.shape}")
    if not np.abs(he).max(initial=0.0) <= 1.0:  # NaN fails this too
        raise InvalidArgument("hash logits outside [-1, 1]")
    n = he.shape[0]
    p = np.clip((1.0 + he) / 2.0, PROB_EPS, 1.0 - PROB_EPS)
    t = (1.0 + c) / 2.0
    loss = -np.sum(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)) / n
    grad = -(t / p - (1.0 - t) / (1.0 - p)) * 0.5 / n
    return float(loss), grad


def quantization_loss(he_batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over samples of sum_k log cosh(|he_k| - 1); pushes logits to +-1."""
    he = np.asarray(he_batch, dtype=np.float64)
    if not np.isfinite(he).all():
        raise InvalidArgument("hash logits contain NaN/Inf")
    n = he.shape[0]
    u = np.abs(he) - 1.0
    # log(cosh(u)) computed stably as |u| + log1p(exp(-2|u|)) - log 2
    au = np.abs(u)
    loss = np.sum(au + np.log1p(np.exp(-2.0 * au)) - np.log(2.0)) / n
    grad = np.tanh(u) * np.sign(he) / n  # subgradient 0 at he = 0
    return float(loss), grad


def total_loss(
    he_batch: np.ndarray,
    center_batch: np.ndarray,
    lam: float = DEFAULT_LAMBDA,
    mode: str = "full",
) -> tuple[LossReport, np.ndarray]:
    """L_total = L_central + lam * L_quant, with the combined gradient.

    mode "quant" drops the BCE term: L_total = L_quant and L_central is reported as 0.
    """
    if mode not in LOSS_MODES:
        raise InvalidArgument(f"unknown loss mode {mode!r}")
    real(lam, "lam", "[0, inf)")
    l_q, g_q = quantization_loss(he_batch)
    if mode == "quant":
        return LossReport(l_central=0.0, l_quant=l_q, l_total=l_q), g_q
    l_c, g_c = central_similarity_loss(he_batch, center_batch)
    return LossReport(l_central=l_c, l_quant=l_q, l_total=l_c + lam * l_q), g_c + lam * g_q
