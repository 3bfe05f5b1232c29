"""Trainable head: normalization projections, gated fusion, hash layer.

Forward math (row-major batches, all float64):

    x_i = img @ W_vnorm.T + b_vnorm        (then optional dropout)
    x_t = txt @ W_tnorm.T + b_tnorm
    h_i = tanh(x_i @ W_i.T)
    h_t = tanh(x_t @ W_t.T)
    z   = sigmoid([x_i, x_t] @ W_z.T)
    h_f = z * h_i + (1 - z) * h_t
    he  = tanh(h_f @ W_hash.T + b_hash)

Fusion variants for ablations (ModelParams.fusion): "image" forces z = 1, "text"
forces z = 0, "concat" replaces the gate with a plain linear map h_f = [x_i, x_t] @ W_z.T.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, ShapeMismatch, integer

FUSION_MODES = ("gmu", "image", "text", "concat")


@dataclass(frozen=True)
class Dims:
    d_img: int
    d_txt: int
    d: int
    code_length: int

    def __post_init__(self):
        for name in ("d_img", "d_txt", "d", "code_length"):  # u32s in the .csmv, as Python ints
            object.__setattr__(self, name, integer(getattr(self, name), name, 1, 2**32))

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter block: the one declaration of the checkpoint order."""
        d, k = self.d, self.code_length
        return {
            "W_vnorm": (d, self.d_img), "b_vnorm": (d,),
            "W_tnorm": (d, self.d_txt), "b_tnorm": (d,),
            "W_i": (d, d), "W_t": (d, d), "W_z": (d, 2 * d),
            "W_hash": (k, d), "b_hash": (k,),
        }

    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes().values())


def block_views(flat: np.ndarray, dims: Dims) -> dict[str, np.ndarray]:
    """The named blocks of a vector in `Dims.param_shapes()` order, as reshaped views of it."""
    views, start = {}, 0
    for name, shape in dims.param_shapes().items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def first_non_finite(flat: np.ndarray, dims: Dims) -> tuple[str, int] | None:
    """(block name, flat index) of the first NaN/Inf in a vector in
    `Dims.param_shapes()` order, or None when every value is finite."""
    finite = np.isfinite(flat)
    if finite.all():
        return None
    index = int(np.argmin(finite))
    stop = 0
    for name, block in block_views(flat, dims).items():
        stop += block.size
        if index < stop:
            return name, index


class ModelParams:
    """Every parameter in one contiguous float64 vector, `flat`, laid out in
    `Dims.param_shapes()` order (the .csmv body). Each named block is a reshaped view
    of it, so writing a block writes `flat`; rebinding a block attribute
    would break that. `fusion` is the FUSION_MODES entry that forward runs."""

    W_vnorm: np.ndarray
    b_vnorm: np.ndarray
    W_tnorm: np.ndarray
    b_tnorm: np.ndarray
    W_i: np.ndarray
    W_t: np.ndarray
    W_z: np.ndarray
    W_hash: np.ndarray
    b_hash: np.ndarray

    def __init__(self, dims: Dims, init_seed: int, flat: np.ndarray, fusion: str = "gmu"):
        if fusion not in FUSION_MODES:
            raise InvalidArgument(f"unknown fusion mode {fusion!r}")
        init_seed = integer(init_seed, "init_seed", 0, 2**64)  # a u64 in the .csmv header
        if flat.dtype != np.float64 or flat.shape != (dims.param_count(),):
            raise ShapeMismatch(
                f"flat parameters: expected float64 ({dims.param_count()},), "
                f"got {flat.dtype} {flat.shape}"
            )
        self.dims = dims
        self.init_seed = init_seed
        self.fusion = fusion
        self.flat = np.ascontiguousarray(flat)
        self.__dict__.update(block_views(self.flat, dims))

    def check_finite(self):
        bad = first_non_finite(self.flat, self.dims)
        if bad is not None:
            raise InvalidArgument(f"parameter block {bad[0]} contains NaN/Inf")


def init_params(dims: Dims, seed: int, fusion: str = "gmu") -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    # ModelParams checks the seed, so it is built before any draw
    params = ModelParams(dims, seed, np.zeros(dims.param_count()), fusion)
    rng = np.random.default_rng(params.init_seed)
    for name, block in block_views(params.flat, dims).items():
        if name.startswith("W_"):  # drawn in Dims.param_shapes() order
            bound = 1.0 / np.sqrt(block.shape[1])
            block[...] = rng.uniform(-bound, bound, size=block.shape)
    return params


@dataclass
class ForwardCache:
    """Intermediates of one forward call, consumed by backward()."""

    fusion: str
    img: np.ndarray
    txt: np.ndarray
    mask_i: np.ndarray | None  # inverted-dropout multipliers (0 or 1/(1-p))
    mask_t: np.ndarray | None
    x_i: np.ndarray  # after dropout
    x_t: np.ndarray
    h_i: np.ndarray
    h_t: np.ndarray
    z: np.ndarray
    h_f: np.ndarray
    he: np.ndarray
    dims: Dims = field(repr=False, default=None)


def _as_batch(x, dim, what):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise ShapeMismatch(f"{what}: expected (*, {dim}), got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidArgument(f"{what} contains NaN/Inf")
    return a


def forward(
    params: ModelParams,
    image_feat: np.ndarray,
    text_feat: np.ndarray,
    dropout_masks: tuple[np.ndarray, np.ndarray] | np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Compute hash logits he in (-1,1)^K for a batch under params.fusion,
    caching intermediates."""
    fusion, dims = params.fusion, params.dims
    img = _as_batch(image_feat, dims.d_img, "image features")
    txt = _as_batch(text_feat, dims.d_txt, "text features")
    if img.shape[0] != txt.shape[0]:
        raise ShapeMismatch(f"batch sizes differ: {img.shape[0]} vs {txt.shape[0]}")

    x_i = img @ params.W_vnorm.T + params.b_vnorm
    x_t = txt @ params.W_tnorm.T + params.b_tnorm
    mask_i = mask_t = None
    if dropout_masks is not None:
        mask_i, mask_t = dropout_masks
        x_i = x_i * mask_i
        x_t = x_t * mask_t

    h_i = np.tanh(x_i @ params.W_i.T)
    h_t = np.tanh(x_t @ params.W_t.T)
    if fusion == "concat":  # modulated views concatenated, linear map reusing
        # the (d, 2d) gate matrix; the gate itself is gone
        z = np.full_like(h_i, 0.5)
        h_f = np.concatenate([h_i, h_t], axis=1) @ params.W_z.T
    else:  # gated; the image/text ablations pin the gate at 1/0
        if fusion == "gmu":
            z = 1.0 / (1.0 + np.exp(-(np.concatenate([x_i, x_t], axis=1) @ params.W_z.T)))
        else:
            z = np.full_like(h_i, 1.0 if fusion == "image" else 0.0)
        h_f = z * h_i + (1.0 - z) * h_t

    he = np.tanh(h_f @ params.W_hash.T + params.b_hash)
    cache = ForwardCache(
        fusion=fusion, img=img, txt=txt, mask_i=mask_i, mask_t=mask_t,
        x_i=x_i, x_t=x_t, h_i=h_i, h_t=h_t, z=z, h_f=h_f, he=he, dims=dims,
    )
    return he, cache


def _through_tanh(g_h, h, x, W, gW):
    """Back through h = tanh(x @ W.T): writes dL/dW into gW, returns dL/dx."""
    g_p = g_h * (1.0 - h**2)
    np.matmul(g_p.T, x, out=gW)
    return g_p @ W


def backward(
    params: ModelParams, cache: ForwardCache, grad_he: np.ndarray
) -> np.ndarray:
    """Exact gradient of sum(grad_he * he) w.r.t. every parameter, as one
    float64 vector laid out like params.flat; block_views names its blocks."""
    if cache.dims != params.dims:
        raise InvalidArgument("cache was produced under different dims")
    if cache.fusion != params.fusion:
        raise InvalidArgument(f"cache was produced under fusion {cache.fusion!r}, "
                              f"params run {params.fusion!r}")
    g_he = np.asarray(grad_he, dtype=np.float64)
    if g_he.shape != cache.he.shape:
        raise ShapeMismatch(f"grad_he shape {g_he.shape} != he shape {cache.he.shape}")

    d = params.dims.d
    grad = np.empty_like(params.flat)  # each block is written once below
    g = block_views(grad, params.dims)
    g_a = g_he * (1.0 - cache.he**2)  # through final tanh
    np.matmul(g_a.T, cache.h_f, out=g["W_hash"])
    np.sum(g_a, axis=0, out=g["b_hash"])
    g_hf = g_a @ params.W_hash

    tower_i = (cache.h_i, cache.x_i, params.W_i, g["W_i"])
    tower_t = (cache.h_t, cache.x_t, params.W_t, g["W_t"])
    if cache.fusion == "concat":
        hc = np.concatenate([cache.h_i, cache.h_t], axis=1)
        np.matmul(g_hf.T, hc, out=g["W_z"])
        g_xi = _through_tanh(g_hf @ params.W_z[:, :d], *tower_i)
        g_xt = _through_tanh(g_hf @ params.W_z[:, d:], *tower_t)
    else:  # gated; a pinned gate has z(1 - z) = 0, so W_z and the unused
        # view (factor z or 1 - z) get a zero gradient
        g_z = g_hf * (cache.h_i - cache.h_t)
        g_u = g_z * cache.z * (1.0 - cache.z)
        xc = np.concatenate([cache.x_i, cache.x_t], axis=1)
        np.matmul(g_u.T, xc, out=g["W_z"])
        g_xi = g_u @ params.W_z[:, :d] + _through_tanh(g_hf * cache.z, *tower_i)
        g_xt = g_u @ params.W_z[:, d:] + _through_tanh(g_hf * (1.0 - cache.z), *tower_t)

    for g_x, mask, feats, gW, gb in ((g_xi, cache.mask_i, cache.img, g["W_vnorm"], g["b_vnorm"]),
                                     (g_xt, cache.mask_t, cache.txt, g["W_tnorm"], g["b_tnorm"])):
        if mask is not None:
            g_x *= mask
        np.matmul(g_x.T, feats, out=gW)
        np.sum(g_x, axis=0, out=gb)
    return grad


def binarize(he: np.ndarray) -> np.ndarray:
    """Sign binarization; exact zero maps to -1 so codes are reproducible."""
    a = np.asarray(he)
    if not np.isfinite(a).all():
        raise InvalidArgument("hash logits contain NaN/Inf")
    return (a > 0).view(np.int8) * np.int8(2) - np.int8(1)

