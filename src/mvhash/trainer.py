"""Mini-batch Adam training of the fusion head under the central-similarity loss."""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import loss as loss_mod
from . import net, retrieval, workers
from .centers import HashCenterSet, semantic_centers_for
from .data import SPLITS, MultiViewDataset
from .errors import DivergenceError, FormatError, InvalidArgument, ShapeMismatch, integer, real

DEFAULT_HIDDEN_DIM = 84  # width d of each view's tanh tower


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_epsilon: float = 1e-8
    lam: float = loss_mod.DEFAULT_LAMBDA
    dropout_p: float = 0.1
    seed: int = 0
    eval_every: int = 0          # 0 disables in-training mAP evaluation
    fusion: str = "gmu"          # gmu | image | text | concat
    loss_mode: str = "full"      # full | quant (BCE removed); lam = 0 is central-only

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("eval_every", 0), ("seed", 0)):
            integer(getattr(self, name), name, least)
        for name, interval in (("learning_rate", "(0, inf)"), ("adam_epsilon", "(0, inf)"),
                               ("dropout_p", "[0, 1)"), ("lam", "[0, inf)")):
            real(getattr(self, name), name, interval)
        if np.asarray(self.adam_betas, dtype=object).shape != (2,):  # shaped even if ragged
            raise InvalidArgument(f"adam_betas must be a pair, got {self.adam_betas!r}")
        for i, beta in enumerate(self.adam_betas):
            real(beta, f"adam_betas[{i}]", "[0, 1)")
        if self.fusion not in net.FUSION_MODES:
            raise InvalidArgument(f"unknown fusion mode {self.fusion!r}")
        if self.loss_mode not in loss_mod.LOSS_MODES:
            raise InvalidArgument(f"unknown loss mode {self.loss_mode!r}")


@dataclass
class TrainReport:
    epoch_losses: list[loss_mod.LossReport] = field(default_factory=list)
    eval_epochs: list[int] = field(default_factory=list)
    eval_maps: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    params: net.ModelParams | None = None

    @property
    def final_map(self) -> float | None:
        return self.eval_maps[-1] if self.eval_maps else None


class AdamState:
    """First/second moment estimates `m`/`v` and the scratch vectors one
    update needs, as flat vectors laid out like `params.flat`."""

    def __init__(self, params: net.ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = np.empty_like(params.flat)
        self.denom = np.empty_like(params.flat)


def adam_step(
    params: net.ModelParams,
    grad: np.ndarray,
    state: AdamState,
    step_index: int,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update of `params.flat`, in place, from a
    gradient laid out like it (as net.backward returns it); `grad` is only read.

    Per element, in this order: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr * m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps).
    """
    integer(step_index, "step_index", 1)
    if np.shape(grad) != params.flat.shape:  # a 1-element one would broadcast
        raise ShapeMismatch(f"gradient shape {np.shape(grad)} != parameters {params.flat.shape}")
    b1, b2 = config.adam_betas
    lr, eps = config.learning_rate, config.adam_epsilon
    bad = net.first_non_finite(grad, params.dims)
    if bad is not None:
        raise DivergenceError(f"non-finite gradient in block {bad[0]}")
    m, v, tmp, denom = state.m, state.v, state.scratch, state.denom
    np.multiply(grad, 1 - b1, out=tmp)
    m *= b1
    m += tmp
    np.multiply(grad, 1 - b2, out=tmp)
    tmp *= grad
    v *= b2
    v += tmp
    np.divide(m, 1 - b1**step_index, out=tmp)  # m_hat
    tmp *= lr
    np.divide(v, 1 - b2**step_index, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += eps
    tmp /= denom
    params.flat -= tmp


def evaluate_map(params, dataset: MultiViewDataset) -> float:
    """Encode query/retrieval splits and compute full-R mAP."""
    ri, rt, rl = dataset.subset(dataset.retrieval_mask)
    qi, qt, ql = dataset.subset(dataset.query_mask)
    r_codes = encode(params, ri, rt)
    q_codes = encode(params, qi, qt)
    index = retrieval.RetrievalIndex.from_signs(r_codes, rl)
    return retrieval.mean_average_precision(q_codes, ql, index)


# rows per forward pass in encode. Over 100k rows (K=64, hidden 84, 2-core x86-64,
# OpenBLAS one thread) two threads took 0.23-0.30 s at 512 rows and 0.24-0.33 s at
# 256 or 1024, with a peak 5 MB below one thread's at 1024. One thread was fastest
# at 512-1024: 0.43 s, against 0.66 s at 4096 and 0.93 s (600 MB) in one pass.
_ENCODE_ROWS = 512


def encode(params, image_feats, text_feats) -> np.ndarray:
    """Inference path: forward without dropout, then sign binarization, over blocks
    of _ENCODE_ROWS rows. Where workers.one_blas_thread holds BLAS at one thread the
    blocks run on every usable CPU, through workers.run; elsewhere they run serially."""
    img = np.atleast_2d(image_feats)
    txt = np.atleast_2d(text_feats)
    n = img.shape[0]
    if txt.shape[0] != n:
        raise ShapeMismatch(f"batch sizes differ: {n} vs {txt.shape[0]}")
    codes = np.empty((n, params.dims.code_length), dtype=np.int8)

    def block(start):  # numpy releases the GIL inside BLAS and ufunc loops
        rows = slice(start, start + _ENCODE_ROWS)
        codes[rows] = net.binarize(net.forward(params, img[rows], txt[rows])[0])

    with workers.one_blas_thread() as pinned:
        # at least one block, so that forward checks the widths of an empty input too
        workers.run(range(0, max(n, 1), _ENCODE_ROWS), block, pinned)
    return codes


def _log_row(path, row, mode="a"):
    """Write one CSV log row and close the file: a run that diverges keeps its finished epochs."""
    if path is not None:
        try:
            with open(path, mode, newline="") as fh:
                csv.writer(fh).writerow(row)
        except OSError as exc:  # no such directory, a directory, not permitted
            raise FormatError(f"{path}: cannot write: {exc.strerror}") from exc


@workers.one_blas_thread()  # one BLAS thread: the same bytes whatever the thread count
def train(
    dataset: MultiViewDataset,
    centers: HashCenterSet,
    config: TrainConfig,
    dims_hidden: int = DEFAULT_HIDDEN_DIM,
    log_csv_path=None,
) -> TrainReport:
    """Shuffled mini-batch Adam over the train split for config.epochs epochs."""
    if len(dataset) == 0 or not dataset.train_mask.any():
        raise InvalidArgument("empty training set")
    for split in SPLITS[1:] if config.eval_every else ():
        if not getattr(dataset, f"{split}_mask").any():
            raise InvalidArgument(f"empty {split} split, which eval_every > 0 evaluates on")
    if dataset.num_classes != centers.num_classes:
        raise InvalidArgument(
            f"dataset has {dataset.num_classes} classes, centers {centers.num_classes}"
        )
    img, txt, labels = dataset.subset(dataset.train_mask)
    n = img.shape[0]
    dims = net.Dims(
        d_img=img.shape[1], d_txt=txt.shape[1],
        d=dims_hidden, code_length=centers.code_length,
    )
    rng = np.random.default_rng(config.seed)
    params = net.init_params(dims, seed=int(rng.integers(2**63)), fusion=config.fusion)
    state = AdamState(params)
    # labels are static: resolve every sample's semantic center once
    targets = semantic_centers_for(labels, centers, seed=config.seed)

    report = TrainReport()
    _log_row(log_csv_path, ["epoch", "l_central", "l_quant", "l_total", "test_map"], "w")
    step = 0
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        sums = {"l_central": 0.0, "l_quant": 0.0, "l_total": 0.0}
        seen = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            masks = None
            if config.dropout_p > 0:  # (image mask, text mask) from one draw
                keep = 1.0 - config.dropout_p
                masks = (rng.random((2, idx.size, dims.d)) < keep) / keep
            he, cache = net.forward(params, img[idx], txt[idx], dropout_masks=masks)
            if not np.isfinite(he).all():
                raise DivergenceError(f"non-finite hash logits at epoch {epoch}")
            batch_report, grad_he = loss_mod.total_loss(
                he, targets[idx], config.lam, config.loss_mode
            )
            if not np.isfinite(batch_report.l_total):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            grad = net.backward(params, cache, grad_he)
            step += 1
            adam_step(params, grad, state, step, config)
            try:
                params.check_finite()
            except InvalidArgument as exc:
                raise DivergenceError(f"after Adam step {step}: {exc}") from exc
            for key in sums:
                sums[key] += getattr(batch_report, key) * idx.size
            seen += idx.size
        epoch_report = loss_mod.LossReport(**{key: sums[key] / seen for key in sums})
        report.epoch_losses.append(epoch_report)
        report.epoch_seconds.append(time.perf_counter() - t0)

        test_map = ""
        if config.eval_every and (epoch % config.eval_every == 0 or epoch == config.epochs):
            m = evaluate_map(params, dataset)
            report.eval_epochs.append(epoch)
            report.eval_maps.append(m)
            test_map = f"{m:.6f}"
        _log_row(log_csv_path, [epoch, f"{epoch_report.l_central:.6f}",
                                f"{epoch_report.l_quant:.6f}",
                                f"{epoch_report.l_total:.6f}", test_map])

    report.params = params
    return report
