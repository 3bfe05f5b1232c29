"""Dataset container, splits, and the synthetic two-view generator."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, integer, real

SPLITS = ("train", "retrieval", "query")  # the order splits.json is written in


@dataclass
class MultiViewDataset:
    """Parallel image/text feature matrices with multi-hot labels and splits.

    Split masks may overlap only in the direction train <= retrieval
    (the standard protocol trains on a subset of the retrieval set);
    query is always disjoint from both.
    """

    image_features: np.ndarray  # N x d_img, float
    text_features: np.ndarray   # N x d_txt, float
    labels: np.ndarray          # N x V, uint8 multi-hot
    train_mask: np.ndarray
    retrieval_mask: np.ndarray
    query_mask: np.ndarray

    def __post_init__(self):
        n = self.image_features.shape[0]
        for name in ("text_features", "labels", "train_mask", "retrieval_mask", "query_mask"):
            if getattr(self, name).shape[0] != n:
                raise InvalidArgument(f"{name} length != {n}")
        if not (self.labels != 0).any(axis=1).all():
            raise InvalidArgument("every sample needs at least one active label")
        if (self.query_mask & self.retrieval_mask).any() or (self.query_mask & self.train_mask).any():
            raise InvalidArgument("query split must be disjoint from train/retrieval")

    def __len__(self):
        return self.image_features.shape[0]

    @property
    def num_classes(self):
        return self.labels.shape[1]

    def subset(self, mask):
        idx = np.flatnonzero(mask)
        return self.image_features[idx], self.text_features[idx], self.labels[idx]


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic two-view class-cluster dataset."""

    num_classes: int
    samples_per_class: int
    d_img: int
    d_txt: int
    cluster_spread: float = 0.3      # Gaussian sigma around each prototype
    cross_view_consistency: float = 0.9  # P(text view drawn from the right class)
    seed: int = 0
    prototype_scale: float = 0.16    # std of prototype coordinates; sets class separation

    def __post_init__(self):
        for name, least in (("num_classes", 2), ("samples_per_class", 1), ("d_img", 1),
                            ("d_txt", 1), ("seed", 0)):
            integer(getattr(self, name), name, least)
        for name, interval in (("cluster_spread", "(0, inf)"), ("prototype_scale", "(0, inf)"),
                               ("cross_view_consistency", "[0, 1]")):
            real(getattr(self, name), name, interval)


def make_synthetic(spec: SynthSpec) -> MultiViewDataset:
    """Per-class Gaussian clusters in both views, with optional noisy-tag text.

    With probability (1 - cross_view_consistency) a sample's text view is
    drawn around a different class's prototype. Splits are stratified per
    class: 70% train / 20% retrieval / 10% query (all disjoint here).
    """
    rng = np.random.default_rng(spec.seed)
    v, per = spec.num_classes, spec.samples_per_class
    n = v * per
    proto_img = rng.normal(size=(v, spec.d_img)) * spec.prototype_scale
    proto_txt = rng.normal(size=(v, spec.d_txt)) * spec.prototype_scale

    labels = np.zeros((n, v), dtype=np.uint8)
    cls = np.repeat(np.arange(v), per)
    labels[np.arange(n), cls] = 1

    img = proto_img[cls] + rng.normal(scale=spec.cluster_spread, size=(n, spec.d_img))
    txt_cls = cls.copy()
    flip = rng.random(n) > spec.cross_view_consistency
    if flip.any():
        # noisy tag: pick a uniformly random *other* class
        offsets = rng.integers(1, v, size=int(flip.sum()))
        txt_cls[flip] = (txt_cls[flip] + offsets) % v
    txt = proto_txt[txt_cls] + rng.normal(scale=spec.cluster_spread, size=(n, spec.d_txt))

    train = np.zeros(n, dtype=bool)
    retrieval = np.zeros(n, dtype=bool)
    query = np.zeros(n, dtype=bool)
    n_train = int(round(per * 0.7))
    n_retr = int(round(per * 0.2))
    for c in range(v):
        idx = rng.permutation(np.flatnonzero(cls == c))
        train[idx[:n_train]] = True
        retrieval[idx[n_train:n_train + n_retr]] = True
        query[idx[n_train + n_retr:]] = True

    return MultiViewDataset(
        image_features=img,
        text_features=txt,
        labels=labels,
        train_mask=train,
        retrieval_mask=retrieval,
        query_mask=query,
    )
