import re

import numpy as np
import pytest

from mvhash.data import MultiViewDataset, SynthSpec, make_synthetic
from mvhash.errors import InvalidArgument


def test_spec_validation():
    with pytest.raises(InvalidArgument):
        SynthSpec(num_classes=1, samples_per_class=10, d_img=4, d_txt=4)
    with pytest.raises(InvalidArgument):
        SynthSpec(num_classes=3, samples_per_class=10, d_img=4, d_txt=4,
                  cluster_spread=0.0)
    with pytest.raises(InvalidArgument):
        SynthSpec(num_classes=3, samples_per_class=10, d_img=4, d_txt=4,
                  cross_view_consistency=1.5)


@pytest.mark.parametrize("field, value, message", [
    # each fractional value built and then failed in make_synthetic with a bare TypeError
    ("num_classes", 3.5, "num_classes must be an integer, got 3.5"),
    ("samples_per_class", 10.5, "samples_per_class must be an integer, got 10.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("num_classes", 1, "num_classes must be >= 2, got 1"),
    ("d_txt", 0, "d_txt must be >= 1, got 0"),
])
def test_spec_rejects_counts_and_seeds_that_are_not_integers_in_range(field, value, message):
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        SynthSpec(**{"num_classes": 3, "samples_per_class": 10, "d_img": 4, "d_txt": 4,
                     field: value})


@pytest.mark.parametrize("field", ["cluster_spread", "prototype_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_spec_rejects_a_spread_or_scale_that_is_not_finite_and_positive(field, value):
    with pytest.raises(InvalidArgument, match=rf"^{field} must be finite and > 0: "):
        SynthSpec(3, 10, 4, 4, **{field: value})


def test_spec_rejects_a_negative_seed_and_keeps_a_large_one():
    with pytest.raises(InvalidArgument, match="^seed must be >= 0, got -1$"):
        SynthSpec(3, 10, 4, 4, seed=-1)
    # only np.random.default_rng reads the seed, and it takes any integer >= 0
    assert len(make_synthetic(SynthSpec(3, 10, 4, 4, seed=2**64))) == 30


def test_synthetic_deterministic():
    spec = SynthSpec(5, 20, 8, 6, 0.3, 0.9, seed=7)
    a = make_synthetic(spec)
    b = make_synthetic(spec)
    assert (a.image_features == b.image_features).all()
    assert (a.text_features == b.text_features).all()
    assert (a.labels == b.labels).all()
    assert (a.train_mask == b.train_mask).all()


def test_synthetic_shapes_and_splits():
    ds = make_synthetic(SynthSpec(5, 20, 8, 6, 0.3, 0.9, seed=7))
    assert len(ds) == 100
    assert ds.image_features.shape == (100, 8)
    assert ds.text_features.shape == (100, 6)
    assert ds.labels.shape == (100, 5)
    # 70/20/10 stratified per class, all disjoint here
    assert ds.train_mask.sum() == 70
    assert ds.retrieval_mask.sum() == 20
    assert ds.query_mask.sum() == 10
    assert not (ds.train_mask & ds.retrieval_mask).any()
    assert not (ds.query_mask & ds.retrieval_mask).any()
    cls = ds.labels.argmax(axis=1)
    for c in range(5):
        assert ds.train_mask[cls == c].sum() == 14


def test_synthetic_degenerate_case_is_separable():
    # sigma -> 0 with full consistency: within-class features collapse
    ds = make_synthetic(SynthSpec(3, 10, 4, 4, 1e-12, 1.0, seed=1))
    cls = ds.labels.argmax(axis=1)
    for c in range(3):
        block = ds.image_features[cls == c]
        assert np.allclose(block, block[0], atol=1e-9)


def test_synthetic_consistency_controls_text_view():
    clean = make_synthetic(SynthSpec(4, 50, 4, 4, 0.01, 1.0, seed=3))
    noisy = make_synthetic(SynthSpec(4, 50, 4, 4, 0.01, 0.5, seed=3))
    cls = clean.labels.argmax(axis=1)

    def text_mismatch_rate(ds):
        # nearest prototype per text sample vs true class
        protos = np.stack([ds.text_features[cls == c].mean(axis=0) for c in range(4)])
        d = ((ds.text_features[:, None, :] - protos[None]) ** 2).sum(axis=2)
        return (d.argmin(axis=1) != cls).mean()

    assert text_mismatch_rate(clean) < 0.05
    assert text_mismatch_rate(noisy) > 0.2


def test_dataset_rejects_unlabeled_samples():
    with pytest.raises(InvalidArgument):
        MultiViewDataset(
            image_features=np.zeros((2, 3)),
            text_features=np.zeros((2, 3)),
            labels=np.array([[1, 0], [0, 0]], dtype=np.uint8),
            train_mask=np.array([True, False]),
            retrieval_mask=np.array([False, True]),
            query_mask=np.array([False, False]),
        )


def test_dataset_rejects_query_overlap():
    with pytest.raises(InvalidArgument):
        MultiViewDataset(
            image_features=np.zeros((2, 3)),
            text_features=np.zeros((2, 3)),
            labels=np.ones((2, 2), dtype=np.uint8),
            train_mask=np.array([True, False]),
            retrieval_mask=np.array([False, True]),
            query_mask=np.array([False, True]),
        )


def test_any_non_zero_label_is_active():
    # a row's labels count by the non-zero rule, so [1, -1] has two active classes
    n = 3
    labels = np.array([[1, -1], [0, 2], [-1, 0]])
    ds = MultiViewDataset(np.zeros((n, 2)), np.zeros((n, 2)), labels, np.ones(n, bool),
                          np.ones(n, bool), np.zeros(n, bool))
    assert len(ds) == n
    with pytest.raises(InvalidArgument, match="at least one active label"):
        MultiViewDataset(np.zeros((n, 2)), np.zeros((n, 2)), np.array([[1, -1], [0, 0], [1, 0]]),
                         np.ones(n, bool), np.ones(n, bool), np.zeros(n, bool))
