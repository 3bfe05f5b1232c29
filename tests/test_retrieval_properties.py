"""Differential property tests: class-major relevance and the lane-major scan
against their row-major oracles. Every run draws the same examples."""

import numpy as np
import pytest

from mvhash import retrieval as R
from mvhash.errors import InvalidArgument
from oracles import ranking, seed_metrics

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, database=None)
SCAN_SETTINGS = settings(SETTINGS, max_examples=400)

# every non-zero label value is active, on the index side and the query side alike
ACTIVE = [1, 256, 0.5, -1]


def label_matrix(rng, n, c, density):
    active = rng.random((n, c)) < density
    return np.where(active, rng.choice(ACTIVE, size=(n, c)), 0.0)


@pytest.mark.parametrize("c", [1, 8, 24, 64, 65, 300])
@SETTINGS
@given(n=st.integers(1, 60), density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_relevance_matches_row_major_oracle(c, n, density, seed):
    rng = np.random.default_rng(seed)
    labels = label_matrix(rng, n, c, density)
    index = R.RetrievalIndex(np.zeros((n, 1), np.uint8), labels, 8)
    assert index.labels.shape == (n, c)
    assert (index.labels == (labels != 0).astype(np.uint8)).all()
    for q in [*label_matrix(rng, 3, c, 0.2), labels[0], np.zeros(c)]:
        want = (labels != 0)[:, q != 0].any(axis=1)
        got = R.relevance(q, index)
        assert got.dtype == bool and got.tolist() == want.tolist()
    assert not R.relevance(np.zeros(c), index).any()
    for width in (c - 1, c + 1):
        with pytest.raises(InvalidArgument, match="classes"):
            R.relevance(np.ones(width), index)


@SCAN_SETTINGS
@given(k=st.integers(1, 300), n=st.integers(1, 40), chunk=st.integers(1, 12),
       stride=st.integers(1, 9), top=st.integers(1, 45), flip=st.sampled_from([0.0, 0.02, 0.5]),
       parallel=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scan_and_select_match_row_major_oracle(k, n, chunk, stride, top, flip, parallel, seed):
    rng = np.random.default_rng(seed)
    base = np.where(rng.random((3, k)) < 0.5, 1, -1)
    codes = base[rng.integers(0, 3, size=n)]
    codes = np.where(rng.random((n, k)) < flip, -codes, codes).astype(np.int8)
    query = codes[-1] if rng.random() < 0.5 else np.where(rng.random(k) < 0.5, 1, -1)
    codes[0] = -query  # distance K: a uint8 accumulator would wrap at K >= 256
    order, d = ranking(codes, query)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "_CHUNK_WORDS", chunk * -(-k // 64))
        mp.setattr(R, "_SAMPLE_STRIDE", stride)
        mp.setattr(R, "_PARALLEL_WORDS", 0 if parallel else R._PARALLEL_WORDS)
        index = R.RetrievalIndex.from_signs(codes, np.ones((n, 1), np.uint8))
        assert index.distances(query).tolist() == d.tolist()
        res = index.query_topk(query, top)
    assert res.ids.tolist() == order[:top].tolist()
    assert res.distances.tolist() == d[order[:top]].tolist()


@SETTINGS
@given(k=st.sampled_from([8, 37, 63, 64, 65, 128]), n=st.integers(1, 40),
       bases=st.integers(1, 4), flip=st.sampled_from([0.0, 0.03, 0.5]), q=st.integers(1, 5),
       c=st.integers(1, 6), r_cap=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_metrics_equal_the_seed_formulas(k, n, bases, flip, q, c, r_cap, seed):
    rng = np.random.default_rng(seed)
    base = np.where(rng.random((bases, k)) < 0.5, 1, -1)  # few bases: many tied distances

    def draw(rows):
        codes = base[rng.integers(0, bases, size=rows)]
        return np.where(rng.random((rows, k)) < flip, -codes, codes).astype(np.int8)

    codes, q_codes = draw(n), draw(q)
    labels = (rng.random((n, c)) < 0.4).astype(np.uint8)
    q_labels = (rng.random((q, c)) < 0.4).astype(np.uint8)  # a row of zeros has AP 0
    grid = sorted({int(g) for g in rng.integers(1, n + 10, size=4)})
    # every query row once and q more whole (code, label) rows again, interleaved
    again = rng.permutation(np.concatenate([np.arange(q), rng.integers(0, q, size=q)]))
    q_codes, q_labels = q_codes[again], q_labels[again]
    index = R.RetrievalIndex.from_signs(codes, labels)
    full, rows = seed_metrics(codes, labels, q_codes, q_labels, None, grid)
    capped, _ = seed_metrics(codes, labels, q_codes, q_labels, r_cap, grid)
    assert R.mean_average_precision(q_codes, q_labels, index) == full
    assert R.mean_average_precision(q_codes, q_labels, index, r_cap) == capped
    assert R.curves(q_codes, q_labels, index, grid) == rows
