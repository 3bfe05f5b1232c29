import hashlib
import multiprocessing
import sys
import threading
import types

import numpy as np
import pytest

from mvhash import retrieval as R
from mvhash import net, trainer, workers
from mvhash.errors import InvalidArgument
from oracles import brute_force_metrics, ranking, seed_metrics, seed_terms


def random_codes(rng, n, k):
    return (rng.integers(0, 2, size=(n, k)) * 2 - 1).astype(np.int8)


def scan_distances(query, codes):
    """Distances from `query` to every row of `codes` by the kernel every query uses."""
    codes = np.atleast_2d(codes)
    index = R.RetrievalIndex.from_signs(codes, np.ones((codes.shape[0], 1), dtype=np.uint8))
    return index.distances(query).tolist()


def test_hamming_distance_trivials():
    rng = np.random.default_rng(0)
    c = random_codes(rng, 1, 128)[0]
    assert scan_distances(c, [c, -c]) == [0, 128]


def test_hamming_distance_non_word_aligned():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_codes(rng, 2, 37)
        assert scan_distances(a, b) == ranking([b], a)[1].tolist()


@pytest.mark.parametrize("k", [8, 16, 37, 63, 64, 65, 128])
def test_packed_distance_equals_bit_loop(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        a, b = random_codes(rng, 2, k)
        assert scan_distances(a, b) == ranking([b], a)[1].tolist()


def test_hamming_distance_length_mismatch():
    with pytest.raises(InvalidArgument):
        scan_distances(np.ones(8), np.ones(9))


def test_hamming_is_a_metric():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = random_codes(rng, 3, 21)
        (dab, dac), (dba, dbc) = scan_distances(a, [b, c]), scan_distances(b, [a, c])
        assert dab == dba
        assert (dab == 0) == (a == b).all()
        assert dab <= dac + scan_distances(c, b)[0]


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(3)
    for k in (5, 8, 37, 64):
        codes = random_codes(rng, 10, k)
        assert (R.unpack_codes(R.pack_codes(codes), k) == codes).all()


@pytest.mark.parametrize("codes, bits", [
    (np.array([[1, -1, -1, 1]], dtype=np.int8), [1, 0, 0, 1]),
    (np.array([1.0, -1.0, 1.0]), [1, 0, 1]),
    (np.array([True, True]), [1, 1]),
])
def test_pack_codes_accepts_plus_minus_one(codes, bits):
    assert R.pack_codes(codes).tolist() == [[sum(b << i for i, b in enumerate(bits))]]


@pytest.mark.parametrize("codes", [
    np.array([1, 0, -1]),
    np.array([True, False]),
    np.array([1, 2, -1]),
    np.array([1.0, 0.5, -1.0]),
    np.array([1.0, np.nan, -1.0]),
])
def test_pack_codes_rejects_other_values(codes):
    with pytest.raises(InvalidArgument, match="codes must be"):
        R.pack_codes(codes)


@pytest.mark.parametrize("k", [5, 37])
def test_index_rejects_non_zero_padding_bits(k):
    # rows 0 and 1 hold the same code, row 1 with its padding bits set: they would scan
    # 8 - k % 8 apart
    packed = R.pack_codes(np.ones((3, k), dtype=np.int8))
    packed[1, -1] |= 0xFF
    with pytest.raises(InvalidArgument, match="code row 1 has non-zero padding bits"):
        R.RetrievalIndex(packed, np.ones((3, 1)), k)
    packed[1, -1] = R.pack_codes(np.ones(k))[0, -1]
    assert R.RetrievalIndex(packed, np.ones((3, 1)), k).distances(np.ones(k)).tolist() == [0, 0, 0]


def _make_index(rng, n=100, k=16, v=5):
    codes = random_codes(rng, n, k)
    labels = np.zeros((n, v), dtype=np.uint8)
    labels[np.arange(n), rng.integers(0, v, size=n)] = 1
    return codes, labels, R.RetrievalIndex.from_signs(codes, labels)


def test_query_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(4)
    codes, labels, index = _make_index(rng)
    for _ in range(10):
        q = random_codes(rng, 1, 16)[0]
        order, d = ranking(codes, q)
        result = index.query_topk(q, 10)
        assert result.ids.tolist() == order[:10].tolist()
        assert result.distances.tolist() == d[order[:10]].tolist()


def test_query_topk_full_ranking_is_permutation():
    rng = np.random.default_rng(5)
    codes, labels, index = _make_index(rng, n=40)
    q = random_codes(rng, 1, 16)[0]
    result = index.query_topk(q, 40)
    assert sorted(result.ids.tolist()) == list(range(40))
    assert (np.diff(result.distances) >= 0).all()


def test_query_topk_exact_match_ranks_first():
    rng = np.random.default_rng(6)
    codes, labels, index = _make_index(rng, n=30)
    result = index.query_topk(codes[17], 30)
    zero_ids = result.ids[result.distances == 0]
    assert 17 in zero_ids.tolist()
    assert result.ids[0] == zero_ids.min()  # lowest id first among distance 0


def test_query_topk_prefix_property():
    rng = np.random.default_rng(7)
    codes, labels, index = _make_index(rng, n=60)
    q = random_codes(rng, 1, 16)[0]
    small = index.query_topk(q, 7)
    big = index.query_topk(q, 25)
    assert big.ids[:7].tolist() == small.ids.tolist()


def test_query_topk_k_above_size_returns_all():
    rng = np.random.default_rng(8)
    codes, labels, index = _make_index(rng, n=12)
    q = random_codes(rng, 1, 16)[0]
    assert len(index.query_topk(q, 500).ids) == 12


def test_empty_index_rejected():
    with pytest.raises(InvalidArgument, match="^index is empty$"):
        R.RetrievalIndex(np.zeros((0, 2), dtype=np.uint8), np.zeros((0, 3)), 16)


def test_index_rejects_codes_and_labels_of_different_lengths():
    with pytest.raises(InvalidArgument, match=r"^codes \(3\) and labels \(2\) differ in length$"):
        R.RetrievalIndex(np.zeros((3, 2), dtype=np.uint8), np.ones((2, 1)), 16)


@pytest.mark.parametrize("k, width, message", [
    (9.0, 2, "must be an integer, got 9.0"),  # numpy's bare TypeError at the padding check
    (16.0, 2, "must be an integer, got 16.0"),  # was truncated to 16
    (0, 0, "must be >= 1, got 0"),  # an index of empty codes was accepted
])
def test_index_rejects_a_code_length_that_is_not_a_positive_integer(k, width, message):
    with pytest.raises(InvalidArgument, match=f"^code_length {message}$"):
        R.RetrievalIndex(np.zeros((3, width), dtype=np.uint8), np.ones((3, 1)), k)
    assert type(R.RetrievalIndex(np.zeros((3, 2), np.uint8), np.ones((3, 1)), np.int64(16))
                .code_length) is int


def test_average_precision_perfect_ranking():
    labels = np.zeros((10, 2), dtype=np.uint8)
    labels[:3, 0] = 1
    labels[3:, 1] = 1
    codes = np.ones((10, 8), dtype=np.int8)
    index = R.RetrievalIndex.from_signs(codes, labels)
    ranking = R.QueryResult(ids=np.arange(10), distances=np.zeros(10, dtype=np.int64))
    assert R.average_precision(np.array([1, 0]), ranking, index) == pytest.approx(1.0)


def test_average_precision_ranks_one_and_three():
    # relevant at ranks 1 and 3 of 2 total -> (1/2)(1/1 + 2/3) = 5/6
    labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.uint8)
    codes = np.ones((4, 8), dtype=np.int8)
    index = R.RetrievalIndex.from_signs(codes, labels)
    ranking = R.QueryResult(ids=np.arange(4), distances=np.zeros(4, dtype=np.int64))
    assert R.average_precision(np.array([1, 0]), ranking, index) == pytest.approx(5 / 6)


def test_average_precision_no_relevant_items():
    labels = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    codes = np.ones((2, 8), dtype=np.int8)
    index = R.RetrievalIndex.from_signs(codes, labels)
    ranking = R.QueryResult(ids=np.arange(2), distances=np.zeros(2, dtype=np.int64))
    assert R.average_precision(np.array([0, 1]), ranking, index) == 0.0


def test_mean_average_precision_examples():
    labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.uint8)
    codes = np.ones((4, 8), dtype=np.int8)
    index = R.RetrievalIndex.from_signs(codes, labels)
    ranking = R.QueryResult(ids=np.arange(4), distances=np.zeros(4, dtype=np.int64))
    ap = R.average_precision(np.array([1, 0]), ranking, index)
    q = np.ones((1, 8), dtype=np.int8)
    single = R.mean_average_precision(q, np.array([[1, 0]]), index)
    assert single == pytest.approx(ap)
    with pytest.raises(InvalidArgument):
        R.mean_average_precision(np.zeros((0, 8)), np.zeros((0, 2)), index)


def test_map_matches_brute_force():
    rng = np.random.default_rng(9)
    codes, labels, index = _make_index(rng, n=80, k=12, v=4)
    q_codes = random_codes(rng, 15, 12)
    q_labels = np.zeros((15, 4), dtype=np.uint8)
    q_labels[np.arange(15), rng.integers(0, 4, size=15)] = 1
    ours = R.mean_average_precision(q_codes, q_labels, index)
    ref, _ = brute_force_metrics(q_codes, q_labels, codes, labels)
    assert ours == pytest.approx(ref, abs=1e-12)


def test_map_permutation_invariant_over_queries():
    rng = np.random.default_rng(10)
    codes, labels, index = _make_index(rng, n=40, k=8, v=3)
    q_codes = random_codes(rng, 6, 8)
    q_labels = np.zeros((6, 3), dtype=np.uint8)
    q_labels[np.arange(6), rng.integers(0, 3, size=6)] = 1
    a = R.mean_average_precision(q_codes, q_labels, index)
    perm = rng.permutation(6)
    b = R.mean_average_precision(q_codes[perm], q_labels[perm], index)
    assert a == pytest.approx(b, abs=1e-15)


def test_curves_monotone_recall_and_terminal_value():
    rng = np.random.default_rng(11)
    codes, labels, index = _make_index(rng, n=50, k=16, v=4)
    q_codes = random_codes(rng, 8, 16)
    q_labels = np.zeros((8, 4), dtype=np.uint8)
    q_labels[np.arange(8), rng.integers(0, 4, size=8)] = 1
    rows = R.curves(q_codes, q_labels, index, [1, 5, 10, 25, 50])
    recalls = [r[2] for r in rows]
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == pytest.approx(1.0)  # every class is populated


def test_curves_match_brute_force():
    rng = np.random.default_rng(12)
    codes, labels, index = _make_index(rng, n=30, k=10, v=3)
    q_codes = random_codes(rng, 5, 10)
    q_labels = np.zeros((5, 3), dtype=np.uint8)
    q_labels[np.arange(5), rng.integers(0, 3, size=5)] = 1
    _, want = brute_force_metrics(q_codes, q_labels, codes, labels, k_grid=[3, 9, 30])
    for (_, map_k, recall_k), (_, ref_map, ref_recall) in zip(
            R.curves(q_codes, q_labels, index, [3, 9, 30]), want, strict=True):
        assert map_k == pytest.approx(ref_map, abs=1e-12)
        assert recall_k == pytest.approx(ref_recall, abs=1e-12)


@pytest.mark.parametrize("metric", ["map", "curves"])
def test_query_rows_checked(metric):
    rng = np.random.default_rng(14)
    codes, labels, index = _make_index(rng, n=10)
    score = {
        "map": lambda qc, ql: R.mean_average_precision(qc, ql, index),
        "curves": lambda qc, ql: R.curves(qc, ql, index, [1, 5]),
    }[metric]
    with pytest.raises(InvalidArgument, match="empty query set"):
        score(codes[:0], labels[:0])
    # 5 query codes with 2 label rows used to score 2 queries (or 2 APs over 5 slots)
    with pytest.raises(InvalidArgument, match="5 query codes but 2 query label rows"):
        score(codes[:5], labels[:2])
    with pytest.raises(InvalidArgument, match="2 query codes but 5 query label rows"):
        score(codes[:2], labels[:5])


def test_random_ranking_map_rejects_empty_query_set():
    rng = np.random.default_rng(15)
    codes, labels, index = _make_index(rng, n=10)
    with pytest.raises(InvalidArgument, match="empty query set"):
        R.random_ranking_map(labels[:0], index)
    # one query: the AP of the seeded permutation
    ranking = R.QueryResult(np.random.default_rng(3).permutation(10), np.zeros(10, np.int64))
    want = R.average_precision(labels[0], ranking, index)
    assert R.random_ranking_map(labels[:1], index, seed=3) == want


@pytest.mark.parametrize("seed, message", [(1.5, "seed must be an integer, got 1.5"),
                                           (-1, "seed must be >= 0, got -1")])
def test_random_ranking_map_names_a_bad_seed(seed, message):
    codes, labels, index = _make_index(np.random.default_rng(15), n=10)
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        R.random_ranking_map(labels[:1], index, seed=seed)


def test_curves_rejects_non_increasing_grid():
    rng = np.random.default_rng(13)
    codes, labels, index = _make_index(rng, n=10)
    with pytest.raises(InvalidArgument):
        R.curves(codes[:1], labels[:1], index, [5, 5, 10])


@pytest.mark.parametrize("grid, bad", [([0, 5, 10], "0"), ([-3, 5], "-3")])
def test_curves_rejects_k_below_one(grid, bad):
    rng = np.random.default_rng(13)
    codes, labels, index = _make_index(rng, n=10)
    with pytest.raises(InvalidArgument, match=f"got {bad}$"):
        R.curves(codes[:1], labels[:1], index, grid)


# ---- the ranked pass against the seed formulas and the brute-force ranking ----

def tied_multilabel_index(rng, n, k, v):
    """Codes drawn from a few bases (many distance ties), 1-3 labels per item.

    Labels come from a pool that spans column 255/256; class 1 is never used,
    so a query on it has no relevant item. With v > 256, item 0 holds 256
    classes, which a uint8 count of shared classes would wrap to 0.
    """
    base = random_codes(rng, 12, k)
    codes = base[rng.integers(0, 12, size=n)]
    codes = np.where(rng.random((n, k)) < 0.05, -codes, codes).astype(np.int8)
    pool = np.array([0, 2, v // 2, v - 1] + ([255, 256] if v > 256 else []))
    labels = np.zeros((n, v), dtype=np.uint8)
    for i in range(n):
        labels[i, rng.choice(pool, size=rng.integers(1, 4), replace=False)] = 1
    if v > 256:
        labels[0] = 0
        labels[0, 2:258] = 1
    return codes, labels, R.RetrievalIndex.from_signs(codes, labels)


@pytest.mark.parametrize("v", [5, 300])
@pytest.mark.parametrize("k", [1, 3, 7, 8, 37, 63, 64, 65, 128, 256])
def test_ranked_pass_matches_oracle_and_seed_formulas(k, v):
    rng = np.random.default_rng(1000 + k + v)
    n = 90
    codes, labels, index = tied_multilabel_index(rng, n, k, v)
    q_codes = np.vstack([random_codes(rng, 3, k), -codes[[3]], codes[[3, 3]]])
    q_labels = labels[rng.integers(0, n, size=6)].copy()
    q_labels[4] = 0
    q_labels[4, 1] = 1  # no item has class 1: AP 0
    q_labels[5] = labels[0]
    for q in q_codes:
        order, d = ranking(codes, q)
        for top in (n, 17):
            res = index.query_topk(q, top)
            assert res.ids.tolist() == order[:top].tolist()
            assert res.distances.tolist() == d[order[:top]].tolist()
    grid = [1, 5, 17, 60, n, n + 10]
    for r_cap in (None, 20):
        want_map, want_rows = seed_metrics(codes, labels, q_codes, q_labels, r_cap, grid)
        assert R.mean_average_precision(q_codes, q_labels, index, r_cap) == want_map
    assert R.curves(q_codes, q_labels, index, grid) == want_rows
    assert R.mean_average_precision(q_codes[4:5], q_labels[4:5], index) == 0.0
    assert all(row[1:] == (0.0, 0.0) for row in R.curves(q_codes[4:5], q_labels[4:5], index, grid))


def test_ranked_pass_reads_relevance_once_per_query(monkeypatch):
    rng = np.random.default_rng(14)
    codes, labels, index = _make_index(rng, n=60)
    calls = []
    original = R.relevance

    def counting(query_label, idx):
        calls.append(1)
        return original(query_label, idx)

    monkeypatch.setattr(R, "relevance", counting)
    R.curves(codes[:5], labels[:5], index, [1, 5, 10, 25, 50, 55, 60])
    assert len(calls) == 5
    calls.clear()
    R.mean_average_precision(codes[:5], labels[:5], index)
    assert len(calls) == 5


def test_every_query_runs_the_one_scan_once(monkeypatch):
    rng = np.random.default_rng(15)
    codes, labels, index = _make_index(rng, n=60)
    calls = []
    original = R.RetrievalIndex.distances

    def counting(idx, query_code):
        calls.append(1)
        return original(idx, query_code)

    monkeypatch.setattr(R.RetrievalIndex, "distances", counting)
    for code in codes[:5]:
        index.query_topk(code, 10)
    assert len(calls) == 5
    calls.clear()
    R.mean_average_precision(codes[:5], labels[:5], index)
    assert len(calls) == 5
    calls.clear()
    R.curves(codes[:5], labels[:5], index, [1, 5, 10, 25, 50, 55, 60])
    assert len(calls) == 5


def test_repeated_query_rows_are_ranked_and_scored_once(monkeypatch):
    rng = np.random.default_rng(23)
    codes, labels, index = _make_index(rng, n=60)
    assert (codes[0] != codes[1]).any() and (labels[0] != labels[1]).any()
    # A, A, B, A', B: A' is A's code with a label row that shares no class with A's
    q_codes = codes[[0, 0, 1, 0, 1]]
    q_labels = np.vstack([labels[0], labels[0], labels[1], 1 - labels[0], labels[1]])
    grid = [1, 5, 10, 25, 60]
    singles = list(zip(q_codes[:, None], q_labels[:, None]))
    maps = [R.mean_average_precision(c, lab, index) for c, lab in singles]
    rows = [R.curves(c, lab, index, grid) for c, lab in singles]
    assert maps[0] != maps[3]
    scans, masks = [], []
    distances, relevance = R.RetrievalIndex.distances, R.relevance
    monkeypatch.setattr(R.RetrievalIndex, "distances",
                        lambda idx, code: scans.append(1) or distances(idx, code))
    monkeypatch.setattr(R, "relevance",
                        lambda label, idx: masks.append(1) or relevance(label, idx))
    assert R.mean_average_precision(q_codes, q_labels, index) == float(np.mean(maps))
    assert (len(scans), len(masks)) == (3, 3)
    scans.clear()
    masks.clear()
    got = R.curves(q_codes, q_labels, index, grid)
    assert (len(scans), len(masks)) == (3, 3)
    for i, k in enumerate(grid):
        assert got[i] == (k, float(np.mean([r[i][1] for r in rows])),
                          float(np.mean([r[i][2] for r in rows])))


def pinned_case():
    """Codes and labels from integer draws only, so the float bits below hold on any
    host: 300 items at K = 37 near 8 bases, 6 classes, and 40 queries that pair
    5 code rows with 3 label rows into 10 distinct (code, label) rows."""
    rng = np.random.default_rng(2028)
    n, k, v, q = 300, 37, 6, 40
    codes = (rng.integers(0, 2, size=(8, k)) * 2 - 1)[rng.integers(0, 8, size=n)]
    codes = np.where(rng.integers(0, 20, size=(n, k)) == 0, -codes, codes).astype(np.int8)
    labels = (rng.integers(0, 3, size=(n, v)) == 0).astype(np.uint8)
    q_codes = codes[rng.integers(0, n, size=5)][rng.integers(0, 5, size=q)]
    q_labels = labels[rng.integers(0, n, size=3)][rng.integers(0, 3, size=q)]
    return q_codes, q_labels, R.RetrievalIndex.from_signs(codes, labels)


# captured from the per-query loops that preceded the grouped pass: mAP in full and
# at r_cap = 50, then (k, mAP@k, Recall@k) for each k of the grid
PINNED_MAP = ("0x1.680e5782a4940p-2", "0x1.13a0be8c275e6p-4")
PINNED_CURVES = [
    (1, "0x1.e760024707303p-9", "0x1.e760024707303p-9"),
    (10, "0x1.5fd505fb8647dp-6", "0x1.263582bb06c06p-5"),
    (37, "0x1.cce08a6bd1ec3p-5", "0x1.04bfdb41d04c0p-3"),
    (100, "0x1.002ca8a61cea2p-3", "0x1.5077b7d7ba1edp-2"),
    (300, "0x1.680e5782a4940p-2", "0x1.0000000000000p+0"),
    (400, "0x1.680e5782a4940p-2", "0x1.0000000000000p+0"),
]


def test_metric_bits_are_pinned():
    q_codes, q_labels, index = pinned_case()
    rows = {c.tobytes() + lab.tobytes() for c, lab in zip(q_codes, q_labels)}
    assert (len(q_codes), len(rows), len({c.tobytes() for c in q_codes})) == (40, 10, 5)
    got = [R.mean_average_precision(q_codes, q_labels, index, r_cap) for r_cap in (None, 50)]
    assert tuple(m.hex() for m in got) == PINNED_MAP
    grid = [k for k, _, _ in PINNED_CURVES]
    assert [(k, a.hex(), r.hex()) for k, a, r in R.curves(q_codes, q_labels, index, grid)] == \
        PINNED_CURVES


# sha256 over every query row of pinned_topk_case(K), in order, and k = 10 and 1200 (the
# select path) and k = R (the stable sort), of query_topk's ids then distances as <i8
PINNED_TOPK = {
    8: "ff3f47ee1b670434cf110848b3e9dcea87b5cf17c08ac186a7ddd620d4bc1dcb",
    37: "8891a3cce06fe48c46bb31eb275453a3072dbba10189ebe51731358b083be51b",
    63: "f6b344718704c47e24d35e7bfb997d1cf900cc1d63d6c1237f49da096e2bef16",
    64: "3aea88857a99821255ede21a6d067a02158d904585527bc2c04c2ba53936c968",
    65: "2162abfc6e137642be0751cfdc9f0f995af96e09de77f33b17a10800f43d95ec",
    128: "9a202af9c6c1c12d581ec7cc64aef5caca81a61dcbbf913afe9d8e0b9c6435d5",
}


def pinned_topk_case(k):
    """2500 codes near 12 bases, and 6 query rows that repeat 3 of those codes, drawn
    with integer RNG calls only, so they are the same bytes on every host."""
    rng = np.random.default_rng(k)
    n = 2500
    bases = rng.integers(0, 2, size=(12, k)) * 2 - 1
    codes = bases[rng.integers(0, 12, size=n)]
    codes = np.where(rng.integers(0, 8, size=(n, k)) == 0, -codes, codes).astype(np.int8)
    return codes, codes[rng.integers(0, n, size=3)][rng.integers(0, 3, size=6)]


def test_query_topk_is_pinned():
    for k, digest in PINNED_TOPK.items():
        codes, queries = pinned_topk_case(k)
        index = R.RetrievalIndex.from_signs(codes, np.ones((len(codes), 1), dtype=np.uint8))
        h = hashlib.sha256()
        for q in queries:
            order, d = ranking(codes, q)
            for top in (10, 1200, index.size):
                res = index.query_topk(q, top)
                assert res.ids.tolist() == order[:top].tolist()
                assert res.distances.tolist() == d[order[:top]].tolist()
                h.update(res.ids.astype("<i8").tobytes() + res.distances.astype("<i8").tobytes())
        assert h.hexdigest() == digest, k


@pytest.mark.parametrize("active", [[0, 3], [1, 2, 4]])
def test_relevance_never_writes_into_the_index(active):
    rng = np.random.default_rng(17)
    codes, labels, index = _make_index(rng, n=50, v=5)
    by_class, stored = index._by_class.tobytes(), index.labels.tobytes()
    query = np.zeros(5, dtype=np.uint8)
    query[active] = 1
    assert R.relevance(query, index).tolist() == (labels[:, active] != 0).any(axis=1).tolist()
    R.mean_average_precision(codes[:1], query[None], index)
    R.curves(codes[:1], query[None], index, [1, 10, 50])
    assert index._by_class.tobytes() == by_class and index.labels.tobytes() == stored
    for c in range(5):
        single = np.eye(5, dtype=np.uint8)[c]
        assert R.relevance(single, index).tolist() == (labels[:, c] != 0).tolist()


@pytest.mark.parametrize("q", [1, 7, 8, 9, 129, 300])
def test_curve_means_equal_per_k_np_mean(q):
    rng = np.random.default_rng(18 + q)
    codes, labels, index = tied_multilabel_index(rng, 120, 37, 5)
    q_codes, q_labels = random_codes(rng, q, 37), labels[rng.integers(0, 120, size=q)]
    grid = [1, 5, 17, 60, 120, 130]
    per_query = [R.curves(c[None], lab[None], index, grid) for c, lab in zip(q_codes, q_labels)]
    got = R.curves(q_codes, q_labels, index, grid)
    for i, (k, ap, recall) in enumerate(got):
        assert k == grid[i]
        assert ap.hex() == float(np.mean([rows[i][1] for rows in per_query])).hex()
        assert recall.hex() == float(np.mean([rows[i][2] for rows in per_query])).hex()


def test_relevance_rejects_wrong_label_width():
    rng = np.random.default_rng(15)
    _, _, index = _make_index(rng, n=10, v=5)
    with pytest.raises(InvalidArgument):
        R.relevance(np.ones(4, dtype=np.uint8), index)


# ---- the chunked scan kernel against the bit loop and the (distance, id) oracle ----

KERNEL_KS = [8, 37, 63, 64, 65, 128, 130, 256, 300]  # W = 1..5; uint8 and uint16 distances


def chunk_rows(k):
    return R._CHUNK_WORDS // -(-k // 64)


def kernel_case(rng, n, k):
    """Tied codes from a few bases, a query, and the query's complement at row 0
    (distance K, which a uint8 accumulator wraps at K >= 256)."""
    base = random_codes(rng, 3, k)
    codes = base[rng.integers(0, 3, size=n)]
    codes = np.where(rng.random((n, k)) < 0.02, -codes, codes).astype(np.int8)
    query = codes[n // 2].copy()
    codes[0] = -query
    return codes, query


def check_kernel(query, index, order, d, ks):
    got = index.distances(query)
    assert got.dtype == np.min_scalar_type(index.code_length)
    assert got.tolist() == d.tolist()
    for top in ks:
        res = index.query_topk(query, top)
        want = order[:top]
        assert res.ids.tolist() == want.tolist()
        assert res.distances.dtype == np.int64
        assert res.distances.tolist() == d[want].tolist()


@pytest.mark.parametrize("k", KERNEL_KS)
def test_scan_kernel_matches_oracles_at_chunk_edges(k, monkeypatch):
    # 5-row chunks, so every chunk edge case fits the Python bit loop
    monkeypatch.setattr(R, "_CHUNK_WORDS", 5 * -(-k // 64))
    chunk = chunk_rows(k)
    assert chunk == 5
    rng = np.random.default_rng(2000 + k)
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        codes, query = kernel_case(rng, n, k)
        index = R.RetrievalIndex.from_signs(codes, np.ones((n, 1), dtype=np.uint8))
        order, d = ranking(codes, query)
        ks = [top for top in (1, 10, n - 1, n, n + 5) if top >= 1]
        check_kernel(query, index, order, d, ks)
        same = R.RetrievalIndex.from_signs(np.repeat(codes[:1], n, axis=0),
                                           np.ones((n, 1), dtype=np.uint8))
        for top in ks:  # every item ties: the first ids win
            assert same.query_topk(query, top).ids.tolist() == list(range(min(top, n)))


@pytest.mark.parametrize("k", [8, 130, 300])
def test_scan_kernel_matches_oracles_at_real_chunk_size(k):
    chunk = chunk_rows(k)
    rng = np.random.default_rng(3000 + k)
    codes, query = kernel_case(rng, 2 * chunk + 3, k)
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        index = R.RetrievalIndex.from_signs(codes[:n], np.ones((n, 1), dtype=np.uint8))
        order, d = ranking(codes[:n], query)
        check_kernel(query, index, order, d, [1, 10, n - 1, n, n + 5])


# ---- the sampled select and the sparse AP terms against the oracles ----

SELECT_KS = [1, 3, 7, 8, 37, 63, 64, 65, 128]


def select_case(rng, n, k, sampled):
    """Tied codes from a few bases, and a query whose sampled rows (every
    _SAMPLE_STRIDE-th) sit at distance `sampled`; other rows are never at 0."""
    base = random_codes(rng, 3, k)
    codes = base[rng.integers(0, 3, size=n)]
    codes = np.where(rng.random((n, k)) < 0.1, -codes, codes).astype(np.int8)
    query = random_codes(rng, 1, k)[0]
    codes[(codes == query).all(axis=1), 0] *= -1
    codes[::R._SAMPLE_STRIDE] = np.where(np.arange(k) < sampled, -query, query)
    return codes, query


def check_select(codes, query, tops):
    n = len(codes)
    index = R.RetrievalIndex.from_signs(codes, np.ones((n, 1), dtype=np.uint8))
    order, d = ranking(codes, query)
    for top in tops:
        res = index.query_topk(query, top)
        assert res.ids.tolist() == order[:top].tolist()
        assert res.distances.tolist() == d[order[:top]].tolist()


@pytest.mark.parametrize("k", SELECT_KS)
def test_sampled_select_matches_oracle(k, monkeypatch):
    monkeypatch.setattr(R, "_SAMPLE_STRIDE", 4)
    rng = np.random.default_rng(4000 + k)
    for n in (1, 3, 4, 5, 13, 41):
        tops = sorted({top for top in (1, 2, 5, 11, n - 1, n, n + 5) if top >= 1})
        # under-guess: the sample sees only distance 0, which fewer than k rows
        # hold once k > ceil(n / 4), so the exact fallback picks the threshold
        check_select(*select_case(rng, n, k, 0), tops)
        # over-guess: the sample sees only distance K, so every row is a candidate
        check_select(*select_case(rng, n, k, k), tops)
        # a sample of ordinary distances
        check_select(*select_case(rng, n, k, k // 2), tops)
        # every distance equal
        codes, query = select_case(rng, n, k, k // 3)
        check_select(np.repeat(codes[:1], n, axis=0), query, tops)


def count_full_sorts(monkeypatch, n):
    """Sample every 4th row; the list grows by one for each np.sort of all n distances."""
    monkeypatch.setattr(R, "_SAMPLE_STRIDE", 4)
    full_sorts, sort = [], np.sort

    def counting_sort(a, *args, **kwargs):
        full_sorts.extend([1] if np.size(a) == n else [])
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    return full_sorts


def test_select_sorts_every_distance_only_after_an_under_guess(monkeypatch):
    n, k = 41, 16  # 11 sampled rows
    full_sorts = count_full_sorts(monkeypatch, n)
    rng = np.random.default_rng(4200)
    tops = [1, 11, 12, 30, 40]
    check_select(*select_case(rng, n, k, k), tops)  # every row reaches t = K
    assert full_sorts == []
    check_select(*select_case(rng, n, k, 0), tops)  # only the 11 sampled rows reach t = 0
    assert len(full_sorts) == 3


@pytest.mark.parametrize("sampled, top, full_sorts", [
    ([0] * 5 + [16] * 6, 8, 0),  # t = 0 holds 5 rows, the next sampled distance 16 at least 11
    ([0] * 5 + [1] * 6, 12, 1),  # the next sampled distance, 1, holds only the 11 sampled rows
    ([0] * 11, 12, 1),           # no sampled distance above t = 0
])
@pytest.mark.parametrize("k", [16, 65])
def test_select_filters_once_more_before_sorting_every_distance(k, sampled, top, full_sorts,
                                                                 monkeypatch):
    n = 41  # 11 sampled rows; a top-8 or top-12 guesses t at sample rank 2 or 3, distance 0
    sorts = count_full_sorts(monkeypatch, n)
    codes, query = select_case(np.random.default_rng(4300 + k), n, k, k)
    for row, dist in zip(range(0, n, 4), sampled):
        codes[row] = np.where(np.arange(k) < dist, -query, query)
    assert sorted(scan_distances(query, codes))[top - 1] > 1  # < top rows within distance 1
    check_select(codes, query, [top])
    assert len(sorts) == full_sorts


@pytest.mark.parametrize("k", [8, 128])
def test_sampled_select_falls_back_at_real_stride(k):
    rng = np.random.default_rng(4100 + k)
    n = 3 * R._SAMPLE_STRIDE + 5  # 4 sampled rows at distance 0
    codes, query = select_case(rng, n, k, 0)
    check_select(codes, query, [1, 4, 5, 10, n - 1])


@pytest.mark.parametrize("k", SELECT_KS)
def test_sparse_precision_terms_equal_seed_formula(k):
    rng = np.random.default_rng(5000 + k)
    n = 70
    codes, labels, _ = tied_multilabel_index(rng, n, k, 5)
    labels[:, 3] = 1  # class 3 is on every item, class 1 on none
    index = R.RetrievalIndex.from_signs(codes, labels)
    q_codes = np.vstack([random_codes(rng, 3, k), codes[[5, 6]]])
    q_labels = labels[rng.integers(0, n, size=5)].copy()
    q_labels[:, 3] = 0
    q_labels[3] = np.eye(5, dtype=np.uint8)[1]  # no item relevant
    q_labels[4] = np.eye(5, dtype=np.uint8)[3]  # every item relevant
    for code, label in zip(q_codes, q_labels):
        rel = R.relevance(label, index)[index.query_topk(code, n).ids]
        assert R._precision_terms(rel).tolist() == seed_terms(rel).tolist()
    grid = [1, 5, 17, 60, n, n + 10]
    for r_cap in (None, 1, 20, n + 3):
        want_map, want_rows = seed_metrics(codes, labels, q_codes, q_labels, r_cap, grid)
        assert R.mean_average_precision(q_codes, q_labels, index, r_cap) == want_map
    assert R.curves(q_codes, q_labels, index, grid) == want_rows
    assert R.mean_average_precision(q_codes[4:], q_labels[4:], index) == 1.0


# ---- labels and argument checks ----

@pytest.mark.parametrize("active", [256, 0.5, -1])
def test_index_label_active_when_non_zero(active):
    codes = np.ones((3, 8), dtype=np.int8)
    index = R.RetrievalIndex.from_signs(codes, np.array([[active], [1], [0]]))
    assert index.labels.tolist() == [[1], [1], [0]]
    for query_label in ([1], [active]):
        assert R.mean_average_precision(codes[:1], np.array([query_label]), index) == 1.0


def test_curves_rejects_empty_grid():
    rng = np.random.default_rng(16)
    codes, labels, index = _make_index(rng, n=10)
    with pytest.raises(InvalidArgument, match="k_grid is empty"):
        R.curves(codes[:1], labels[:1], index, [])


def test_query_topk_k_must_be_an_integer():
    rng = np.random.default_rng(17)
    codes, labels, index = _make_index(rng, n=20)
    with pytest.raises(InvalidArgument, match="k must be an integer, got 1.5"):
        index.query_topk(codes[0], 1.5)
    want = index.query_topk(codes[0], 3).ids.tolist()
    for k in (np.int64(3), np.uint8(3), np.int32(3)):
        assert index.query_topk(codes[0], k).ids.tolist() == want


@pytest.mark.parametrize("r_cap", [0, -5])
def test_map_r_cap_below_one_names_r_cap(r_cap):
    rng = np.random.default_rng(18)
    codes, labels, index = _make_index(rng, n=20)
    with pytest.raises(InvalidArgument, match=f"r_cap must be >= 1, got {r_cap}$"):
        R.mean_average_precision(codes[:2], labels[:2], index, r_cap)


def test_map_r_cap_must_be_an_integer():
    rng = np.random.default_rng(19)
    codes, labels, index = _make_index(rng, n=20)
    with pytest.raises(InvalidArgument, match="r_cap must be an integer, got 2.5"):
        R.mean_average_precision(codes[:2], labels[:2], index, r_cap=2.5)
    want = R.mean_average_precision(codes[:2], labels[:2], index, 5)
    for r_cap in (np.int64(5), np.uint8(5)):
        assert R.mean_average_precision(codes[:2], labels[:2], index, r_cap) == want


def test_curves_k_grid_values_must_be_integers():
    rng = np.random.default_rng(20)
    codes, labels, index = _make_index(rng, n=20)
    with pytest.raises(InvalidArgument, match="k_grid value must be an integer, got 1.5"):
        R.curves(codes[:2], labels[:2], index, [1.5, 3])
    assert R.curves(codes[:2], labels[:2], index, [np.int32(1), np.int64(3)]) == \
        R.curves(codes[:2], labels[:2], index, [1, 3])


# ---- packed code values, and query_topk's int64 distances gathered when first read ----

@pytest.mark.parametrize("bad", [256, 300, -1, 1.7, np.nan])
def test_index_rejects_code_values_that_are_not_bytes(bad):
    # a uint8 cast would index 256 as 0, 300 as 44, -1 as 255 and 1.7 as 1
    with pytest.raises(InvalidArgument, match="code row 1 holds a value that is not a byte"):
        R.RetrievalIndex(np.array([[3], [bad], [255]]), np.ones((3, 1)), 8)


def test_index_accepts_in_range_int64_codes():
    rng = np.random.default_rng(21)
    packed = R.pack_codes(random_codes(rng, 30, 37))
    assert R.check_code_rows(packed, 37) is packed  # uint8 rows: no copy
    wide = R.RetrievalIndex(packed.astype(np.int64), np.ones((30, 1)), 37)
    narrow = R.RetrievalIndex(packed, np.ones((30, 1)), 37)
    assert wide._words.tobytes() == narrow._words.tobytes()
    query = random_codes(rng, 1, 37)[0]
    assert wide.distances(query).tolist() == narrow.distances(query).tolist()


@pytest.mark.parametrize("k", [8, 37, 63, 64, 65, 128])
def test_lazy_distances_match_the_oracle_and_read_the_same_twice(k, monkeypatch):
    rng = np.random.default_rng(5000 + k)
    for stride in (R._SAMPLE_STRIDE, 4):  # no sample, and a sample that guesses
        monkeypatch.setattr(R, "_SAMPLE_STRIDE", stride)
        for n in (1, 13, 41):
            # tied codes, and a sample at distance 0 that under-guesses (the exact fallback)
            for codes, query in (kernel_case(rng, n, k), select_case(rng, n, k, 0)):
                index = R.RetrievalIndex.from_signs(codes, np.ones((n, 1), dtype=np.uint8))
                order, d = ranking(codes, query)
                for top in sorted({t for t in (1, 10, n - 1, n, n + 5) if t >= 1}):
                    res = index.query_topk(query, top)
                    first = res.distances
                    assert first.dtype == np.int64
                    assert first.tolist() == d[order[:top]].tolist()
                    assert res.distances is first
                    assert res.ids.tolist() == order[:top].tolist()


def test_query_result_returns_the_distances_it_was_given():
    ids, dist = np.array([2, 0, 1]), np.array([1, 1, 4], dtype=np.uint8)
    res = R.QueryResult(ids=ids, distances=dist)
    assert res.ids is ids and res.distances is dist
    assert R.QueryResult(ids, dist).distances is dist


def test_map_and_curves_never_build_distances(monkeypatch):
    rng = np.random.default_rng(22)
    codes, labels, index = _make_index(rng, n=60)
    reads, gather = [], R.QueryResult.distances.func

    def counting(result):
        reads.append(1)
        return gather(result)

    monkeypatch.setattr(R.QueryResult.distances, "func", counting)
    R.mean_average_precision(codes[:5], labels[:5], index)
    R.mean_average_precision(codes[:5], labels[:5], index, r_cap=20)
    R.curves(codes[:5], labels[:5], index, [1, 5, 20, 60])
    assert reads == []
    res = index.query_topk(codes[0], 60)
    assert "distances" not in vars(res)  # nothing is gathered before the first read
    assert res.distances[0] == 0 and "distances" in vars(res)
    assert reads == [1]


# ---- the scan's chunks on helper threads against the oracle and the serial scan ----

THREAD_KS = [8, 37, 63, 64, 65, 128]


def threaded_scan(monkeypatch, k):
    """5-row chunks, and every scan on two threads whatever the host has."""
    monkeypatch.setattr(R, "_CHUNK_WORDS", 5 * -(-k // 64))
    monkeypatch.setattr(R, "_PARALLEL_WORDS", 0)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("k", THREAD_KS)
def test_threaded_scan_matches_oracle_and_serial_metrics(k, monkeypatch, pool):
    rng = np.random.default_rng(6000 + k)
    n = 63
    codes, labels, index = tied_multilabel_index(rng, n, k, 5)
    q_codes = np.vstack([random_codes(rng, 3, k), -codes[[3]], codes[[3]]])
    q_labels = labels[rng.integers(0, n, size=5)]
    grid = [1, 5, 17, n, n + 10]
    serial = (R.mean_average_precision(q_codes, q_labels, index),
              R.curves(q_codes, q_labels, index, grid))
    threaded_scan(monkeypatch, k)
    for q in q_codes:
        order, d = ranking(codes, q)
        calls = pool.watch(2)  # both threads take a chunk of each scan
        assert index.distances(q).tolist() == d.tolist()
        assert len(set(calls)) == 2 and len(calls) == 13  # 63 rows in 5-row chunks
        for top in (n, 17):
            res = index.query_topk(q, top)
            assert res.ids.tolist() == order[:top].tolist()
            assert res.distances.tolist() == d[order[:top]].tolist()
    calls = pool.watch(2)
    threaded = (R.mean_average_precision(q_codes, q_labels, index),
                R.curves(q_codes, q_labels, index, grid))
    assert len(set(calls)) == 2 and len(calls) == 13 * len(q_codes) * 2
    assert threaded[0].hex() == serial[0].hex()
    assert [(k, a.hex(), r.hex()) for k, a, r in threaded[1]] \
        == [(k, a.hex(), r.hex()) for k, a, r in serial[1]]
    pool.check_idle(2, calls)


@pytest.mark.parametrize("k", [64, 128])
def test_threaded_scan_matches_oracle_at_real_chunk_size(k, monkeypatch, pool):
    # chunks large enough that numpy releases the GIL, so the two threads' chunks
    # overlap on a multi-core host: a buffer shared between them shows here
    monkeypatch.setattr(R, "_PARALLEL_WORDS", 0)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    n = 4 * chunk_rows(k) + 3
    codes = random_codes(np.random.default_rng(6050 + k), n, k)
    index = R.RetrievalIndex.from_signs(codes, np.ones((n, 1), np.uint8))
    for q in codes[:4]:
        calls = pool.watch(2)
        assert index.distances(q).tolist() == ranking(codes, q)[1].tolist()
        assert len(set(calls)) == 2 and len(calls) == 5
    pool.check_idle(2, calls)


@pytest.mark.parametrize("k", [64, 65])
def test_scan_runs_on_every_cpu_from_the_size_constant(k, monkeypatch, pool):
    rng = np.random.default_rng(6100 + k)
    codes = random_codes(rng, 41, k)
    threaded_scan(monkeypatch, k)
    monkeypatch.setattr(R, "_PARALLEL_WORDS", 40 * -(-k // 64))
    for n, threads in ((39, 1), (40, 2), (41, 2)):
        index = R.RetrievalIndex.from_signs(codes[:n], np.ones((n, 1), np.uint8))
        calls = pool.watch(threads)
        assert index.distances(codes[0]).tolist() == ranking(codes[:n], codes[0])[1].tolist()
        assert len(set(calls)) == threads
    pool.check_idle(2, calls)


def test_a_chunk_that_raises_on_a_helper_raises_in_the_caller(monkeypatch, pool):
    rng = np.random.default_rng(6200)
    codes, labels, index = tied_multilabel_index(rng, 63, 65, 5)
    threaded_scan(monkeypatch, 65)
    caller, calls = threading.get_ident(), pool.watch(2)
    watched, failed = workers.run, []

    def failing(blocks, job, parallel):
        def chunk(start):
            if threading.get_ident() != caller and not failed:
                failed.append(start)
                raise MemoryError(f"chunk at row {start}")
            job(start)
        watched(blocks, chunk, parallel)

    with monkeypatch.context() as m:
        m.setattr(workers, "run", failing)
        with pytest.raises(MemoryError, match="^chunk at row"):
            index.query_topk(codes[0], 10)
    assert len(failed) == 1 and len(set(calls)) == 2
    pool.check_idle(2, calls)
    for q in codes[:3]:  # the same helper scans again
        calls = pool.watch(2)
        order, d = ranking(codes, q)
        assert index.query_topk(q, 10).ids.tolist() == order[:10].tolist()
        assert len(set(calls)) == 2
    pool.check_idle(2, calls)


def test_a_helper_that_fails_to_start_raises_and_leaves_the_pool_usable(monkeypatch, pool):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})

    class Unstartable(threading.Thread):
        def start(self):
            raise RuntimeError("can't start new thread")

    ran, raised = [], []

    def call():
        try:
            workers.run(range(6), ran.append, True)
        except RuntimeError as exc:
            raised.append(str(exc))

    with monkeypatch.context() as m:
        m.setattr(workers, "threading", types.SimpleNamespace(Thread=Unstartable))
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=20)
    assert not caller.is_alive()  # a run waiting for answers to jobs it never queued hangs
    assert raised == ["can't start new thread"] and ran == [] and pool.helpers == []
    pool.check_idle(2)
    calls = pool.watch(2)
    workers.run(range(6), ran.append, True)
    assert sorted(ran) == list(range(6)) and len(set(calls)) == 2
    pool.check_idle(2, calls)


def test_concurrent_callers_of_one_index_get_the_oracle_result(monkeypatch, pool):
    rng = np.random.default_rng(6300)
    codes, labels, index = tied_multilabel_index(rng, 63, 128, 5)
    threaded_scan(monkeypatch, 128)
    queries = random_codes(rng, 24, 128)
    want = [ranking(codes, q)[0][:10].tolist() for q in queries]
    got, start = {}, threading.Barrier(4, timeout=20)

    def client(c):
        start.wait()
        for i in range(c, len(queries), 4):
            got[i] = index.query_topk(queries[i], 10).ids.tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        clients = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients)
    assert [got.get(i) for i in range(len(queries))] == want
    pool.check_idle(2)


def test_a_scan_inside_a_block_runs_serially(monkeypatch, pool):
    rng = np.random.default_rng(6400)
    codes, labels, index = tied_multilabel_index(rng, 63, 64, 5)
    threaded_scan(monkeypatch, 64)
    got, calls = {}, pool.watch(2)

    def block(i):  # each block scans the index from inside workers.run
        got[i] = index.distances(codes[i]).tolist()

    outer = threading.Thread(target=workers.run, args=(range(8), block, True), daemon=True)
    outer.start()
    outer.join(timeout=60)
    assert not outer.is_alive()  # a nested call that waited for the helpers would hang
    assert got == {i: ranking(codes, codes[i])[1].tolist() for i in range(8)}
    assert set(calls) == {outer.ident, pool.helpers[0].ident} and len(calls) == 8 + 8 * 13
    pool.check_idle(2)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the fork start method")
def test_a_fork_child_starts_its_own_helpers(monkeypatch, pool):
    rng = np.random.default_rng(6500)
    codes, labels, index = tied_multilabel_index(rng, 63, 128, 5)
    threaded_scan(monkeypatch, 128)
    params = net.init_params(net.Dims(d_img=8, d_txt=8, d=6, code_length=4), seed=0)
    x = rng.normal(size=(3 * trainer._ENCODE_ROWS, 8))
    want = (index.distances(codes[0]).tolist(), trainer.encode(params, x, x).tolist())
    assert len(pool.helpers) == 1  # the parent's helper, which the child does not have
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()

    def child():
        got = (index.distances(codes[0]).tolist(), trainer.encode(params, x, x).tolist())
        out.put((got, [h.ident for h in workers._helpers]))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        got, helpers = out.get(timeout=60)
    finally:
        proc.join(timeout=20)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0
    assert got == want and len(helpers) == 1
