import numpy as np
import pytest

from mvhash import retrieval as R
from mvhash.errors import InvalidArgument, InvalidState


def random_codes(rng, n, k):
    return (rng.integers(0, 2, size=(n, k)) * 2 - 1).astype(np.int8)


def naive_distance(a, b):
    return int(sum(1 for x, y in zip(a.tolist(), b.tolist()) if x != y))


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
        assert scan_distances(a, b) == [naive_distance(a, b)]


@pytest.mark.parametrize("k", [8, 16, 37, 63, 64, 65, 128])
def test_packed_distance_equals_bit_loop(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        a, b = random_codes(rng, 2, k)
        assert scan_distances(a, b) == [naive_distance(a, b)]


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


def _make_index(rng, n=100, k=16, v=5):
    codes = random_codes(rng, n, k)
    labels = np.zeros((n, v), dtype=np.uint8)
    labels[np.arange(n), rng.integers(0, v, size=n)] = 1
    return codes, labels, R.RetrievalIndex.from_signs(codes, labels)


def brute_force_ranking(codes, query):
    """Full-sort oracle: ascending distance, ties by ascending id."""
    d = [naive_distance(c, query) for c in codes]
    order = sorted(range(len(d)), key=lambda i: (d[i], i))
    return order, d


def test_query_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(4)
    codes, labels, index = _make_index(rng)
    for _ in range(10):
        q = random_codes(rng, 1, 16)[0]
        oracle_order, d = brute_force_ranking(codes, q)
        result = index.query_topk(q, 10)
        assert result.ids.tolist() == oracle_order[:10]
        assert result.distances.tolist() == [d[i] for i in oracle_order[:10]]


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
    assert len(index.query_topk(q, 500)) == 12


def test_empty_index_rejected():
    with pytest.raises((InvalidState, InvalidArgument)):
        R.RetrievalIndex(np.zeros((0, 2), dtype=np.uint8), np.zeros((0, 3)), 16)


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


def brute_force_metrics(query_codes, query_labels, codes, labels, r_cap=None, at_k=None):
    """Independent reference: per-bit loops and explicit Eq-style sums."""
    n = len(codes)
    cap = n if r_cap is None else min(r_cap, n)
    aps, recalls = [], []
    for q_code, q_label in zip(query_codes, query_labels):
        order, _ = brute_force_ranking(codes, q_code)
        rel = [int((labels[i] & q_label).any()) for i in order]
        m = sum(int((lab & q_label).any()) for lab in labels)
        if m == 0:
            aps.append(0.0)
            recalls.append(0.0)
            continue
        ap = 0.0
        hits = 0
        upto = cap if at_k is None else min(at_k, n)
        for r in range(1, upto + 1):
            if rel[r - 1]:
                hits += 1
                ap += hits / r
        aps.append(ap / m)
        recalls.append(hits / m)
    return sum(aps) / len(aps), sum(recalls) / len(recalls)


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
    for k, map_k, recall_k in R.curves(q_codes, q_labels, index, [3, 9, 30]):
        ref_map, ref_recall = brute_force_metrics(
            q_codes, q_labels, codes, labels, at_k=k
        )
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


def test_curves_rejects_non_increasing_grid():
    rng = np.random.default_rng(13)
    codes, labels, index = _make_index(rng, n=10)
    with pytest.raises(InvalidArgument):
        R.curves(codes[:1], labels[:1], index, [5, 5, 10])


# ---- the ranked pass against the seed formulas and the brute-force ranking ----

def seed_ap(rel_mask, ids, cap):
    """AP exactly as first written: uint8 @ int64 relevance, float64 cumsum."""
    m = int(rel_mask.sum())
    if m == 0:
        return 0.0
    rel = rel_mask[ids[:cap]].astype(np.float64)
    cum = np.cumsum(rel)
    ranks = np.arange(1, cap + 1, dtype=np.float64)
    return float(np.sum(rel * cum / ranks) / m)


def seed_metrics(codes, labels, q_codes, q_labels, r_cap, k_grid):
    """(mAP at r_cap, curve rows) from the oracle ranking and the seed arithmetic."""
    n = len(codes)
    orders = [np.array(brute_force_ranking(codes, q)[0]) for q in q_codes]
    masks = [(labels.astype(np.uint8) @ q.astype(np.int64)) > 0 for q in q_labels]
    cap = n if r_cap is None else min(r_cap, n)
    full = float(np.mean([seed_ap(m, o, cap) for m, o in zip(masks, orders)]))
    rows = []
    for k in k_grid:
        kk = min(k, n)
        aps = [seed_ap(m, o, kk) for m, o in zip(masks, orders)]
        recalls = [int(m[o[:kk]].sum()) / int(m.sum()) if m.any() else 0.0
                   for m, o in zip(masks, orders)]
        rows.append((k, float(np.mean(aps)), float(np.mean(recalls))))
    return full, rows


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
@pytest.mark.parametrize("k", [8, 37, 63, 64, 65, 128, 256])
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
        order, d = brute_force_ranking(codes, q)
        for top in (n, 17):
            res = index.query_topk(q, top)
            assert res.ids.tolist() == order[:top]
            assert res.distances.tolist() == [d[i] for i in order[:top]]
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
    assert got.dtype == np.int64
    assert got.tolist() == list(d)
    for top in ks:
        res = index.query_topk(query, top)
        want = order[:top]
        assert res.ids.tolist() == list(want)
        assert res.distances.dtype == np.int64
        assert res.distances.tolist() == [d[i] for i in want]


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
        order, d = brute_force_ranking(codes, query)
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
        d = (codes[:n] != query).sum(axis=1)  # bit loop, vectorised over rows
        order = np.lexsort((np.arange(n), d))  # (distance, ascending id)
        check_kernel(query, index, order.tolist(), d.tolist(),
                     [1, 10, n - 1, n, n + 5])
