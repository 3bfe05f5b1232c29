"""Brute-force oracles and output checks, written independently of mvhash.

Every check returns None when the program's output is right and a one-line
description of the problem otherwise, so callers can count it as a failed
op. Codes are packed LSB-first, bit = 1 meaning +1 (the mvhash convention).
"""

import numpy as np

POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def pack_signs(codes):
    """Pack +-1 rows into uint8 rows, LSB-first."""
    c = np.atleast_2d(np.asarray(codes))
    return np.packbits((c > 0).astype(np.uint8), axis=1, bitorder="little")


def oracle_distances(packed_rows, packed_query, chunk=131072):
    """Hamming distances by byte-table popcount, in row chunks to bound memory."""
    q = np.asarray(packed_query, dtype=np.uint8).ravel()
    out = np.empty(packed_rows.shape[0], dtype=np.int16)
    for lo in range(0, packed_rows.shape[0], chunk):
        x = POPCOUNT8[packed_rows[lo:lo + chunk] ^ q]
        out[lo:lo + chunk] = x.sum(axis=1, dtype=np.int16)
    return out


def oracle_order(dist):
    """All ids sorted by (distance, id): a stable sort of the full array."""
    return np.argsort(dist, kind="stable")


def candidates_per_k(packed_rows, packed_queries, k):
    """Mean over the queries of |{d <= k-th smallest distance}| / k: how many
    items a threshold-then-sort top-k has to sort per item it returns."""
    out = []
    for q in packed_queries:
        dist = oracle_distances(packed_rows, q)
        kth = dist[oracle_order(dist)[k - 1]]
        out.append(int((dist <= kth).sum()) / k)
    return float(np.mean(out))


def check_topk(ids, distances, dist, k):
    """The program's top-k must equal the first k of the (distance, id) sort."""
    want = oracle_order(dist)[:k]
    ids = np.asarray(ids)
    if ids.shape != want.shape or not np.array_equal(ids, want):
        bad = int(np.argmax(ids != want)) if ids.shape == want.shape else -1
        return f"top-{k} ids differ from the (distance, id) sort at rank {bad}"
    if not np.array_equal(np.asarray(distances), dist[want]):
        return f"top-{k} distances differ from the brute-force distances"
    return None


def relevance_mask(labels, query_label):
    """An item is relevant when it shares any active class with the query."""
    return (np.asarray(labels) & np.asarray(query_label, dtype=labels.dtype)).any(axis=1)


def oracle_ap(ranked_rel, m, cap=None):
    """(1/m) * sum of precision@r over relevant ranks r <= cap; 0 when m == 0."""
    if m == 0:
        return 0.0
    pos = np.flatnonzero(ranked_rel) + 1      # 1-based ranks of the relevant items
    prec = np.arange(1, pos.size + 1) / pos   # precision at each of them
    if cap is not None:
        prec = prec[pos <= cap]
    return float(prec.sum() / m)


def close(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(1.0, abs(want))


def check_ap(got, ranked_rel, m):
    want = oracle_ap(ranked_rel, m)
    if not close(got, want):
        return f"AP {got!r} != oracle {want!r}"
    return None


def check_curve_rows(rows, ranked_rel, m, k_grid):
    """rows: the program's (k, mAP@k, Recall@k) for one query."""
    if [r[0] for r in rows] != list(k_grid):
        return f"curve k values {[r[0] for r in rows]} != {list(k_grid)}"
    for k, map_k, recall_k in rows:
        want_map = oracle_ap(ranked_rel, m, cap=k)
        want_recall = float(ranked_rel[:k].sum() / m) if m else 0.0
        if not close(map_k, want_map):
            return f"mAP@{k} {map_k!r} != oracle {want_map!r}"
        if not close(recall_k, want_recall):
            return f"Recall@{k} {recall_k!r} != oracle {want_recall!r}"
    return None


def oracle_map(q_codes, q_labels, r_codes, r_labels, chunk=256):
    """Full-R mAP of +-1 query codes against +-1 retrieval codes."""
    k = q_codes.shape[1]
    r = r_codes.astype(np.float64)
    rl = r_labels.astype(np.float64)
    ranks = np.arange(1, r.shape[0] + 1)
    aps = []
    for lo in range(0, q_codes.shape[0], chunk):
        q = q_codes[lo:lo + chunk].astype(np.float64)
        dist = np.rint((k - q @ r.T) / 2).astype(np.int64)
        order = np.argsort(dist, axis=1, kind="stable")
        rel = (q_labels[lo:lo + chunk].astype(np.float64) @ rl.T) > 0
        ranked = np.take_along_axis(rel, order, axis=1)
        m = ranked.sum(axis=1)
        terms = np.where(ranked, np.cumsum(ranked, axis=1) / ranks, 0.0)
        aps.append(np.where(m > 0, terms.sum(axis=1) / np.maximum(m, 1), 0.0))
    return float(np.concatenate(aps).mean())


def check_same(label, got, first):
    """Repeat runs with one seed must give identical values (bitwise for floats)."""
    if isinstance(got, float):
        same = np.float64(got).tobytes() == np.float64(first).tobytes()
    else:
        same = got == first
    if not same:
        return f"{label} {got!r} differs from the first run's {first!r}"
    return None


def check_stage_exit(stage, code):
    if code != 0:
        return f"stage {stage} exited {code}"
    return None


def check_checksums(stage, got, first):
    """Manifest checksums of a stage, keyed by output file name."""
    if got != first:
        diff = sorted(k for k in set(got) | set(first) if got.get(k) != first.get(k))
        return f"stage {stage} checksums differ from the first run's for {diff}"
    return None


def tied_bits(labels, centers):
    """Zero column sums over the active centers of multi-label rows: the bits
    semantic centers resolve with a seeded coin."""
    labels = np.asarray(labels)
    multi = labels.sum(axis=1) >= 2
    sums = labels[multi].astype(np.int64) @ np.asarray(centers, dtype=np.int64)
    return int((sums == 0).sum())
