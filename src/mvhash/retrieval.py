"""Bit-packed Hamming index, top-k ranking, and retrieval metrics.

Codes are K-bit vectors over {-1,+1}; bit b = 1 in the packed form means
code value +1, with the LSB of byte 0 holding bit 0. Distances run over
uint64 words with a vectorized popcount; padding bits are zero on both
sides (the index rejects code rows that set them) so they never contribute.
"""

from functools import cached_property

import numpy as np

from .errors import InvalidArgument, InvalidState, integer


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """Pack rows (non-zero = 1) into uint8 rows of ceil(width/8) bytes, LSB-first."""
    return np.packbits(np.atleast_2d(rows), axis=1, bitorder="little")


def unpack_bits(packed: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_bits; returns uint8 rows over {0, 1}."""
    p = np.atleast_2d(np.asarray(packed, dtype=np.uint8))
    return np.unpackbits(p, axis=1, bitorder="little")[:, :width]


def padding_bits_set(packed: np.ndarray, width: int):
    """Indices of the packed rows that set a bit past `width` in their last byte."""
    return np.flatnonzero(packed[:, -1] >> (width % 8)) if width % 8 else ()


def check_code_rows(codes, code_length: int) -> np.ndarray:
    """Packed code rows as uint8, rejecting a value that is not a byte 0..255,
    a width other than ceil(K/8) and set padding bits; uint8 rows cost no extra pass."""
    c = np.atleast_2d(np.asarray(codes))
    with np.errstate(invalid="ignore"):
        packed = c.astype(np.uint8, copy=False)
    bad = () if packed is c else np.flatnonzero((packed != c).any(axis=1))
    if len(bad):
        raise InvalidArgument(f"code row {bad[0]} holds a value that is not a byte 0..255")
    if packed.shape[1] != -(-code_length // 8):
        raise InvalidArgument(f"packed width {packed.shape[1]} inconsistent with K={code_length}")
    bad = padding_bits_set(packed, code_length)
    if len(bad):
        raise InvalidArgument(f"code row {bad[0]} has non-zero padding bits (K={code_length})")
    return packed


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack (+-1)-valued rows into uint8 rows of ceil(K/8) bytes, bit 1 = +1."""
    c = np.atleast_2d(np.asarray(codes))
    if not ((c == 1) | (c == -1)).all():
        raise InvalidArgument("codes must be +-1 valued")
    return pack_bits(c > 0)


def unpack_codes(packed: np.ndarray, code_length: int) -> np.ndarray:
    """Inverse of pack_codes; returns int8 rows over {-1,+1}."""
    return (unpack_bits(packed, code_length).astype(np.int8) * 2 - 1).astype(np.int8)


def _to_words(packed: np.ndarray) -> np.ndarray:
    """Zero-pad packed byte rows to a multiple of 8 and view as uint64 words."""
    n, nbytes = packed.shape
    width = -(-nbytes // 8) * 8
    if width != nbytes:
        buf = np.zeros((n, width), dtype=np.uint8)
        buf[:, :nbytes] = packed
        packed = buf
    return np.ascontiguousarray(packed).view(np.uint64)


class QueryResult:
    """Top-k items, ascending distance, ties broken by ascending id."""

    def __init__(self, ids: np.ndarray, distances: np.ndarray):
        self.ids, self.distances = ids, distances

    @classmethod
    def _of_scan(cls, ids: np.ndarray, narrow: np.ndarray, at: np.ndarray) -> "QueryResult":
        """query_topk's result: its int64 distances, narrow[at], are gathered when first read."""
        result = cls.__new__(cls)
        result.ids, result._narrow, result._at = ids, narrow, at
        return result

    @cached_property
    def distances(self) -> np.ndarray:
        return self._narrow[self._at].astype(np.int64)

    def __len__(self):
        return len(self.ids)


# uint64 words per scan chunk (16k rows at K = 128): the chunk's XOR and
# popcount buffers stay in L2, and the query words are tiled once per call.
_CHUNK_WORDS = 1 << 15

# rows between the sampled distances that guess the k-th smallest in query_topk
_SAMPLE_STRIDE = 1000


class RetrievalIndex:
    """Immutable linear-scan index over packed codes with parallel labels."""

    def __init__(self, codes: np.ndarray, labels: np.ndarray, code_length: int):
        packed = check_code_rows(codes, code_length)
        labels = np.atleast_2d(np.asarray(labels))
        if packed.shape[0] != labels.shape[0]:
            raise InvalidArgument(
                f"codes ({packed.shape[0]}) and labels ({labels.shape[0]}) differ in length"
            )
        if packed.shape[0] < 1:
            raise InvalidState("index is empty")
        self.code_length = int(code_length)
        self.size = packed.shape[0]
        self._words = _to_words(packed)
        # one class-major copy, non-zero = active as for queries; labels is its (size, C) view
        self._by_class = (labels != 0).T.copy()
        self.labels = self._by_class.T.view(np.uint8)

    @classmethod
    def from_signs(cls, codes: np.ndarray, labels: np.ndarray) -> "RetrievalIndex":
        c = np.atleast_2d(np.asarray(codes))
        return cls(pack_codes(c), labels, c.shape[1])

    def _scan(self, query_code: np.ndarray) -> np.ndarray:
        """Hamming distance to every row, as np.min_scalar_type(K), in row-major chunks.

        Per chunk: XOR the flat word stream with the query words tiled to the
        chunk (the one word broadcast at W = 1), popcount through a transposed
        view into W contiguous uint8 lanes, then sum the lanes with contiguous adds.
        """
        q = np.asarray(query_code).ravel()
        if q.shape[0] != self.code_length:
            raise InvalidArgument(
                f"query length {q.shape[0]} != index code length {self.code_length}"
            )
        qw = _to_words(pack_codes(q)).ravel()
        w = qw.size
        words = self._words.reshape(-1)
        rows = min(self.size, max(1, _CHUNK_WORDS // w))
        # at W = 1, tiled[:m] is the one query word, broadcast over the chunk
        tiled = np.tile(qw, rows) if w > 1 else qw
        xor = np.empty(rows * w, dtype=np.uint64)
        lanes = np.empty((w, rows), dtype=np.uint8)
        dist = np.empty(self.size, dtype=np.min_scalar_type(self.code_length))
        for start in range(0, self.size, rows):
            n = min(rows, self.size - start)
            m = n * w
            np.bitwise_xor(words[start * w:start * w + m], tiled[:m], out=xor[:m])
            out = dist[start:start + n]
            if w == 1:
                np.bitwise_count(xor[:m], out=out)
            else:
                np.bitwise_count(xor[:m].reshape(n, w).T, out=lanes[:, :n])
                np.add.reduce(lanes[:, :n], axis=0, dtype=out.dtype, out=out)
        return dist

    def distances(self, query_code: np.ndarray) -> np.ndarray:
        """Hamming distance from one +-1 query code to every indexed code."""
        return self._scan(query_code).astype(np.int64)

    def query_topk(self, query_code: np.ndarray, k: int) -> QueryResult:
        k = integer(k, "k", 1)
        d = self._scan(query_code)
        if k < self.size:
            # guess the k-th smallest distance t at rank ceil(k |sample| / size)
            # of a strided sample. If fewer than k rows reach it, filter once more
            # at the next larger sampled distance; if there is none, or that too
            # under-shoots, take the exact k-th from a stable sort: a radix sort
            # of the narrow distances, O(size) on any CPU, where np.partition of
            # uint8 took 2-4x as long. Ascending-id candidates d <= t + a stable
            # sort = the (distance, id) tie rule.
            sample = np.sort(d[::_SAMPLE_STRIDE])
            t = sample[-(-k * sample.size // self.size) - 1]
            cand = np.flatnonzero(d <= t)
            if cand.size < k and t < sample[-1]:
                cand = np.flatnonzero(d <= sample[np.searchsorted(sample, t, side="right")])
            if cand.size < k:
                cand = np.flatnonzero(d <= np.sort(d, kind="stable")[k - 1])
            d = d[cand]
            at = np.argsort(d, kind="stable")[:k]
            ids = cand[at]
        else:
            ids = at = np.argsort(d, kind="stable")
        return QueryResult._of_scan(ids, d, at)


def relevance(query_label: np.ndarray, index: RetrievalIndex) -> np.ndarray:
    """Boolean mask: an item is relevant if it shares any active class."""
    q = np.asarray(query_label).ravel()
    if q.shape[0] != index.labels.shape[1]:
        raise InvalidArgument(f"query has {q.shape[0]} classes, index {index.labels.shape[1]}")
    active = np.flatnonzero(q)
    if not active.size:
        return np.zeros(index.size, dtype=bool)
    mask = index._by_class[active[0]].copy()
    for c in active[1:]:
        mask |= index._by_class[c]
    return mask


def _ranked_relevance(query_label, ids, index) -> tuple[np.ndarray, int]:
    """Relevance of `ids` in rank order, and M = relevant items in the whole index."""
    mask = relevance(query_label, index)
    return mask[ids], int(np.count_nonzero(mask))


def _precision_terms(rel: np.ndarray) -> np.ndarray:
    """rel_r * precision@r at each rank r; AP@k is the sum of the first k over M.

    The j-th relevant item, at rank pos + 1, scores j / (pos + 1); every other
    rank scores 0.0, so the vector equals rel * cumsum(rel) / ranks.
    """
    pos = np.flatnonzero(rel)
    terms = np.zeros(rel.size)
    terms[pos] = np.arange(1, pos.size + 1) / (pos + 1)
    return terms


def average_precision(
    query_label: np.ndarray, ranking: QueryResult, index: RetrievalIndex
) -> float:
    """(1/M) sum over the ranking's relevant ranks r of precision@r.

    M counts relevant items in the whole retrieval set; returns 0 when M = 0.
    """
    rel, m = _ranked_relevance(query_label, ranking.ids, index)
    return float(np.sum(_precision_terms(rel)) / m) if m else 0.0


def _query_rows(query_codes, query_labels) -> tuple[np.ndarray, np.ndarray]:
    """Query codes and labels as rows: at least one query, one label row per code."""
    qc = np.atleast_2d(np.asarray(query_codes))
    ql = np.atleast_2d(np.asarray(query_labels))
    if qc.shape[0] < 1:
        raise InvalidArgument("empty query set")
    if qc.shape[0] != ql.shape[0]:
        raise InvalidArgument(f"{qc.shape[0]} query codes but {ql.shape[0]} query label rows")
    return qc, ql


def mean_average_precision(
    query_codes: np.ndarray,
    query_labels: np.ndarray,
    index: RetrievalIndex,
    r_cap: int | None = None,
) -> float:
    """Mean AP over queries (+-1 code rows), each over its first r_cap ranks or all R."""
    qc, ql = _query_rows(query_codes, query_labels)
    cap = index.size if r_cap is None else min(integer(r_cap, "r_cap", 1), index.size)
    return float(np.mean([
        average_precision(label, index.query_topk(code, cap), index)
        for code, label in zip(qc, ql)
    ]))


def curves(
    query_codes: np.ndarray,
    query_labels: np.ndarray,
    index: RetrievalIndex,
    k_grid: list[int],
) -> list[tuple[int, float, float]]:
    """(k, mAP@k, Recall@k) rows for a strictly increasing k grid, one ranked pass per query."""
    ks = [integer(k, "k_grid value", 1) for k in k_grid]
    if not ks:
        raise InvalidArgument("k_grid is empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise InvalidArgument("k_grid must be strictly increasing")
    qc, ql = _query_rows(query_codes, query_labels)
    caps = [min(k, index.size) for k in ks]
    aps, recalls = scores = np.zeros((2, len(ks), qc.shape[0]))
    for j, (code, label) in enumerate(zip(qc, ql)):
        rel, m = _ranked_relevance(label, index.query_topk(code, max(caps)).ids, index)
        if m == 0:
            continue
        terms, hits = _precision_terms(rel), np.cumsum(rel)
        for i, cap in enumerate(caps):
            aps[i, j] = np.sum(terms[:cap]) / m
            recalls[i, j] = int(hits[cap - 1]) / m
    return [(k, float(a), float(r)) for k, a, r in zip(ks, *scores.mean(axis=-1))]


def random_ranking_map(
    query_labels: np.ndarray, index: RetrievalIndex, seed: int = 0
) -> float:
    """mAP of a uniformly random ranking; the no-learning baseline."""
    rng = np.random.default_rng(integer(seed, "seed", 0))
    _, ql = _query_rows(query_labels, query_labels)  # no codes: the rows are the labels
    zeros = np.zeros(index.size, dtype=np.int64)
    return float(np.mean([
        average_precision(label, QueryResult(rng.permutation(index.size), zeros), index)
        for label in ql
    ]))
