"""Bit-packed Hamming index, top-k ranking, and retrieval metrics.

Codes are K-bit vectors over {-1,+1}; bit b = 1 in the packed form means
code value +1, with the LSB of byte 0 holding bit 0. Distances run over
uint64 words with a vectorized popcount; padding bits are packed as zero
on both sides so they never contribute.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidState


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack (+-1)-valued rows into uint8 rows of ceil(K/8) bytes, LSB-first."""
    c = np.atleast_2d(np.asarray(codes))
    if not np.isin(c, (-1, 1)).all():
        raise InvalidArgument("codes must be +-1 valued")
    bits = (c > 0).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little")


def unpack_codes(packed: np.ndarray, code_length: int) -> np.ndarray:
    """Inverse of pack_codes; returns int8 rows over {-1,+1}."""
    p = np.atleast_2d(np.asarray(packed, dtype=np.uint8))
    bits = np.unpackbits(p, axis=1, bitorder="little")[:, :code_length]
    return (bits.astype(np.int8) * 2 - 1).astype(np.int8)


def _to_words(packed: np.ndarray) -> np.ndarray:
    """Zero-pad packed byte rows to a multiple of 8 and view as uint64 words."""
    n, nbytes = packed.shape
    width = -(-nbytes // 8) * 8
    if width != nbytes:
        buf = np.zeros((n, width), dtype=np.uint8)
        buf[:, :nbytes] = packed
        packed = buf
    return np.ascontiguousarray(packed).view(np.uint64)


@dataclass(frozen=True)
class QueryResult:
    """Top-k items, ascending distance, ties broken by ascending id."""

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self):
        return len(self.ids)


# uint64 words per scan chunk (16k rows at K = 128): the chunk's XOR and
# popcount buffers stay in L2, and the query words are tiled once per call.
_CHUNK_WORDS = 1 << 15


class RetrievalIndex:
    """Immutable linear-scan index over packed codes with parallel labels."""

    def __init__(self, codes: np.ndarray, labels: np.ndarray, code_length: int):
        packed = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        labels = np.atleast_2d(np.asarray(labels))
        if packed.shape[0] != labels.shape[0]:
            raise InvalidArgument(
                f"codes ({packed.shape[0]}) and labels ({labels.shape[0]}) differ in length"
            )
        if packed.shape[0] < 1:
            raise InvalidState("index is empty")
        if packed.shape[1] != -(-code_length // 8):
            raise InvalidArgument(
                f"packed width {packed.shape[1]} inconsistent with K={code_length}"
            )
        self.code_length = int(code_length)
        self.size = packed.shape[0]
        self._words = _to_words(packed)
        self.labels = labels.astype(np.uint8)

    @classmethod
    def from_signs(cls, codes: np.ndarray, labels: np.ndarray) -> "RetrievalIndex":
        c = np.atleast_2d(np.asarray(codes))
        return cls(pack_codes(c), labels, c.shape[1])

    def _scan(self, query_code: np.ndarray) -> np.ndarray:
        """Hamming distance to every row, as np.min_scalar_type(K), in row-major chunks.

        Per chunk: XOR the flat word stream with the query words tiled to the
        chunk, popcount to uint8, then add the W word lanes with strided adds.
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
        tiled = np.tile(qw, rows)
        xor = np.empty(rows * w, dtype=np.uint64)
        bits = np.empty(rows * w, dtype=np.uint8)
        dist = np.empty(self.size, dtype=np.min_scalar_type(self.code_length))
        for start in range(0, self.size, rows):
            n = min(rows, self.size - start)
            m = n * w
            np.bitwise_xor(words[start * w:start * w + m], tiled[:m], out=xor[:m])
            np.bitwise_count(xor[:m], out=bits[:m])
            lanes = bits[:m].reshape(n, w)
            out = dist[start:start + n]
            if w == 1:
                out[:] = lanes[:, 0]
            else:
                np.add(lanes[:, 0], lanes[:, 1], out=out, dtype=out.dtype)
            for j in range(2, w):
                np.add(out, lanes[:, j], out=out)
        return dist

    def distances(self, query_code: np.ndarray) -> np.ndarray:
        """Hamming distance from one +-1 query code to every indexed code."""
        return self._scan(query_code).astype(np.int64)

    def query_topk(self, query_code: np.ndarray, k: int) -> QueryResult:
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        d = self._scan(query_code)
        if k < self.size:
            # the k-th smallest distance t from a histogram of the K+1 values;
            # ascending-id candidates d <= t + a stable sort = the id tie rule
            t = np.searchsorted(np.cumsum(np.bincount(d, minlength=self.code_length + 1)), k)
            cand = np.flatnonzero(d <= t)
            ids = cand[np.argsort(d[cand], kind="stable")[:k]]
        else:
            ids = np.argsort(d, kind="stable")
        return QueryResult(ids=ids, distances=d[ids].astype(np.int64))


def relevance(query_label: np.ndarray, index: RetrievalIndex) -> np.ndarray:
    """Boolean mask: an item is relevant if it shares any active class."""
    q = np.asarray(query_label).ravel()
    if q.shape[0] != index.labels.shape[1]:
        raise InvalidArgument(f"query has {q.shape[0]} classes, index {index.labels.shape[1]}")
    return index.labels[:, np.flatnonzero(q)].any(axis=1)


def _ranked_relevance(query_label, ids, index) -> tuple[np.ndarray, int]:
    """Relevance of `ids` in rank order, and M = relevant items in the whole index."""
    mask = relevance(query_label, index)
    return mask[ids], int(np.count_nonzero(mask))


def _precision_terms(rel: np.ndarray) -> np.ndarray:
    """rel_r * precision@r at each rank r; AP@k is the sum of the first k over M."""
    r = rel.astype(np.float64)
    return r * np.cumsum(r) / np.arange(1, r.size + 1, dtype=np.float64)


def average_precision(
    query_label: np.ndarray,
    ranking: QueryResult,
    index: RetrievalIndex,
    r_cap: int | None = None,
) -> float:
    """(1/M) sum over relevant ranks r <= r_cap of precision@r.

    M counts relevant items in the whole retrieval set; returns 0 when M = 0.
    """
    cap = len(ranking.ids) if r_cap is None else min(r_cap, len(ranking.ids))
    rel, m = _ranked_relevance(query_label, ranking.ids[:cap], index)
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
    """Mean AP over queries; query codes are +-1 rows."""
    qc, ql = _query_rows(query_codes, query_labels)
    cap = index.size if r_cap is None else min(r_cap, index.size)
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
    ks = list(k_grid)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise InvalidArgument("k_grid must be strictly increasing")
    qc, ql = _query_rows(query_codes, query_labels)
    caps = [min(k, index.size) for k in ks]
    aps, recalls = np.zeros((2, len(ks), qc.shape[0]))
    for j, (code, label) in enumerate(zip(qc, ql)):
        rel, m = _ranked_relevance(label, index.query_topk(code, max(caps)).ids, index)
        if m == 0:
            continue
        terms, hits = _precision_terms(rel), np.cumsum(rel)
        for i, cap in enumerate(caps):
            aps[i, j] = np.sum(terms[:cap]) / m
            recalls[i, j] = int(hits[cap - 1]) / m
    return [(k, float(np.mean(a)), float(np.mean(r))) for k, a, r in zip(ks, aps, recalls)]


def random_ranking_map(
    query_labels: np.ndarray, index: RetrievalIndex, seed: int = 0
) -> float:
    """mAP of a uniformly random ranking; the no-learning baseline."""
    rng = np.random.default_rng(seed)
    ql = np.atleast_2d(np.asarray(query_labels))
    zeros = np.zeros(index.size, dtype=np.int64)
    return float(np.mean([
        average_precision(label, QueryResult(rng.permutation(index.size), zeros), index)
        for label in ql
    ]))
