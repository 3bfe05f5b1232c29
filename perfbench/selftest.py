"""Self-test of the benchmark's correctness gate: every check must accept
the program's right answer and reject a wrong one.

    python3 perfbench/selftest.py

Wrong answers tried: a top-k ranking with a swapped tie, a wrong distance,
an AP computed from a tie-swapped ranking, an AP one ulp off on a repeat,
a wrong Recall@k, a wrong mAP, a changed manifest checksum, a CLI stage
that exits 1, and whole workload ops run against a top-k that breaks ties
the wrong way or a CLI stage that fails. Exits 1 if any check is fooled.
"""

import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

import numpy as np

import checks
from spans import Tracer
from workloads import CliWalkthrough, Scan

FAILURES = []


def expect(label, problem, should_fail):
    ok = (problem is not None) == should_fail
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {label}: {'rejected: ' + problem if problem else 'accepted'}")
    if not ok:
        FAILURES.append(label)


def swap_first_tie(ids, dist):
    """Swap the first adjacent pair of equal distance; None when there is none."""
    for a in range(len(ids) - 1):
        if dist[a] == dist[a + 1]:
            out = ids.copy()
            out[a], out[a + 1] = out[a + 1], out[a]
            return out
    return None


def topk_checks(mv, rng):
    codes = np.where(rng.random((64, 8)) < 0.5, 1, -1).astype(np.int8)
    index = mv.retrieval.RetrievalIndex.from_signs(codes, np.ones((64, 1), np.uint8))
    q = codes[0]
    dist = checks.oracle_distances(checks.pack_signs(codes), checks.pack_signs(q))
    res = index.query_topk(q, 10)
    expect("top-k as returned", checks.check_topk(res.ids, res.distances, dist, 10), False)
    swapped = swap_first_tie(res.ids, res.distances)
    expect("top-k with a swapped tie",
           checks.check_topk(swapped, res.distances, dist, 10), True)
    bad_d = res.distances.copy()
    bad_d[3] += 1
    expect("top-k with a wrong distance", checks.check_topk(res.ids, bad_d, dist, 10), True)


def ap_checks(mv, rng):
    r = mv.retrieval
    n, k, v = 400, 12, 4
    codes = np.where(rng.random((n, k)) < 0.5, 1, -1).astype(np.int8)
    labels = (rng.random((n, v)) < 0.3).astype(np.uint8)
    labels[labels.sum(axis=1) == 0, 0] = 1
    index = r.RetrievalIndex.from_signs(codes[1:], labels[1:])
    q, ql = codes[0], labels[0]
    dist = checks.oracle_distances(checks.pack_signs(codes[1:]), checks.pack_signs(q))
    rel = checks.relevance_mask(labels[1:], ql)
    order = checks.oracle_order(dist)
    ranked, m = rel[order], int(rel.sum())
    ap = r.mean_average_precision(q[None], ql[None], index)
    expect("AP as returned", checks.check_ap(ap, ranked, m), False)
    # a ranking that swaps a tie between a relevant and an irrelevant item
    swap = next(a for a in range(n - 2)
                if dist[order[a]] == dist[order[a + 1]] and ranked[a] != ranked[a + 1])
    ids = order.copy()
    ids[swap], ids[swap + 1] = ids[swap + 1], ids[swap]
    wrong = r.average_precision(ql, r.QueryResult(ids=ids, distances=dist[ids]), index)
    expect("AP of a tie-swapped ranking", checks.check_ap(wrong, ranked, m), True)
    expect("AP repeated exactly", checks.check_same("AP", ap, ap), False)
    expect("AP one ulp off on a repeat",
           checks.check_same("AP", float(np.nextafter(ap, 2.0)), ap), True)

    grid = [1, 5, 10, 50]
    rows = r.curves(q[None], ql[None], index, grid)
    expect("curves as returned", checks.check_curve_rows(rows, ranked, m, grid), False)
    bad = [list(row) for row in rows]
    bad[2][2] += 1e-9
    expect("curves with a wrong Recall@10", checks.check_curve_rows(bad, ranked, m, grid), True)

    qs, qls = codes[:40], labels[:40]
    full = r.mean_average_precision(qs, qls, index)
    want = checks.oracle_map(qs, qls, codes[1:], labels[1:])
    expect("mAP as returned", None if checks.close(full, want, 1e-9) else "differs", False)
    capped = r.mean_average_precision(qs, qls, index, r_cap=20)
    expect("mAP@20 passed off as full mAP",
           None if checks.close(capped, want, 1e-9) else f"{capped} != {want}", True)


def small_checks(mv):
    centers = mv.centers.generate_centers(2, 8, 0).centers
    expect("tied bits of two orthogonal centers = K/2",
           None if checks.tied_bits(np.array([[1, 1]]), centers) == 4 else "wrong count", False)
    same = {"model.csmv": "aa"}
    expect("manifest checksums equal", checks.check_checksums("train", same, same), False)
    expect("manifest checksum changed",
           checks.check_checksums("train", {"model.csmv": "ab"}, same), True)


def workload_checks(mv, workdir):
    """Whole ops through the workloads' own accounting."""

    class SmallScan(Scan):
        N, K, POOL, CHECKED = 3000, 16, 8, 8

    r = mv.retrieval
    original = r.RetrievalIndex.query_topk

    def ties_descending(self, query_code, k):
        res = original(self, query_code, k)
        order = np.lexsort((-res.ids, res.distances))
        return r.QueryResult(ids=res.ids[order], distances=res.distances[order])

    for label, topk, should_fail in (("scan ops, real top-k", original, False),
                                     ("scan ops, ties broken by descending id",
                                      ties_descending, True)):
        r.RetrievalIndex.query_topk = topk
        try:
            wl = SmallScan(mv, 0, workdir, Tracer())
            wl.setup()
            for i in range(SmallScan.CHECKED):
                wl.op(i)
        finally:
            r.RetrievalIndex.query_topk = original
        expect(label, f"{wl.failed}/{wl.attempted} ops failed" if wl.failed else None,
               should_fail)

    cli = CliWalkthrough(mv, 0, workdir, Tracer())
    expect("CLI stage `--version`", checks.check_stage_exit(
        "version", cli.process(["--version"], workdir)), False)
    expect("CLI stage that exits 1", checks.check_stage_exit(
        "index", cli.process(["index", "--codes", "missing.cscd"], workdir)), True)

    class FailingStage(CliWalkthrough):
        def stages(self, d):
            return super().stages(d)[:2] + [("index", ["index", "--codes=missing.cscd"])]

    wl = FailingStage(mv, 0, workdir, Tracer())
    wl.op(0)
    expect("CLI pipeline with a failing stage",
           f"{wl.failed}/{wl.attempted} stages failed" if wl.failed else None, True)


def main():
    mv, _ = run.import_mvhash()
    rng = np.random.default_rng(7)
    topk_checks(mv, rng)
    ap_checks(mv, rng)
    small_checks(mv)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        workload_checks(mv, Path(workdir))
    if FAILURES:
        print(f"selftest: {len(FAILURES)} check(s) misjudged: {FAILURES}")
        return 1
    print("selftest: every check accepted the right answer and rejected the wrong one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
