"""Row blocks of numpy work that releases the GIL, on every usable CPU, through helper
threads that start on first use and wait for the next call: a thread started per
call costs more than a query's scan saves by it. Also one_blas_thread, the BLAS pin."""

import contextlib
import functools
import os
import queue
import threading


def _reset():  # at import, and in a fork child, which has no helper threads and no holders
    global _lock, _jobs, _done, _helpers, _pin_lock, _holders, _saved  # _lock: helpers in use
    if globals().get("_holders"):  # a child forked during a hold gets the saved count back
        _openblas()[1](_saved)
    _lock, _jobs, _done, _helpers = threading.Lock(), queue.SimpleQueue(), queue.SimpleQueue(), []
    _pin_lock, _holders = threading.Lock(), 0  # _holders: how many are inside one_blas_thread


_reset()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset)


def _help(jobs, done):  # a job that returns a value (only tests send one) stops the helper
    while jobs.get()() is None:  # the job, and the inputs it holds, are dropped here
        done.put(None)


def run(blocks: range, job, parallel: bool) -> None:
    """Call job(block) for every block, on the calling thread and, if `parallel`, on up to
    min(usable CPUs, len(blocks)) - 1 helpers, all claiming blocks in order from one
    iterator. Once a block raises no thread claims another, so every lower block has
    finished, and the lowest failed block's error is raised when all threads have
    stopped. A call made while another has the helpers (from another thread, or from
    inside a block) runs serially."""
    todo, errors = iter(blocks), {}

    def work():
        for block in todo:
            try:
                job(block)
            except BaseException as exc:  # re-raised below, once every thread has stopped
                errors[block] = exc
                list(todo)  # the other threads stop after their current block

    threads = (min(len(os.sched_getaffinity(0)), len(blocks))
               if parallel and hasattr(os, "sched_getaffinity") else 1)
    if threads < 2 or not _lock.acquire(blocking=False):
        work()
    else:
        sent = 0  # jobs queued; a helper answers each on _done once it returns
        try:
            while len(_helpers) < threads - 1:
                helper = threading.Thread(target=_help, args=(_jobs, _done), daemon=True)
                helper.start()
                _helpers.append(helper)
            for sent in range(1, threads):
                _jobs.put(work)
            work()
        finally:
            for _ in range(sent):
                _done.get()
            _lock.release()
    if errors:
        raise errors[min(errors)]


@functools.cache
def _openblas():  # (get, set) of the thread count of numpy's bundled OpenBLAS, or None
    import ctypes  # here, on first use: importing mvhash loads nothing more
    import glob
    import numpy
    home = os.path.dirname(numpy.__file__)  # numpy.libs/, or numpy/.dylibs/ on macOS
    for path in glob.glob(home + ".libs/*openblas*") + glob.glob(home + "/.dylibs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and put:
                return get, put


@contextlib.contextmanager
def one_blas_thread():
    """Holds numpy's bundled OpenBLAS at one thread in the block and yields whether it does;
    nested and concurrent holders share one save and one restore, also on an exception."""
    global _holders, _saved
    with _pin_lock:
        blas, _holders = _openblas(), _holders + 1
        if blas and _holders == 1:
            _saved = blas[0]()
            blas[1](1)
    try:
        yield blas is not None
    finally:
        with _pin_lock:
            _holders -= 1
            if blas and not _holders:
                blas[1](_saved)
