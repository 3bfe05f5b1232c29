"""Row blocks of numpy work that releases the GIL, on every usable CPU, through helper
threads that start on first use and wait for the next call: a thread started per
call costs more than a query's scan saves by it."""

import os
import queue
import threading


def _reset():  # at import, and in a fork child, which has none of the helper threads
    global _lock, _jobs, _done, _helpers  # _lock: held by the one call using the helpers
    _lock, _jobs, _done, _helpers = threading.Lock(), queue.SimpleQueue(), queue.SimpleQueue(), []


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
