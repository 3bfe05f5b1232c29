"""The `pool` fixture: a fresh set of `workers` helper threads for one test."""

import threading

import pytest

from mvhash import workers


class Pool:
    """The helpers that `workers.run` starts during one test, and a watch on its blocks."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.run = monkeypatch, workers.run
        workers._reset()
        self.helpers, self.jobs = workers._helpers, workers._jobs

    def watch(self, parties):
        """Wraps every block that workers.run hands out: each thread's first block
        waits until `parties` threads have taken one, so the barrier breaks, and the
        call raises, unless exactly `parties` threads run. Returns the calling
        thread of every block, in the order they were taken."""
        calls, barrier = [], threading.Barrier(parties, timeout=20)

        def watched(blocks, job, parallel):
            def counted(block):
                first = threading.get_ident() not in calls
                calls.append(threading.get_ident())
                if first:
                    barrier.wait()
                job(block)
            self.run(blocks, counted, parallel)

        self.monkeypatch.setattr(workers, "run", watched)
        return calls

    def check_idle(self, cpus, calls=()):
        """The blocks ran on the caller and on helpers of this pool, which holds at most
        cpus - 1 helpers, each alive and with no job queued, taken or unanswered."""
        assert set(calls) <= {threading.get_ident()} | {h.ident for h in self.helpers}
        assert len(self.helpers) <= cpus - 1 and all(h.is_alive() for h in self.helpers)
        assert workers._jobs.empty() and workers._done.empty() and not workers._lock.locked()

    def stop(self):
        for _ in self.helpers:
            self.jobs.put(lambda: "stop")
        for helper in self.helpers:
            helper.join(timeout=20)
        assert not any(helper.is_alive() for helper in self.helpers)


@pytest.fixture
def pool(monkeypatch):
    """A Pool whose helpers replace the process's for the test and are stopped after it."""
    saved = workers._lock, workers._jobs, workers._done, workers._helpers
    fresh = Pool(monkeypatch)
    yield fresh
    fresh.stop()
    workers._lock, workers._jobs, workers._done, workers._helpers = saved
