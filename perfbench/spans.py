"""Spans around calls into mvhash's public functions, recorded from outside.

A Tracer replaces module and class attributes with wrappers while it is
installed and restores them afterwards; mvhash itself is not edited. Each
span is (name, start, end, parent span index, op id). Spans stay in memory
and are written out once, at the end of a run.
"""

import contextlib
import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.op = -1
        self.counts = defaultdict(float)
        self.epoch_seconds = []
        self._stack = []         # indices of open spans
        self._saved = []
        self._paused = 0

    # ---- recording ----

    def wrap(self, name, fn, on_exit=None):
        """name is a string or a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span_name, time.perf_counter(), None, parent, tracer.op])
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[sid][2] = time.perf_counter()
                tracer._stack.pop()
            if on_exit is not None:
                on_exit(tracer, sid, result, *args, **kwargs)
            return result

        return traced

    def install(self, targets):
        """targets: (owner, attribute, name[, on_exit]) tuples."""
        for owner, attr, name, *hook in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, *hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside (the bench's own checks) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def stage(self, sid):
        """Name of the root span enclosing span sid."""
        while self.spans[sid][3] >= 0:
            sid = self.spans[sid][3]
        return self.spans[sid][0]

    # ---- analysis ----

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds; plus the
        same keyed by (name, parent name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_parent = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            pname = self.spans[parent][0] if parent >= 0 else None
            for key, table in ((name, by_name), ((name, pname), by_parent)):
                row = table[key]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child[sid]
        return by_name, by_parent

    def under(self, name, ancestor):
        """Number of spans called name with an ancestor span called ancestor."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
