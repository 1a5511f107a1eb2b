"""In-memory spans recorded around calls into the library's modules.

The benchmark patches module attributes (functions looked up by name at
call time) and class methods with thin wrappers; nothing inside the
library changes. A span is ``[name, start, end, parent, busy]``: ``busy``
equals ``end - start`` for an ordinary span, and is the summed time spent
inside ``next()`` for an iterator span (a lazily pulled generator such as
``parse_records``), whose pulls interleave with its siblings.

Self time is ``busy`` minus the busy time of the span's children, so the
self times of all spans of a job sum to the busy time of its top-level
spans; the job's wall clock minus that sum is the unattributed remainder
(benchmark glue around the calls).

Spans read wall-clock time by default; ``clock=process_time`` makes
them read the process's CPU time instead.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, BUSY = range(5)


class Tracer:
    """Spans and call counts of one job, identified by ``run_id``."""

    def __init__(self, run_id: str, clock=perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []
        self.missing: list = []  # entry points the library no longer has

    # -- patching ---------------------------------------------------------

    def _present(self, owner, attr):
        if attr in vars(owner):
            return True
        self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return False

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        """Put back every patched attribute, most recent first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr, name, on_call=None):
        """Record a span around ``owner.attr``; ``on_call(args, result)`` sees each call."""
        if self._present(owner, attr):
            self._patch(owner, attr, self.wrapped(getattr(owner, attr), name, on_call))

    def wrapped(self, fn, name, on_call=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
                rec[BUSY] = rec[END] - rec[START]
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        if not self._present(owner, attr):
            return
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def wrap_iter(self, owner, attr, name):
        """One span per returned iterator, accumulating the time of its pulls.

        The span's parent is the span open at the first pull; it is never
        pushed, so spans opened between pulls keep their own parent.
        """
        if not self._present(owner, attr):
            return
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            rec = None
            busy = 0.0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        t1 = clock()
                        busy += t1 - t0
                        if rec is None:
                            rec = [name, t0, t1, stack[-1] if stack else None, 0.0]
                            spans.append(rec)
                        rec[END], rec[BUSY] = t1, busy
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        self._patch(owner, attr, traced)

    # -- reading ----------------------------------------------------------

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                covered[rec[PARENT]] += rec[BUSY]
        return [rec[BUSY] - c for rec, c in zip(self.spans, covered)]

    def inclusive(self, name: str) -> float:
        """Busy time of ``name`` spans that have no ``name`` ancestor (recursion counted once)."""
        total = 0.0
        for rec in self.spans:
            if rec[NAME] != name:
                continue
            p = rec[PARENT]
            while p is not None and self.spans[p][NAME] != name:
                p = self.spans[p][PARENT]
            if p is None:
                total += rec[BUSY]
        return total

    def self_time(self, name: str) -> float:
        return sum(s for rec, s in zip(self.spans, self.self_times()) if rec[NAME] == name)

    def calls(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[NAME] == name)

    def balance(self, wall: float) -> dict:
        """Self times, the unattributed remainder and the wall clock of one job."""
        selfs = self.self_times()
        top = sum(rec[BUSY] for rec in self.spans if rec[PARENT] is None)
        by_name: Counter = Counter()
        for rec, s in zip(self.spans, selfs):
            by_name[rec[NAME]] += s
        return {
            "wall_s": wall,
            "unattributed_s": wall - top,
            "self_s": dict(sorted(by_name.items())),
            "min_self_s": min(selfs, default=0.0),
        }

    def dump(self) -> dict:
        selfs = self.self_times()
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "busy", "self"],
            "spans": [rec + [s] for rec, s in zip(self.spans, selfs)],
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
        }
