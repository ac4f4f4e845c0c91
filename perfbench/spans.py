"""In-memory span recorder for the traced benchmark run (stdlib only).

A :class:`Tracer` records one span per call into a wrapped function:
name, start, end, parent span and request id.  Spans nest through a
stack (the benchmark drives the cluster from one thread), and each span
stores its *self time* -- its duration minus the time its child spans
cover -- computed as the child closes.  High-frequency kernels are
recorded as aggregate *leaf timers* instead of spans: their time is
still charged to the enclosing span's children, so self times stay
exact, but they cost no memory per call.

:class:`Patcher` installs wrappers on module attributes and class
members and restores the originals on ``uninstall``.  Everything is
written out at the end as JSON lines and as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (id, name, start, end, self seconds, parent id, request id, pid)
Span = Tuple[int, str, float, float, float, Optional[int], Optional[str], int]


class Tracer:
    """Spans, leaf timers, value samples and counters of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: the process that created the tracer (the benchmark itself)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: List[Span] = []
        self._stack: List[list] = []
        self._next_id = 0
        #: name -> [total seconds, calls]
        self.timers: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        #: name -> observed values (batch sizes, lane waits, ...)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget everything recorded so far.

        Containers are cleared in place: wrappers hold on to them.
        """
        # a forked worker process keeps recording into its copy of the
        # tracer; its spans must carry its own pid
        self.pid = os.getpid()
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0
        self.timers.clear()
        self.samples.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    def begin(self, name: str, rid: Optional[str] = None) -> None:
        if rid is None and self._stack:
            rid = self._stack[-1][4]
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0, rid])

    def end(self) -> None:
        sid, name, start, child, rid = self._stack.pop()
        end = self.clock()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append(
            (sid, name, start, end, duration - child, parent, rid, self.pid)
        )

    def leaf(self, name: str, seconds: float) -> None:
        """Charge an aggregate timer (and the enclosing span's children)."""
        timer = self.timers[name]
        timer[0] += seconds
        timer[1] += 1
        if self._stack:
            self._stack[-1][3] += seconds

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Picklable snapshot (shipped from a worker process)."""
        return {
            "spans": list(self.spans),
            "timers": {k: list(v) for k, v in self.timers.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": dict(self.counts),
        }

    def absorb(self, state: Dict[str, Any]) -> None:
        """Merge another process's snapshot into this tracer.

        Span ids are renumbered past this tracer's own, so ids stay
        unique across processes and parents keep pointing at parents.
        """
        base = self._next_id
        top = 0
        for sid, name, start, end, self_s, parent, rid, pid in state["spans"]:
            self.spans.append(
                (sid + base, name, start, end, self_s,
                 None if parent is None else parent + base, rid, pid)
            )
            top = max(top, sid)
        self._next_id = base + top
        for name, (seconds, calls) in state["timers"].items():
            timer = self.timers[name]
            timer[0] += seconds
            timer[1] += calls
        for name, values in state["samples"].items():
            self.samples[name].extend(values)
        self.counts.update(state["counts"])

    # ------------------------------------------------------------------
    def write(self, stem: str) -> None:
        """Write ``<stem>.jsonl`` (one span a line) and ``<stem>.chrome.json``."""
        with open(stem + ".jsonl", "w") as out:
            for sid, name, start, end, self_s, parent, rid, pid in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "pid": pid,
                            "start_us": round(start * 1e6, 3),
                            "end_us": round(end * 1e6, 3),
                            "self_us": round(self_s * 1e6, 3),
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )
        with open(stem + ".chrome.json", "w") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (sid, name, start, end, self_s, parent, rid, pid) in enumerate(
                self.spans
            ):
                event = {
                    "name": name,
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {"id": sid, "parent": parent, "rid": rid,
                             "self_us": round(self_s * 1e6, 3)},
                }
                out.write((",\n" if i else "") + json.dumps(event))
            out.write("\n]}\n")


class Patcher:
    """Install wrappers over attributes; ``uninstall`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Swap ``owner.attr`` for ``make(original function)``.

        Class members keep their kind: a classmethod stays a classmethod.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def span(
        self,
        owner,
        attr: str,
        name,
        rid_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or ``f(args, kwargs) -> str``; ``rid_of``
        extracts a request id from the arguments; ``after(result, args)``
        observes the return value (for counters and samples).
        """
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = name if isinstance(name, str) else name(args, kwargs)
                tracer.begin(label, rid_of(args, kwargs) if rid_of else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end()
                if after is not None:
                    after(result, args)
                return result

            return traced

        self.replace(owner, attr, make)

    def after(self, owner, attr: str, hook: Callable) -> None:
        """Call ``hook(result, args)`` after every call; records no span."""

        def make(fn):
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(result, args)
                return result

            return observed

        self.replace(owner, attr, make)

    def leaf(self, owner, attr: str, name: str) -> None:
        """Charge every call of ``owner.attr`` to the leaf timer ``name``."""
        tracer = self.tracer
        clock = tracer.clock

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leaf(name, clock() - t0)

            return timed

        self.replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def aggregate(spans: List[Span]) -> Dict[str, List[float]]:
    """Per span name: ``[calls, total self seconds, total seconds]``."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        entry = out[span[1]]
        entry[0] += 1
        entry[1] += span[4]
        entry[2] += span[3] - span[2]
    return out
