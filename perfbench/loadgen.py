"""Closed- and open-loop load generators over the cluster's front door.

Both generators drive a :class:`repro.serving.ServingCluster` (or any
object with its ``receive`` / ``pump`` / ``take_outbox`` /
``inflight_count`` surface) from one thread and time every request at
the client boundary: the moment its frame is handed to ``receive`` and
the moment its response shows up in ``take_outbox``.

* **Closed loop** -- each caller has one call outstanding; its next
  call is built and sent only after every response of the previous one
  arrived.  A call is one request, or several (a rotation sweep) sent
  back to back.  Latency runs from the send.
* **Open loop** -- requests are sent on a precomputed arrival schedule
  whatever the backlog.  Latency runs from the *due* time, so a stall
  is charged to every request it delays; how late the generator itself
  sent each request is reported separately.

The clock and sleep are injectable so the harness tests can drive both
loops on synthetic time without any cryptography.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serving import framing

#: after the measured phase, how long outstanding requests may take to
#: come back before they count as missing
DRAIN_SECONDS = 30.0


@dataclass(slots=True)
class Call:
    """One logical client call: the frames it sends, what they ask for."""

    client_id: str
    label: str
    #: which pooled payload the call carries (for the plaintext model)
    payload: int
    #: (request_id, op, op_arg) per request of the call
    requests: List[Tuple[int, str, int]]
    #: the encoded request frames, dropped once sent
    frames: Optional[List[bytes]]


@dataclass(slots=True)
class Record:
    """One request as the client saw it."""

    call: Call
    request_id: int
    op: str
    op_arg: int
    request_bytes: int
    due: float
    sent: float
    done: Optional[float] = None
    kind: Optional[int] = None
    response_bytes: int = 0
    response: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.kind == framing.RESPONSE

    @property
    def latency(self) -> float:
        """Seconds from due to response; ``inf`` if failed or missing."""
        if self.done is None or not self.ok:
            return math.inf
        return self.done - self.due


@dataclass
class Phase:
    """Everything one measured phase produced."""

    start: float
    seconds: float
    records: List[Record] = field(default_factory=list)
    #: seconds each send trailed its due time (open loop) or its
    #: caller's readiness (closed loop: previous call's last response)
    lateness: List[float] = field(default_factory=list)
    #: responses for a request that was not outstanding
    duplicates: int = 0
    inflight_max: int = 0
    #: when the generator stopped sending (at or just after the phase end)
    stopped: float = 0.0
    #: loop wall time including the post-phase drain
    wall: float = 0.0

    @property
    def missing(self) -> int:
        return sum(1 for r in self.records if r.done is None)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.records if r.done is not None and not r.ok)


class Probe:
    """Client-side work timed once per ``every`` seconds inside a phase.

    The host's speed drifts over tens of seconds, so client costs timed
    in one burst before or after serving catch one moment of it; a probe
    spreads them evenly over the measured phase instead.  A closed loop
    runs the probe on its turn (the one client thread pauses serving for
    it); an open loop runs it only while idle with room before the next
    due time, so it never delays a request.
    """

    def __init__(self, every: float, work: Callable[[], None], clock=time.perf_counter):
        self.every = every
        self.work = work
        self.clock = clock
        self.next = -math.inf
        #: duration of the last run: the room an open loop must have
        self.cost = 0.0

    def maybe(self, now: float, room: float = math.inf) -> bool:
        if now < self.next or room < 2 * self.cost:
            return False
        t0 = self.clock()
        self.work()
        self.cost = self.clock() - t0
        self.next = now + self.every
        return True


class _Loop:
    """Shared send/collect bookkeeping of both generators."""

    def __init__(self, cluster, clock, keep: Callable[[Call, List[Record]], bool]):
        self.cluster = cluster
        self.clock = clock
        self.keep = keep
        #: client_id -> request_id -> record
        self.outstanding: Dict[str, Dict[int, Record]] = {}
        self.pending_calls: Dict[int, List[Record]] = {}
        #: (client_id, payload) of every call in flight
        self.payloads_in_flight: set = set()

    def send(self, phase: Phase, call: Call, due: float) -> None:
        # two in-flight calls on one payload would look like a rotation
        # sweep to the batcher's hoist lanes: the pool must be big enough
        payload = (call.client_id, call.payload)
        if payload in self.payloads_in_flight:
            raise RuntimeError(
                f"{call.client_id} reused payload {call.payload} while in "
                "flight; the payload pool is too small for this load"
            )
        self.payloads_in_flight.add(payload)
        members = []
        waiting = self.outstanding.setdefault(call.client_id, {})
        for (request_id, op, op_arg), data in zip(call.requests, call.frames):
            sent = self.clock()
            record = Record(call, request_id, op, op_arg, len(data), due, sent)
            if request_id in waiting:
                raise RuntimeError(
                    f"{call.client_id} reused in-flight request id {request_id}"
                )
            waiting[request_id] = record
            members.append(record)
            phase.records.append(record)
            self.cluster.receive(call.client_id, data)
        call.frames = None
        self.pending_calls[id(call)] = members
        phase.inflight_max = max(phase.inflight_max, self.cluster.inflight_count)

    def collect(self, phase: Phase) -> List[Call]:
        """Pump once, route responses; returns the calls that finished."""
        self.cluster.pump()
        finished = []
        for client_id in [c for c, w in self.outstanding.items() if w]:
            waiting = self.outstanding[client_id]
            for blob in self.cluster.take_outbox(client_id):
                now = self.clock()
                kind, request_id, _ = framing.peek_frame_summary(blob)
                record = waiting.pop(request_id, None)
                if record is None:
                    phase.duplicates += 1
                    continue
                record.done = now
                record.kind = kind
                record.response_bytes = len(blob)
                record.response = blob
                members = self.pending_calls[id(record.call)]
                if all(m.done is not None for m in members):
                    del self.pending_calls[id(record.call)]
                    self.payloads_in_flight.discard(
                        (record.call.client_id, record.call.payload)
                    )
                    if not self.keep(record.call, members):
                        for m in members:
                            m.response = None
                    finished.append(record.call)
        return finished

    @property
    def busy(self) -> bool:
        return any(self.outstanding.values())

    def drain(self, phase: Phase) -> None:
        """Let outstanding requests finish; what never returns is missing.

        Any frame still queued for a client afterwards answers nothing
        outstanding: it counts as a duplicate.
        """
        limit = self.clock() + DRAIN_SECONDS
        while self.busy and self.clock() < limit:
            self.collect(phase)
        for client_id in self.outstanding:
            phase.duplicates += len(self.cluster.take_outbox(client_id))


def closed_loop(
    cluster,
    callers: Sequence[Callable[[], Call]],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    keep: Callable[[Call, List[Record]], bool] = lambda call, members: False,
    probe: Optional["Probe"] = None,
) -> Phase:
    """Run ``callers`` (each yields its next :class:`Call`) for ``seconds``.

    One call outstanding per caller; a caller that finished a call sends
    its next one on the following loop turn.  Its lateness is the time
    from its last response to that send -- the generator's own overhead.
    """
    loop = _Loop(cluster, clock, keep)
    start = clock()
    phase = Phase(start, seconds)
    end = start + seconds
    ready = {i: start for i in range(len(callers))}
    owner: Dict[int, int] = {}
    while True:
        now = clock()
        if now >= end:
            break
        if probe is not None:
            probe.maybe(now)
        for i, since in sorted(ready.items()):
            call = callers[i]()
            owner[id(call)] = i
            sent = clock()
            phase.lateness.append(sent - since)
            loop.send(phase, call, sent)
        ready.clear()
        for call in loop.collect(phase):
            ready[owner.pop(id(call))] = clock()
    phase.stopped = clock()
    loop.drain(phase)
    phase.wall = clock() - start
    return phase


def poisson_offsets(rate: float, seconds: float, rng: random.Random) -> List[float]:
    """Seeded Poisson arrival offsets, ascending, within ``[0, seconds)``.

    The arrival count is fixed at ``round(rate * seconds)``; given its
    count, a Poisson process places its arrivals as independent uniform
    offsets.
    """
    return sorted(rng.uniform(0, seconds) for _ in range(round(rate * seconds)))


def open_loop(
    cluster,
    callers: Sequence[Callable[[], Call]],
    schedule: Sequence[Tuple[float, int]],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    keep: Callable[[Call, List[Record]], bool] = lambda call, members: False,
    probe: Optional[Probe] = None,
) -> Phase:
    """Send ``schedule`` (offsets from the phase start) whatever the backlog.

    Each request's latency counts from its due time; ``lateness`` holds
    how far each send trailed its due time.  The loop sleeps only when
    nothing is outstanding, and never past the next due time.
    """
    loop = _Loop(cluster, clock, keep)
    start = clock()
    phase = Phase(start, seconds)
    i = 0
    while i < len(schedule):
        now = clock()
        while i < len(schedule) and start + schedule[i][0] <= now:
            offset, caller = schedule[i]
            call = callers[caller]()
            due = start + offset
            phase.lateness.append(clock() - due)
            loop.send(phase, call, due)
            i += 1
        if loop.busy:
            loop.collect(phase)
        elif i < len(schedule):
            now = clock()
            room = start + schedule[i][0] - now
            if probe is None or not probe.maybe(now, room):
                sleep(max(0.0, start + schedule[i][0] - clock()))
    while clock() < start + seconds:
        if loop.busy:
            loop.collect(phase)
        else:
            sleep(max(0.0, start + seconds - clock()))
    phase.stopped = clock()
    loop.drain(phase)
    phase.wall = clock() - start
    return phase
