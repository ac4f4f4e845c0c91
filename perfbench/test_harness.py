"""Harness tests on synthetic timings: no cryptography, no real cluster.

A fake cluster answers frames on a manual clock, so every latency,
lateness and in-flight count below is exact.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict

import pytest

from repro.serving import ManualClock, framing

import loadgen
import stats


class FakeCluster:
    """Serves one request per pump, ``service`` fake seconds each, FIFO."""

    def __init__(self, clock: ManualClock, service: float = 0.01, fail_ops=()):
        self.clock = clock
        self.service = service
        self.fail_ops = set(fail_ops)
        self.queue = []
        self.outbox = defaultdict(list)
        self.per_client = Counter()
        self.max_per_client = Counter()

    def receive(self, client_id, data):
        frame = framing.decode_frame(data)
        self.queue.append((client_id, frame))
        self.per_client[client_id] += 1
        self.max_per_client[client_id] = max(
            self.max_per_client[client_id], self.per_client[client_id]
        )

    def pump(self):
        if not self.queue:
            self.clock.advance(self.service / 10)
            return
        client_id, frame = self.queue.pop(0)
        self.clock.advance(self.service)
        kind = framing.ERROR if frame.op in self.fail_ops else framing.RESPONSE
        self.outbox[client_id].append(
            framing.encode_frame(kind, frame.request_id, client_id, op=frame.op)
        )
        self.per_client[client_id] -= 1

    def take_outbox(self, client_id):
        return self.outbox.pop(client_id, [])

    @property
    def inflight_count(self):
        return len(self.queue)


def make_callers(count, ops_per_call=1, op="double", prefix="c"):
    """Callers building frame-only calls (empty payloads, fresh ids)."""
    callers = []
    for i in range(count):
        client_id = f"{prefix}{i}"

        def caller(client_id=client_id, state=[0]):
            requests, frames = [], []
            for _ in range(ops_per_call):
                rid = state[0]
                state[0] += 1
                requests.append((rid, op, 0))
                frames.append(
                    framing.encode_frame(framing.REQUEST, rid, client_id, op=op)
                )
            return loadgen.Call(client_id, op, rid, requests, frames)

        callers.append(caller)
    return callers


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [11, 50, 300, 999, 1000, 1001, 5000])
def test_tail_has_ten_samples_beyond(count):
    values = list(range(count))
    random.Random(count).shuffle(values)
    q, value, beyond = stats.tail(values)
    assert beyond == sum(1 for v in values if v > value)
    assert beyond >= stats.MIN_BEYOND
    if count >= 1000:
        assert q == 0.99
    else:
        # the highest percentile leaving exactly ten samples beyond
        assert beyond == stats.MIN_BEYOND
        assert q < 0.99


def test_tail_refuses_a_sample_too_small():
    assert stats.tail_percentile(10) is None
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_trimmed_mean_drops_each_tail_and_follows_the_mix():
    assert stats.trimmed_mean([1.0] * 9 + [100.0]) == 1.0  # one pause drops out
    assert stats.trimmed_mean(range(10)) == 4.5
    # a fast/slow mix: the median jumps between the speeds, this does not
    fast, slow = [1.0], [1.5]
    below = stats.trimmed_mean(fast * 11 + slow * 9)
    above = stats.trimmed_mean(fast * 9 + slow * 11)
    assert above - below < 0.2
    assert stats.median(fast * 9 + slow * 11) - stats.median(fast * 11 + slow * 9) == 0.5


def test_failures_enter_the_distribution_as_infinite():
    latencies = [0.001] * 20 + [math.inf] * 10
    assert stats.median(latencies) == 0.001
    assert stats.tail(latencies)[1] == 0.001  # ten failures sit beyond it
    q, value, beyond = stats.tail(latencies + [math.inf])
    assert value == math.inf and beyond == 10  # eleven reach the tail...
    assert stats.median(latencies + [math.inf] * 20) == math.inf  # ...or the median


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def test_open_loop_counts_latency_from_the_due_time():
    clock = ManualClock(100.0)
    cluster = FakeCluster(clock, service=0.01)
    # three requests due at once: the second and third queue behind the
    # first, so their latency includes the wait, counted from their due
    schedule = [(0.05, 0), (0.05, 1), (0.05, 2)]
    phase = loadgen.open_loop(
        cluster, make_callers(3), schedule, seconds=0.2,
        clock=clock, sleep=clock.advance,
    )
    assert [r.due for r in phase.records] == [100.05] * 3
    latencies = sorted(r.latency for r in phase.records)
    for got, want in zip(latencies, (0.01, 0.02, 0.03)):
        assert got == pytest.approx(want, abs=1e-3)


def test_open_loop_reports_generator_lateness():
    clock = ManualClock(0.0)
    # one slow pump (0.1 s) makes the generator miss the next due times
    cluster = FakeCluster(clock, service=0.1)
    schedule = [(0.0, 0), (0.01, 1), (0.02, 2)]
    phase = loadgen.open_loop(
        cluster, make_callers(3), schedule, seconds=0.5,
        clock=clock, sleep=clock.advance,
    )
    assert phase.lateness[0] == pytest.approx(0.0)
    assert phase.lateness[1] == pytest.approx(0.09)
    assert phase.lateness[2] == pytest.approx(0.08)
    # latency still runs from the due time, so the stall is charged:
    # due 0.01 / 0.02, served after the first request, 0.1 s each
    assert phase.records[1].latency == pytest.approx(0.2 - 0.01)
    assert phase.records[2].latency == pytest.approx(0.3 - 0.02)


def test_failed_requests_have_infinite_latency():
    clock = ManualClock(0.0)
    cluster = FakeCluster(clock, fail_ops={"negate"})
    callers = make_callers(1, op="double") + make_callers(1, op="negate", prefix="d")
    phase = loadgen.open_loop(
        cluster, callers, [(0.0, 0), (0.0, 1)], seconds=0.1,
        clock=clock, sleep=clock.advance,
    )
    ok, failed = phase.records
    assert math.isfinite(ok.latency)
    assert failed.latency == math.inf
    assert phase.errors == 1 and phase.missing == 0


def test_poisson_offsets_are_seeded_with_a_fixed_count():
    a = loadgen.poisson_offsets(30.0, 10.0, random.Random(7))
    b = loadgen.poisson_offsets(30.0, 10.0, random.Random(7))
    c = loadgen.poisson_offsets(30.0, 10.0, random.Random(8))
    assert a == b and a != c
    assert len(a) == len(c) == 300
    assert all(0 <= t < 10.0 for t in a) and a == sorted(a)


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ops_per_call", [1, 4])
def test_closed_loop_keeps_one_call_outstanding(ops_per_call):
    clock = ManualClock(0.0)
    cluster = FakeCluster(clock, service=0.001)
    phase = loadgen.closed_loop(
        cluster, make_callers(5, ops_per_call), seconds=0.5, clock=clock
    )
    assert phase.missing == 0 and phase.errors == 0
    # every caller made progress, never with two calls in flight
    assert set(cluster.max_per_client) == {f"c{i}" for i in range(5)}
    assert max(cluster.max_per_client.values()) == ops_per_call
    per_client = Counter(r.call.client_id for r in phase.records)
    assert min(per_client.values()) > 10 * ops_per_call
    # closed-loop latency runs from the send
    assert all(r.due == r.sent for r in phase.records)


def test_pool_reuse_while_in_flight_is_refused():
    clock = ManualClock(0.0)
    cluster = FakeCluster(clock)
    caller = make_callers(1)[0]
    first, second = caller(), caller()
    second.payload = first.payload
    loop = loadgen._Loop(cluster, clock, lambda call, members: False)
    phase = loadgen.Phase(0.0, 1.0)
    loop.send(phase, first, 0.0)
    with pytest.raises(RuntimeError, match="payload pool"):
        loop.send(phase, second, 0.0)


def test_open_loop_probes_only_in_idle_room():
    clock = ManualClock(0.0)
    cluster = FakeCluster(clock, service=0.01)
    runs = []

    def work():
        runs.append(clock())
        clock.advance(0.02)

    probe = loadgen.Probe(0.05, work, clock=clock)
    schedule = [(0.1 * k, 0) for k in range(5)]  # ~0.09 s idle after each
    phase = loadgen.open_loop(
        cluster, make_callers(1), schedule, seconds=0.5,
        clock=clock, sleep=clock.advance, probe=probe,
    )
    assert len(runs) >= 3
    # a probe never made a send late: it only ran with room to spare
    assert max(phase.lateness) == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_the_span_minus_its_children(tmp_path):
    import json

    from spans import Tracer, aggregate

    clock = ManualClock(0.0)
    tracer = Tracer(clock=clock)
    tracer.begin("outer", rid="c:1")
    clock.advance(1.0)
    tracer.begin("inner")
    clock.advance(2.0)
    tracer.leaf("kernel", 0.5)  # charged to inner's children
    tracer.end()
    clock.advance(3.0)
    tracer.end()
    agg = aggregate(tracer.spans)
    assert agg["outer"] == [1, pytest.approx(4.0), pytest.approx(6.0)]
    assert agg["inner"] == [1, pytest.approx(1.5), pytest.approx(2.0)]
    inner = next(s for s in tracer.spans if s[1] == "inner")
    outer = next(s for s in tracer.spans if s[1] == "outer")
    assert inner[5] == outer[0] and inner[6] == "c:1"  # parent, request id

    other = Tracer(clock=clock)
    other.absorb(tracer.state())
    other.absorb(tracer.state())
    ids = [s[0] for s in other.spans]
    assert len(set(ids)) == 4
    assert all(s[5] in ids for s in other.spans if s[5] is not None)

    other.write(str(tmp_path / "t"))
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == ["inner", "outer"] * 2
    events = json.loads((tmp_path / "t.chrome.json").read_text())["traceEvents"]
    assert len(events) == 4 and all(e["ph"] == "X" for e in events)
