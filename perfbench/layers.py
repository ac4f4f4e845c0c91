"""Per-layer metrics of the traced run: what is wrapped, how it reduces.

Every wrapper is installed from here, around the public entry points
of each layer, patching the binding its callers actually use: the
server imports ``serialize_ciphertext`` / ``deserialize_ciphertext`` by
name, so those names are patched in :mod:`repro.serving.server` as well
as in :mod:`repro.ckks.serialization`; the server imports ``check_plan``
from :mod:`repro.plan` at call time, so the package attribute is the
one patched.  Methods are patched on their classes.

A forked worker process inherits the wrappers and records into its own
copy of the tracer; the patched ``ClusterWorker.stats`` ships that copy
(and the worker's backend row counts) back with the stats reply and
clears it, so a ``worker_stats()`` call at the start of the traced
phase discards the warm-up and one at its end collects the phase.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence, Tuple

from repro import plan as plan_pkg
from repro.ckks import serialization
from repro.ckks.backend import get_backend
from repro.ckks.backend.counting import CountingBackend
from repro.ckks.batch import BatchEvaluator, CiphertextBatch
from repro.ckks.evaluator import Evaluator
from repro.plan import PlanExecutor
from repro.serving import framing
from repro.serving import server as server_mod
from repro.serving.batcher import DynamicBatcher
from repro.serving.cluster import ServingCluster
from repro.serving.framing import FrameDecoder
from repro.serving.server import EncryptedComputeServer
from repro.serving.worker import ClusterWorker, LocalWorkerHandle, ProcessWorkerHandle

import stats
from spans import Patcher, Tracer, aggregate

ALL = ("setA_batched", "setA_sparse", "n1024_light", "n1024_light_proc")
BATCHED, SPARSE, LIGHT, PROC = ALL

#: (metric, unit, workloads on which it must be nonzero).  The workload
#: is the one whose traffic exercises the layer; an empty tuple marks a
#: metric predicted to read zero on every workload at this commit.
METRICS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("cluster.ingress_us", "us", (LIGHT,)),
    ("cluster.collect_us", "us", (LIGHT,)),
    ("framing.codec_us.v1", "us", (LIGHT,)),
    ("framing.codec_us.v2", "us", (LIGHT,)),
    ("wire.decode_us.v1", "us", (LIGHT,)),
    ("wire.decode_us.v2", "us", (LIGHT,)),
    ("wire.encode_us.v1", "us", (LIGHT,)),
    ("wire.encode_us.v2", "us", (LIGHT,)),
    ("worker.feed_us", "us", (LIGHT, PROC)),
    ("worker.poll_us", "us", (LIGHT, PROC)),
    # a process poll blocks until the worker answers between pumps, so
    # under this load it always finds a response
    ("worker.poll_empty_frac", "frac", ()),
    ("server.admit_us", "us", (LIGHT,)),
    ("server.flush_ms_p50", "ms", (BATCHED,)),
    ("server.busy_frac", "frac", (BATCHED,)),
    ("batcher.batch_mean", "count", (BATCHED,)),
    ("batcher.singleton_frac", "frac", (SPARSE,)),
    ("batcher.deadline_flush_frac", "frac", (BATCHED,)),
    ("batcher.lane_wait_ms_p50", "ms", (SPARSE,)),
    ("batcher.lane_wait_ms_p99", "ms", (SPARSE,)),
    ("plan.check_ms", "ms", (BATCHED,)),
    ("plan.run_ms", "ms", (BATCHED,)),
    ("plan.lanes", "count", (BATCHED,)),
    # one rotation per program chain: the planner finds no sweep to fuse
    ("plan.sweeps", "count", ()),
    ("batch.ms.multiply", "ms", (BATCHED,)),
    ("batch.ms.relinearize", "ms", (BATCHED,)),
    ("batch.ms.rotate", "ms", (BATCHED,)),
    ("batch.ms.conjugate", "ms", (BATCHED,)),
    ("batch.ms.add", "ms", (BATCHED,)),
    # setA_batched sends no negate; the keyless mix does
    ("batch.ms.negate", "ms", (LIGHT,)),
    ("batch.join_split_ms", "ms", (BATCHED,)),
    ("evaluator.ms.square", "ms", (SPARSE,)),
    ("evaluator.ms.rotate", "ms", (SPARSE,)),
    ("evaluator.ms.conjugate", "ms", (SPARSE,)),
    # hoist lanes serve the sweeps of the batched mix
    ("evaluator.ms.rotate_hoisted", "ms", (BATCHED,)),
    ("backend.ntt_rows", "rows/req", (BATCHED, SPARSE)),
    ("backend.intt_rows", "rows/req", (BATCHED, SPARSE)),
    ("backend.dyadic_rows", "rows/req", (BATCHED, SPARSE)),
    ("backend.permute_rows", "rows/req", (BATCHED, SPARSE)),
    # a resident chain converts nothing; nonzero means a layout round trip
    ("backend.lift_rows", "rows/req", ()),
    ("backend.lower_rows", "rows/req", ()),
    ("backend.ntt_ms", "ms", (BATCHED,)),
    ("backend.dyadic_ms", "ms", (BATCHED,)),
    ("backend.permute_ms", "ms", (BATCHED,)),
    ("backend.kernel_frac", "frac", (BATCHED,)),
    ("client.encode_ms", "ms", ALL),
    ("client.encrypt_ms", "ms", ALL),
    ("client.decrypt_ms", "ms", ALL),
    ("client.decode_ms", "ms", ALL),
    ("loadgen.late_p99_ms", "ms", ALL),
    ("cluster.inflight_max", "count", ALL),
    ("trace.overhead_frac", "frac", ALL),
)

UNITS = {name: unit for name, unit, _ in METRICS}

_BATCH_OPS = ("multiply", "relinearize", "rotate", "conjugate", "add", "negate")
_EVAL_OPS = ("multiply", "relinearize", "rotate", "conjugate", "rotate_hoisted")
_KERNELS = {
    "backend.ntt": (
        "ntt_forward", "ntt_inverse", "ntt_forward_rows", "ntt_inverse_rows",
        "ntt_forward_stack", "ntt_inverse_stack",
    ),
    "backend.dyadic": (
        "dyadic_mul", "dyadic_mac", "dyadic_mul_rows", "dyadic_mac_rows",
        "dyadic_mul_stack", "dyadic_mac_stack", "dyadic_stack_reduce",
    ),
    "backend.permute": ("galois_rows", "apply_galois_stack", "permute_ntt_stack"),
}

#: offset of the frame-version byte: u32 length prefix + 4-byte magic
_FRAME_VERSION_AT = 8
#: offset of the wire-version byte of a serialized object: 4-byte magic
_WIRE_VERSION_AT = 4


def _rid(client_id: str, data: bytes) -> str:
    return f"{client_id}:{framing.peek_frame_ids(data)[1]}"


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's public entry points; returns the undo handle."""
    p = Patcher(tracer)
    samples, counts = tracer.samples, tracer.counts

    # serving.cluster: the router
    p.span(ServingCluster, "receive", "cluster.receive",
           rid_of=lambda a, k: _rid(a[1], a[2]))
    p.span(ServingCluster, "pump", "cluster.pump")
    p.span(ServingCluster, "drain", "cluster.drain")

    # serving.framing: callers use the module attribute and the class
    def encode_name(a, k):
        version = k.get("frame_version", a[7] if len(a) > 7 else 1)
        return f"framing.encode.v{version}"

    def count_frames(result, a):
        counts[f"framing.frames.v{a[1][_FRAME_VERSION_AT]}"] += len(result)

    p.span(framing, "encode_frame", encode_name)
    # every receive in this benchmark carries whole frames, so a chunk's
    # version byte is its frames' version
    p.span(FrameDecoder, "feed",
           lambda a, k: f"framing.decode.v{a[1][_FRAME_VERSION_AT]}",
           after=count_frames)

    # ckks.serialization: the module attribute and the server's binding
    def encode_wire(a, k):
        return f"wire.encode.v{k.get('version', a[1] if len(a) > 1 else 1)}"

    for owner in (serialization, server_mod):
        p.span(owner, "serialize_ciphertext", encode_wire)
        p.span(owner, "deserialize_ciphertext",
               lambda a, k: f"wire.decode.v{a[0][_WIRE_VERSION_AT]}")

    # serving.worker: the router-side transport
    def count_poll(result, a):
        counts["worker.polls"] += 1
        if not result:
            counts["worker.polls_empty"] += 1

    for handle in (LocalWorkerHandle, ProcessWorkerHandle):
        p.span(handle, "feed", "worker.feed")
        p.span(handle, "poll_responses", "worker.poll", after=count_poll)

    def make_stats(fn):
        def traced_stats(self):
            result = fn(self)
            if os.getpid() != tracer.owner:
                backend = get_backend()
                result.perfbench = {
                    "trace": tracer.state(),
                    "rows": dict(getattr(backend, "counts", {})),
                }
                tracer.reset()
                if isinstance(backend, CountingBackend):
                    backend.reset()
            return result

        return traced_stats

    p.replace(ClusterWorker, "stats", make_stats)

    # serving.server: admission and the serve loop
    p.span(EncryptedComputeServer, "receive", "server.receive")
    p.span(EncryptedComputeServer, "pump", "server.pump")
    p.span(EncryptedComputeServer, "drain", "server.drain")

    # serving.batcher: every returned group is a flush about to start
    def groups_of(reason):
        def note(batcher, groups):
            now = batcher.clock()
            for group in groups:
                samples["batcher.size"].append(len(group))
                counts[f"batcher.flush.{reason}"] += 1
                samples["batcher.lane_wait"].extend(
                    now - r.enqueued_at for r in group.requests
                )
        return note

    full, due, drained = groups_of("full"), groups_of("deadline"), groups_of("drain")
    p.after(DynamicBatcher, "add",
            lambda result, a: full(a[0], [result] if result is not None else []))
    p.after(DynamicBatcher, "due", lambda result, a: due(a[0], result))
    p.after(DynamicBatcher, "flush_all", lambda result, a: drained(a[0], result))

    # plan
    def note_run(result, a):
        samples["plan.lanes"].append(result.lanes)
        samples["plan.sweeps"].append(result.sweeps)

    p.span(plan_pkg, "check_plan", "plan.check")
    p.span(PlanExecutor, "run", "plan.run", after=note_run)

    # ckks.batch and ckks.evaluator
    for op in _BATCH_OPS:
        p.span(BatchEvaluator, op, f"batch.{op}")
    p.span(CiphertextBatch, "join", "batch.join")
    p.span(CiphertextBatch, "from_ciphertexts", "batch.join")
    p.span(CiphertextBatch, "split", "batch.split")
    for op in _EVAL_OPS:
        p.span(Evaluator, op, f"evaluator.{op}")

    # ckks.backend: kernels as leaf timers on the counting wrapper
    for name, attrs in _KERNELS.items():
        for attr in attrs:
            p.leaf(CountingBackend, attr, name)
    return p


def absorb_workers(tracer: Tracer, worker_stats: Dict[str, object]) -> Dict[str, int]:
    """Merge what forked workers shipped; returns their backend row counts."""
    rows: Dict[str, int] = {}
    for st in worker_stats.values():
        shipped = getattr(st, "perfbench", None)
        if shipped is None:
            continue
        tracer.absorb(shipped["trace"])
        for key, value in shipped["rows"].items():
            rows[key] = rows.get(key, 0) + value
    return rows


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def reduce(
    tracer: Tracer,
    rows: Dict[str, int],
    flush_seconds: Sequence[float],
    *,
    wall: float,
    requests: int,
    completed: int,
    lateness: Sequence[float],
    inflight_max: int,
    client_ms: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """Every metric of :data:`METRICS` from one traced phase."""
    agg = aggregate(tracer.spans)
    timers, samples, counts = tracer.timers, tracer.samples, tracer.counts

    def calls(name):
        return agg[name][0] if name in agg else 0

    def self_s(name):
        return agg[name][1] if name in agg else 0.0

    def incl(name):
        return agg[name][2] if name in agg else 0.0

    m: Dict[str, float] = {}
    m["cluster.ingress_us"] = _per(self_s("cluster.receive"), requests, 1e6)
    m["cluster.collect_us"] = _per(
        self_s("cluster.pump") + self_s("cluster.drain"), completed, 1e6
    )
    for v in (1, 2):
        seconds = incl(f"framing.encode.v{v}") + incl(f"framing.decode.v{v}")
        frames = calls(f"framing.encode.v{v}") + counts[f"framing.frames.v{v}"]
        m[f"framing.codec_us.v{v}"] = _per(seconds, frames, 1e6)
        for way in ("decode", "encode"):
            name = f"wire.{way}.v{v}"
            m[f"wire.{way}_us.v{v}"] = _per(incl(name), calls(name), 1e6)
    m["worker.feed_us"] = _per(self_s("worker.feed"), calls("worker.feed"), 1e6)
    m["worker.poll_us"] = _per(self_s("worker.poll"), calls("worker.poll"), 1e6)
    m["worker.poll_empty_frac"] = _per(counts["worker.polls_empty"], counts["worker.polls"])
    m["server.admit_us"] = _per(self_s("server.receive"), calls("server.receive"), 1e6)
    m["server.flush_ms_p50"] = stats.median(flush_seconds) * 1e3 if flush_seconds else 0.0
    m["server.busy_frac"] = _per(sum(flush_seconds), wall)

    sizes = samples["batcher.size"]
    groups = len(sizes)
    m["batcher.batch_mean"] = _per(sum(sizes), groups)
    m["batcher.singleton_frac"] = _per(sum(1 for s in sizes if s == 1), groups)
    m["batcher.deadline_flush_frac"] = _per(counts["batcher.flush.deadline"], groups)
    waits = samples["batcher.lane_wait"]
    m["batcher.lane_wait_ms_p50"] = stats.median(waits) * 1e3 if waits else 0.0
    m["batcher.lane_wait_ms_p99"] = _tail_ms(waits)

    m["plan.check_ms"] = _per(incl("plan.check"), calls("plan.check"), 1e3)
    m["plan.run_ms"] = _per(incl("plan.run"), calls("plan.run"), 1e3)
    for key in ("lanes", "sweeps"):
        values = samples[f"plan.{key}"]
        m[f"plan.{key}"] = _per(sum(values), len(values))

    for op in _BATCH_OPS:
        m[f"batch.ms.{op}"] = _per(incl(f"batch.{op}"), calls(f"batch.{op}"), 1e3)
    # per batched flush: one join (two for a binary op) and one split
    m["batch.join_split_ms"] = _per(
        incl("batch.join") + incl("batch.split"), calls("batch.split"), 1e3
    )
    # the scalar square is a multiply followed by a relinearize
    m["evaluator.ms.square"] = _per(
        incl("evaluator.multiply") + incl("evaluator.relinearize"),
        calls("evaluator.relinearize"),
        1e3,
    )
    for op in ("rotate", "conjugate", "rotate_hoisted"):
        m[f"evaluator.ms.{op}"] = _per(
            incl(f"evaluator.{op}"), calls(f"evaluator.{op}"), 1e3
        )

    m["backend.ntt_rows"] = _per(rows.get("ntt_forward", 0), completed)
    m["backend.intt_rows"] = _per(rows.get("ntt_inverse", 0), completed)
    m["backend.dyadic_rows"] = _per(
        rows.get("dyadic_mul", 0) + rows.get("dyadic_mac", 0), completed
    )
    m["backend.permute_rows"] = _per(
        rows.get("galois_permute", 0) + rows.get("ntt_permute", 0), completed
    )
    m["backend.lift_rows"] = _per(rows.get("lift_rows", 0), completed)
    m["backend.lower_rows"] = _per(rows.get("lower_rows", 0), completed)
    kernel = 0.0
    for name in _KERNELS:
        seconds = timers[name][0] if name in timers else 0.0
        kernel += seconds
        m[f"{name}_ms"] = _per(seconds, completed, 1e3)
    m["backend.kernel_frac"] = _per(kernel, sum(flush_seconds))

    for stage, value in client_ms.items():
        m[f"client.{stage}_ms"] = value
    m["loadgen.late_p99_ms"] = _tail_ms(lateness)
    m["cluster.inflight_max"] = float(inflight_max)
    m["trace.overhead_frac"] = overhead
    return m


def _tail_ms(values: Sequence[float]) -> float:
    if stats.tail_percentile(len(values)) is None:
        return 0.0
    return stats.tail(values)[1] * 1e3


def zero_where_exercised(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Metrics reading zero (or not finite) on a workload that exercises them."""
    return [
        name
        for name, _, required in METRICS
        if workload in required
        and (not math.isfinite(metrics.get(name, 0.0)) or metrics.get(name, 0.0) == 0.0)
    ]
