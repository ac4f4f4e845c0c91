#!/usr/bin/env python3
"""Client-boundary serving benchmark.

Drives one seeded traffic mix through the serving cluster's front door
(``ServingCluster.receive`` / ``pump`` / ``take_outbox``) from a single
client thread, checks that responses decrypt to the plaintext model,
and prints every metric by name and unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload setA_batched --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` serves half
the time untraced and half with every layer wrapped, reports the
per-layer metrics, and writes the spans to ``perfbench/results/``.
``--workload all`` runs every workload, each in a fresh interpreter.
The exit code is nonzero when any response is wrong, missing,
duplicated or an error, or the cluster's conservation law breaks.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 9
#: completed calls per call label kept for decryption
KEEP_PER_LABEL = 3
#: seconds between client-cost probes inside a measured phase
PROBE_SECONDS = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("wire_bytes_per_req", "bytes"),
    ("peak_rss_mb", "MB"),
    ("client_encrypt_ms", "ms"),
    ("client_decrypt_ms", "ms"),
)


def parse_args(argv=None) -> argparse.Namespace:
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(wl.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def _commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": "numpy",
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# one measured phase
# ----------------------------------------------------------------------
class Reservoir:
    """Seeded reservoir of completed calls per label, kept for decryption."""

    def __init__(self, seed: int, per_label: int):
        self.rng = random.Random(seed)
        self.per_label = per_label
        self.seen: Counter = Counter()
        self.kept = defaultdict(list)

    def keep(self, call, members) -> bool:
        if not all(m.ok for m in members):
            return False
        self.seen[call.label] += 1
        bucket = self.kept[call.label]
        if len(bucket) < self.per_label:
            bucket.append((call, members))
            return True
        j = self.rng.randrange(self.seen[call.label])
        if j >= self.per_label:
            return False
        for m in bucket[j][1]:
            m.response = None
        bucket[j] = (call, members)
        return True


def serve(cluster, inputs, warm, seconds: float, seed: int):
    """One measured phase; returns it, its reservoir and the client costs."""
    import loadgen
    import workloads as wl

    reservoir = Reservoir(seed, KEEP_PER_LABEL)
    costs = wl.ClientCosts(inputs, warm)
    # keys, pools and the set-up cluster live for the whole run: freezing
    # them keeps full collections from rescanning them during the phase
    gc.collect()
    gc.freeze()
    probe = loadgen.Probe(PROBE_SECONDS, costs)
    callers = inputs.callers(seed)
    workload = inputs.workload
    if workload.closed:
        phase = loadgen.closed_loop(
            cluster, callers, seconds, keep=reservoir.keep, probe=probe
        )
    else:
        rng = random.Random(seed)
        schedule = [
            (t, rng.randrange(len(callers)))
            for t in loadgen.poisson_offsets(workload.rate, seconds, rng)
        ]
        phase = loadgen.open_loop(
            cluster, callers, schedule, seconds, keep=reservoir.keep, probe=probe
        )
    gc.unfreeze()
    return phase, reservoir, costs


def audit(inputs, phase, reservoir, report, warm) -> dict:
    """Failures of one phase: errors, missing, duplicates, wrong decrypts,
    unbalanced accounting, op kinds left unchecked.

    Decrypts the sampled responses of the phase and the responses of
    every warm-up call (``warm``: ``(call, responses)`` pairs).
    """
    import workloads as wl

    balance = (
        report.completed
        + report.shed_requests
        + report.failed_over_requests
        + report.expired_requests
    )
    checked = list(warm)
    for label in inputs.workload.mix:
        for call, members in reservoir.kept.get(label, []):
            checked.append((call, [m.response for m in members]))
    wrong, worst = 0, 0.0
    for call, responses in checked:
        err = wl.check_call(inputs, call, responses)
        worst = max(worst, err)
        if err > wl.TOLERANCE:
            wrong += len(responses)
    unchecked = [l for l in inputs.workload.mix if not reservoir.kept.get(l)]
    out = {
        "errors": phase.errors,
        "missing": phase.missing,
        "duplicates": phase.duplicates,
        "wrong": wrong,
        "imbalance": abs(report.submitted - balance),
        "unchecked_labels": len(unchecked),
    }
    out["failed"] = sum(out.values())
    out["worst_error"] = worst
    out["checked_requests"] = sum(len(responses) for _, responses in checked)
    out["conservation"] = (
        f"completed {report.completed} + shed {report.shed_requests} + "
        f"failed_over {report.failed_over_requests} + expired "
        f"{report.expired_requests} == submitted {report.submitted}"
    )
    return out


def throughput(phase) -> float:
    """Responses per second until the generator stopped sending."""
    done = sum(1 for r in phase.records if r.ok and r.done <= phase.stopped)
    return done / (phase.stopped - phase.start)


def client_ms(samples, clients, stage=None) -> float:
    """Client cost, per protocol version, weighted by fleet share.

    Each version's cost is the trimmed mean of its probes
    (:func:`stats.trimmed_mean`).  A mixed fleet's costs differ by
    version, and a run's share of each version's probes varies a little,
    so each version is averaged on its own.
    """
    import stats

    share = Counter(c.version for c in clients)
    by_version = defaultdict(list)
    for s in samples:
        by_version[s.version].append(s.stages[stage] if stage else s.seconds)
    weight = sum(share[v] for v in by_version)
    return (
        sum(share[v] * stats.trimmed_mean(x) for v, x in by_version.items())
        / weight * 1e3
    )


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def end_to_end(inputs, seconds: float, seed: int):
    import stats
    import workloads as wl

    setups, warm = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cluster, warmed = wl.start_cluster(inputs)
        setups.append(time.perf_counter() - t0)
        warm.extend(warmed)
        if i + 1 < SETUP_REPEATS:
            cluster.stop()
    try:
        phase, reservoir, costs = serve(cluster, inputs, warmed, seconds, seed)
    finally:
        cluster.stop()
    rss = peak_rss_mb()
    checks = audit(inputs, phase, reservoir, cluster.report, warm)
    latencies = [r.latency for r in phase.records]
    q, tail_value, beyond = stats.tail(latencies)
    completed = sum(1 for r in phase.records if r.ok)
    wire = sum(r.request_bytes + r.response_bytes for r in phase.records)
    metrics = {
        "setup_s": stats.median(setups),
        "throughput_rps": throughput(phase),
        "latency_p50_ms": stats.median(latencies) * 1e3,
        "latency_p99_ms": tail_value * 1e3,
        "wire_bytes_per_req": wire / completed if completed else float("inf"),
        "peak_rss_mb": rss,
        "client_encrypt_ms": client_ms(costs.encrypts, inputs.clients),
        "client_decrypt_ms": client_ms(costs.decrypts, inputs.clients),
    }
    notes = {
        "setup_s": f"median of {len(setups)}: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "throughput_rps": f"{completed} completed, "
        f"{phase.stopped - phase.start:.3f} s sending",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_p99_ms": f"at p{q * 100:.4g}, n={len(latencies)}, {beyond} beyond",
        "wire_bytes_per_req": f"{wire} bytes / {completed}",
        "client_encrypt_ms": "encode+encrypt+frame of a fresh request, "
        f"trimmed mean, probed every {PROBE_SECONDS:g} s while serving, n={len(costs.encrypts)}",
        "client_decrypt_ms": "deframe+decrypt+decode of a warm-up response, "
        f"trimmed mean, probed every {PROBE_SECONDS:g} s while serving, n={len(costs.decrypts)}",
    }
    return metrics, notes, checks["failed"], len(phase.records), [checks]


def traced(inputs, seconds: float, seed: int, workload_name: str):
    import layers
    import stats
    import workloads as wl
    from repro.ckks.backend import set_backend
    from repro.ckks.backend.counting import CountingBackend
    from spans import Tracer

    half = seconds / 2
    cluster, warm = wl.start_cluster(inputs)
    try:
        plain, plain_res, _ = serve(cluster, inputs, warm, half, seed)
    finally:
        cluster.stop()
    checks = [audit(inputs, plain, plain_res, cluster.report, warm)]

    tracer = Tracer()
    counting = CountingBackend("numpy")
    set_backend(counting)
    patcher = layers.install(tracer)
    try:
        # set-up happens after the wrappers are in: a forked worker
        # inherits them, and the counting backend, at its start
        cluster, warm = wl.start_cluster(inputs)
        try:
            before = cluster.worker_stats()  # forked workers drop warm-up
            tracer.reset()
            counting.reset()
            phase, reservoir, costs = serve(cluster, inputs, warm, half, seed)
            after = cluster.worker_stats()
        finally:
            cluster.stop()
    finally:
        patcher.uninstall()
        set_backend("numpy")
    rows = Counter(counting.counts)
    rows.update(layers.absorb_workers(tracer, after))
    flush_seconds = [
        f.seconds
        for wid, st in after.items()
        for f in st.flushes[len(before[wid].flushes):]
    ]
    checks.append(audit(inputs, phase, reservoir, cluster.report, warm))

    stage_ms = {
        "encode": client_ms(costs.encrypts, inputs.clients, "encode"),
        "encrypt": client_ms(costs.encrypts, inputs.clients, "encrypt"),
        "decrypt": client_ms(costs.decrypts, inputs.clients, "decrypt"),
        "decode": client_ms(costs.decrypts, inputs.clients, "decode"),
    }
    if inputs.workload.closed:
        # closed loop: tracing slows the loop, which shows as throughput
        overhead = 1 - throughput(phase) / throughput(plain)
    else:
        # open loop: the schedule fixes throughput; tracing shows as latency
        overhead = (
            stats.median(r.latency for r in phase.records)
            / stats.median(r.latency for r in plain.records)
            - 1
        )
    metrics = layers.reduce(
        tracer,
        rows,
        flush_seconds,
        wall=phase.wall,
        requests=len(phase.records),
        completed=sum(1 for r in phase.records if r.ok),
        lateness=phase.lateness,
        inflight_max=phase.inflight_max,
        client_ms=stage_ms,
        overhead=overhead,
    )
    RESULTS.mkdir(exist_ok=True)
    tracer.write(str(RESULTS / f"trace-{workload_name}"))
    zero = layers.zero_where_exercised(workload_name, metrics)
    failed = sum(c["failed"] for c in checks) + len(zero)
    attempted = len(plain.records) + len(phase.records)
    notes = {"zero where exercised": ", ".join(zero) or "none",
             "spans": str(len(tracer.spans))}
    return metrics, notes, failed, attempted, checks


# ----------------------------------------------------------------------
def bench(args) -> int:
    import workloads as wl
    from repro.ckks.backend import set_backend

    set_backend("numpy")
    workload = wl.WORKLOADS[args.workload]
    host = fingerprint()
    t0 = time.perf_counter()
    inputs = wl.make_inputs(workload, args.seed)
    generate_s = time.perf_counter() - t0
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"inputs generated in {generate_s:.2f} s (not timed as set-up)")

    if args.trace:
        import layers

        metrics, notes, failed, attempted, checks = traced(
            inputs, args.seconds, args.seed, workload.name
        )
        units = layers.UNITS
    else:
        metrics, notes, failed, attempted, checks = end_to_end(
            inputs, args.seconds, args.seed
        )
        units = dict(END_TO_END)
    fail_frac = failed / attempted

    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<30} {value:>14.6g} {units[name]:<8} {note}")
    print(f"  {'fail_frac':<30} {fail_frac:>14.6g} {'frac':<8} "
          f"{failed} failed of {attempted} attempted; a gate, not a bounded metric")
    for key, value in notes.items():
        if key not in metrics:
            print(f"  {key}: {value}")
    for check in checks:
        print(
            "    errors {errors}, missing {missing}, duplicates {duplicates}, "
            "wrong {wrong} (worst |error| {worst_error:.3g} over "
            "{checked_requests} decrypted), unchecked labels {unchecked_labels}; "
            "{conservation}".format(**check)
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  fail_frac=fail_frac, notes=notes)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / stem).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter (so peak RSS is per run)."""
    import workloads as wl

    status, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            merged["correct"] = False
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            status, merged["correct"] = 1, False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
