"""The benchmark's four traffic mixes: inputs, cluster set-up, plaintext model.

Everything a client would do -- key generation, encryption of the
payload pool, decryption of responses -- happens here with the
client's own :class:`~repro.ckks.context.CkksContext`; the serving side
is reached only through the cluster's public front door
(``register_tenant`` / ``register_client`` / ``receive`` / ``pump`` /
``take_outbox``).  The one exception is program registration, which
the cluster has no API for: it goes to each local worker's server.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.ckks.context import SET_A, CkksContext, CkksParameters, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import deserialize_ciphertext, serialize_ciphertext
from repro.serving import (
    LocalWorkerHandle,
    ProcessWorkerHandle,
    ServingCluster,
    WorkerSpec,
    framing,
)

from loadgen import Call

PROGRAM_ID = 1
#: the registered program: its expected output is 2 * conj(roll(x, 1))
PROGRAM = (("rotate", 1), "conjugate", "double")
SWEEP_STEPS = (1, 2, 4, 8)

#: call label -> the requests it sends, all carrying one payload
CALLS: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "square": (("square", 0),),
    "rotate1": (("rotate", 1),),
    "conjugate": (("conjugate", 0),),
    "program": (("program", PROGRAM_ID),),
    "sweep": tuple(("rotate", s) for s in SWEEP_STEPS),
    "double": (("double", 0),),
    "negate": (("negate", 0),),
}

#: largest |decoded - model| accepted in any slot.  Fresh Set-A inputs
#: decode to ~1e-4 after a square and ~1e-5 otherwise; a wrong rotation,
#: op or key is off by O(1).
TOLERANCE = 1e-2


def expected(op: str, op_arg: int, x: np.ndarray) -> np.ndarray:
    """The plaintext model of one served op on the full slot vector."""
    if op == "square":
        return x * x
    if op == "rotate":
        return np.roll(x, -op_arg)
    if op == "conjugate":
        return np.conj(x)
    if op == "program":
        return 2 * np.conj(np.roll(x, -1))
    if op == "double":
        return 2 * x
    if op == "negate":
        return -x
    raise ValueError(f"no plaintext model for op {op!r}")


N1024 = toy_parameters(n=1024, k=3, prime_bits=30)

#: distinct pre-encrypted payloads per client
POOL = 4


@dataclass(frozen=True)
class Workload:
    name: str
    params: CkksParameters
    #: call kinds a caller draws from (closed loop) or cycles through (open)
    mix: Tuple[str, ...]
    tenants: int
    clients_per_tenant: int
    #: tenant index -> (wire version, frame version) of its clients
    versions: Callable[[int], Tuple[int, int]]
    galois_steps: Tuple[int, ...] = ()
    conjugation: bool = False
    relin: bool = False
    program: bool = False
    process: bool = False
    #: aggregate Poisson arrival rate (req/s) of an open loop; 0 = closed
    rate: float = 0.0

    @property
    def closed(self) -> bool:
        return self.rate == 0.0


def _v2(_tenant: int) -> Tuple[int, int]:
    return (2, 2)


def _half_v1(tenant: int) -> Tuple[int, int]:
    return (1, 1) if tenant % 2 == 0 else (2, 2)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # key-switch bound: kernels, batching, planner and hoisting show here
        Workload(
            "setA_batched",
            SET_A,
            mix=("square", "rotate1", "program", "sweep"),
            tenants=2,
            clients_per_tenant=16,
            versions=_v2,
            galois_steps=SWEEP_STEPS,
            conjugation=True,
            relin=True,
            program=True,
        ),
        # every flush is batch-of-1: latency is lane deadline + scalar path
        Workload(
            "setA_sparse",
            SET_A,
            mix=("square", "rotate1", "conjugate"),
            tenants=16,
            clients_per_tenant=1,
            versions=_v2,
            galois_steps=(1,),
            conjugation=True,
            relin=True,
            rate=30.0,
        ),
        # trivial kernels: router, framing, codecs, admission and batcher
        # carry the work, over both protocol versions
        Workload(
            "n1024_light",
            N1024,
            mix=("double", "negate"),
            tenants=32,
            clients_per_tenant=1,
            versions=_half_v1,
        ),
        # n1024_light across the real process boundary: pipe, pickling, polls
        Workload(
            "n1024_light_proc",
            N1024,
            mix=("double", "negate"),
            tenants=32,
            clients_per_tenant=1,
            versions=_half_v1,
            process=True,
        ),
    )
}


# ----------------------------------------------------------------------
# the client side: keys, payload pools, framing, decryption
# ----------------------------------------------------------------------
class Tenant:
    """One key set; its clients encrypt under it and decrypt with it."""

    def __init__(self, ctx: CkksContext, workload: Workload, index: int, seed: int):
        self.key_id = f"tenant-{index}"
        self.wire_version, self.frame_version = workload.versions(index)
        expansion = (
            hashlib.sha256(b"perfbench-keys:%d:%d" % (seed, index)).digest()
            if self.wire_version == 2
            else None
        )
        keygen = KeyGenerator(ctx, seed=seed * 1009 + index, expansion_seed=expansion)
        self.public_key = keygen.public_key()
        self.relin_key = keygen.relin_key() if workload.relin else None
        self.galois_keys = (
            keygen.galois_keys(workload.galois_steps, conjugation=workload.conjugation)
            if workload.galois_steps or workload.conjugation
            else None
        )
        self.decryptor = Decryptor(ctx, keygen.secret_key)


@dataclass
class Sample:
    """Client-side seconds of one encrypt or decrypt, split by stage."""

    version: Tuple[int, int]
    stages: Dict[str, float]

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


class Client:
    """One client identity: a seeded encryptor and its payload pool."""

    def __init__(
        self,
        ctx: CkksContext,
        encoder: CkksEncoder,
        tenant: Tenant,
        client_id: str,
        seed: int,
    ):
        self.ctx = ctx
        self.encoder = encoder
        self.tenant = tenant
        self.client_id = client_id
        self.version = (tenant.wire_version, tenant.frame_version)
        self.encryptor = Encryptor(ctx, tenant.public_key, seed=seed)
        self._rng = np.random.default_rng(seed)
        self.next_request_id = 0
        self.values = [self.random_values() for _ in range(POOL)]
        self.payloads = [self.timed_encrypt(x)[0] for x in self.values]

    def random_values(self) -> np.ndarray:
        slots = self.ctx.params.slot_count
        return 0.7 * (
            self._rng.uniform(-1, 1, slots) + 1j * self._rng.uniform(-1, 1, slots)
        )

    def frame(self, op: str, op_arg: int, payload: bytes) -> Tuple[int, bytes]:
        request_id = self.next_request_id
        self.next_request_id += 1
        data = framing.encode_frame(
            framing.REQUEST,
            request_id,
            self.client_id,
            op=op,
            op_arg=op_arg,
            payload=payload,
            frame_version=self.tenant.frame_version,
        )
        return request_id, data

    def call(self, label: str, payload: int) -> Call:
        requests, frames = [], []
        for op, op_arg in CALLS[label]:
            request_id, data = self.frame(op, op_arg, self.payloads[payload])
            requests.append((request_id, op, op_arg))
            frames.append(data)
        return Call(self.client_id, label, payload, requests, frames)

    def timed_encrypt(self, x: np.ndarray) -> Tuple[bytes, Sample]:
        """Encode + encrypt + frame one request, stage by stage.

        Returns the serialized ciphertext; the frame built around it is
        discarded (sends re-frame pooled payloads with fresh ids).
        """
        clock = time.perf_counter
        t0 = clock()
        pt = self.encoder.encode(x)
        t1 = clock()
        ct = self.encryptor.encrypt(pt)
        t2 = clock()
        payload = serialize_ciphertext(ct, version=self.tenant.wire_version)
        self.frame("square", 0, payload)
        t3 = clock()
        return payload, Sample(
            self.version, {"encode": t1 - t0, "encrypt": t2 - t1, "frame": t3 - t2}
        )

    def timed_decrypt(self, blob: bytes) -> Tuple[np.ndarray, Sample]:
        """Deframe + decrypt + decode one response, stage by stage."""
        clock = time.perf_counter
        t0 = clock()
        frame = framing.decode_frame(blob)
        ct = deserialize_ciphertext(frame.payload, self.ctx)
        t1 = clock()
        pt = self.tenant.decryptor.decrypt(ct)
        t2 = clock()
        values = self.encoder.decode(pt)
        t3 = clock()
        return values, Sample(
            self.version, {"deframe": t1 - t0, "decrypt": t2 - t1, "decode": t3 - t2}
        )


@dataclass
class Inputs:
    workload: Workload
    ctx: CkksContext
    tenants: List[Tenant]
    clients: List[Client]

    def client(self, client_id: str) -> Client:
        return next(c for c in self.clients if c.client_id == client_id)

    def callers(self, seed: int) -> List[Callable[[], Call]]:
        """One caller per client, sending its pooled payloads in turn.

        A closed-loop caller picks each call's kind by a seeded choice;
        an open-loop caller cycles through the kinds.
        """
        mix = self.workload.mix
        closed = self.workload.closed
        callers = []
        for i, client in enumerate(self.clients):
            def caller(client=client, rng=random.Random(seed * 1_000_003 + i), turn=[0]):
                label = rng.choice(mix) if closed else mix[turn[0] % len(mix)]
                payload = turn[0] % len(client.payloads)
                turn[0] += 1
                return client.call(label, payload)

            callers.append(caller)
        return callers


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Keys and payload pools of every client, all derived from ``seed``."""
    # the client's context is pinned to numpy: the traced run swaps the
    # process-wide backend for a counting one, which must see only the
    # serving side's kernels
    ctx = CkksContext(workload.params, backend="numpy")
    encoder = CkksEncoder(ctx)
    tenants = [Tenant(ctx, workload, t, seed) for t in range(workload.tenants)]
    clients = [
        Client(
            ctx,
            encoder,
            tenant,
            f"{tenant.key_id}-client-{c}",
            seed=seed * 7919 + t * workload.clients_per_tenant + c,
        )
        for t, tenant in enumerate(tenants)
        for c in range(workload.clients_per_tenant)
    ]
    return Inputs(workload, ctx, tenants, clients)


# ----------------------------------------------------------------------
# the serving side, reached through the front door
# ----------------------------------------------------------------------
#: how long one warm-up call may take before set-up fails
WARMUP_SECONDS = 60.0


def start_cluster(inputs: Inputs) -> Tuple[ServingCluster, List[Tuple[Call, List[bytes]]]]:
    """Cluster + worker, tenants and sessions registered, lanes warmed.

    This is the benchmark's set-up: it covers the worker's context, the
    cluster and worker start, tenant key upload, session open and one
    warm-up call per lane shape (call label x protocol versions).
    Returns the cluster and each warm-up call with its responses.
    """
    workload = inputs.workload
    spec = WorkerSpec(params=workload.params)
    handle = ProcessWorkerHandle if workload.process else LocalWorkerHandle
    cluster = ServingCluster(lambda wid: handle(wid, spec), worker_count=1)
    try:
        for tenant in inputs.tenants:
            cluster.register_tenant(
                tenant.key_id,
                relin_key=tenant.relin_key,
                galois_keys=tenant.galois_keys,
                wire_version=tenant.wire_version,
            )
        if workload.program:
            for worker in cluster.workers.values():
                worker.core.server.register_program(PROGRAM_ID, PROGRAM)
        for client in inputs.clients:
            cluster.register_client(
                client.client_id,
                client.tenant.key_id,
                wire_version=client.tenant.wire_version,
                frame_version=client.tenant.frame_version,
            )
        firsts: Dict[Tuple[int, int], Client] = {}
        for client in inputs.clients:
            firsts.setdefault(client.version, client)
        warm = [
            _warm(cluster, client.call(label, 0))
            for client in firsts.values()
            for label in workload.mix
        ]
    except BaseException:
        cluster.stop()
        raise
    return cluster, warm


def _warm(cluster: ServingCluster, call: Call) -> Tuple[Call, List[bytes]]:
    for data in call.frames:
        cluster.receive(call.client_id, data)
    waiting = {request_id for request_id, _, _ in call.requests}
    responses: Dict[int, bytes] = {}
    limit = time.monotonic() + WARMUP_SECONDS
    while waiting:
        if time.monotonic() > limit:
            raise RuntimeError(f"warm-up {call.label} got no response")
        cluster.pump()
        for blob in cluster.take_outbox(call.client_id):
            kind, request_id, _ = framing.peek_frame_summary(blob)
            if kind != framing.RESPONSE:
                raise RuntimeError(
                    f"warm-up {call.label} failed: "
                    f"{framing.decode_frame(blob).error_message}"
                )
            waiting.discard(request_id)
            responses[request_id] = blob
    return call, [responses[request_id] for request_id, _, _ in call.requests]


def check_call(inputs: Inputs, call: Call, responses: Sequence[bytes]) -> float:
    """Decrypt a call's responses; worst slot error against the model."""
    client = inputs.client(call.client_id)
    x = client.values[call.payload]
    worst = 0.0
    for (_, op, op_arg), blob in zip(call.requests, responses):
        values, _ = client.timed_decrypt(blob)
        worst = max(worst, float(np.max(np.abs(values - expected(op, op_arg, x)))))
    return worst


class ClientCosts:
    """Times one fresh client encrypt and one response decrypt per call.

    Used as a :class:`loadgen.Probe`'s work: encrypts rotate through the
    clients, decrypts through the warm-up responses, which cover every
    call kind and protocol version of the workload.
    """

    def __init__(self, inputs: Inputs, warm: Sequence[Tuple[Call, List[bytes]]]):
        self.inputs = inputs
        self.responses = [(call, blob) for call, blobs in warm for blob in blobs]
        self.encrypts: List[Sample] = []
        self.decrypts: List[Sample] = []

    def __call__(self) -> None:
        i = len(self.encrypts)
        client = self.inputs.clients[i % len(self.inputs.clients)]
        self.encrypts.append(client.timed_encrypt(client.random_values())[1])
        call, blob = self.responses[i % len(self.responses)]
        self.decrypts.append(self.inputs.client(call.client_id).timed_decrypt(blob)[1])
