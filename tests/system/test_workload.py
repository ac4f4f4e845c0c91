"""Tests for workload generation and runtime projection."""

import pytest

from repro.system.workload import (
    PRIMITIVES,
    RuntimeProjection,
    Workload,
    WorkloadGenerator,
)


class TestWorkload:
    def test_defaults_zero(self):
        w = Workload("w", {"keyswitch": 3})
        assert w.counts["cc_mult"] == 0
        assert w.total_ops == 3

    def test_rejects_unknown_primitive(self):
        with pytest.raises(ValueError):
            Workload("w", {"bootstrapping": 1})

    def test_addition_merges(self):
        a = Workload("a", {"keyswitch": 1})
        b = Workload("b", {"keyswitch": 2, "add": 5})
        c = a + b
        assert c.counts["keyswitch"] == 3
        assert c.counts["add"] == 5

    def test_scaling(self):
        w = WorkloadGenerator.dot_product(8).scaled(10)
        assert w.counts["keyswitch"] == 30  # 3 rotations x 10


class TestGenerator:
    def test_dot_product_counts(self):
        w = WorkloadGenerator.dot_product(8)
        assert w.counts["keyswitch"] == 3  # log2(8) rotations
        assert w.counts["cp_mult"] == 1

    def test_matvec_counts(self):
        w = WorkloadGenerator.matvec(16)
        assert w.counts["keyswitch"] == 15
        assert w.counts["cp_mult"] == 16

    def test_polynomial_activation(self):
        w = WorkloadGenerator.polynomial_activation(3)
        assert w.counts["cc_mult"] == 2
        assert w.counts["keyswitch"] == 2

    def test_activation_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            WorkloadGenerator.polynomial_activation(0)

    def test_logistic_composition(self):
        dot = WorkloadGenerator.dot_product(8)
        act = WorkloadGenerator.polynomial_activation(3)
        full = WorkloadGenerator.logistic_inference(8, 3)
        for p in PRIMITIVES:
            assert full.counts[p] == dot.counts[p] + act.counts[p]

    def test_dense_layer(self):
        w = WorkloadGenerator.dense_layer(8)
        assert w.counts["keyswitch"] >= 8  # rotations + relins


class TestProjection:
    @pytest.fixture(scope="class")
    def proj(self):
        return RuntimeProjection("Stratix10", 8192, 4)

    def test_speedup_two_orders(self, proj):
        w = WorkloadGenerator.logistic_inference(64)
        assert proj.speedup(w) > 50

    def test_keyswitch_dominates_heax_time(self, proj):
        """Rotation-heavy workloads are KeySwitch-pipeline bound."""
        w = WorkloadGenerator.matvec(64)
        ks_only = Workload("ks", {"keyswitch": w.counts["keyswitch"]})
        assert proj.heax_seconds(w) == pytest.approx(
            proj.heax_seconds(ks_only), rel=0.25
        )

    def test_cpu_time_additive(self, proj):
        a = WorkloadGenerator.dot_product(8)
        b = WorkloadGenerator.polynomial_activation(2)
        assert proj.cpu_seconds(a + b) == pytest.approx(
            proj.cpu_seconds(a) + proj.cpu_seconds(b)
        )

    def test_bigger_workload_takes_longer(self, proj):
        small = WorkloadGenerator.matvec(8)
        big = WorkloadGenerator.matvec(64)
        assert proj.heax_seconds(big) > proj.heax_seconds(small)
        assert proj.cpu_seconds(big) > proj.cpu_seconds(small)

    def test_report_row_shape(self, proj):
        row = proj.report_row(WorkloadGenerator.dot_product(8))
        assert len(row) == 6
        assert row[0] == "dot-8"


class TestOpSequence:
    def test_round_robin_interleaving(self):
        w = Workload("w", {"keyswitch": 2, "cc_mult": 1, "add": 3})
        seq = w.op_sequence()
        assert len(seq) == w.total_ops
        assert seq[:3] == ["keyswitch", "cc_mult", "add"]
        # every count is fully emitted
        for p in PRIMITIVES:
            assert seq.count(p) == w.counts[p]

    def test_empty_workload(self):
        assert Workload("empty").op_sequence() == []


def _execute(context, workload, lanes, seed):
    """Lower ``workload`` over ``lanes`` chains, place its rescales and
    run it on fresh encryptions: ``(graph, run, keygen)``."""
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor
    from repro.ckks.keys import KeyGenerator
    from repro.plan import PlanExecutor, compile_plan
    from repro.plan.lower import fresh_lane_inputs

    keygen = KeyGenerator(context, seed=seed)
    encoder = CkksEncoder(context)
    encryptor = Encryptor(context, keygen.public_key(), seed=seed + 1)
    graph = compile_plan(
        workload.to_plan(lanes, context), context, rescale_outputs=False
    )
    inputs = fresh_lane_inputs(
        graph, lambda name: encryptor.encrypt(encoder.encode([0.5, -0.25j]))
    )
    executor = PlanExecutor(
        context,
        relin_key=keygen.relin_key(),
        galois_keys=keygen.galois_keys([1]),
    )
    return graph, executor.run(graph, inputs), keygen


class TestBatchExecution:
    """Workloads really execute: ``Workload.to_plan`` over independent
    lanes, run by ``PlanExecutor`` through its batch lanes."""

    @pytest.fixture(scope="class")
    def context(self):
        from repro.ckks.context import CkksContext, toy_parameters

        return CkksContext(toy_parameters(n=64, k=3, prime_bits=30))

    def test_executes_every_primitive(self, context):
        w = WorkloadGenerator.logistic_inference(8, 3)
        lanes = 2
        graph, run, _ = _execute(context, w, lanes, seed=5)
        ops = [n.op for n in graph.topo_order() if n.op not in ("input", "const")]
        # every op node ran exactly once, in some schedule step
        executed = sorted(i for step in run.steps for i in step.node_ids)
        assert executed == sorted(
            n.id for n in graph.topo_order() if n.op not in ("input", "const")
        )
        assert run.compute_seconds > 0
        # the parallel lanes really ran batched
        assert run.lanes > 0 and run.packed_ops > 0
        # each primitive of every lane is in the plan
        assert ops.count("rotate") == lanes * w.counts["keyswitch"]
        assert ops.count("square") == lanes * w.counts["cc_mult"]
        assert ops.count("add") == lanes * w.counts["add"]
        assert ops.count("mul_plain") >= lanes * w.counts["cp_mult"]
        assert ops.count("rescale") >= lanes * w.counts["rescale"]

    def test_scheduled_ops_carry_measured_times(self, context):
        w = WorkloadGenerator.dot_product(4)
        graph, run, _ = _execute(context, w, 3, seed=6)
        ops = run.scheduled_ops()
        op_nodes = [n for n in graph.topo_order() if n.op not in ("input", "const")]
        # one scheduled op per executed lane, sweep or scalar op, and
        # together they cover every op node exactly once
        assert len(ops) == run.lanes + run.sweeps + run.scalar_ops
        assert sum(step.width for step in run.steps) == len(op_nodes)
        # the three parallel lanes pack: fewer scheduled ops than nodes
        assert len(ops) < len(op_nodes)
        assert all(op.compute_seconds > 0 for op in ops)
        assert all(op.input_bytes > 0 for op in ops)
        # keyswitch ops must be tagged for quadruple buffering
        kinds = {step.op: step.scheduled.kind for step in run.steps}
        assert kinds["rotate"] == "keyswitch"
        assert kinds["rescale"] == "ntt"
        assert kinds["mul_plain"] == "mult"

    def test_host_scheduler_consumes_execution(self, context):
        from repro.system.pcie import PcieModel, polynomial_bytes
        from repro.system.scheduler import HostScheduler

        w = WorkloadGenerator.polynomial_activation(2)
        _, run, _ = _execute(context, w, 2, seed=7)
        scheduler = HostScheduler(
            PcieModel(peak_bytes_per_sec=15.75e9),
            message_bytes=polynomial_bytes(64),
        )
        sched_report = scheduler.run_executed(run)
        assert sched_report.ops == run.step_count
        assert sched_report.total_seconds >= run.compute_seconds

    def test_cross_backend_execution_bit_identical(self):
        """The executed plan ends in the same ciphertexts on every
        backend -- the system layer inherits the backend contract."""
        from repro.ckks.backend import available_backends, use_backend
        from repro.ckks.context import CkksContext, toy_parameters
        from repro.ckks.decryptor import Decryptor

        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        w = WorkloadGenerator.logistic_inference(4, 2)

        def run(backend):
            with use_backend(backend):
                ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
                _, executed, keygen = _execute(ctx, w, 2, seed=11)
                decryptor = Decryptor(ctx, keygen.secret_key)
                return {
                    name: decryptor.decrypt(ct).poly.residues
                    for name, ct in executed.outputs.items()
                }

        assert run("numpy") == run("reference")

    def test_batch_size_must_be_positive(self, context):
        with pytest.raises(ValueError, match="at least one lane"):
            WorkloadGenerator.dot_product(4).to_plan(0, context)

    def test_rescale_on_single_level_chain_rejected_up_front(self):
        from repro.ckks.context import CkksContext, toy_parameters

        ctx = CkksContext(toy_parameters(n=64, k=1, prime_bits=30))
        with pytest.raises(ValueError, match="single-level"):
            Workload("w", {"rescale": 1, "add": 1}).to_plan(2, ctx)
