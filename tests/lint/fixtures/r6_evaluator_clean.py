# lint-fixture-path: src/repro/serving/fixture.py
# R6 clean fixture: a serving module executing through the planner.
# Naming the evaluator classes (imports, annotations, docs) is legal,
# and so is calling a static helper of another evaluator class.

from repro.ckks.evaluator import Evaluator
from repro.ckks.linear import LinearEvaluator
from repro.plan import PlanExecutor, PlanGraph


def serve(context, ct, keys) -> "Evaluator":
    graph = PlanGraph()
    graph.output(graph.square(graph.input("x")), "y")
    run = PlanExecutor(context, relin_key=keys).run(graph, {"x": ct})
    return run.outputs["y"]


def rotation_budget(dim):
    return LinearEvaluator.op_counts("matvec_diagonal", dim)["rotations"]
