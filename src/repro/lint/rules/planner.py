"""R6 -- workload/serving modules execute through the planner only.

PR 10 added the workload planner: rotation sweeps declared in a
:class:`~repro.plan.PlanGraph` are fused through **one** hoisted
key-switch decomposition (``fuse_rotation_sweeps``), and the hoisting
benchmark holds a >= 2x gate over the rotate-per-step baseline.  Since
then every served flush and every workload has been lowered to a plan
and run by :class:`~repro.plan.PlanExecutor` -- the one execution path.
The rule guards both halves of that:

* **no per-step rotation loops** -- a ``.rotate(...)`` /
  ``.rotate_unhoisted(...)`` call lexically inside a ``for``/``while``
  body pays a full decomposition per iteration the planner would have
  paid once.  Loops that *build plan nodes* rather than execute
  rotations (the graph is the fix, not the bug) opt out per line with
  ``# lint: disable=R6 -- <why>``, which keeps the justification at the
  call site.  A nested ``def`` resets the loop context: defining a
  rotation helper inside a loop does not execute one per iteration.
* **no evaluator of their own** -- constructing an ``Evaluator(...)``
  or ``BatchEvaluator(...)`` (under any import alias) opens a second
  execution path beside the plan executor: its own op dispatch, its own
  batching and hoisting decisions.  Execute through ``repro.plan``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.core import (
    Finding,
    Rule,
    SourceModule,
    SymbolTrackingVisitor,
    module_matches,
)

#: Dotted-module prefixes where per-step rotation loops are banned.
PLANNED_MODULES = (
    "repro.system",
    "repro.serving",
)

#: Method spellings that execute one key-switch per call.
ROTATE_METHODS = ("rotate", "rotate_unhoisted")

#: Evaluator classes only :mod:`repro.plan` may construct.
EVALUATOR_CLASSES = ("Evaluator", "BatchEvaluator")


class _PlannerVisitor(SymbolTrackingVisitor):
    def __init__(self, rule: "PlannerDisciplineRule", module: SourceModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        self.loop_depth = 0
        #: local name -> evaluator class it was imported as
        self.evaluator_names = {name: name for name in EVALUATOR_CLASSES}

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in EVALUATOR_CLASSES and alias.asname:
                self.evaluator_names[alias.asname] = alias.name
        self.generic_visit(node)

    def _visit_scope(self, node: ast.AST) -> None:
        # a def inside a loop defines, it does not execute per iteration
        saved, self.loop_depth = self.loop_depth, 0
        super()._visit_scope(node)
        self.loop_depth = saved

    def _visit_loop(self, node: ast.AST) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        called = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if called in self.evaluator_names:
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    self.symbol,
                    f"{self.evaluator_names[called]}(...) constructed in a "
                    "workload/serving module opens a second execution path; "
                    "lower the work to a PlanGraph and run it through "
                    "repro.plan.PlanExecutor",
                )
            )
        if (
            self.loop_depth > 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ROTATE_METHODS
        ):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    self.symbol,
                    f".{node.func.attr}() inside a loop pays one key-switch "
                    "decomposition per iteration; declare the sweep in a "
                    "PlanGraph so fuse_rotation_sweeps hoists the "
                    "decomposition once (PR 10 planner invariant), or mark "
                    "a plan-building loop with "
                    "'# lint: disable=R6 -- <why>'",
                )
            )
        self.generic_visit(node)


class PlannerDisciplineRule(Rule):
    """No per-step ``.rotate()`` loops and no evaluator construction in
    workload/serving modules."""

    id = "R6"
    title = "planner-only execution in workload/serving modules"
    invariant_origin = "PR 10 (op-graph planner: rotation-sweep fusion)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not module_matches(module.module, PLANNED_MODULES):
            return ()
        visitor = _PlannerVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
