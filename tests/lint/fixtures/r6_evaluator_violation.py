# lint-fixture-path: src/repro/serving/fixture.py
# R6 violating fixture: a serving module building its own evaluators
# (three findings expected: a direct construction, a module-qualified
# construction, an aliased import).

from repro.ckks import batch
from repro.ckks.batch import BatchEvaluator as Stacked
from repro.ckks.evaluator import Evaluator


class SideChannelServer:
    def __init__(self, context):
        self.evaluator = Evaluator(context)
        self.batch_evaluator = batch.BatchEvaluator(context)

    def flush(self, context, batch_of_requests):
        return Stacked(context).negate(batch_of_requests)
