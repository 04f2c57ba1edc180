"""The workloads' correctness gates count failures into error_rate."""

from types import SimpleNamespace

import exact_mix
import pins
import sample_space
from harness import Tally
from repro.workloads.synthetic import star_query


class _DropOneRow:
    """An executor that loses the last row of its ``nth`` execution."""

    def __init__(self, executor, nth):
        self.executor = executor
        self.nth = nth
        self.calls = 0

    def execute(self, plan):
        result = self.executor.execute(plan)
        self.calls += 1
        if self.calls == self.nth:
            result.rows = result.rows[:-1]
        return result


def test_one_row_mismatch_and_one_cost_drift(monkeypatch):
    workload = star_query(4, rows=20, seed=0, aggregate=False)
    monkeypatch.setattr(sample_space, "FIXED", (("star4", star_query, 4),))
    monkeypatch.setattr(sample_space, "RANDOM_SLOTS", ())
    monkeypatch.setattr(sample_space, "SAMPLED", ())
    monkeypatch.setattr(sample_space, "PLANS_PER_QUERY", 5)
    state = sample_space.setup(0)
    query = state.queries[0]
    assert query.reference, "the injected fault needs rows to drop"
    monkeypatch.setitem(
        pins.PLAN_COUNTS, "star4", sample_space.build_space(query).count()
    )
    query.executor = _DropOneRow(query.executor, nth=3)

    tally = Tally()
    stats = sample_space._pass(state, 0, tally, sample_space.SpanRecorder(False))
    # one plan-count check plus five plan checks, one of them short a row
    assert (tally.attempted, tally.failed, stats.mismatches) == (6, 1, 1)
    assert "rows" in tally.reasons[0]

    statement = exact_mix.Statement("star12", workload.catalog, "", "star12")
    optimum = pins.EXACT_COSTS["star12"]
    tally.record(*exact_mix.check(statement, SimpleNamespace(best_cost=optimum)))
    tally.record(
        *exact_mix.check(statement, SimpleNamespace(best_cost=optimum * 1.001))
    )
    assert (tally.attempted, tally.failed) == (8, 2)
    assert tally.error_rate == 2 / 8
    assert "pinned" in tally.reasons[1]
