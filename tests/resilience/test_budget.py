"""Unit tests for budgets, cancellation tokens, and scopes."""

from __future__ import annotations

import os
import resource
import time

import pytest

from repro.errors import (
    BudgetError,
    Cancelled,
    ResourceExhausted,
    TimeoutExceeded,
)
from repro.resilience import (
    Budget,
    BudgetScope,
    CancellationToken,
    validate_budget_s,
    validate_samples,
)


# ---------------------------------------------------------------- validators
def test_validate_budget_s_accepts_positive_and_none():
    assert validate_budget_s(None) is None
    assert validate_budget_s(1.5) == 1.5
    assert validate_budget_s(2) == 2.0
    assert isinstance(validate_budget_s(2), float)


@pytest.mark.parametrize(
    "bad", [0.0, -1.0, float("nan"), float("inf"), "1.0", True, [1.0]]
)
def test_validate_budget_s_rejects(bad):
    with pytest.raises(BudgetError):
        validate_budget_s(bad)


def test_validate_budget_s_names_the_argument():
    with pytest.raises(BudgetError, match="deadline_s"):
        validate_budget_s(-1.0, "deadline_s")


def test_validate_samples_accepts_positive_int_and_none():
    assert validate_samples(None) is None
    assert validate_samples(7) == 7


@pytest.mark.parametrize("bad", [0, -3, 1.5, True, "8"])
def test_validate_samples_rejects(bad):
    with pytest.raises(BudgetError):
        validate_samples(bad)


# -------------------------------------------------------------------- Budget
def test_budget_constructor_validates():
    with pytest.raises(BudgetError):
        Budget(deadline_s=0.0)
    with pytest.raises(BudgetError):
        Budget(max_expressions=0)
    with pytest.raises(BudgetError):
        Budget(max_memory_mb=-5.0)


def test_budget_start_is_idempotent():
    budget = Budget(deadline_s=10.0).start()
    first_remaining = budget.remaining_s()
    budget.start()  # must not re-pin the epoch
    assert budget.remaining_s() <= first_remaining
    assert budget.started


def test_budget_unbounded_never_expires():
    budget = Budget().start()
    assert budget.remaining_s() is None
    assert not budget.expired()
    budget.check("anywhere", units=10_000)  # no ceilings: no-op


def test_budget_deadline_expires():
    budget = Budget(deadline_s=0.005).start()
    time.sleep(0.01)
    assert budget.expired()
    assert budget.remaining_s() == 0.0
    with pytest.raises(TimeoutExceeded) as info:
        budget.check("explore.batch")
    assert "explore.batch" in str(info.value)
    assert info.value.deadline_s == 0.005


def test_budget_expression_ceiling():
    budget = Budget(max_expressions=10).start()
    budget.check(units=10)  # exactly at the ceiling: fine
    with pytest.raises(ResourceExhausted) as info:
        budget.check("implement.columnar", units=1)
    assert info.value.resource == "expressions"
    budget.reset_expressions()
    budget.check(units=10)  # fresh counter after reset


def test_budget_memory_ceiling():
    # The RSS of any live python process dwarfs a 0.001 MiB ceiling.
    budget = Budget(max_memory_mb=0.001).start()
    with pytest.raises(ResourceExhausted) as info:
        budget.check("bestplan.layer")
    assert info.value.resource == "memory"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)
def test_memory_ceiling_reads_current_rss_not_the_peak():
    # Big then small in one process: a large allocation (standing in for
    # a big optimization) lifts the peak RSS and is freed again.  A
    # ceiling between the current RSS and that peak must let the next
    # small request through on the exact tier.
    from repro.api import Session
    from repro.workloads.synthetic import star_query

    workload = star_query(4)
    session = Session(workload.database)
    session.optimize(workload.sql)  # warm imports and caches first
    big = b"\x01" * (96 << 20)
    del big
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    current = pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert peak - current > 48, (current, peak)
    ceiling = (current + peak) / 2
    result = session.optimize(
        workload.sql, max_memory_mb=ceiling, on_budget="raise"
    )
    assert result.resilience.tier == "exact"


def test_budget_elapsed_monotone():
    budget = Budget()
    assert budget.elapsed_s() == 0.0  # not started yet
    budget.start()
    a = budget.elapsed_s()
    b = budget.elapsed_s()
    assert 0.0 <= a <= b


# ------------------------------------------------------------------- Token
def test_cancellation_token_is_one_shot():
    token = CancellationToken()
    assert not token.cancelled
    token.raise_if_cancelled()  # not yet set: no-op
    token.cancel()
    assert token.cancelled
    token.cancel()  # idempotent
    with pytest.raises(Cancelled):
        token.raise_if_cancelled()


# ------------------------------------------------------------------- Scope
def test_scope_checkpoint_noop_without_bounds():
    scope = BudgetScope()
    scope.checkpoint("anywhere", units=1_000_000)
    assert scope.remaining_s() is None


def test_scope_starts_its_budget():
    budget = Budget(deadline_s=5.0)
    assert not budget.started
    scope = BudgetScope(budget)
    assert budget.started
    assert scope.remaining_s() <= 5.0


def test_scope_cancellation_wins_over_deadline():
    token = CancellationToken()
    token.cancel()
    budget = Budget(deadline_s=0.001)
    scope = BudgetScope(budget, token)
    time.sleep(0.005)  # deadline also expired
    with pytest.raises(Cancelled) as info:
        scope.checkpoint("explore.batch")
    assert "explore.batch" in str(info.value)


def test_scope_delegates_units_to_budget():
    budget = Budget(max_expressions=3)
    scope = BudgetScope(budget)
    scope.checkpoint("a", units=2)
    with pytest.raises(ResourceExhausted):
        scope.checkpoint("b", units=2)


def test_budget_errors_are_one_taxonomy():
    # Scripts catch BudgetError and get both flavours; Cancelled is its
    # own class (a user decision, not an exhausted budget).
    assert issubclass(TimeoutExceeded, BudgetError)
    assert issubclass(ResourceExhausted, BudgetError)
    assert not issubclass(Cancelled, BudgetError)
