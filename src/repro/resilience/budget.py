"""Unified optimization budgets and cooperative cancellation.

A :class:`Budget` bounds one optimization attempt along three axes — a
monotonic wall-clock deadline, a memo-expression ceiling, and a process
resident-memory ceiling — and a :class:`CancellationToken` lets another
thread abort it.  Both are consulted through a :class:`BudgetScope`,
whose :meth:`~BudgetScope.checkpoint` is threaded through every hot loop
of the optimizer (exploration subsets, implementation group blocks,
best-plan layers, implicit-count phases, sampled batches).  Checkpoints
are *cooperative*: nothing is interrupted between them, so cancellation
and deadline latency are bounded by the work done between two
checkpoints — batch granularity, never a whole phase.

The contract every checkpointed loop honours:

* a checkpoint either returns or raises one of the budget errors
  (:class:`~repro.errors.Cancelled`,
  :class:`~repro.errors.TimeoutExceeded`,
  :class:`~repro.errors.ResourceExhausted`);
* when it raises, the structure under construction is abandoned — the
  caller must leave shared state (the memo) either untouched, complete,
  or visibly detached (see ``Optimizer._optimize``'s stale-store guard);
* checkpoints are cheap enough to call per batch: one monotonic clock
  read plus two integer compares on the common path.

Budget argument validation is shared (:func:`validate_budget_s`,
:func:`validate_samples`) so the exact and sampled paths reject bad
budgets identically, with the same :class:`~repro.errors.BudgetError`
taxonomy, before any optimization work is spent.
"""

from __future__ import annotations

import math
import os
import threading
import time

from repro.errors import (
    BudgetError,
    Cancelled,
    ResourceExhausted,
    TimeoutExceeded,
)

__all__ = [
    "Budget",
    "BudgetScope",
    "CancellationToken",
    "validate_budget_s",
    "validate_samples",
]


def validate_budget_s(value: float | None, name: str = "budget_s") -> float | None:
    """Validate a wall-clock budget argument (shared by exact and
    sampled paths): ``None`` means unbounded; otherwise it must be a
    positive finite number of seconds."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BudgetError(
            f"{name} must be a number of seconds, got {value!r}"
        )
    if not math.isfinite(value) or value <= 0:
        raise BudgetError(
            f"{name} must be positive and finite, got {value!r}"
        )
    return float(value)


def validate_samples(value: int | None, name: str = "samples") -> int | None:
    """Validate a sample-count budget: ``None`` means rule-driven;
    otherwise a positive integer."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BudgetError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise BudgetError(f"{name} must be positive, got {value}")
    return value


def _positive_int(value: int | None, name: str) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BudgetError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise BudgetError(f"{name} must be positive, got {value}")
    return value


def _rss_mb() -> float | None:
    """Current process RSS in MiB, or ``None`` where unavailable.

    Reads ``/proc/self/statm``.  Without ``/proc`` it falls back to the
    peak RSS (``ru_maxrss``), which never falls: there one big request
    holds every later one to its high-water mark.
    """
    try:
        with open("/proc/self/statm", "rb") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CancellationToken:
    """A thread-safe cancellation flag.

    The owner calls :meth:`cancel` (from any thread); the optimization
    observes it at the next checkpoint and raises
    :class:`~repro.errors.Cancelled`.  Tokens are one-shot: once
    cancelled they stay cancelled.
    """

    def __init__(self):
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise Cancelled("operation cancelled by caller")


class Budget:
    """Resource bounds for one optimization attempt.

    ``deadline_s`` is a wall-clock budget measured on the monotonic
    clock from :meth:`start` (so system clock adjustments cannot expire
    or extend it).  ``max_expressions`` bounds the number of memo
    expressions (logical + physical, counted as hot loops report units).
    ``max_memory_mb`` bounds the process's current RSS in MiB — a coarse
    but dependable guard against a memo blowing up the heap.
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        max_expressions: int | None = None,
        max_memory_mb: float | None = None,
    ):
        self.deadline_s = validate_budget_s(deadline_s, "deadline_s")
        self.max_expressions = _positive_int(max_expressions, "max_expressions")
        if max_memory_mb is not None:
            validate_budget_s(max_memory_mb, "max_memory_mb")  # positive finite
        self.max_memory_mb = max_memory_mb
        self._started_at: float | None = None
        self._deadline_at: float | None = None
        self.expressions = 0

    # ------------------------------------------------------------------
    def start(self) -> "Budget":
        """Begin the clock (idempotent: the first call pins the epoch)."""
        if self._started_at is None:
            self._started_at = time.monotonic()
            if self.deadline_s is not None:
                self._deadline_at = self._started_at + self.deadline_s
        return self

    @property
    def started(self) -> bool:
        return self._started_at is not None

    def elapsed_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def remaining_s(self) -> float | None:
        """Seconds left on the deadline (``None`` when unbounded); never
        negative."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - time.monotonic())

    def expired(self) -> bool:
        return (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        )

    def reset_expressions(self) -> None:
        """Reset the expression counter (the degradation ladder applies
        the ceiling per tier attempt; the deadline stays global)."""
        self.expressions = 0

    # ------------------------------------------------------------------
    def check(self, site: str = "", units: int = 0) -> None:
        """Raise if any bound is exhausted; account ``units`` expressions."""
        if units:
            self.expressions += units
        deadline_at = self._deadline_at
        if deadline_at is not None and time.monotonic() >= deadline_at:
            raise TimeoutExceeded(
                f"optimization deadline of {self.deadline_s:g}s expired"
                + (f" (at {site})" if site else ""),
                deadline_s=self.deadline_s,
            )
        if (
            self.max_expressions is not None
            and self.expressions > self.max_expressions
        ):
            raise ResourceExhausted(
                f"memo expression ceiling of {self.max_expressions} exceeded "
                f"({self.expressions} seen"
                + (f", at {site})" if site else ")"),
                resource="expressions",
            )
        if self.max_memory_mb is not None:
            rss = _rss_mb()
            if rss is not None and rss > self.max_memory_mb:
                raise ResourceExhausted(
                    f"memory ceiling of {self.max_memory_mb:g} MiB exceeded "
                    f"(RSS {rss:.0f} MiB"
                    + (f", at {site})" if site else ")"),
                    resource="memory",
                )


class BudgetScope:
    """What the hot loops actually carry: budget + token + observer.

    ``checkpoint(site, units)`` feeds the observer first (an enabled
    :class:`~repro.obs.metrics.Metrics` registry turns every poll into
    ``<site>.polls``/``<site>.units`` counters — observation rides the
    checkpoints the loops already carry), then raises
    :class:`~repro.errors.Cancelled` (cancellation wins over an expired
    deadline), then delegates to the budget's bound checks.  A scope
    with neither budget, token nor observer is never constructed by
    ``Session`` — callers pass ``None`` and the loops skip the call
    entirely, so the unobserved, unbudgeted path stays byte-identical
    to the historical one.
    """

    __slots__ = ("budget", "token", "observer")

    def __init__(
        self,
        budget: Budget | None = None,
        token: CancellationToken | None = None,
        observer=None,
    ):
        self.budget = budget
        self.token = token
        #: anything with ``record_checkpoint(site, units)``; fed before
        #: the bound checks so cancelled/expired runs are still counted
        self.observer = observer
        if budget is not None:
            budget.start()

    def checkpoint(self, site: str = "", units: int = 0) -> None:
        observer = self.observer
        if observer is not None:
            observer.record_checkpoint(site, units)
        token = self.token
        if token is not None and token.cancelled:
            raise Cancelled(
                "operation cancelled by caller"
                + (f" (at {site})" if site else "")
            )
        if self.budget is not None:
            self.budget.check(site, units)

    def remaining_s(self) -> float | None:
        if self.budget is None:
            return None
        return self.budget.remaining_s()
