"""Optimization results are acyclic: refcounting alone frees them.

Each test runs with the cycle collector off, drops a result and checks
that its memo is gone at once and that a full collection afterwards
finds no ``repro`` object — nothing the program allocated was waiting
for the collector.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.api import Session
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.serving import PlanCache

SQL = (
    "SELECT c.c_name, o.o_orderdate FROM customer c, orders o, lineitem l "
    "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey "
    "AND o.o_totalprice < {lit}"
)


@pytest.fixture(scope="module")
def database():
    return Session.tpch(seed=0).database


@contextmanager
def collector_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def repro_garbage() -> list[str]:
    """Type names of the ``repro`` objects a full collection finds."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def assert_freed_on_drop(make):
    """``make()`` returns a result; dropping it must free its memo by
    refcount and leave no cyclic ``repro`` garbage."""
    make()  # warm lazy imports and module-level caches
    with collector_off():
        result = make()
        memo = weakref.ref(result.memo)
        del result
        assert memo() is None
        assert repro_garbage() == []


class TestExactResultsFreeOnDrop:
    def test_default_columnar_path(self, database):
        session = Session(database)
        assert_freed_on_drop(lambda: session.optimize(SQL.format(lit=1000)))

    def test_object_path(self, database):
        session = Session(database, options=OptimizerOptions(columnar=False))
        result = session.optimize(SQL.format(lit=1000))
        assert result.engine == "object"
        del result
        assert_freed_on_drop(lambda: session.optimize(SQL.format(lit=1000)))

    def test_pruned(self, database):
        session = Session(database)
        assert_freed_on_drop(
            lambda: session.optimize(SQL.format(lit=1000), prune_factor=1.5)
        )

    def test_feedback_with_ledger(self, database):
        session = Session(database)
        session.execute(SQL.format(lit=1000), feedback=True)
        assert len(session.ledger)

        def make():
            result = session.optimize(SQL.format(lit=1000), feedback=session.ledger)
            assert result.feedback is not None  # the baseline ran too
            return result

        assert_freed_on_drop(make)

    def test_template_tier_replay(self, database):
        cache = PlanCache()
        session = Session(database, plan_cache=cache)
        session.optimize(SQL.format(lit=1000))

        def make():
            cache.clear()
            session.optimize(SQL.format(lit=1000))  # refill the template tier
            result = session.optimize(SQL.format(lit=2000))
            assert result.cache.tier == "template"
            cache.clear()  # the plan tier holds the memo too
            return result

        assert_freed_on_drop(make)


def test_sampled_optimization_leaves_no_cyclic_garbage(database):
    session = Session(database)

    def run():
        session.optimize(
            SQL.format(lit=1000), method="sampled", samples=20, seed=0
        )

    run()  # warm lazy imports
    with collector_off():
        run()
        assert repro_garbage() == []


def test_plan_cache_eviction_frees_the_memo(database):
    cache = PlanCache(max_plans=1)
    session = Session(database, plan_cache=cache)
    session.optimize(SQL.format(lit=500))
    with collector_off():
        memo = weakref.ref(session.optimize(SQL.format(lit=1000)).memo)
        assert memo() is not None  # the plan tier keeps it
        session.optimize(SQL.format(lit=2000))  # evicts lit=1000
        assert cache.stats()["plan.evictions"] >= 1
        assert memo() is None
        assert repro_garbage() == []


def test_implicit_space_outlives_its_builder(database):
    sql = SQL.format(lit=1000)
    session = Session(database)
    expected = session.plan_space(sql)
    ranks = [0, 1, expected.count() // 2, expected.count() - 1]
    with collector_off():
        space = ImplicitPlanSpace.from_sql(database.catalog, sql)
        # The builder's scratch memo is only reachable through the space;
        # collecting everything else must leave the space fully usable.
        assert repro_garbage() == []
        assert space.count() == expected.count()
        for rank in ranks:
            assert space.unrank(rank).fingerprint() == (
                expected.unrank(rank).fingerprint()
            )
        memo = weakref.ref(space.state.layout.memo)
        del space
        assert memo() is None
        assert repro_garbage() == []
