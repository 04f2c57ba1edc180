"""A long-lived server holds no more memos than its plan cache keeps.

Evicted and dropped plans must be freed by refcount as they go, not
pile up until a full cycle collection.  The collector is off for the
whole run, so any memo left on a reference cycle shows up in the count.
"""

from __future__ import annotations

import gc
import random
import threading
import weakref

import pytest

from repro.api import Session
from repro.memo.memo import Memo
from repro.serving import PlanCache, PlanServer

TEMPLATES = (
    "SELECT c.c_name FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice < {lit}",
    "SELECT o.o_orderdate FROM orders o, lineitem l "
    "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity < {lit}",
    "SELECT n.n_name FROM customer c, nation n, region r "
    "WHERE c.c_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
    "AND c.c_acctbal < {lit}",
)
LITERALS = 40
MAX_PLANS = 16
WORKERS = 2
REQUESTS_PER_CLIENT = 500
SAMPLE_EVERY = 20


def zipf_statements(seed: int, count: int) -> list[str]:
    """``count`` statements over templates x literals, Zipf(1.1) ranked."""
    keys = [(t, lit) for lit in range(LITERALS) for t in range(len(TEMPLATES))]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
    rng = random.Random(seed)
    return [
        TEMPLATES[t].format(lit=100 + 7 * lit)
        for t, lit in rng.choices(keys, weights=weights, k=count)
    ]


@pytest.fixture(scope="module")
def database():
    return Session.tpch(seed=0).database


@pytest.fixture
def live_memos(monkeypatch):
    """Count the live ``Memo`` objects through weak references taken at
    construction.  (``gc.get_objects()`` cannot be used while other
    threads run: it exposes tuples they are still building.)"""
    refs: list[weakref.ref] = []
    init = Memo.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Memo, "__init__", tracked_init)
    return lambda: sum(1 for ref in refs if ref() is not None)


def test_server_holds_no_memo_backlog(database, live_memos):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cache = PlanCache(max_plans=MAX_PLANS)
        with PlanServer(database, workers=WORKERS, cache=cache) as server:
            samples: list[int] = []
            errors: list[BaseException] = []

            def client(seed: int) -> None:
                try:
                    for i, sql in enumerate(
                        zipf_statements(seed, REQUESTS_PER_CLIENT)
                    ):
                        result = server.optimize(sql)
                        del result
                        if i % SAMPLE_EVERY == 0:
                            samples.append(live_memos())
                except BaseException as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            clients = [
                threading.Thread(target=client, args=(seed,)) for seed in (1, 2)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            assert not errors, errors
            stats = cache.stats()
            samples.append(live_memos())
    finally:
        if was_enabled:
            gc.enable()
    assert stats["plan.evictions"] > 100  # the plan tier really churned
    assert len(samples) >= 2 * REQUESTS_PER_CLIENT // SAMPLE_EVERY
    assert max(samples) <= MAX_PLANS + WORKERS, samples
