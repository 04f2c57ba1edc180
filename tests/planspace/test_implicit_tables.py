"""Columnar unranking tables against the per-row builder.

A space counted by the turbo pass reads its join groups' alternatives
from the pass's per-split columns (:class:`JoinTable`); a space counted
by the reference pass builds every row in Python (:class:`GroupTable`).
Both must describe the same rows — every :class:`Row` field — and the
same candidate prefix sums for every requirement a slot can carry.  Kid
ids differ between the two passes (turbo numbers kids by lexicographic
rank, the reference pass by interning order), so kids are compared by
their packed bytes.

The tables build a ``Row`` only when one is asked for: unranking ``k``
ranks builds no more rows than the distinct operators the walks visit.
"""

from __future__ import annotations

import random

import pytest

from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.implicit import tables as tables_module
from repro.planspace.implicit.tables import NONENF, GroupTable, JoinTable
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)
from repro.workloads.tpch_queries import tpch_query

SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "clique": clique_query,
    "cycle": cycle_query,
}

CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (3, 5, 8)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 5)  # same space as no-cross
]


def _spaces(catalog, sql, cross=False):
    options = OptimizerOptions(allow_cross_products=cross)
    turbo = ImplicitPlanSpace.from_sql(catalog, sql, options=options)
    reference = ImplicitPlanSpace.from_sql(
        catalog, sql, options=options, use_turbo=False
    )
    assert turbo.state.turbo_used and not reference.state.turbo_used
    return turbo, reference


def _requirement_bytes(state, requirement):
    kid_bytes = state.keys.kid_bytes
    if requirement is None:
        return None
    if isinstance(requirement, tuple):
        return (requirement[0], kid_bytes[requirement[1]])
    return kid_bytes[requirement]


def _normalized(state, row):
    """A row with every kid replaced by its packed bytes."""
    payload = row.payload
    if row.kind == "sort":
        payload = (state.keys.kid_bytes[payload[0]],)
    slots = tuple(
        (gid, _requirement_bytes(state, requirement))
        for gid, requirement in row.slots
    )
    return (
        row.local_id,
        row.kind,
        payload,
        row.count,
        row.delivered,
        slots,
        row.prefix,
    )


def _reference_requirement(state, requirement_bytes):
    keys = state.keys
    if requirement_bytes is None:
        return None
    if isinstance(requirement_bytes, tuple):
        return (requirement_bytes[0], keys.kid(requirement_bytes[1]))
    return keys.kid(requirement_bytes)


def _assert_tables_match(turbo, reference):
    t_state, r_state = turbo.state, reference.state
    t_tables = turbo.unranker.tables
    r_tables = reference.unranker.tables
    assert t_state.total == r_state.total
    requirements = set()
    joins = 0
    for group in t_state.layout.groups:
        t_table = t_tables.table(group.gid)
        r_table = r_tables.table(group.gid)
        assert isinstance(r_table, GroupTable)
        if group.kind == "join":
            assert isinstance(t_table, JoinTable)
            joins += 1
        t_rows = [_normalized(t_state, row) for row in t_table.rows]
        r_rows = [_normalized(r_state, row) for row in r_table.rows]
        assert t_rows == r_rows, group.gid
        for row in t_table.rows:
            for gid, requirement in row.slots:
                requirements.add((gid, _requirement_bytes(t_state, requirement)))
    assert joins
    requirements.add(
        (t_state.layout.root_gid, _requirement_bytes(t_state, t_state.root_kid))
    )
    kinds = set()
    for gid, requirement_bytes in sorted(requirements, key=repr):
        kinds.add(type(requirement_bytes).__name__)
        t_requirement = _reference_requirement(t_state, requirement_bytes)
        r_requirement = _reference_requirement(r_state, requirement_bytes)
        t_list = t_tables.candidates(gid, t_requirement)
        r_list = r_tables.candidates(gid, r_requirement)
        assert t_list.cumulative == r_list.cumulative, (gid, requirement_bytes)
        assert [t_list.local_id(i) for i in range(len(t_list))] == [
            r_list.local_id(i) for i in range(len(r_list))
        ], (gid, requirement_bytes)
    return kinds


@pytest.mark.parametrize("shape,n,cross", CASES)
def test_columnar_tables_match_the_per_row_builder(shape, n, cross):
    workload = SHAPES[shape](n, rows=5, seed=0)
    kinds = _assert_tables_match(*_spaces(workload.catalog, workload.sql, cross))
    if n > 3 or shape == "clique":
        # None, kid and (NONENF, kid) requirements were all compared
        assert kinds == {"NoneType", "bytes", "tuple"}


@pytest.mark.parametrize(
    "sql_suffix",
    [
        " ORDER BY t0.id",
        " GROUP BY t1.id ORDER BY t1.id",
    ],
)
def test_ordered_and_grouped_queries_match(sql_suffix):
    workload = clique_query(5, rows=5, seed=0, aggregate=False)
    select, rest = workload.sql.split(" FROM ", 1)
    if "GROUP BY" in sql_suffix:
        select = "SELECT t1.id, COUNT(*) AS n"
    sql = f"{select} FROM {rest}{sql_suffix}"
    turbo, reference = _spaces(workload.catalog, sql)
    assert turbo.state.root_kid is not None
    _assert_tables_match(turbo, reference)


def test_tpch_order_by_matches(catalog):
    sql = tpch_query("Q3").sql + " ORDER BY revenue"
    _assert_tables_match(*_spaces(catalog, sql))


def test_candidate_lists_pick_and_locate_rows():
    workload = clique_query(5, rows=5, seed=0)
    turbo, _reference = _spaces(workload.catalog, workload.sql)
    tables = turbo.unranker.tables
    join = next(g for g in turbo.state.layout.groups if g.kind == "join")
    candidates = tables.candidates(join.gid, None)
    for index in range(len(candidates)):
        lo, hi = candidates.cumulative[index], candidates.cumulative[index + 1]
        if lo == hi:
            continue
        row, local = candidates.pick(hi - 1)
        assert row.local_id == candidates.local_id(index)
        assert local == hi - 1 - lo
        assert candidates.index_of(row.local_id) == index
    sorts = [
        row for row in tables.table(join.gid).rows if row.kind == "sort"
    ]
    assert sorts
    enforced = tables.candidates(join.gid, (NONENF, sorts[0].payload[0]))
    assert enforced.index_of(sorts[0].local_id) is None
    assert enforced.cumulative == candidates.cumulative[: len(enforced) + 1]


@pytest.mark.parametrize(
    "make,n", [(clique_query, 8), (star_query, 8), (chain_query, 8)]
)
def test_unranking_builds_only_the_rows_it_visits(monkeypatch, make, n):
    built = []

    class CountingRow(tables_module.Row):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.local_id, self.kind))

    monkeypatch.setattr(tables_module, "Row", CountingRow)
    workload = make(n, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
    rng = random.Random(13)
    visited = set()
    for _ in range(40):
        plan = space.unrank(rng.randrange(space.count()))
        visited.update(
            (node.group_id, node.local_id) for node in plan.iter_nodes()
        )
    assert built
    assert len(built) <= len(visited)
