"""One walk per sampled plan: ``FragmentPool.add_rank`` against the
assembled plan.

``add_rank`` prices and pools a drawn rank by walking its path through
the candidate lists, without building the plan.  It must agree exactly
with the plan-based route it replaces: the cost of ``space.unrank(r)``
under ``CostModel.plan_cost`` (same float summation order, so ``==``),
and the ``(group, requirement)`` contexts and rows a walk over the
unranked ``PlanNode`` tree pools.  Join rows price by kind through
``CostModel.join_cost``; no join operator is built outside the plan the
optimizer finally assembles.
"""

from __future__ import annotations

import pytest

from repro.catalog.tpch import tpch_catalog
from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.rules import (
    ImplementationConfig,
    join_implementations,
    join_physical_kinds,
)
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.implicit.tables import TableSet
from repro.sampledopt import FragmentPool, SampledOptimizer, SampledPlanCoster
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
    for n in (4, 6, 8)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 6)  # same space as no-cross
]

INDEX_NL = OptimizerOptions(
    implementation=ImplementationConfig(enable_index_nl_join=True)
)


def _plan_pool(tables, root_ctx, plans) -> dict[tuple, set[int]]:
    """The pool a walk over assembled plans records: each node's local id
    under the context its parent's slot gives it."""
    pool: dict[tuple, set[int]] = {}
    for plan in plans:
        stack = [(plan, root_ctx)]
        while stack:
            node, ctx = stack.pop()
            candidates = tables.candidates(*ctx)
            row = candidates.row(candidates.index_of(node.local_id))
            pool.setdefault(ctx, set()).add(node.local_id)
            stack.extend(zip(node.children, row.slots))
    return pool


def _check_walks(catalog, space, ranks=40, seed=3) -> set[str]:
    """Assert the rank walk matches the assembled plans; return the row
    kinds it visited."""
    coster = SampledPlanCoster(catalog, space)
    model = coster.cost_model
    pool = FragmentPool(space, coster)
    drawn = space.sample_ranks(ranks, seed=seed)
    plans = []
    for rank in drawn:
        plan = space.unrank(rank)
        assert pool.add_rank(rank) == model.plan_cost(plan)
        plans.append(plan)
    tables = space.unranker.tables
    assert {
        ctx: set(rows) for ctx, rows in pool.fragments.items()
    } == _plan_pool(tables, pool.root_ctx, plans)

    # every pooled local cost is the node's operator-priced local cost
    kinds = set()
    by_row = {
        (ctx[0], local_id): entry
        for ctx, rows in pool.fragments.items()
        for local_id, entry in rows.items()
    }
    for plan in plans:
        for node in plan.iter_nodes():
            row, cost = by_row[(node.group_id, node.local_id)]
            kinds.add(row.kind)
            assert cost == model.operator_cost(
                node.op,
                node.cardinality,
                tuple(child.cardinality for child in node.children),
            )
    return kinds


@pytest.mark.parametrize("shape,n,cross", CASES)
def test_rank_walk_matches_the_unranked_plan(shape, n, cross):
    workload = SHAPES[shape](n, rows=5, seed=0)
    options = OptimizerOptions(allow_cross_products=cross)
    space = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=options
    )
    assert "join" in _check_walks(workload.catalog, space)


@pytest.mark.parametrize(
    "sql_suffix",
    [
        " ORDER BY t0.id",
        " GROUP BY t1.id ORDER BY t1.id",
    ],
)
def test_ordered_and_grouped_queries(sql_suffix):
    workload = clique_query(5, rows=5, seed=0, aggregate=False)
    select, rest = workload.sql.split(" FROM ", 1)
    if "GROUP BY" in sql_suffix:
        select = "SELECT t1.id, COUNT(*) AS n"
    sql = f"{select} FROM {rest}{sql_suffix}"
    space = ImplicitPlanSpace.from_sql(workload.catalog, sql)
    assert space.state.root_kid is not None
    kinds = _check_walks(workload.catalog, space)
    assert {"join", "sort", "unary"} <= kinds


@pytest.mark.parametrize("sql_suffix", ["", " ORDER BY revenue"])
def test_tpch_q3(sql_suffix):
    catalog = tpch_catalog(scale_factor=1.0)
    sql = tpch_query("Q3").sql + sql_suffix
    space = ImplicitPlanSpace.from_sql(catalog, sql)
    _check_walks(catalog, space)


@pytest.mark.parametrize(
    "make,n", [(chain_query, 4), (star_query, 6), (None, 3)]
)
def test_index_nl_joins(make, n):
    """Index-lookup joins put the space on the per-row builder
    (``GroupTable`` join rows) and add ``inlj`` rows, which still price
    through their operator."""
    if make is None:
        catalog = tpch_catalog(scale_factor=1.0)
        sql = tpch_query("Q3").sql
    else:
        workload = make(n, rows=5, seed=0)
        catalog, sql = workload.catalog, workload.sql
    space = ImplicitPlanSpace.from_sql(catalog, sql, options=INDEX_NL)
    assert not space.state.turbo_used
    kinds = _check_walks(catalog, space, ranks=80)
    assert {"join", "inlj"} <= kinds


@pytest.mark.parametrize("shape", ["chain", "star", "clique", "cycle"])
def test_redundant_sort_ablation(shape):
    workload = SHAPES[shape](5, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, include_redundant_sorts=False
    )
    assert "join" in _check_walks(workload.catalog, space)


def test_join_cost_matches_operator_cost_per_operator():
    """Every plain and merge join ``join_implementations`` yields prices
    the same by kind as by operator, keyed and cross alike."""
    workload = clique_query(4, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
    layout = space.state.layout
    config = space.state.config
    model = CostModel(workload.catalog)
    keyed, cross = join_physical_kinds(config)
    left, right = 0b0011, 0b0100
    checked = set()
    for predicate in (layout.graph.join_predicate_m(left, right), None):
        ji = join_implementations(
            predicate,
            layout.universe.names(left),
            layout.universe.names(right),
            config,
        )
        kinds = keyed if ji.left_keys else cross
        assert len(kinds) == len(ji.ops)
        for kind, op in zip(kinds, ji.ops):
            for output_rows, child_rows in (
                (12.5, (3.0, 40.0)),
                (1.0, (1.0, 1.0)),
                (98765.4321, (1234.5, 678.9)),
            ):
                assert model.join_cost(
                    kind, output_rows, child_rows
                ) == model.operator_cost(op, output_rows, child_rows)
            checked.add((kind, type(op).__name__))
    assert checked == {
        ("nlj", "NestedLoopJoin"),
        ("hash", "HashJoin"),
        ("merge", "MergeJoin"),
    }


def test_sampled_run_builds_join_operators_only_for_the_assembled_plan(
    monkeypatch,
):
    built = []
    original = TableSet.operator

    def recording(self, gid, row):
        built.append((gid, row.local_id, row.kind))
        return original(self, gid, row)

    monkeypatch.setattr(TableSet, "operator", recording)
    workload = clique_query(8, rows=5, seed=0)
    result = SampledOptimizer(workload.catalog).optimize_sql(
        workload.sql, seed=0
    )
    in_plan = {
        (node.group_id, node.local_id)
        for node in result.best_plan.iter_nodes()
    }
    joins = {(gid, local) for gid, local, kind in built if kind == "join"}
    assert joins  # the assembled plan's joins were built
    assert joins <= in_plan
