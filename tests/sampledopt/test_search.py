"""The sampled optimizer: recombination, stopping, determinism."""

import pytest

from repro.executor.executor import PlanExecutor
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.sampledopt import (
    FixedSamples,
    FragmentPool,
    QuantileTarget,
    SampledOptimizer,
    SampledPlanCoster,
)
from repro.testing import canonical_result
from repro.workloads.synthetic import chain_query, clique_query, star_query


@pytest.fixture(scope="module")
def chain3():
    return chain_query(3, rows=5, seed=0)


@pytest.fixture(scope="module")
def chain3_optimum(chain3):
    return Optimizer(chain3.catalog, OptimizerOptions()).optimize_sql(chain3.sql)


class TestRecombinationExactness:
    def test_full_coverage_recovers_the_true_optimum(
        self, chain3, chain3_optimum
    ):
        """Sampling enough to cover the space, the recombination DP must
        find exactly the materialized optimizer's best cost: the DP over
        all fragments *is* the memo's best-plan search."""
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=4000, batch_size=1000
        )
        assert result.best_cost == pytest.approx(
            chain3_optimum.best_cost, rel=1e-12
        )

    def test_recombined_never_worse_than_best_sampled(self, chain3):
        for seed in range(3):
            result = SampledOptimizer(chain3.catalog).optimize_sql(
                chain3.sql, samples=40, seed=seed
            )
            assert result.best_cost <= result.best_sampled_cost + 1e-9

    def test_never_better_than_true_optimum(self, chain3, chain3_optimum):
        for seed in range(3):
            result = SampledOptimizer(chain3.catalog).optimize_sql(
                chain3.sql, samples=40, seed=seed
            )
            assert result.best_cost >= chain3_optimum.best_cost - 1e-9

    def test_plan_cost_matches_reported_cost(self, chain3):
        """The DP's cost and the assembled plan's CostModel price agree."""
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=60, seed=1
        )
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        coster = SampledPlanCoster(chain3.catalog, space)
        assert coster.cost(result.best_plan) == pytest.approx(
            result.best_cost, rel=1e-12
        )

    def test_best_plan_belongs_to_the_space(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=60, seed=2
        )
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        rank = space.rank(result.best_plan)
        assert space.unrank(rank).fingerprint() == result.best_plan.fingerprint()

    def test_sampled_plan_executes_like_the_optimum(
        self, chain3, chain3_optimum
    ):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=30, seed=0
        )
        executor = PlanExecutor(chain3.database)
        sampled = executor.execute(result.best_plan)
        exhaustive = executor.execute(chain3_optimum.best_plan)
        assert canonical_result(
            sampled.columns, sampled.rows
        ) == canonical_result(exhaustive.columns, exhaustive.rows)


class TestFragmentPool:
    def test_pool_grows_monotonically_and_solve_improves(self, chain3):
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        coster = SampledPlanCoster(chain3.catalog, space)
        pool = FragmentPool(space, coster)
        previous = float("inf")
        for rank in space.sample_ranks(40, seed=5):
            assert pool.add_rank(rank) == coster.cost(space.unrank(rank))
            cost, choice = pool.solve()
            assert cost <= previous + 1e-9  # monotone in the pool
            previous = cost
        assembled = pool.assemble(choice)
        assert coster.cost(assembled) == pytest.approx(cost, rel=1e-12)

    def test_single_plan_pool_reproduces_that_plan(self, chain3):
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        coster = SampledPlanCoster(chain3.catalog, space)
        pool = FragmentPool(space, coster)
        plan = space.unrank(123)
        assert pool.add_rank(123) == coster.cost(plan)
        cost, choice = pool.solve()
        # the DP sums per context, not in plan_cost's node order
        assert cost == pytest.approx(coster.cost(plan), rel=1e-12)
        assert pool.assemble(choice).fingerprint() == plan.fingerprint()


class TestDriverLoop:
    def test_seed_determinism(self, chain3):
        a = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, seed=9
        )
        b = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, seed=9
        )
        assert a.best_cost == b.best_cost
        assert a.best_plan.render() == b.best_plan.render()
        assert [p.best_cost for p in a.history] == [
            p.best_cost for p in b.history
        ]

    def test_fixed_rule_draws_exactly_k(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=70, batch_size=32
        )
        assert result.samples == 70  # 32 + 32 + 6
        assert result.batches == 3
        assert result.stopped_because == "rule"

    def test_quantile_rule_sets_the_budget(self, chain3):
        rule = QuantileTarget(quantile=0.05, confidence=0.9)
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, rule=rule, batch_size=16
        )
        assert result.samples >= rule.required_samples
        assert result.stopped_because == "rule"
        # the rule forces the i.i.d. uniform stream, so the certificate
        # exists, at the rule's own confidence
        assert not result.stratified
        assert result.confidence == 0.9
        assert result.quantile_certificate() <= 0.05 + 1e-9
        assert "90% confidence" in result.describe()

    def test_quantile_rule_rejects_explicit_stratification(self, chain3):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="uniform"):
            SampledOptimizer(chain3.catalog).optimize_sql(
                chain3.sql,
                rule=QuantileTarget(quantile=0.05),
                stratified=True,
            )

    def test_stratified_runs_carry_no_iid_certificate(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=30, stratified=True
        )
        assert result.quantile_certificate() is None
        assert "no i.i.d. quantile certificate" in result.describe()

    def test_nonpositive_budgets_rejected(self, chain3):
        from repro.errors import ReproError

        optimizer = SampledOptimizer(chain3.catalog)
        with pytest.raises(ReproError):
            optimizer.optimize_sql(chain3.sql, samples=0)
        with pytest.raises(ReproError):
            optimizer.optimize_sql(
                chain3.sql, samples=0, rule=QuantileTarget(quantile=0.05)
            )
        with pytest.raises(ReproError):
            optimizer.optimize_sql(chain3.sql, samples=10, batch_size=0)

    def test_budget_stops_the_loop(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql,
            samples=10_000,
            batch_size=8,
            budget_s=1e-9,  # expires after the first batch
        )
        assert result.stopped_because == "budget"
        assert result.samples == 8

    def test_invalid_wallclock_budget_rejected(self, chain3):
        from repro.errors import BudgetError

        optimizer = SampledOptimizer(chain3.catalog)
        for bad in (0.0, -1.0, float("nan"), float("inf"), "1.0", True):
            with pytest.raises(BudgetError):
                optimizer.optimize_sql(chain3.sql, samples=8, budget_s=bad)

    def test_history_is_anytime(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=64, batch_size=16
        )
        assert [point.samples for point in result.history] == [16, 32, 48, 64]
        costs = [point.best_cost for point in result.history]
        assert costs == sorted(costs, reverse=True)  # monotone improvement
        for point in result.history:
            assert point.best_cost <= point.best_sampled_cost + 1e-9

    def test_uniform_and_stratified_both_work(self, chain3):
        uniform = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, stratified=False
        )
        stratified = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, stratified=True
        )
        assert not uniform.stratified and stratified.stratified
        assert uniform.samples == stratified.samples == 50

    def test_result_surface_matches_optimization_result(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=30
        )
        assert "best cost" in result.explain()
        assert result.timings["space"] >= 0
        assert "sampled optimization" in result.describe()
        assert result.total_plans > 0
        assert result.query.order_by is not None or True  # BoundQuery surface


class TestLargerShapes:
    @pytest.mark.parametrize("maker,n", [(star_query, 6), (clique_query, 6)])
    def test_matches_optimum_on_covered_small_spaces(self, maker, n):
        workload = maker(n, rows=5, seed=0)
        optimum = Optimizer(workload.catalog, OptimizerOptions()).optimize_sql(
            workload.sql
        )
        result = SampledOptimizer(workload.catalog).optimize_sql(
            workload.sql, samples=256, seed=0
        )
        # recombination closes most of the gap even at tiny sample sizes
        assert result.best_cost <= 2.0 * optimum.best_cost
        assert result.best_cost >= optimum.best_cost - 1e-9
