"""Plan-shape strata and stratified sampling."""

import heapq

import pytest

from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.sampledopt.strata import StratifiedSampler, rank_strata
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)

SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "clique": clique_query,
    "cycle": cycle_query,
}

#: the implicit property suite's smoke topologies
TOPOLOGIES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (3, 4, 5, 6)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 5)
]


def _naive_strata(space, target, max_strata, max_depth=64):
    """The partition refined the direct way: every row of a candidate
    list becomes a stratum first, and a list too wide for ``max_strata``
    is dropped afterwards."""
    tables = space.unranker.tables
    total = space.count()
    state = space.state
    # node: (gid, requirement, row, lo, hi, label, depth)
    root = (state.layout.root_gid, state.root_kid, None, 0, total, "", 0)
    heap = [(-total, 0, root)]
    counter = 0
    done = []
    leaves = 1
    while heap and leaves < target:
        _, _, node = heapq.heappop(heap)
        gid, requirement, row, lo, hi, label, depth = node
        children = None
        if depth < max_depth:
            if row is None:
                candidates = tables.candidates(gid, requirement)
                rows = [candidates.row(i) for i in range(len(candidates))]
                if rows:
                    span = (hi - lo) // candidates.total
                    children = []
                    for pos, child in enumerate(rows):
                        part = f"{gid}.{child.local_id}"
                        children.append((
                            gid,
                            requirement,
                            child,
                            lo + candidates.cumulative[pos] * span,
                            lo + candidates.cumulative[pos + 1] * span,
                            f"{label}/{part}" if label else part,
                            depth + 1,
                        ))
            elif row.slots:
                child_gid, child_req = row.slots[-1]
                children = [(child_gid, child_req, None, lo, hi, label, depth)]
        if children is not None and leaves - 1 + len(children) > max_strata:
            children = None
        if children is None:
            done.append(node)
            continue
        leaves += len(children) - 1
        for child in children:
            counter += 1
            heapq.heappush(heap, (-(child[4] - child[3]), counter, child))
    done.extend(node for _, _, node in heap)
    return sorted((node[5] or "(root)", node[3], node[4]) for node in done)


@pytest.fixture(scope="module")
def chain5_space():
    workload = chain_query(5, rows=5, seed=0)
    return ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=OptimizerOptions()
    )


class TestRankStrata:
    def test_partitions_the_rank_space(self, chain5_space):
        strata = rank_strata(chain5_space, target=16)
        assert strata[0].lo == 0
        assert strata[-1].hi == chain5_space.count()
        for left, right in zip(strata, strata[1:]):
            assert left.hi == right.lo  # contiguous, no gaps or overlaps
        assert all(stratum.size > 0 for stratum in strata)

    def test_reaches_target_when_possible(self, chain5_space):
        strata = rank_strata(chain5_space, target=16)
        assert len(strata) >= 16

    def test_target_one_is_whole_space(self, chain5_space):
        strata = rank_strata(chain5_space, target=1)
        assert len(strata) == 1
        assert strata[0].size == chain5_space.count()

    def test_labels_are_operator_prefixes(self, chain5_space):
        strata = rank_strata(chain5_space, target=16)
        # every refined label is a /-joined chain of gid.local ids
        refined = [s for s in strata if s.label != "(root)"]
        assert refined
        for stratum in refined:
            for part in stratum.label.split("/"):
                gid, local = part.split(".")
                assert gid.isdigit() and local.isdigit()

    def test_plans_in_stratum_share_prefix(self, chain5_space):
        """All plans of a stratum start with the stratum's operator chain."""
        strata = rank_strata(chain5_space, target=8)
        widest = max(strata, key=lambda s: s.size)
        prefix = widest.label.split("/")
        for rank in (widest.lo, (widest.lo + widest.hi) // 2, widest.hi - 1):
            plan = chain5_space.unrank(rank)
            node = plan
            for expected in prefix:
                assert node.expr_id == expected
                if node.children:
                    node = node.children[-1]  # the slowest-varying slot

    def test_deep_strata_on_clique(self):
        workload = clique_query(6, rows=5, seed=0)
        space = ImplicitPlanSpace.from_sql(
            workload.catalog, workload.sql, options=OptimizerOptions()
        )
        strata = rank_strata(space, target=64)
        assert sum(stratum.size for stratum in strata) == space.count()


@pytest.mark.parametrize("shape,n,cross", TOPOLOGIES)
def test_strata_match_the_naive_refinement(shape, n, cross):
    """Checking a list's width before refining it changes no stratum, on
    either counting path (wide lists are skipped, narrow ones kept)."""
    workload = SHAPES[shape](n, rows=5, seed=0)
    options = OptimizerOptions(allow_cross_products=cross)
    for use_turbo in (True, False):
        space = ImplicitPlanSpace.from_sql(
            workload.catalog, workload.sql, options=options, use_turbo=use_turbo
        )
        for target, max_strata in ((64, 4096), (64, 12), (512, 40)):
            strata = rank_strata(space, target=target, max_strata=max_strata)
            got = sorted((s.label, s.lo, s.hi) for s in strata)
            assert got == _naive_strata(space, target, max_strata), (
                shape, n, cross, use_turbo, target, max_strata
            )


class TestStratifiedSampler:
    def test_allocation_is_proportional_and_exact(self, chain5_space):
        sampler = StratifiedSampler(chain5_space, seed=0, target=16)
        counts = sampler.allocate(100)
        assert sum(counts) == 100
        total = chain5_space.count()
        for stratum, count in zip(sampler.strata, counts):
            ideal = 100 * stratum.size / total
            assert abs(count - ideal) <= 1  # largest-remainder rounding

    def test_ranks_fall_in_their_strata(self, chain5_space):
        sampler = StratifiedSampler(chain5_space, seed=7, target=16)
        ranks = sampler.sample_ranks(200)
        assert len(ranks) == 200
        position = 0
        for stratum, count in zip(sampler.strata, sampler.allocate(200)):
            for rank in ranks[position : position + count]:
                assert stratum.lo <= rank < stratum.hi
            position += count

    def test_deterministic_per_seed(self, chain5_space):
        first = StratifiedSampler(chain5_space, seed=3).sample_ranks(50)
        second = StratifiedSampler(chain5_space, seed=3).sample_ranks(50)
        third = StratifiedSampler(chain5_space, seed=4).sample_ranks(50)
        assert first == second
        assert first != third

    def test_sample_returns_plans(self, chain5_space):
        plans = StratifiedSampler(chain5_space, seed=0).sample(5)
        assert len(plans) == 5
        for plan in plans:
            assert chain5_space.rank(plan) >= 0
