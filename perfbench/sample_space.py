"""sample_space: the paper's Section 4 test method on the implicit engine.

One client.  Set-up optimizes each query exactly and executes the
chosen plan as the reference.  Each measured pass then, per query,
builds and counts the implicit plan space, draws seeded uniform ranks,
unranks each into a plan, executes it and compares its canonical rows
with the reference; and it runs one ``SampledOptimizer`` call each on
clique10 and star12 at a fixed seed.  This is where the plan-space,
executor, testing and sampled-optimizer layers work; the other
workloads never touch them.

Every plan count is pinned, and a row mismatch is a failure.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from repro.executor.executor import PlanExecutor
from repro.obs import Tracer, tracing
from repro.optimizer.optimizer import Optimizer
from repro.planspace.implicit import ImplicitPlanSpace
from repro.sampledopt.search import SampledOptimizer
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.testing.diff import canonical_rows
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)

import gen
import pins
from harness import (
    SpanRecorder,
    Tally,
    error_problem,
    geometric_mean,
    mismatch_problem,
    percentile,
    samples_beyond,
    whole_passes,
)

FIXED = (
    ("star8", star_query, 8),
    ("chain8", chain_query, 8),
    ("cycle8", cycle_query, 8),
    ("clique9", clique_query, 9),
)
#: pool of ``random_query(10, seed=s)`` topologies with pinned counts
RANDOM_POOL = tuple(range(16))
RANDOM_SLOTS = ("random10_a", "random10_b")
#: sampled-optimizer targets (rows=5, as in exact_mix, whose pinned
#: optimum is the denominator of cost_ratio) and their fixed seed
SAMPLED = (("clique10", clique_query, 10), ("star12", star_query, 12))
SAMPLED_SEED = 0
PLANS_PER_QUERY = 60


@dataclass
class Query:
    name: str
    pin: str  # key into pins.PLAN_COUNTS
    catalog: object
    bound: object
    executor: PlanExecutor
    respect_order: bool
    reference: list = field(default_factory=list)


def queries(seed: int) -> list[tuple[str, str, object]]:
    """``(name, pin key, workload)`` of the validated queries."""
    out = [
        (name, name, make(size, rows=20, seed=0, aggregate=False))
        for name, make, size in FIXED
    ]
    chosen = gen.pick(seed, "random10", RANDOM_POOL, len(RANDOM_SLOTS))
    for slot, pool_seed in zip(RANDOM_SLOTS, chosen):
        workload = random_query(10, seed=pool_seed, rows=20, aggregate=False)
        out.append((slot, f"random10_s{pool_seed}", workload))
    return out


def build_space(query: Query) -> ImplicitPlanSpace:
    return ImplicitPlanSpace.from_query(query.catalog, query.bound)


# ----------------------------------------------------------------------
class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.queries = []
        for name, pin, workload in queries(seed):
            bound = Binder(workload.catalog).bind(parse(workload.sql))
            exact = Optimizer(workload.catalog).optimize(bound)
            query = Query(
                name=name,
                pin=pin,
                catalog=workload.catalog,
                bound=bound,
                executor=PlanExecutor(workload.database),
                respect_order=bool(exact.root_order),
            )
            query.reference = canonical_rows(
                query.executor.execute(exact.best_plan).rows,
                respect_order=query.respect_order,
            )
            self.queries.append(query)
        self.sampled = [
            (name, make(size, rows=5, seed=0)) for name, make, size in SAMPLED
        ]
        # first-touch costs of the implicit engine and the executor
        first = self.queries[0]
        first.executor.execute(build_space(first).unrank(0))

    def close(self) -> None:
        pass


def setup(seed: int) -> State:
    return State(seed)


@dataclass
class PassStats:
    """What one pass measured."""

    check_s: list = field(default_factory=list)  # unrank+execute+compare
    unrank_s: list = field(default_factory=list)
    execute_s: list = field(default_factory=list)
    compare_s: list = field(default_factory=list)
    build_s: float = 0.0
    layout_s: float = 0.0
    count_s: float = 0.0
    rows_out: int = 0
    mismatches: int = 0
    sampled_s: dict = field(default_factory=dict)  # target -> seconds
    cost_ratios: dict = field(default_factory=dict)  # target -> ratio
    sampled_phases: dict = field(default_factory=dict)
    sampled_samples: int = 0
    parse_s: list = field(default_factory=list)
    bind_s: list = field(default_factory=list)
    wall_s: float = 0.0


def _validate(state, query, index, number, tally, stats, recorder) -> None:
    with recorder.span("query", request=index) as root:
        try:
            with recorder.span("planspace.build", root.id, index) as span:
                space = build_space(query)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            tally.record(error_problem(f"{query.name} space", exc))
            return
        stats.build_s += span.elapsed
        stats.layout_s += space.timings["layout"]
        stats.count_s += space.timings["count"]
        total = space.count()
        tally.record(
            mismatch_problem(
                f"{query.name} plan count", total, pins.PLAN_COUNTS[query.pin]
            )
        )
        ranks = gen.draw_ranks(
            state.seed, f"{query.name}:{number}", total, PLANS_PER_QUERY
        )
        for rank in ranks:
            with recorder.span("plan", root.id, index) as plan_span:
                try:
                    with recorder.span("planspace.unrank", plan_span.id, index) as a:
                        plan = space.unrank(rank)
                    with recorder.span("executor.execute", plan_span.id, index) as b:
                        result = query.executor.execute(plan)
                    with recorder.span("testing.compare", plan_span.id, index) as c:
                        rows = canonical_rows(
                            result.rows, respect_order=query.respect_order
                        )
                        problem = mismatch_problem(
                            f"{query.name} rank {rank} rows", rows, query.reference
                        )
                except Exception as exc:  # noqa: BLE001 - counted
                    tally.record(error_problem(f"{query.name} rank {rank}", exc))
                    continue
            tally.record(problem)
            stats.mismatches += problem is not None
            stats.check_s.append(plan_span.elapsed)
            stats.unrank_s.append(a.elapsed)
            stats.execute_s.append(b.elapsed)
            stats.compare_s.append(c.elapsed)
            stats.rows_out += len(result.rows)


def _sampled(name, workload, tally, stats, recorder) -> None:
    optimizer = SampledOptimizer(workload.catalog)
    tracer = Tracer() if recorder.enabled else None
    with recorder.span("sampledopt.optimize", request=name) as span:
        try:
            if tracer is None:
                result = optimizer.optimize_sql(workload.sql, seed=SAMPLED_SEED)
            else:
                with tracing(tracer), tracer.span("sampled"):
                    result = optimizer.optimize_sql(workload.sql, seed=SAMPLED_SEED)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            tally.record(error_problem(f"sampled {name}", exc))
            return
    ratio = result.best_cost / pins.EXACT_COSTS[name]
    tally.record(
        None
        if ratio >= 1.0 - 1e-9
        else f"sampled {name}: cost {result.best_cost!r} beats the exact optimum"
    )
    stats.sampled_s[name] = span.elapsed
    stats.cost_ratios[name] = ratio
    stats.sampled_samples += result.samples
    for phase in ("space", "sample", "recombine"):
        stats.sampled_phases[phase] = (
            stats.sampled_phases.get(phase, 0.0) + result.timings.get(phase, 0.0)
        )
    if tracer is not None:
        recorder.add_tree(tracer.root, span.start, span.id, name)
        stats.parse_s.append(tracer.root.find("parse").elapsed_s)
        stats.bind_s.append(tracer.root.find("bind").elapsed_s)


def _pass(state: State, number: int, tally: Tally, recorder) -> PassStats:
    stats = PassStats()
    tick = time.perf_counter()
    for index, query in enumerate(state.queries):
        # The program pauses the cycle collector in its own hot loops
        # (optimizer, sampled optimizer); the plan checks run the same
        # way, with a collection between queries, so that collector
        # pauses landing on random plans do not make the tail.
        gc.collect()
        gc.disable()
        try:
            _validate(state, query, index, number, tally, stats, recorder)
        finally:
            gc.enable()
    for name, workload in state.sampled:
        _sampled(name, workload, tally, stats, recorder)
    stats.wall_s = time.perf_counter() - tick
    return stats


def run(state: State, seconds: float, tally: Tally) -> dict:
    """Whole passes for ``seconds``."""
    untraced = SpanRecorder(enabled=False)
    passes = whole_passes(
        seconds, lambda number: _pass(state, number, tally, untraced)
    )
    checks = [t for p in passes for t in p.check_s]
    busy = sum(p.build_s for p in passes) + sum(checks)
    sampled = [
        statistics.median(p.sampled_s[name] for p in passes if name in p.sampled_s)
        for name, _ in state.sampled
    ]
    return {
        "ops_per_s": len(checks) / busy,
        "latency_p50_ms": percentile(checks, 0.50) * 1000.0,
        "latency_p99_ms": percentile(checks, 0.99) * 1000.0,
        "optimize_p50_ms": statistics.fmean(sampled) * 1000.0,
        "cost_ratio": geometric_mean(passes[-1].cost_ratios.values()),
        "samples": len(checks),
        "beyond_p99": samples_beyond(len(checks), 0.99),
        "passes": len(passes),
    }


def run_traced(state: State, seconds: float, tally: Tally, recorder) -> dict:
    """One untraced pass, then one traced pass."""
    untraced = _pass(state, 0, tally, SpanRecorder(enabled=False))
    traced = _pass(state, 1, tally, recorder)
    phases = traced.sampled_phases
    return {
        "sql.parse_ms": statistics.median(traced.parse_s) * 1000.0,
        "sql.bind_ms": statistics.median(traced.bind_s) * 1000.0,
        "planspace.layout_s": traced.layout_s,
        "planspace.count_s": traced.count_s,
        "planspace.unrank_ms": statistics.median(traced.unrank_s) * 1000.0,
        "executor.execute_ms": statistics.median(traced.execute_s) * 1000.0,
        "executor.rows_out": traced.rows_out,
        "testing.compare_ms": statistics.median(traced.compare_s) * 1000.0,
        "testing.mismatches": untraced.mismatches + traced.mismatches,
        "sampledopt.space_s": phases.get("space", 0.0),
        "sampledopt.sample_s": phases.get("sample", 0.0),
        "sampledopt.recombine_s": phases.get("recombine", 0.0),
        "sampledopt.samples": traced.sampled_samples,
        "trace.overhead_pct": (traced.wall_s / untraced.wall_s - 1.0) * 100.0,
    }
