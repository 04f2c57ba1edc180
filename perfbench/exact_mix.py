"""exact_mix: cold, uncached exact optimization of a fixed statement mix.

One client, closed loop: each statement is parsed, bound and optimized
by a fresh ``Optimizer`` back to back — what the optimizer's users pay
per statement.  Nearly all time lands in the optimizer, memo and kernel
layers (explore plus the fused implement/best-plan pass); parsing is
under 1%, and serving, plan spaces and the executor are never touched.

The mix: clique10/11/12, star12/14, cycle12, chain16, three
``random_query(11)`` topologies picked by the seed from a pinned pool,
and the TPC-H queries Q3, Q5-Q10 (the repository has no Q4).  Every
best cost is pinned, as are clique12's memo and DP work counts.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.obs import Tracer, tracing
from repro.optimizer.optimizer import Optimizer
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.datagen import generate_tpch
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)
from repro.workloads.tpch_queries import TPCH_QUERIES

import gen
import pins
from harness import (
    Tally,
    cost_problem,
    error_problem,
    geometric_mean,
    mismatch_problem,
    percentile,
    whole_passes,
    work_counts,
)

FIXED = (
    ("clique10", clique_query, 10),
    ("clique11", clique_query, 11),
    ("clique12", clique_query, 12),
    ("star12", star_query, 12),
    ("star14", star_query, 14),
    ("cycle12", cycle_query, 12),
    ("chain16", chain_query, 16),
)
#: pool of ``random_query(11, seed=s)`` topologies with pinned costs
RANDOM_POOL = tuple(range(16))
RANDOM_SLOTS = ("random11_a", "random11_b", "random11_c")
TPCH = ("Q3", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10")
#: every statement name the mix can report, in mix order
NAMES = (
    tuple(name for name, _, _ in FIXED)
    + RANDOM_SLOTS
    + tuple(f"tpch_{q.lower()}" for q in TPCH)
)
PHASES = ("explore", "annotate", "implement", "bestplan")
#: statements that take a few milliseconds; they also run between the
#: heavy ones (see ``_pass``)
LIGHT = ("cycle12", "chain16") + tuple(f"tpch_{q.lower()}" for q in TPCH)
WORK_METRICS = {
    "logical": "memo.logical_exprs",
    "physical": "memo.physical_exprs",
    "states": "memo.dp_states",
    "pruned": "memo.pruned_states",
}


@dataclass(frozen=True)
class Statement:
    name: str
    catalog: Catalog
    sql: str
    pin: str  # key into pins.EXACT_COSTS


def statements(seed: int) -> list[Statement]:
    out = []
    for name, make, size in FIXED:
        workload = make(size, rows=5, seed=0)
        out.append(Statement(name, workload.catalog, workload.sql, name))
    chosen = gen.pick(seed, "random11", RANDOM_POOL, len(RANDOM_SLOTS))
    for slot, pool_seed in zip(RANDOM_SLOTS, chosen):
        workload = random_query(11, seed=pool_seed, rows=5)
        out.append(
            Statement(slot, workload.catalog, workload.sql, f"random11_s{pool_seed}")
        )
    tpch = generate_tpch(seed=0)
    for query in TPCH:
        name = f"tpch_{query.lower()}"
        out.append(Statement(name, tpch.catalog, TPCH_QUERIES[query].sql, name))
    return out


def optimize(statement: Statement):
    """The measured operation: parse, bind and optimize one statement."""
    bound = Binder(statement.catalog).bind(parse(statement.sql))
    return Optimizer(statement.catalog).optimize(bound)


def check(statement: Statement, result) -> list:
    problems = [
        cost_problem(
            statement.name, result.best_cost, pins.EXACT_COSTS[statement.pin]
        )
    ]
    if statement.name == "clique12":
        problems.append(
            mismatch_problem("clique12 work", work_counts(result), pins.CLIQUE12_WORK)
        )
    return problems


# ----------------------------------------------------------------------
class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.statements = statements(seed)
        # first-touch costs (kernel selection, numpy paths) belong to
        # set-up, not to the first measured statement
        optimize(next(s for s in self.statements if s.name == "star12"))

    def close(self) -> None:
        pass


def setup(seed: int) -> State:
    return State(seed)


def _optimize_once(statement: Statement, tally: Tally, out: dict) -> None:
    """Time one statement and append ``(latency, cost over the pinned
    optimum)`` to ``out[name]``.  The previous result is already
    dropped; it is collected first, so no statement pays for collecting
    another's memo."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = optimize(statement)
    except Exception as exc:  # noqa: BLE001 - counted, run continues
        tally.record(error_problem(statement.name, exc))
        return
    latency = time.perf_counter() - start
    tally.record(*check(statement, result))
    out.setdefault(statement.name, []).append(
        (latency, result.best_cost / pins.EXACT_COSTS[statement.pin])
    )


def _pass(state: State, tally: Tally) -> dict[str, list[tuple[float, float]]]:
    """One pass over the mix.  After each heavy statement the light ones
    (``LIGHT``) run once more, so their latency is sampled across the
    whole pass: this host's speed changes within seconds, and a
    statement timed at only a few moments reads whatever speed those
    moments had."""
    light = [s for s in state.statements if s.name in LIGHT]
    out: dict[str, list] = {}
    for statement in state.statements:
        _optimize_once(statement, tally, out)
        if statement.name not in LIGHT:
            for other in light:
                _optimize_once(other, tally, out)
    return out


def run(state: State, seconds: float, tally: Tally) -> dict:
    """Whole passes of the mix for ``seconds``.

    Each statement's latency is its mean over all its runs in the
    window.  ``ops_per_s`` is the mix size over the sum of those
    latencies: statements per second on the fixed mix.  The mix's p50
    and p99 are taken over the per-statement latencies (the p99 is its
    slowest statement, clique12).
    """
    samples: dict[str, list] = {}
    for one_pass in whole_passes(seconds, lambda _: _pass(state, tally)):
        for name, runs in one_pass.items():
            samples.setdefault(name, []).extend(runs)
    latency = [
        statistics.fmean(t for t, _ in samples[s.name])
        for s in state.statements
        if s.name in samples
    ]
    p50 = percentile(latency, 0.50) * 1000.0
    return {
        "ops_per_s": len(latency) / sum(latency),
        "latency_p50_ms": p50,
        "latency_p99_ms": percentile(latency, 0.99) * 1000.0,
        "optimize_p50_ms": p50,
        "cost_ratio": geometric_mean(
            r for runs in samples.values() for _, r in runs
        ),
        "statements": len(latency),
        "runs": sum(len(runs) for runs in samples.values()),
    }


def run_traced(state: State, seconds: float, tally: Tally, recorder) -> dict:
    """One untraced pass, one traced pass and one tracemalloc pass.
    The tracing overhead compares the statements' summed latencies in
    the traced pass with their first runs in the untraced pass."""
    untraced = sum(runs[0][0] for runs in _pass(state, tally).values())
    traced = 0.0

    out = {f"optimizer.{phase}_s": 0.0 for phase in PHASES}
    out.update({name: 0 for name in WORK_METRICS.values()})
    parse_ms, bind_ms = [], []
    for request, statement in enumerate(state.statements):
        gc.collect()
        try:
            with recorder.span("request", request=request) as root:
                with recorder.span("sql.parse", root.id, request) as span:
                    parsed = parse(statement.sql)
                parse_ms.append(span.elapsed * 1000.0)
                with recorder.span("sql.bind", root.id, request) as span:
                    bound = Binder(statement.catalog).bind(parsed)
                bind_ms.append(span.elapsed * 1000.0)
                tracer = Tracer()
                with tracing(tracer), tracer.span("optimize"):
                    started = time.perf_counter()
                    result = Optimizer(statement.catalog).optimize(bound)
            recorder.add_tree(tracer.root, started, root.id, request)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            tally.record(error_problem(statement.name, exc))
            continue
        tally.record(*check(statement, result))
        traced += root.elapsed
        out[f"optimizer.query_s.{statement.name}"] = root.elapsed
        for phase in PHASES:
            out[f"optimizer.{phase}_s"] += result.timings.get(phase, 0.0)
        for key, count in work_counts(result).items():
            out[WORK_METRICS[key]] += count
        del result
    out["memo.pruned_ratio"] = out["memo.pruned_states"] / max(1, out["memo.dp_states"])
    out["sql.parse_ms"] = statistics.median(parse_ms)
    out["sql.bind_ms"] = statistics.median(bind_ms)
    out["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0

    for statement in state.statements:
        gc.collect()
        tracemalloc.start()
        try:
            result = optimize(statement)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tally.record(*check(statement, result))
        out[f"optimizer.alloc_peak_mb.{statement.name}"] = peak / 2**20
        del result
    return out
