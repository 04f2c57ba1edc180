"""serve_skew: skewed closed-loop traffic against the plan server.

Two client threads, closed loop (each waits for its plan before sending
the next statement), against ``PlanServer(workers=2)`` over the
10-table ``clique_query`` schema.  48 templates of 4-8 tables with 8
seeded literal variants each give 384 plan keys against the cache's 128
plan slots, and 48 templates against its 32 template slots, so eviction
runs.  Template popularity is Zipf(1.1); every fourth template is
requested with ``feedback=True``; every 50th request of a client
executes its plan with ``collect_stats=True`` and feeds the result to
``observe_execution``, so ledger writes and epoch invalidations run
beside the lookups.

This is the only workload where the SQL lexer (through fingerprinting)
and the serving cache dominate.  Its misses are small optimizations.

Correctness, checked after the measured window: every response to a
statement without feedback has the plan fingerprint and cost of an
uncached ``Session.optimize``; every statement served with feedback is
served once more, with its cached plans dropped, and must match an
uncached ``Session.optimize`` under the server's final ledger.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

from repro.api import Session
from repro.executor.executor import PlanExecutor
from repro.serving import PlanServer
from repro.serving.fingerprint import fingerprint_sql
from repro.workloads.synthetic import clique_query

import gen
from harness import (
    Tally,
    error_problem,
    geometric_mean,
    mismatch_problem,
    percentile,
    samples_beyond,
    self_times,
    work_counts,
)

CLIENTS = 2
WORKERS = 2
OBSERVE_EVERY = 50
WARMUP_REQUESTS = 200
TIERS = ("plan", "template", "miss")
PHASES = ("explore", "annotate", "implement", "bestplan")


@dataclass
class Record:
    """One completed request, as its client saw it."""

    sql: str
    feedback: bool
    start: float
    end: float
    tier: str = ""
    plan: object = None
    cost: float = 0.0
    error: str | None = None
    trace: object = None  # program span tree (traced requests only)
    timings: dict | None = None  # optimizer phases (traced misses only)
    work: dict | None = None  # memo and DP counts (traced misses only)
    observe: tuple = ()  # (execute start, observe start, end, rows)

    @property
    def latency(self) -> float:
        return self.end - self.start


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.database = clique_query(
            gen.SERVE_TABLES, rows=20, seed=0, aggregate=False
        ).database
        self.templates = gen.serve_templates(seed)
        self.server = PlanServer(self.database, workers=WORKERS)
        # fill the cache to its steady state before anything is timed
        warmup = gen.client_requests(seed, "warmup", self.templates)
        for _ in range(WARMUP_REQUESTS):
            sql, template = next(warmup)
            self.server.optimize(sql, feedback=True if template.feedback else None)
        self.streams = [
            gen.client_requests(seed, f"client{c}", self.templates)
            for c in range(CLIENTS)
        ]

    def close(self) -> None:
        self.server.close()


def setup(seed: int) -> State:
    return State(seed)


# ----------------------------------------------------------------------
def _client(state, client, deadline, trace, out) -> None:
    requests = state.streams[client]
    executor = PlanExecutor(state.database)
    served = 0
    while time.perf_counter() < deadline:
        sql, template = next(requests)
        record = Record(sql, template.feedback, time.perf_counter(), 0.0)
        try:
            result = state.server.submit(
                sql, feedback=True if template.feedback else None, trace=trace
            ).result()
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            record.end = time.perf_counter()
            record.error = error_problem(sql[:60], exc)
            out.append(record)
            continue
        record.end = time.perf_counter()
        record.tier = result.cache.tier
        record.plan = result.best_plan
        record.cost = result.best_cost
        if trace:
            record.trace = result.trace
            if record.tier != "plan":
                record.timings = result.timings
                record.work = work_counts(result)
        served += 1
        if served % OBSERVE_EVERY == 0:
            tick = time.perf_counter()
            try:
                executed = executor.execute(result.best_plan, collect_stats=True)
                middle = time.perf_counter()
                state.server.observe_execution(
                    executed.stats, result.memo, result.graph.universe.order
                )
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                record.error = error_problem(f"observe {sql[:60]}", exc)
            else:
                record.observe = (
                    tick, middle, time.perf_counter(), len(executed.rows)
                )
        del result
        out.append(record)


def _window(state, seconds, trace):
    """Drive the clients for ``seconds``; returns the records, the
    window length and the cache counters it moved."""
    before = state.server.cache.stats()
    outs = [[] for _ in range(CLIENTS)]
    failures = []

    def body(client):
        try:
            _client(state, client, deadline, trace, outs[client])
        except BaseException as exc:  # surfaced on the main thread
            failures.append(exc)
            raise

    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=body, args=(c,), name=f"client{c}")
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    records = sorted((r for out in outs for r in out), key=lambda r: r.start)
    window = max(r.end for r in records) - start
    after = state.server.cache.stats()
    counters = ("hits", "misses", "evictions", "invalidations")
    moved = {
        key: after[key] - before[key] for key in before if key.endswith(counters)
    }
    return records, window, moved


def _verify(state, records, tally) -> list[float]:
    """Check every response against an uncached optimization; returns
    served-over-uncached cost ratios."""
    reference = Session(state.database)
    expected: dict[str, tuple] = {}
    ratios = []
    feedback_statements = set()
    for record in records:
        if record.error is not None:
            tally.record(record.error)
            continue
        if record.feedback:
            feedback_statements.add(record.sql)
            tally.record()
            continue
        if record.sql not in expected:
            uncached = reference.optimize(record.sql)
            expected[record.sql] = (
                uncached.best_plan.fingerprint(),
                uncached.best_cost,
            )
        plan, cost = expected[record.sql]
        tally.record(
            mismatch_problem(
                f"served plan of {record.sql[:60]}",
                (record.plan.fingerprint(), record.cost),
                (plan, cost),
            )
        )
        ratios.append(record.cost / cost)
    # Within one stats epoch a feedback-keyed plan may have been costed
    # under earlier, sub-threshold observations, so it is not compared
    # with today's ledger.  Dropping those plans makes the server
    # re-cost each statement from its cached template under the final
    # ledger, which must then match an uncached optimization.
    state.server.cache.invalidate_epoch(-1)
    for sql in sorted(feedback_statements):
        try:
            served = state.server.optimize(sql, feedback=True)
            uncached = reference.optimize(sql, feedback=state.server.ledger)
        except Exception as exc:  # noqa: BLE001 - counted
            tally.record(error_problem(f"feedback {sql[:60]}", exc))
            continue
        tally.record(
            mismatch_problem(
                f"feedback plan of {sql[:60]}",
                (served.best_plan.fingerprint(), served.best_cost),
                (uncached.best_plan.fingerprint(), uncached.best_cost),
            )
        )
    return ratios


def _summary(records, window) -> dict:
    ok = [r for r in records if r.error is None]
    latencies = [r.latency for r in ok]
    misses = [r.latency for r in ok if r.tier != "plan"]
    return {
        "ops_per_s": len(ok) / window,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "optimize_p50_ms": percentile(misses, 0.50) * 1000.0,
        "samples": len(latencies),
        "beyond_p99": samples_beyond(len(latencies), 0.99),
        "miss_samples": len(misses),
        **{
            f"tier_share.{tier}": sum(r.tier == tier for r in ok) / len(ok)
            for tier in TIERS
        },
    }


def run(state: State, seconds: float, tally: Tally) -> dict:
    records, window, moved = _window(state, seconds, trace=False)
    out = _summary(records, window)
    out["cost_ratio"] = geometric_mean(_verify(state, records, tally))
    out["invalidations"] = moved["plan.invalidations"]
    return out


def run_traced(state: State, seconds: float, tally: Tally, recorder) -> dict:
    """Half the window untraced, then half traced (``trace=True`` on
    every request).  Service time is the fingerprint (measured apart,
    since the program's span tree starts after the cache lookup) plus
    the program's root span; queue wait is the rest of the client's
    latency — the request span's self time."""
    plain, plain_window, _ = _window(state, seconds / 2, trace=False)
    records, window, moved = _window(state, seconds / 2, trace=True)
    _verify(state, plain + records, tally)
    ok = [r for r in records if r.error is None]

    fingerprint_s = {}
    for sql in {r.sql for r in ok}:
        times = []
        for _ in range(5):
            tick = time.perf_counter()
            fingerprint_sql(sql)
            times.append(time.perf_counter() - tick)
        fingerprint_s[sql] = statistics.median(times)

    service = {tier: [] for tier in TIERS}
    observe_s, execute_s, rows_out = [], [], 0
    parse_s, bind_s = [], []
    for number, record in enumerate(ok):
        fp = fingerprint_s[record.sql]
        root = record.trace
        request = recorder.add("request", record.start, record.end, None, number)
        recorder.add(
            "serving.fingerprint", record.start, record.start + fp, request, number
        )
        recorder.add_tree(root, record.end - root.elapsed_s, request, number)
        service[record.tier].append(fp + root.elapsed_s)
        for name, sink in (("parse", parse_s), ("bind", bind_s)):
            span = root.find(name)
            if span is not None:
                sink.append(span.elapsed_s)
        if record.observe:
            tick, middle, end, rows = record.observe
            recorder.add("executor.execute", tick, middle, None, number)
            recorder.add("feedback.observe", middle, end, None, number)
            execute_s.append(middle - tick)
            observe_s.append(end - middle)
            rows_out += rows
    own = self_times(recorder.spans)
    waits = [own[s["id"]] for s in recorder.spans if s["name"] == "request"]

    per_1k = 1000.0 / len(ok)
    optimized = [r for r in ok if r.tier != "plan"]
    out = {
        "sql.parse_ms": _median_ms(parse_s),
        "sql.bind_ms": _median_ms(bind_s),
        "serving.fingerprint_ms": _median_ms(
            [fingerprint_s[r.sql] for r in ok]
        ),
        "serving.hit_service_ms": _median_ms(service["plan"]),
        "serving.template_service_ms": _median_ms(service["template"]),
        "serving.miss_service_ms": _median_ms(service["miss"]),
        "serving.queue_wait_ms": _median_ms(waits),
        "serving.plan_hit_ratio": len(service["plan"]) / len(ok),
        "serving.template_hit_ratio": len(service["template"]) / len(ok),
        "serving.miss_ratio": len(service["miss"]) / len(ok),
        "serving.evictions_per_1k": (
            moved["plan.evictions"] + moved["template.evictions"]
        )
        * per_1k,
        "serving.invalidations": moved["plan.invalidations"],
        "feedback.observe_ms": _median_ms(observe_s),
        "executor.execute_ms": _median_ms(execute_s),
        "executor.rows_out": rows_out,
        "memo.logical_exprs": sum(r.work["logical"] for r in optimized) * per_1k,
        "memo.physical_exprs": sum(r.work["physical"] for r in optimized) * per_1k,
        "memo.dp_states": sum(r.work["states"] for r in optimized) * per_1k,
        "memo.pruned_states": sum(r.work["pruned"] for r in optimized) * per_1k,
        "trace.overhead_pct": (
            (len(plain) / plain_window) / (len(records) / window) - 1.0
        )
        * 100.0,
    }
    out["memo.pruned_ratio"] = out["memo.pruned_states"] / max(
        1.0, out["memo.dp_states"]
    )
    for phase in PHASES:
        out[f"optimizer.{phase}_s"] = (
            sum(r.timings.get(phase, 0.0) for r in optimized) * per_1k
        )
    return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0
