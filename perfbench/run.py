"""The repository's benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics and writes its
spans to ``.perfbench_out/``.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed check makes the exit code 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is measured from here

import argparse
import importlib
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_mix", "serve_skew", "sample_space")
#: set-ups per run: this process's own plus this many fresh processes
SETUP_CHILDREN = 2


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up time and exit "
        "(how a run measures set-up in fresh processes)",
    )
    return parser.parse_args(argv)


def _load(workload: str):
    """Import the program from the checkout's ``src`` and the workload
    module; ``None`` when the program is not there."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        return importlib.import_module(workload)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return None


def _child_setup(args) -> float | None:
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _metric_table(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)[kind]


def main(argv=None) -> int:
    args = _arguments(argv)
    module = _load(args.workload)
    if module is None:
        return 2
    state = module.setup(args.seed)
    own_setup = time.perf_counter() - STARTED
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return _measure(args, module, state, own_setup)
    finally:
        state.close()


def _measure(args, module, state, own_setup) -> int:
    from harness import SpanRecorder, Tally, host_calibration_ms, peak_rss_mb
    from repro.kernel import selected_backend

    setups = [own_setup]
    for _ in range(SETUP_CHILDREN):
        child = _child_setup(args)
        if child is None:
            print("a set-up in a fresh process failed", file=sys.stderr)
            return 1
        setups.append(child)
    calibration = host_calibration_ms()

    tally = Tally()
    if args.trace:
        recorder = SpanRecorder()
        values = module.run_traced(state, args.seconds, tally, recorder)
        values["host.calib_ms"] = calibration
        table = _metric_table("per_layer")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(span_file)
        context = {"spans": len(recorder.spans), "span_file": str(span_file)}
        unknown = set(values) - {m["name"] for m in table}
        if unknown:
            raise KeyError(f"per-layer values missing from BENCHMARK.json: {unknown}")
        # a layer the workload never enters did no work in it
        metrics = {m["name"]: values.get(m["name"], 0) for m in table}
    else:
        values = module.run(state, args.seconds, tally)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        table = _metric_table("end_to_end")
        metrics = {m["name"]: values.pop(m["name"]) for m in table}
        context = values
    context["setup_samples_s"] = [round(s, 4) for s in setups]

    units = {m["name"]: m["unit"] for m in table}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    for name, value in context.items():
        print(f"  {name:<42} {value}")
    print(f"  {'kernel.backend':<42} {selected_backend()}")
    if not args.trace:
        print(f"  {'host.calib_ms':<42} {calibration:.3f}")
    print(
        f"  {'error_rate':<42} {tally.error_rate:.6g} "
        f"({tally.failed} of {tally.attempted})"
    )
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
