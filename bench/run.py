"""Benchmark of the three gridbench pipelines.

    python3 bench/run.py --workload stream|detect|sweep --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of the
same checkout. After set-up, the run repeats whole rounds of the workload's
operations until about S seconds are measured (at least one round), checks
every round's outputs, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``peak_rss_mb``, ``round_s``); the pipeline's own figures are printed on the
lines before it. With ``--trace 1`` the layers are traced and the metrics
are the per-layer ones. Details go to ``bench/out/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads; the fresh set-up interpreters
# inherit it. A second OpenBLAS thread only spins here: a sweep round used
# ~12 CPU-s for ~7 s of wall time with two threads and ~6.5 CPU-s with one,
# and in alternating runs the rounds with one thread were not slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stream", "detect", "sweep"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def _fresh_setup_s(args) -> float:
    """Set-up time of the workload in a new interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "gridbench", "scenario.py")):
        print(f"bench: no gridbench sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads
    from tracing import NullTracer, Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        layers.install(tracer)
    round_s, figures, problems, op_log = [], [], [], []
    attempted = failed = 0
    try:
        while True:
            start = time.perf_counter()
            ops = workload.run_round(tracer)
            round_s.append(time.perf_counter() - start)
            op_log += [[op.label, op.seconds, op.error] for op in ops]
            errors = [op for op in ops if op.error is not None]
            attempted += len(ops)
            failed += len(errors)
            for op in errors:
                print(f"failed: {op.label}: {op.error}", file=sys.stderr)
            problems += workload.check_round()
            if not errors:  # a failed op leaves the pipeline's figures incomplete
                figures.append(workload.round_figures())
            if sum(round_s) + round_s[-1] > args.seconds:
                break
    finally:
        tracer.restore()
    problems += workload.final_checks()
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    rounds = len(round_s)
    pipeline = workloads.summarize(figures) if figures else {}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "round_s": round_s, "pipeline": pipeline,
              "ops": op_log, "problems": problems}
    if args.trace:
        per_layer = layers.values(tracer, rounds, layers.draws_per_round(workload),
                                  workload.scored_ticks())
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
    else:
        setups = [setup_s] + [_fresh_setup_s(args) for _ in range(workload.SETUPS - 1)]
        report["setups_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "round_s": {"value": statistics.median(round_s), "unit": "s"},
        }
    report["metrics"] = metrics

    for name, value in pipeline.items():
        print(f"{args.workload} {name} = {value:.6g} {workload.UNITS[name]}")
    print(f"{args.workload} rounds = {rounds}, round_s = "
          + ", ".join(f"{s:.4f}" for s in round_s))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "child_s", "attrs"],
                       "spans": tracer.spans, "rng_s": tracer.rng_s,
                       "rng_draws": tracer.rng_draws}, fh)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
