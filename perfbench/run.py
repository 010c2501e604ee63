"""barrierlp benchmark: time to a checked verdict on the fleet, stall and corpus workloads.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory, never from an installed copy. One sequential caller
verifies the workload's problems in a closed loop, pass after pass, for at
most --seconds (at least one pass). The program keeps its default
VerifierOptions, thread pool included. Every verdict is re-checked
independently after its timer stops.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with spans at the layer boundaries, prints the per-layer
metrics and the tracing overhead, and writes the spans to
.bench_out/trace-<workload>-<seed>.json. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED = HERE / "pinned.json"
# corpus-holdout is kept out of BENCHMARK.json, for confirming claims.
WORKLOADS = ("fleet", "stall", "corpus", "corpus-holdout")
SETUP_REPEATS = 7
P90_MIN_PROBLEMS = 100
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import barrierlp; "
    "print(time.perf_counter() - t); print(barrierlp.__file__)"
)


def import_program():
    """Import barrierlp from this checkout's src/, or exit 2 if it is absent."""
    init = SRC / "barrierlp" / "__init__.py"
    if not init.is_file():
        sys.stderr.write("benchmark: no program source at %s\n" % init)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import barrierlp

    if Path(barrierlp.__file__).resolve() != init.resolve():
        sys.stderr.write("benchmark: imported barrierlp from %s, not %s\n" % (barrierlp.__file__, init))
        sys.exit(2)
    return barrierlp


def import_seconds() -> float:
    """Median time to import barrierlp in a fresh interpreter (one warm-up first)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, where = proc.stdout.split("\n")[:2]
        if Path(where).resolve() != (SRC / "barrierlp" / "__init__.py").resolve():
            raise RuntimeError("import probe loaded barrierlp from %s" % where)
        if i:
            times.append(float(seconds))
    return statistics.median(times)


def build_seconds(srcs) -> float:
    """Median time to load every problem document of the workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for src in srcs:
            src.build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(problems, seconds: float, tracer=None, after_pass=None):
    """Verify every problem, pass after pass, within `seconds` (at least one pass).

    Another pass starts only if, at the mean pass time so far, it would end
    within the budget. `after_pass` is called after each pass.
    """
    from verdicts import judge
    from workloads import verify

    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        results = []
        for prob in problems:
            if tracer is not None:
                tracer.problem = "%d:%s" % (len(passes), prob.pid)
            outcome = error = None
            t0 = time.perf_counter()
            try:
                outcome = verify(prob)
            except Exception as exc:  # a crash is a failed problem; the run goes on
                error = exc
            elapsed = time.perf_counter() - t0
            results.append(judge(prob.pid, elapsed, outcome, error, prob.system, prob.candidates))
        passes.append(results)
        if after_pass is not None:
            after_pass()
    return passes


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def pinned_for(workload: str) -> dict:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def report_checks(passes, workload: str):
    """Print verdict-check counts and fingerprint drift; return (correct, drift triple)."""
    from verdicts import drift

    flat = [r for results in passes for r in results]
    raised = sum(1 for r in flat if r.lps is None)
    rejected = sum(1 for r in flat if r.rejected)
    affirmative = sum(1 for r in flat if r.affirmative)
    first = [r.fingerprint() for r in passes[0]]
    deterministic = all([r.fingerprint() for r in results] == first for results in passes)
    print("check: %d problems in %d passes, %d affirmative and re-checked, %d rejected by the "
          "re-check, %d raised; failed_frac %.4f"
          % (len(flat), len(passes), affirmative, rejected, raised,
             (raised + rejected) / len(flat)))
    if not deterministic:
        print("check: passes disagree on verdicts or pivots")
    compared, verdict_drift, pivot_drift = drift(passes[0], pinned_for(workload))
    if compared:
        print("fingerprint: %d/%d problems pinned, verdict_drift %d, pivot_drift %d"
              % (compared, len(passes[0]), verdict_drift, pivot_drift))
    else:
        print("fingerprint: no pinned record for workload %s" % workload)
    return rejected == 0 and deterministic, (compared, verdict_drift, pivot_drift)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float, rss_mb: float) -> dict:
    flat = [r for results in passes for r in results]
    times = [r.seconds for r in flat]
    print("passes: " + " ".join("%.3f" % pass_wall(res) for res in passes))
    if len(times) >= P90_MIN_PROBLEMS:
        p90 = statistics.quantiles(times, n=10)[-1]
        print("verdict_s_p90 %.6g s over %d problems" % (p90, len(times)))
    return {
        "wall_s": statistics.median(pass_wall(res) for res in passes),
        "verdict_s_p50": statistics.median(times),
        "verdict_s_max": statistics.median(max(r.seconds for r in res) for res in passes),
        "setup_s": setup_s,
        "affirmative_frac": sum(r.affirmative for r in flat) / len(flat),
        "ok_frac": 1.0 - sum(r.failed for r in flat) / len(flat),
        "peak_rss_mb": rss_mb,
    }


def traced(workload: str, seed: int, problems, seconds: float, untraced_passes):
    """Per-layer metrics from a traced set-up and traced passes."""
    from barrierlp import load_problem
    from spans import LOAD_SPAN, Tracer, composition, layer_totals, setup_totals
    from workloads import sources

    with Tracer() as tracer:
        load = lambda doc: tracer.call(LOAD_SPAN, load_problem, doc)
        for src in sources(workload, seed, load=load):
            src.build()
        setup = setup_totals(tracer.spans)
        tracer.reset()
        passes = run_passes(problems, seconds, tracer)
    flat = [r for results in passes for r in results]
    traced_wall = sum(pass_wall(res) for res in passes)
    layers = layer_totals(tracer.spans, len(passes), traced_wall, len(flat))
    untraced = statistics.median(pass_wall(res) for res in untraced_passes)
    overhead = statistics.median(pass_wall(res) for res in passes) - untraced
    metrics = dict(setup)
    metrics.update(layers)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced
    metrics.update(composition(tracer.spans, passes[0]))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / ("trace-%s-%d.json" % (workload, seed))))
    return metrics, passes


def as_metrics(values: dict, section: str) -> dict:
    """Print the metrics with the units BENCHMARK.json declares, and return them as JSON."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json %s: %s"
                           % (section, sorted(set(values) ^ set(units))))
    for name, value in values.items():
        print("%-36s %12.6g %s" % (name, value, units[name]))
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import sources

    srcs = sources(args.workload, args.seed)
    problems = [src.build() for src in srcs]
    if args.trace:
        untraced_passes = run_passes(problems, args.seconds / 2)
        metrics, passes = traced(args.workload, args.seed, problems, args.seconds / 2,
                                 untraced_passes)
        passes = untraced_passes + passes
    else:
        setup_s = import_seconds() + build_seconds(srcs)
        # Peak memory through the first pass: later passes only add allocator
        # fragmentation, and their number depends on the machine's speed.
        rss = []
        passes = run_passes(problems, args.seconds, after_pass=lambda: rss.append(peak_rss_mb()))
        metrics = end_to_end(passes, setup_s, rss[0])
    correct, (compared, verdict_drift, pivot_drift) = report_checks(passes, args.workload)
    if args.trace:
        metrics.update({
            "fingerprint.pinned": compared,
            "fingerprint.verdict_drift": verdict_drift,
            "fingerprint.pivot_drift": pivot_drift,
        })
    metrics = as_metrics(metrics, "per_layer" if args.trace else "end_to_end")
    flat = [r for results in passes for r in results]
    print(json.dumps({
        "correct": correct,
        "attempted": len(flat),
        "failed": sum(r.failed for r in flat),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
