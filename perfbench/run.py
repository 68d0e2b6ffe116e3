"""ctlinfer benchmark: seeded workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer_fixtures --seed 1 \\
        --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

`--trace 0` times a fixed number of whole passes over the workload's
tasks, untraced: `--seconds` over the workload's nominal pass time (5
passes of `infer_fixtures` and 9 of `synth_implies` at 45 s), so a
faster program gets no more samples than a slower one.  A run that
passes 2.5 x `--seconds` stops early and says so.

On a shared 2-core machine identical passes took from 4.2 s to 9.0 s
within four minutes, because other tenants' load slows the cores for
stretches of seconds to minutes; ten runs of the same code, one after
another, spread by up to 38% (quartiles over the median) on any
statistic of plain wall time, and slow stretches longer than a run move
every such statistic.  So after every task the run measures the host's
speed with a fixed reference computation (`speed.py`, a quarter of the
task's time) and scales the task's time to the reference host, the host
on which that computation takes `speed.UNIT_REF_S`.  Over five runs
this took the spread of `wall_s` from 38% to 3% on `synth_implies`.
It reports:

* `wall_s`       - the time of one pass on the reference host: the sum
                   over the tasks of each task's median scaled time over
                   the passes;
* `peak_rss_mb`  - peak resident memory of this process after the passes
                   (each run is a fresh process, so one workload each);
* `setup_s`      - the median of 16 set-ups (importing the library and
                   building the workload's inputs), each scaled to the
                   reference host like a task: this process's own and 15
                   fresh processes, spread between the passes.

It also prints the passes' plain wall times, the reference computation's
times, and `task_s_p50` and `task_s_p90`, percentiles over the tasks of
each task's median scaled time.  These are not in the result line: over
14 to 22 tasks of very different cost their quartile spread over ten
seeds reached 20% (infer_fixtures) and 32% (synth_implies), too much to
judge a change by.

`--trace 1` runs three untraced and three traced passes in turn, whatever
`--seconds` says, and reports the per-layer metrics of
`spans.layer_metrics` for the fastest traced pass, and `trace.overhead_s`,
the median over the three pairs of traced minus untraced pass time.  An
overhead smaller than the spread of the untraced passes is reported as
unresolved.  Counts that differ between the traced passes are failures.
The spans go to `perfbench/out/`.

Answers are checked after the timed passes: the first pass against the
workload's oracle, every later pass by equality with the first (the
solver runs unseeded, so a pass must repeat the first one exactly).  Per
task the run prints its time (the median scaled time with `--trace 0`,
the fastest plain time with `--trace 1`), answer and verdict, then a summary
with `failed_ratio` and the sample counts, and last one JSON line:
{"correct", "attempted", "failed", "metrics"}.  It exits 0 when every
answer is correct, 1 when some is not, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 15
SETUP_UNITS = 10
DEADLINE_FACTOR = 2.5
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 170


def setup(workload, seed):
    """Import the library and build the inputs; returns (lib, tasks, s)."""
    started = time.perf_counter()
    lib = wl.import_library()
    tasks = workload.prepare(lib, seed)
    return lib, tasks, time.perf_counter() - started


def scaled_setup(seconds, meter=None):
    """A set-up time in reference-host seconds."""
    meter = meter or speed.Meter()
    return meter.after(seconds, min_units=SETUP_UNITS)


def setup_in_fresh_process(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_pass(workload, lib, tasks, tracer=None, meter=None):
    """One pass over the tasks: (wall s, per-task s, answers, errors,
    per-task reference-host s or None).  With a `meter` the host's speed
    is measured after every task, and the wall time leaves it out."""
    times, answers, errors = [], [], []
    scaled = [] if meter is not None else None
    started = time.perf_counter()
    for task in tasks:
        task_started = time.perf_counter()
        try:
            if tracer is None:
                answer = workload.run(lib, task)
            else:
                with tracer.task(task.task_id):
                    answer = workload.run(lib, task)
            error = None
        except Exception as exc:  # a task that raises is a failed task
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - task_started)
        answers.append(answer)
        errors.append(error)
        if meter is not None:
            scaled.append(meter.after(times[-1]))
    wall = time.perf_counter() - started if meter is None else math.fsum(times)
    return wall, times, answers, errors, scaled


def judge(workload, lib, tasks, passes):
    """Per pass and task, None or the reason the answer is wrong."""
    _, _, reference, ref_errors, _ = passes[0]
    ok = [i for i, err in enumerate(ref_errors) if err is None]
    oracles = wl.import_oracles()
    checked = workload.check(lib, oracles, [tasks[i] for i in ok],
                             [reference[i] for i in ok])
    first = list(ref_errors)
    for i, verdict in zip(ok, checked):
        first[i] = verdict
    shown = [workload.describe(lib, a) if e is None else None
             for a, e in zip(reference, ref_errors)]
    verdicts = [first]
    for _, _, answers, errors, _ in passes[1:]:
        row = []
        for i, (answer, error) in enumerate(zip(answers, errors)):
            if error is not None:
                row.append(error)
            elif workload.describe(lib, answer) != shown[i]:
                row.append("answer differs from the first pass")
            else:
                row.append(first[i])
        verdicts.append(row)
    return verdicts, shown


def print_rows(tasks, passes, shown, verdicts, column, times):
    width = max(len(task.task_id) for task in tasks)
    print(f"{'task':<{width}} {column:>9}  answer  |  check")
    for i, task in enumerate(tasks):
        bad = next((v[i] for v in verdicts if v[i] is not None), None)
        answer = shown[i] if shown[i] is not None else passes[0][3][i]
        print(f"{task.task_id:<{width}} {times[i]:9.4f}  {answer}  |  "
              f"{'ok' if bad is None else 'FAILED: ' + bad}")


def pass_count(workload, seconds):
    """Passes of a `--trace 0` run: `seconds` over the workload's nominal
    pass time, so the count does not depend on the program's speed."""
    return max(1, round(seconds / workload.nominal_pass_s))


def measure(workload, seed, seconds):
    """`--trace 0`: the end-to-end metrics."""
    lib, tasks, own_setup = setup(workload, seed)
    meter = speed.Meter()
    wanted = pass_count(workload, seconds)
    setup_times = [scaled_setup(own_setup, meter)]
    passes = []
    started = time.perf_counter()
    while len(passes) < wanted:
        passes.append(run_pass(workload, lib, tasks, meter=meter))
        # The probes are spread over the run, between passes.
        while len(setup_times) <= SETUP_SAMPLES * len(passes) // wanted:
            setup_times.append(setup_in_fresh_process(workload, seed))
        if time.perf_counter() - started > DEADLINE_FACTOR * seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, shown = judge(workload, lib, tasks, passes)
    # Per task, the median over the passes of its reference-host time.
    typical = [statistics.median(p[4][i] for p in passes)
               for i in range(len(tasks))]
    print_rows(tasks, passes, shown, verdicts, "median_s", typical)
    deciles = statistics.quantiles(typical, n=10, method="inclusive")
    metrics = {
        "wall_s": (math.fsum(typical), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    units = sorted(meter.unit_times)
    notes = ["measured passes (host time, reference excluded): "
             + ", ".join(f"{p[0]:.3f} s" for p in passes)
             + f" (median {statistics.median(p[0] for p in passes):.3f} s)",
             "the same in reference-host time: "
             + ", ".join(f"{math.fsum(p[4]):.3f} s" for p in passes),
             f"reference unit: median {statistics.median(units) * 1e3:.3f} "
             f"ms over {len(units)} samples, {units[0] * 1e3:.3f} to "
             f"{units[-1] * 1e3:.3f} ms (reference host: "
             f"{speed.UNIT_REF_S * 1e3:.3f} ms)",
             f"setup in reference-host time, over {len(setup_times)} "
             "set-ups: " + ", ".join(f"{t:.4f}" for t in setup_times),
             f"task_s_p50 = {deciles[4]:.6g} s, task_s_p90 = "
             f"{deciles[8]:.6g} s (over {len(typical)} tasks, each the "
             f"median of {len(passes)} passes)"]
    if len(passes) < wanted:
        notes.append(f"stopped after {len(passes)} of {wanted} passes: "
                     f"over {DEADLINE_FACTOR} x {seconds} s")
    return verdicts, metrics, notes


def measure_layers(workload, seed):
    """`--trace 1`: the per-layer metrics."""
    lib, tasks, _ = setup(workload, seed)
    untraced, traced, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(run_pass(workload, lib, tasks))
        tracer = spanlib.Tracer()
        with spanlib.traced(lib, tracer):
            traced.append(run_pass(workload, lib, tasks, tracer))
        tracers.append(tracer)
    passes = [p for pair in zip(untraced, traced) for p in pair]

    verdicts, shown = judge(workload, lib, tasks, passes)
    print_rows(tasks, passes, shown, verdicts, "best_s",
               [min(p[1][i] for p in passes) for i in range(len(tasks))])
    layers = [spanlib.layer_metrics(t.spans) for t in tracers]
    mismatched = [name for name in spanlib.COUNTS
                  if len({m[name] for m in layers}) > 1]
    # The determinism check counts as one more attempt.
    verdicts.append([None if not mismatched else
                     "per-layer counts differ between traced passes: "
                     + ", ".join(mismatched)])
    fastest = min(range(TRACE_PAIRS), key=lambda i: traced[i][0])
    metrics = {name: (value, spanlib.UNITS[name])
               for name, value in layers[fastest].items()}
    overhead = statistics.median(t[0] - u[0]
                                 for u, t in zip(untraced, traced))
    noise = max(p[0] for p in untraced) - min(p[0] for p in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    fields = ("id", "parent", "name", "start", "end", "attrs")
    out.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "fields": fields,
        "passes": [t.spans for t in tracers]}))
    notes = ["passes (untraced, traced in turn): "
             + ", ".join(f"{p[0]:.3f} s" for p in passes),
             f"trace.overhead_s is the median of {TRACE_PAIRS} traced minus "
             "untraced pass times; "
             + (f"unresolved: within the untraced passes' spread of "
                f"{noise:.3f} s" if abs(overhead) < noise else
                f"above the untraced passes' spread of {noise:.3f} s"),
             f"spans written to {out.relative_to(wl.ROOT)}",
             "count mismatches between traced passes: "
             + (", ".join(mismatched) if mismatched else "none")]
    return verdicts, metrics, notes


def run_one(args):
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        _, _, seconds = setup(workload, args.seed)
        print(json.dumps({"setup_s": scaled_setup(seconds)}))
        return 0
    if args.trace:
        verdicts, metrics, notes = measure_layers(workload, args.seed)
    else:
        verdicts, metrics, notes = measure(workload, args.seed, args.seconds)
    attempted = sum(len(row) for row in verdicts)
    failed = sum(1 for row in verdicts for v in row if v is not None)
    print(f"workload {workload.name}, seed {args.seed}")
    for note in notes:
        print(note)
    print(f"failed_ratio = {failed / attempted:.4f} "
          f"({failed} of {attempted} task runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own process, then one summary table."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=wl.ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if not proc.stdout.strip():
            print(f"{name}: no result (exit {proc.returncode})")
            return 2
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'workload':<16} {'failed_ratio':>12} "
          + " ".join(f"{n:>14}" for n in names))
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<16} {ratio:12.4f} " + " ".join(
            f"{result['metrics'][n]['value']:14.6g}" for n in names))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except wl.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
