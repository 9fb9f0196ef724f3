"""deforma benchmark: one command, four workloads, exact oracles.

    python3 bench/run.py --workload {axioms,linear,mc,cli} --seed N
                         --seconds S --trace {0,1}

Run from the repository root; deforma is imported from ``src/``.  With
``--trace 0`` it repeats untraced passes over the workload's task list, each
in a fresh child process, for up to S seconds (always at least one pass) and
reports the end-to-end metrics, with every time scaled to a reference host
speed measured alongside (hostspeed.py).  With ``--trace 1`` it makes one
Fraction-counting pass, one untraced pass and one traced pass and reports
the per-layer metrics.  The last line of stdout is the JSON result; the
lines above it repeat every metric with its unit and sample count.  See
bench/README.md for the reasons behind each workload and metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports deforma only when a workload is built)
from hostspeed import Speedometer  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT = 120


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Result:
    name: str
    kind: str
    seconds: float
    ref_seconds: float      # ``seconds`` scaled to the reference host speed
    failed: bool
    matches: bool
    error: str | None


def run_pass(tasks, runner=None,
             speed: Speedometer | None = None) -> list[Result]:
    """Run every task once; only ``task.run`` is inside the timed window.
    With ``speed`` each window is also scaled to the reference host speed."""
    results, windows = [], []
    for index, task in enumerate(tasks):
        start = time.perf_counter()
        seconds = None
        try:
            if speed is not None:
                value, *window, seconds = speed.window(task.run)
                windows.append((len(results), *window))
            else:
                value = runner(index, task.run) if runner else task.run()
            outcome = None
        except Exception as exc:   # a raising task is a failed task
            value = None
            outcome = workloads.Outcome(False, f"{type(exc).__name__}: {exc}")
        if seconds is None:
            seconds = time.perf_counter() - start
            if speed is not None:   # the task raised inside its window
                windows.append((len(results), start, start + seconds))
        if outcome is None:
            try:
                outcome = workloads.judge(task, value)
            except Exception as exc:
                outcome = workloads.Outcome(
                    False, f"oracle raised {type(exc).__name__}: {exc}")
        del value
        results.append(Result(task.name, task.kind, seconds, seconds,
                              outcome.failed, outcome.matches, outcome.error))
    # scaled once the pass is over, when the samples after each task exist
    for index, start, end in windows:
        results[index].ref_seconds *= speed.factor(start, end)
    return results


def spawn(args, child: str, speed: Speedometer) -> tuple[float, float, dict]:
    """Run this script as a fresh ``--child`` process.  Returns the seconds from
    the spawn to the end of the child's set-up, the same scaled to the
    reference host speed, and the child's JSON line."""
    before = speed.mark()
    start = monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--child", child],
                          capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT,
                          check=True)
    out = json.loads(proc.stdout.decode().splitlines()[-1])
    setup = out["ready"] - start
    return setup, setup * (before + out["ready_factor"]) / 2, out


def run_child(args) -> int:
    """The child side of ``spawn``: set up, then run one pass if asked."""
    tasks = workloads.build(args.workload, args.seed, ROOT)
    out = {"ready": monotonic()}
    speed = Speedometer(spawning=args.workload == "cli")
    out["ready_factor"] = speed.mark()
    if args.child == "pass":
        results = run_pass(tasks, speed=speed)
        out.update(rss_mb=peak_rss_mb(args.workload),
                   results=[dataclasses.asdict(r) for r in results])
    print(json.dumps(out))
    return 0


def probe_import() -> float:
    """Seconds a fresh process spends importing deforma.cli."""
    code = ("import time; t = time.perf_counter(); import deforma.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          cwd=ROOT, env=env, timeout=CHILD_TIMEOUT, check=True)
    return float(proc.stdout.decode().split()[-1])


def peak_rss_mb(workload: str) -> float:
    # the cli workload runs in its child processes; ru_maxrss is in KiB
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def percentile_samples(workload: str, passes, walls) -> list[float]:
    """The alike units task_ms is taken over: the invocations on cli, the
    gauge rounds on mc, and whole passes where the tasks differ in size by
    up to 10,000x (axioms, linear): a percentile over those tasks would only
    pick out whichever task sits at that rank."""
    if workload in ("axioms", "linear"):
        return [wall * 1000 for wall in walls]
    kind = "round" if workload == "mc" else "task"
    return [r.ref_seconds * 1000 for results in passes for r in results
            if r.kind == kind]


def summary(passes) -> tuple[dict, list[str]]:
    """The result's head, and one note per distinct failed task."""
    flat = [r for results in passes for r in results]
    failures = {f"failed: {r.name}: {r.error or 'wrong result'}"
                for r in flat if r.failed}
    return ({"correct": all(r.matches for r in flat), "attempted": len(flat),
             "failed": sum(r.failed for r in flat)}, sorted(failures))


def timed(args) -> tuple[dict, dict, list[str]]:
    """Each pass runs in a fresh process, so that every pass pays the same
    set-up and peak_rss_mb does not depend on how many passes fit.  Every
    time is scaled to the reference host speed (see hostspeed.py); the
    notes give the measured medians too."""
    speed = Speedometer(spawning=args.workload == "cli")
    start = time.perf_counter()
    setups, rss, passes = [], [], []
    while True:
        began = time.perf_counter()
        *setup, out = spawn(args, "pass", speed)
        setups.append(setup)
        rss.append(out["rss_mb"])
        passes.append([Result(**r) for r in out["results"]])
        # stop before a pass that would end after --seconds
        if 2 * time.perf_counter() - began - start > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(spawn(args, "setup", speed)[:2])
    walls = [sum(r.ref_seconds for r in results) for results in passes]
    measured = [sum(r.seconds for r in results) for results in passes]
    samples = percentile_samples(args.workload, passes, walls)
    p90 = (statistics.quantiles(samples, n=10, method="inclusive")[8]
           if len(samples) > 1 else samples[0])
    head, failures = summary(passes)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "task_ms.p50": (statistics.median(samples), "ms"),
        "task_ms.p90": (p90, "ms"),
    }
    notes = [f"setup_s: median of {len(setups)} fresh-process set-ups; "
             f"measured median {statistics.median(s for s, _ in setups):.4f} s",
             f"wall_s: median of {len(walls)} passes of {len(passes[0])} tasks, "
             f"each pass in a fresh process; measured median "
             f"{statistics.median(measured):.4f} s",
             "host speed factor: median "
             f"{statistics.median(f for _, f in speed.samples):.3f} in this "
             "process (1 = reference speed)",
             f"task_ms: {len(samples)} samples"
             + {"mc": " (gauge rounds)", "cli": " (invocations)"}.get(
                 args.workload, " (passes)"),
             f"failed_ratio: {head['failed'] / head['attempted']:.4f} "
             f"({head['failed']}/{head['attempted']})"]
    return head, metrics, notes + failures


def traced(args, tasks) -> tuple[dict, dict, list[str]]:
    from tracing import PER_LAYER, FractionCounter, Tracer
    # the counting pass comes first and doubles as the warm-up
    counter = FractionCounter()
    run_pass(tasks, counter.run_task)
    untraced = run_pass(tasks)
    tracer = Tracer()
    tracer.install()
    try:
        traced_results = run_pass(tasks, tracer.run_task)
    finally:
        tracer.uninstall()

    wall = sum(r.seconds for r in untraced)
    wall_traced = sum(r.seconds for r in traced_results)
    extra = {"fraction.ops": counter.ops,
             "trace.overhead_ratio": wall_traced / wall,
             "cli.import_s": (statistics.median(probe_import()
                                                for _ in range(IMPORT_PROBES))
                              if args.workload == "cli" else 0.0)}
    metrics = {name: (extra[name] if name in extra else tracer.metric(name), unit)
               for name, unit, _ in PER_LAYER}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    notes = [f"one Fraction-counting pass, one untraced pass {wall:.3f} s, one "
             f"traced pass {wall_traced:.3f} s; spans in {os.path.relpath(path, ROOT)}"]
    head, failures = summary([traced_results])
    return head, metrics, notes + failures


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deforma", "__init__.py")):
        print(f"bench: no deforma sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.child:
        return run_child(args)
    if args.trace:
        tasks = workloads.build(args.workload, args.seed, ROOT, in_process=True)
        head, metrics, notes = traced(args, tasks)
    else:
        head, metrics, notes = timed(args)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({**head, "metrics": {name: {"value": value, "unit": unit}
                                          for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
