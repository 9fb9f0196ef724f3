#!/usr/bin/env python3
"""Paired benchmark runs of a base revision and the working tree, summarised per metric.

    python3 scripts/bench_pairs.py --base HEAD --workloads mc linear \\
        --seeds 11 12 13 --out BENCH_<n>.json

The base revision is extracted with ``git archive`` into a temporary
directory under ``$TMPDIR``, and the change is copied beside it: the
working tree's files that ``git ls-files --cached --others
--exclude-standard`` lists, tracked and untracked but not ignored, read as
they stand (``snapshot``), so both sides run from a fresh directory and
nothing is registered in ``.git``.  For every seed and workload it runs
``bench/run.py --trace 0`` once on each side, for the ``run_seconds`` of
``BENCHMARK.json``, alternating which side goes first, and keeps the JSON
result line and the ``# failed: <task>: <error>`` notes printed before it.
The output file holds, per workload
and per end-to-end metric of ``BENCHMARK.json``: the median and quartiles
of each side, the ratio of the medians, in how many pairs the change was
better, and two verdicts, ``claim_rule_met`` and ``worse_than_bound``
(``compare``).  It also keeps every run's ``correct``, ``attempted`` and
``failed``, and its failure notes, so that a one-off failure names its
task.  The benchmark harness itself is only run, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: str) -> str:
    """The committed files of ``rev`` under ``into``; returns the directory."""
    os.makedirs(into)
    archive = os.path.join(into, "tree.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, rev],
                   check=True)
    target = os.path.join(into, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(target)
    os.remove(archive)
    return target


def snapshot(into: str, root: str = ROOT) -> str:
    """The working tree's files of ``root`` under ``into``, as they stand:
    the tracked ones and the untracked ones that are not ignored; returns
    the directory."""
    target = os.path.join(into, "tree")
    names = subprocess.run(["git", "-C", root, "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in os.fsdecode(names).split("\0"):
        src = os.path.join(root, name)
        if name and os.path.isfile(src):        # a deleted tracked file is left out
            os.makedirs(os.path.dirname(os.path.join(target, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(target, name))
    return target


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one run, with its failure notes under
    ``failures``: one "<task>: <error>" per distinct failed task."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree} ({workload}, seed {seed}):\n"
                           f"{out.stderr[-2000:]}")
    notes = [line.strip()[len("# failed: "):] for line in lines[:-1]
             if line.strip().startswith("# failed: ")]
    return {**json.loads(lines[-1]), "failures": notes}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric, the two sides summarised and judged.  ``claim_rule_met``:
    the change is better in at least nine tenths of the pairs (ties count
    for neither side), and its median is better than the base median by
    more than the base quartile spread.  ``worse_than_bound``: the change
    median is worse than the base median by more than the metric's
    relative ``bound`` (None when the metric has no bound)."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        sb, sc = summary(base), summary(change)
        iqr = sb["q3"] - sb["q1"]
        gain = (sb["median"] - sc["median"]) * (1 if lower else -1)
        bound = spec.get("bound")
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "base": sb, "change": sc,
                     "ratio": sc["median"] / sb["median"] if sb["median"] else None,
                     "change_better_pairs": wins, "base_iqr": iqr,
                     "claim_rule_met": 10 * wins >= 9 * len(pairs) and gain > iqr,
                     "worse_than_bound": None if bound is None
                     else -gain > bound * abs(sb["median"]),
                     "values": {"base": base, "change": change}}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision of the base")
    p.add_argument("--workloads", nargs="+", default=["mc"])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(11, 21)))
    p.add_argument("--out", required=True, help="output file, BENCH_<n>.json")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(args.base, os.path.join(tmp, "base")),
                 "change": snapshot(os.path.join(tmp, "change"))}
        result = {
            "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
            "change": {"rev": "WORKTREE", "on_top_of": git("rev-parse", "HEAD")},
            "command": f"python3 bench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "seeds": args.seeds,
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "workloads": {}}
        for workload in args.workloads:
            pairs = []
            for n, seed in enumerate(args.seeds):
                order = ("base", "change") if n % 2 == 0 else ("change", "base")
                runs = {side: run_once(trees[side], workload, seed, seconds)
                        for side in order}
                pairs.append((runs["base"], runs["change"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} wall_s {runs[side]['metrics']['wall_s']['value']:.4g}"
                    for side in ("base", "change")), file=sys.stderr)
            result["workloads"][workload] = {
                "pairs": len(pairs),
                "runs": {side: [{k: r[k] for k in ("correct", "attempted", "failed",
                                                     "failures")}
                                for r in (pair[i] for pair in pairs)]
                         for i, side in enumerate(("base", "change"))},
                "metrics": compare(pairs, metrics)}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
