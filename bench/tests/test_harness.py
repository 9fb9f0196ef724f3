"""Self-test of the benchmark harness: its oracles are not vacuous, and the
tracer counts repeat exactly and leave the program as it found it.

    python3 -m pytest -q bench/tests
"""

import json
import os
import sys
import time
from fractions import Fraction as Q

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deforma import dgla, fixtures as F, linalg  # noqa: E402


def failed(task) -> bool:
    [result] = run.run_pass([task])
    return result.failed


def tampered_f2():
    g = F.f2_dgla()
    table = [[list(v) for v in row] for row in g.brackets[(0, 0)]]
    table[0][1][1] += Q(1)          # [e11, e12] = 2 e12 instead of e12
    return dgla.Dgla(g.underlying, {(0, 0): table})


def test_tampered_bracket_table_fails_axioms_task():
    assert not failed(workloads.validate_task("F2", F.f2_dgla))
    assert failed(workloads.validate_task("F2 tampered", tampered_f2))


def test_wrong_expected_rank_fails_linear_task():
    label, pair, expected = workloads.holim_cases()[0]
    assert expected == {1: 1}
    assert not failed(workloads.holim_task(label, pair, 2, expected))
    assert failed(workloads.holim_task(label, pair, 2, {1: 2}))
    assert failed(workloads.holim_task(label, pair, 2, {}))


def test_wrong_cli_digest_fails_cli_task():
    entry = next(e for e in workloads.load_cli_expected()
                 if e["argv"] == ["cohomology", "--model", "F1"])
    assert not failed(workloads.cli_task(entry, ROOT))
    wrong = dict(entry, stdout_sha256="0" * 64)
    assert failed(workloads.cli_task(wrong, ROOT))
    assert failed(workloads.cli_task(dict(entry, exit=1), ROOT))


def test_traceback_fails_even_when_it_matches_the_record():
    entry = next(e for e in workloads.load_cli_expected()
                 if e["argv"] == ["linf-check", "--model", "F2"])
    assert entry["traceback"]
    task = workloads.cli_inprocess_task(entry)
    outcome = workloads.judge(task, task.run())
    assert outcome.matches and outcome.failed
    assert outcome.error == "traceback"


def test_in_process_cli_matches_the_recorded_subprocess_output():
    for entry in workloads.load_cli_expected():
        if entry["argv"][0] in ("cohomology", "holim", "linf-check"):
            task = workloads.cli_inprocess_task(entry)
            assert workloads.judge(task, task.run()).matches, entry["argv"]


def test_gauge_round_rejects_a_wrong_verdict():
    from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
    from deforma.mc import GaugeResult
    ng = tensor_nilpotent(F.f3_dgla(), truncated_polynomial_algebra(1, 3))
    alpha = {0: [Q(1), Q(0), Q(0), Q(2)]}
    beta = {0: [Q(0), Q(1), Q(-1), Q(0)]}
    task = workloads.gauge_round("F3", lambda: ng, alpha, beta, {})
    value = task.run()
    assert task.check(value)
    ng_, x, y, residue, verdict, stab = value
    assert not task.check((ng_, x, y, residue, GaugeResult("not_equivalent"), stab))
    assert not task.check((ng_, x, y, residue,
                           GaugeResult("equivalent", {0: [Q(1)] * 4}), stab))


def test_traced_counts_repeat_and_bindings_are_restored():
    from deforma import holim
    originals = (linalg.rref, holim.cohomology, dgla.Dgla.bracket)
    tasks = workloads.build("linear", 0, ROOT)[:12]

    def traced_counts():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert holim.cohomology is not originals[1]   # caller's binding
            results = run.run_pass(tasks, tracer.run_task)
        finally:
            tracer.uninstall()
        assert not any(r.failed for r in results)
        calls = {name: stats[0] for name, stats in tracer.stats.items()}
        return calls, dict(tracer.counts)

    first = traced_counts()
    assert first == traced_counts()
    assert first[0]["linalg.rref"] > 0 and first[1]["linalg.rref.cells"] > 0
    assert (linalg.rref, holim.cohomology, dgla.Dgla.bracket) == originals


def test_speedometer_scales_by_the_samples_around_a_window():
    halo = hostspeed.HALO
    speed = hostspeed.Speedometer()
    speed.samples = [(1 - halo / 2, 0.5), (1.5, 0.5), (2 + halo / 2, 0.8),
                     (2 + 2 * halo, 2.0)]
    assert speed.factor(1, 2) == 0.6          # the last lies beyond the halo
    assert speed.factor(2 + 2 * halo, 2 + 2 * halo) == 2.0


def test_timer_samples_are_taken_out_of_the_window():
    speed = hostspeed.Speedometer()

    def busy():
        end = time.perf_counter() + 3 * hostspeed.INTERVAL
        while time.perf_counter() < end:
            pass
        return "done"

    value, start, end, raw = speed.window(busy)
    inside = [t for t, _ in speed.samples if start < t < end]
    assert value == "done" and len(speed.samples) == len(inside) + 2
    assert len(inside) >= 2 and raw < end - start
    [result] = run.run_pass([workloads.Task("busy", busy, lambda v: v == "done")],
                            speed=speed)
    assert not result.failed and result.ref_seconds > 0


def test_spawning_speedometer_samples_once_after_each_window():
    speed = hostspeed.Speedometer(spawning=True)
    value, start, end, raw = speed.window(lambda: "done")
    [(at, factor)] = speed.samples
    assert value == "done" and at >= end and factor > 0
    assert speed.factor(start, end) == factor


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb", "task_ms.p50", "task_ms.p90"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
