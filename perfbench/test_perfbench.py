"""Tests of the benchmark itself, on the tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
bt, bw = run._bench_modules()
bench_speed = run.bench_speed

from unimoments import polynomials  # noqa: E402

WORKLOADS = [w["name"] for w in run.SPEC["workloads"]]


def traced_run(name, seed=3, expected=None):
    workload = bw.build(name, seed, "tiny", run.WORKERS, expected)
    passes, layers, _traces = run.measure(workload, 0, True, bt, bw)
    return passes, run.metrics_of(passes, layers, [0.0], True, bt)


def failed(passes):
    return sum(len(p.failures) for p in passes)


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counters_repeat_across_runs(name):
    passes_a, metrics_a = traced_run(name)
    passes_b, metrics_b = traced_run(name)
    assert failed(passes_a) == failed(passes_b) == 0
    assert set(metrics_a) == {m["name"] for m in run.SPEC["per_layer"]}
    for metric in bt.EXACT_COUNTS + bt.COMPUTED:
        assert metrics_a[metric] == metrics_b[metric], metric


def test_each_layer_is_traced_where_its_workload_runs_it():
    counted = {name: traced_run(name)[1] for name in WORKLOADS}
    assert counted["exact-table"]["counting.calls"] > 0
    assert counted["exact-table"]["counting.k7_w1_s"] > 0
    assert counted["mc-small-n"]["sampling.calls"] > 0
    assert counted["mc-large-n"]["linalg.eigvalsh_calls"] > 0
    assert counted["traffic-exact"]["graphs.tau_calls"] == 4
    assert counted["traffic-exact"]["sampling.calls"] == 500
    assert counted["traffic-exact"]["cli.calls"] == 0


def test_corrupted_reference_row_raises_error_rate():
    expected = bw.Expected.load()
    row = expected.reference[6]
    expected.reference[6] = (row[0], row[1] + 1) + row[2:]
    passes, _ = traced_run("exact-table", expected=expected)
    assert failed(passes) > 0
    passes, _ = traced_run("traffic-exact", expected=expected)  # the 6-cycle's state
    assert failed(passes) > 0


def test_corrupted_stored_traffic_state_raises_error_rate():
    expected = bw.Expected.load()
    for entry in expected.traffic["tiny"]["words"] + expected.traffic["tiny"]["graphs"]:
        entry["tau"] = str(Fraction(entry["tau"]) + 1)
    passes, _ = traced_run("traffic-exact", expected=expected)
    assert failed(passes) == 3 * len(passes)  # two words and one graph per pass


def test_wrong_exact_moment_fails_the_monte_carlo_checks(monkeypatch):
    original = polynomials.exact_moment
    monkeypatch.setattr(polynomials, "exact_moment", lambda k, n: original(k, n) * 2)
    passes, _ = traced_run("mc-large-n")
    assert failed(passes) == sum(p.attempted for p in passes)


def test_speed_probe_samples_during_a_call():
    with bench_speed.SpeedProbe() as probe:
        out, elapsed, speed = probe.timed(lambda: [bench_speed.kernel() for _ in range(400)])
        failed_call = probe.timed(lambda: 1 / 0)[0]
    assert len(out) == 400 and isinstance(failed_call, ZeroDivisionError)
    # the timer fired during the call, besides the samples taken before it
    assert len(probe.samples) > 2 * bench_speed.LEAD_SAMPLES + 1
    assert elapsed > 0 and speed > 0 and probe.sampling_s > 0


def test_command_line_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc-large-n", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-large-n",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
