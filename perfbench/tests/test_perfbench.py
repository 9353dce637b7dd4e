"""Tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench/tests -q

Each workload runs end to end and passes its output checks; a seed
fixes the inputs; a traced run gives the same output digest as an
untraced one and reports every per-layer metric.  Runs are made in
this process, with calibration computed once: it does not depend on
the workload seed.
"""

import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

tracing, workloads = run.import_library()

# items per round that fail by design: the sphere-pA record-loaded twin
# whose D differs from its lifted twin's, and the two period-14 Katok starts
EXPECTED_FAILED = {"metric-fresh": 1, "metric-orbit": 0, "arc-geometry": 2, "grid-scan": 0}


@pytest.fixture(scope="module", autouse=True)
def calibrate_once():
    from cwdyn import cwmetric
    memo = {}
    original = cwmetric.calibrate

    def calibrate(sys_model, *args, **kwargs):
        if sys_model.kind not in memo:
            memo[sys_model.kind] = original(sys_model, *args, **kwargs)
        return memo[sys_model.kind]

    cwmetric.calibrate = calibrate
    yield
    cwmetric.calibrate = original


def bench(capsys, workload, seed, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    digest = re.search(r"digest=([0-9a-f]{64})", lines[-2]).group(1)
    return code, json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_passes_checks(capsys, workload):
    code, result, _ = bench(capsys, workload, seed=3)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == EXPECTED_FAILED[workload]
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.inputs_digest(workloads.build(workload, 7, "tiny"))
    again = workloads.inputs_digest(workloads.build(workload, 7, "tiny"))
    other = workloads.inputs_digest(workloads.build(workload, 8, "tiny"))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_matches_untraced(capsys, workload):
    code0, plain, digest0 = bench(capsys, workload, seed=5, trace=0)
    code1, traced, digest1 = bench(capsys, workload, seed=5, trace=1)
    assert code0 == code1 == 0
    assert digest0 == digest1
    assert traced["correct"] is True
    assert list(traced["metrics"]) == [m["name"] for m in run.SPEC["per_layer"]]
    assert os.path.getsize(os.path.join(BENCH, "out", f"trace-{workload}-seed5.jsonl")) > 0
    if workload == "metric-fresh":
        layer = traced["metrics"]
        assert layer["cwmetric.cw_metric_profile.lifted.s"]["value"] > 0
        assert layer["cwmetric.cw_metric_profile.record.s"]["value"] > 0
