"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is emitted with its unit, that
every output check passes on two seeds, and that a perturbed prediction is
counted as a failed operation. It covers all four workloads, including the
two that BENCHMARK.json leaves out.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import settings  # noqa: E402


def run_bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", settings.WORKLOADS)
def test_metrics_emitted_and_outputs_match(workload, trace):
    result = run_bench(workload, 0, trace)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared_units("per_layer" if trace else "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", settings.WORKLOADS)
def test_second_seed(workload):
    result = run_bench(workload, 1, 0)
    assert set(result["metrics"]) == set(declared_units("end_to_end"))
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_prediction_counts_as_failed(monkeypatch):
    fpnn = settings.import_fpnn()
    import inputs
    import run
    import workloads

    reference = run.load_reference("tiny", "predict", 0)
    wl = workloads.Predict("tiny", 0, inputs.ensure("predict", "tiny", 0), reference)
    wl.setup()
    assert run.measure(wl, 0, 2).failed == 0

    evaluate = fpnn.evaluate

    def perturbed(params, samples):
        report = evaluate(params, samples)
        report.residuals = report.residuals.copy()
        report.residuals[0] += 1.0  # one cycle on a prediction of ~100
        return report

    monkeypatch.setattr(fpnn, "evaluate", perturbed)
    loop = run.measure(wl, 0, 3)
    assert loop.attempted == 3 and loop.failed == 3
