"""Smoke test of the benchmark itself (about a minute).

    python3 -m pytest perfbench/tests

Runs every workload at minimum length, traced and untraced, and checks the
result line against BENCHMARK.json; then checks that the correctness gate
trips on a wrong reference wave and that the benchmark refuses to run
without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimum_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _short(wl, steps):
    config = dict(wl.config, T=steps * wl.config["tau"])
    return dataclasses.replace(wl, config=config, steps=steps)


@pytest.fixture(scope="module")
def swlw_modules():
    return run.import_swlw()


@pytest.mark.parametrize("workload", ["wave_dense", "truncate_sweep"])
def test_wrong_reference_wave_trips_the_gate(workload, swlw_modules,
                                             tmp_path):
    import yaml

    wl = _short(workloads.make(workload, 5), steps=3)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(wl.config))
    _, out = run.run_once(wl, swlw_modules, config_path, tmp_path,
                          calibration.Meter())
    failures, errs = workloads.check(wl, out)
    assert failures == []

    ref = wl.reference
    for wrong in (dataclasses.replace(ref, x0=ref.x0 + 0.5),
                  dataclasses.replace(ref, alpha=ref.alpha - 0.05)):
        failures, _ = workloads.check(
            dataclasses.replace(wl, reference=wrong), out)
        assert any("err_u" in f for f in failures), failures


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wave_dense", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
