"""Checks of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kraussim.cli as cli  # noqa: E402
import kraussim.numerics as numerics  # noqa: E402
import kraussim.simulator as simulator  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _traced_twice(config: dict) -> spans.Tracer:
    cfg = cli.parse_config(config)
    tracer = spans.Tracer()
    for sweep in (0, 1):
        tracer.run_sweep(sweep, lambda: cli.run_experiment(cfg))
    return tracer


def _tiny_exact_config() -> dict:
    return {
        "channel": {"name": "bit_flip", "params": {}},
        "sweep": {"parameter": "p", "grid": [0.25]},
        "mode": "exact",
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_and_self_times_add_up(workload):
    tracer = _traced_twice(workloads.make_config(workload, 7))
    assert tracer.work_counts(0) == tracer.work_counts(1)
    assert tracer.work_counts(0)["simulator.gates_applied"] > 0
    assert tracer.unmeasured(workloads.EXPECTED_LAYERS[workload]) == []
    for sweep in (0, 1):
        total = sum(tracer.self_times(sweep).values())
        assert math.isclose(total, tracer.root_seconds(sweep), rel_tol=0, abs_tol=1e-6)


def test_tracer_restores_every_binding():
    original_run = simulator.run
    original_init = numerics.DensityMatrix.__dict__["__post_init__"]
    _traced_twice(_tiny_exact_config())
    assert cli.run is original_run and simulator.run is original_run
    assert numerics.DensityMatrix.__dict__["__post_init__"] is original_init


def test_layer_missed_by_the_wrappers_is_reported_unmeasured(monkeypatch):
    # a call site the wrappers cannot reach, as if the function had moved
    monkeypatch.setattr(
        spans, "TARGETS", tuple(t for t in spans.TARGETS if t[2] != "run"))
    tracer = _traced_twice(_tiny_exact_config())
    assert tracer.unmeasured(workloads.EXPECTED_LAYERS["mixed_exact"]) == ["simulator.run"]


def test_oracle_gate():
    rows = cli.run_experiment(cli.parse_config(_tiny_exact_config()))
    assert workloads.row_passes(rows[0], workloads.EXACT_TOL)
    off = dataclasses.replace(rows[0], c_measured=rows[0].c_theory + 2e-9)
    nan = dataclasses.replace(rows[0], c_measured=float("nan"))
    failed = dataclasses.replace(rows[0], error="lowered fidelity below threshold")
    assert not any(workloads.row_passes(r, workloads.EXACT_TOL) for r in (off, nan, failed))


def test_inputs_follow_the_seed():
    assert workloads.make_config("mixed_exact", 3) == workloads.make_config("mixed_exact", 3)
    assert workloads.make_config("mixed_exact", 3) != workloads.make_config("mixed_exact", 4)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "qad_readout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
