"""Self-tests of the benchmark: its output format and its correctness gate.

Run with ``python3 -m pytest bench/tests -q`` from the repository root; they
take about half a minute, most of it one full ``ptdimer verify``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gate
import workloads
from tracing import Tracer, rk4_steps

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


@pytest.mark.parametrize(
    "workload, trace",
    [("figures", 0), ("figures", 1), ("long-reach", 0), ("long-reach", 1), ("verify", 0)],
)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    done = run_bench(tmp_path, "figures", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _rewrite_cell(path: Path, row: int, column: str, transform) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[body[0]].split(",")
    cells = lines[body[1 + row]].split(",")
    index = header.index(column)
    cells[index] = repr(transform(float(cells[index])))
    lines[body[1 + row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corrupted_figure_cell_fails_the_gate(tmp_path):
    figures = workloads.Figures(seed=0, tiny=True)
    result = figures.run_pass(0, tmp_path, None)
    assert all(outcome.ok for outcome in result.outcomes)
    path = tmp_path / "fig5_gain-loss_gamma0.5.csv"
    reference = figures.reference[path.stem]
    assert gate.compare_to_reference(path, reference, figures.stride)[0] == []
    _rewrite_cell(path, 5, "q2002", lambda v: v * (1.0 + 1e-6))
    problems = gate.compare_to_reference(path, reference, figures.stride)[0]
    assert len(problems) == 1 and "q2002" in problems[0]


@pytest.mark.parametrize(
    "column, bad",
    [("q00", 1.5), ("q2002", -1.5), ("share1", 0.75), ("n1", math.inf)],
)
def test_corrupted_sweep_value_fails_the_gate(tmp_path, column, bad):
    path = tmp_path / "sweep.csv"
    call = workloads.invoke(
        ["sweep", "--kind", "gain-gain", "--gamma", "0.5", "--observable", "all",
         "--zeta-max", "3", "--steps", "12", "--out", str(path)]
    )  # fmt: skip
    assert call.exit_code == 0, call.stderr
    assert gate.check_sweep(path, 12)[0] == []
    _rewrite_cell(path, 4, column, lambda v: bad)
    problems = gate.check_sweep(path, 12)[0]
    assert problems and column in problems[0]


def test_missing_hook_target_is_reported_absent():
    layer = types.ModuleType("layer")
    tracer = Tracer()
    tracer.wrap(layer, "gone", "layer.gone")
    tracer.count(layer, "also_gone", "layer.also_gone")
    assert tracer.absent == {"layer.gone", "layer.also_gone"}
    tracer.restore()


def test_rk4_steps_matches_the_integrator_split():
    assert rk4_steps((0.5, 1.0, 2.0, 5.0), 4e-4) == 12500
    assert rk4_steps((0.001,), 4e-4) == 3


def _stratum(bounds: tuple[float, float], stratum: int) -> tuple[float, float]:
    return tuple(
        workloads._log_uniform(bounds, (stratum + edge) / workloads.STRATA) for edge in (0, 1)
    )


def test_long_reach_design_reaches_every_far_field_behaviour():
    """Whatever the run seed, a pass reaches all three far-field behaviours.

    The growth exponent |Im Omega| zeta_max is taken at the low corner of
    each sweep's strata, so the seed cannot move a sweep below it.
    """
    reached = set()
    for kind, observable, g, z, _ in workloads.long_reach_design():
        gamma_low, gamma_high = _stratum(workloads.GAMMA_RANGE, g)
        zeta_low, _ = _stratum(workloads.ZETA_MAX_RANGE, z)
        growth = math.sqrt(max(gamma_low**2 - 1.0, 0.0)) * zeta_low
        if kind == "gain-loss" and gamma_high < 0.9 and zeta_low >= 100.0:
            reached.add("oscillatory far field")
        if kind.startswith("gain") and gamma_low > 1.2 and growth > 200.0:
            reached.add("quadrature: non-finite values")
        lossy_noon = kind in ("passive-loss", "loss-loss") and observable in ("q2002", "all")
        if lossy_noon and growth > 200.0:
            reached.add("overflow: numerical result out of range")
    assert len(reached) == 3, reached
    cells = {(kind, observable) for kind, observable, *_ in workloads.long_reach_design()}
    assert cells == {(k, o) for k in workloads.KINDS for o in workloads.OBSERVABLES}
