"""Tests for the command-line front end: sweeps, figures, verification."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptdimer.observables
import ptdimer.verification
from ptdimer.cli import RunSpec, cmd_sweep, main, write_curve_csv
from ptdimer.configurations import Kind, effective_params, preset_realization
from ptdimer.observables import ObservableCurve, asymptotic_shares


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        meta = handle.readline().rstrip("\n")
        header = handle.readline().rstrip("\n").split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    if data.ndim == 1:
        data = data[None, :]
    return meta, header, data


def test_sweep_writes_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "sweep",
        "--kind", "gain-loss",
        "--gamma", "-0.5",
        "--observable", "spont",
        "--zeta-min", "0.1",
        "--zeta-max", "4.0",
        "--steps", "25",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    meta, header, data = read_csv(out_a)
    assert meta.startswith("# kind=gain-loss, gamma=-0.5, beta=0,")
    assert header == ["zeta", "n1", "n2", "share1", "share2"]
    assert data.shape == (25, 5)
    assert np.all(np.isfinite(data))
    assert np.allclose(data[:, 3] + data[:, 4], 1.0, atol=1e-15)


def test_sweep_q00_columns(tmp_path):
    out = tmp_path / "q.csv"
    code = main(
        [
            "sweep", "--kind", "gain-gain", "--gamma", "0.5",
            "--observable", "q00", "--zeta-min", "0.2", "--zeta-max", "3.0",
            "--steps", "10", "--out", str(out),
        ]
    )
    assert code == 0
    _, header, data = read_csv(out)
    assert header == ["zeta", "n1", "n2", "n12_re", "n12_im", "q00"]
    assert np.all(data[:, 5] >= -1e-12)
    assert np.all(data[:, 5] <= 1.0 + 1e-9)


def test_sweep_rejects_zero_start_for_renormalized_observables(capsys):
    code = main(
        [
            "sweep", "--kind", "gain-loss", "--gamma", "-0.5",
            "--observable", "q00", "--zeta-min", "0",
            "--zeta-max", "2.0", "--out", "/tmp/unused.csv",
        ]
    )
    assert code == 2
    assert "zeta-min" in capsys.readouterr().err


def test_sweep_rejects_unreachable_gamma(capsys):
    code = main(
        [
            "sweep", "--kind", "gain-loss", "--gamma", "-0",
            "--observable", "single", "--out", "/tmp/unused.csv",
        ]
    )
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_sweep_rejects_bad_steps(capsys):
    code = main(["sweep", "--steps", "1", "--out", "/tmp/unused.csv"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--steps", "10000000", "--out", "big.csv"],
        ["sweep", "--config", "big.json"],
        ["figure", "fig2", "--steps", "10000000", "--out", "figs"],
    ],
)
def test_steps_above_cap_rejected_before_the_grid(tmp_path, monkeypatch, capsys, argv):
    # ten million points would hold about 15 GB of moment bundles
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid must not be built")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(json.dumps({"steps": 10_000_000, "out": "big.csv"}))
    monkeypatch.setattr(np, "linspace", no_grid)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "usage error: steps must be at most 100000, got 10000000\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("zeta_max", ["100000000.00000001", "1e20", "1e50"])
def test_sweep_past_max_zeta_is_a_usage_error(tmp_path, monkeypatch, capsys, zeta_max):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--kind", "passive-loss", "--observable", "single", "--zeta-min", "1"]
    assert main(argv + ["--zeta-max", zeta_max, "--out", "far.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: zeta-max must be at most 1e+08, got {float(zeta_max)}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_reaches_max_zeta(tmp_path):
    out = tmp_path / "far.csv"
    argv = ["sweep", "--kind", "passive-loss", "--observable", "single", "--zeta-min", "1"]
    assert main(argv + ["--zeta-max", "1e8", "--steps", "5", "--out", str(out)]) == 0
    _, _, data = read_csv(out)
    assert data[-1, 0] == 1e8 and np.all(data[:, 3] + data[:, 4] == 1.0)


def test_config_file_merge_and_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "kind": "gain-passive",
                "gamma": -1.2,
                "observable": "single",
                "zeta_min": 0.0,
                "zeta_max": 5.0,
                "steps": 12,
                "out": str(tmp_path / "from_config.csv"),
            }
        )
    )
    assert main(["sweep", "--config", str(config)]) == 0
    meta, _, data = read_csv(tmp_path / "from_config.csv")
    assert "kind=gain-passive" in meta and "gamma=-1.2" in meta
    assert data.shape[0] == 12

    # a flag beats the file value
    override = tmp_path / "override.csv"
    assert main(["sweep", "--config", str(config), "--steps", "7", "--out", str(override)]) == 0
    assert read_csv(override)[2].shape[0] == 7


def test_config_rejects_unknown_fields(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"kid": "gain-loss"}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [{"steps": 20.7}, {"gamma": True}, {"out": None}])
def test_config_rejects_mistyped_values(tmp_path, monkeypatch, capsys, fields):
    # each would otherwise be truncated or coerced (20 rows, gamma -1, a file "None")
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"steps": 5, "out": "never.csv", **fields}))
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(next(iter(fields.values()))) in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["typed.json"]


def test_cmd_sweep_accepts_runspec_directly(tmp_path):
    run = RunSpec(
        kind="loss-loss",
        gamma=-0.5,
        observable="q2002",
        zeta_min=0.0,
        zeta_max=6.0,
        steps=15,
        out=str(tmp_path / "ll.csv"),
    )
    assert cmd_sweep(run) == 0
    _, header, data = read_csv(tmp_path / "ll.csv")
    assert header == ["zeta", "n1", "n2", "q2002"]
    assert data[0, 3] == -1.0  # anti-correlated launch
    assert np.all(data[:, 3] <= 1e-12)


def test_csv_cells_print_as_17_significant_digits(tmp_path):
    # every cell reads as format(x + 0.0, ".17g"): negative zero folded,
    # NaN as "nan", subnormals and inexact decimals in full
    zetas = np.array([0.0, 0.1, 1.0 / 3.0])
    data = {
        "n1": np.array([-0.0, 5e-324, 2.2250738585072014e-308]),
        "n2": np.array([0.1, 1.0 / 3.0, 1e300]),
        "q2002": np.array([math.nan, -1.0, -0.0]),
    }
    curve = ObservableCurve("q2002", zetas, data)
    realization = preset_realization(Kind.GAIN_LOSS, 0.5)
    path = tmp_path / "cells.csv"
    write_curve_csv(path, Kind.GAIN_LOSS, effective_params(realization), 1.5, 1.0, curve)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "# kind=gain-loss, gamma=-0.5, beta=0, nr=1.5, g=1, observable=q2002"
    )
    assert lines[1] == "zeta,n1,n2,q2002"
    columns = (zetas, data["n1"], data["n2"], data["q2002"])
    expected = [[format(float(c[i]) + 0.0, ".17g") for c in columns] for i in range(3)]
    assert [line.split(",") for line in lines[2:]] == expected
    assert lines[2] == "0,0,0.10000000000000001,nan"
    assert lines[3].split(",")[1] == "4.9406564584124654e-324"


@pytest.mark.parametrize("figure, count", [("fig2", 9), ("fig3", 9), ("fig4", 12), ("fig5", 12)])
def test_figure_panel_counts(tmp_path, figure, count):
    assert main(["figure", figure, "--out", str(tmp_path), "--steps", "12"]) == 0
    files = sorted(tmp_path.glob(f"{figure}_*.csv"))
    assert len(files) == count
    for path in files:
        meta, header, data = read_csv(path)
        assert meta.startswith("# kind=")
        assert data.shape[0] == 12


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "fig9"])


def test_verify_passes_at_default_tolerance(capsys):
    report = ptdimer.verification.run_verification(1e-7)
    assert report.ok
    assert len(report.failures) == 0


def test_verify_fails_at_impossible_tolerance():
    report = ptdimer.verification.run_verification(1e-15)
    assert not report.ok
    text = report.describe()
    assert "FAIL" in text


def test_verify_exit_codes(capsys):
    assert main(["verify", "--tolerance", "-1"]) == 2


def test_verify_exit_code_on_failure(monkeypatch):
    from ptdimer.verification import Check, VerificationReport

    report = VerificationReport(tolerance=1e-15)
    report.checks.append(Check("stub case", 1.0, 1e-15))
    monkeypatch.setattr("ptdimer.cli.run_verification", lambda tolerance: report)
    assert main(["verify", "--tolerance", "1e-15"]) == 1


def test_verify_detects_corrupted_propagator(monkeypatch):
    # flip the coupling sign in the closed-form route only: the moment oracle
    # must notice and name a failing case
    import ptdimer.core

    def skewed(n):
        return ptdimer.core.hamiltonian(n) * np.array([[1.0, -1.0], [-1.0, 1.0]])

    monkeypatch.setattr(ptdimer.observables, "hamiltonian", skewed)
    report = ptdimer.verification.run_verification(1e-7)
    assert not report.ok
    assert any("moment oracle" in check.name for check in report.failures)


def test_verify_detects_corrupted_stimulated_cross_products(monkeypatch):
    # halve only the off-diagonal stimulated moments conj(V_1p) V_2p and
    # conj(V_2p) V_1p, the sandwiches formed from a bundle's products, which
    # feed the N00N interference term of q2002; the vacuum moments (formed
    # inside moment_bundle) and the photon numbers stay intact, so only full
    # moment matrices can notice
    moment_bundle, sandwich = ptdimer.observables.moment_bundle, ptdimer.observables._sandwich
    products = []

    def recorded(*args, **kwargs):
        bundle = moment_bundle(*args, **kwargs)
        products.append(bundle.products)
        return bundle

    def halved(weights, x, h):
        moments = sandwich(weights, x, h)
        if any(weights is stimulated for stimulated in products):
            moments = moments * np.array([[1.0, 0.5], [0.5, 1.0]])
        return moments

    for module in (ptdimer.observables, ptdimer.verification):
        monkeypatch.setattr(module, "moment_bundle", recorded)
    monkeypatch.setattr(ptdimer.observables, "_sandwich", halved)
    report = ptdimer.verification.run_verification(1e-7)
    assert not report.ok
    assert any(
        "moment oracle" in check.name or "two-photon mean numbers" in check.name
        for check in report.failures
    )
    assert not any(check.name.endswith("vacuum") for check in report.failures)


def test_sweep_past_the_float_range_exits_0_with_gap_notes(tmp_path, capsys):
    # growth e^709 by zeta 40: the raw numbers leave the floating-point range,
    # the shares do not
    out = tmp_path / "far.csv"
    argv = ["sweep", "--kind", "gain-gain", "--gamma", "3", "--observable", "spont"]
    argv += ["--zeta-max", "300", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no floating-point warnings either
        code = main(argv)
    assert code == 0
    err = capsys.readouterr().err
    assert "error" not in err and "Traceback" not in err
    _, header, data = read_csv(out)
    assert header == ["zeta", "n1", "n2", "share1", "share2"]
    assert np.all(np.isfinite(data[:, 3:]))
    guarded = np.isnan(data[:, 1])
    assert guarded.any() and np.array_equal(guarded, np.isnan(data[:, 2]))
    # one growth-guard note per row with raw columns gapped, and no other note
    notes = [line for line in err.splitlines() if line.startswith("note: ")]
    assert len(notes) == guarded.sum() and all("exceeds the guard" in n for n in notes)


@pytest.mark.parametrize(
    "sweep, zeta_max",
    [
        # n1 n2 passes the float range near zeta 90, the moments only near 180
        (["--kind", "gain-loss", "--gamma", "-2"], "150"),
        # at the degeneracy, where the moments grow like zeta^3 e^{2 zeta}
        (["--kind", "gain-passive", "--gamma", "-1"], "300"),
        # broken regime, growth e^530 by the end
        (["--kind", "gain-loss", "--gamma", "-1.2"], "400"),
    ],
)
def test_sweep_q00_stays_defined_while_moments_are_finite(tmp_path, capsys, sweep, zeta_max):
    out = tmp_path / "q.csv"
    argv = ["sweep", *sweep, "--observable", "q00", "--zeta-min", "0.05"]
    argv += ["--zeta-max", zeta_max, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert "no spontaneous field" not in capsys.readouterr().err
    q00 = read_csv(out)[2][:, -1]
    assert np.all((q00 >= 0.0) & (q00 <= 1.0 + 1e-12))
    # one mode dominates far out, so the vacuum fields become fully correlated
    assert abs(q00[-1] - 1.0) < 1e-4


def test_import_loads_no_scipy():
    # every CLI call pays the import; numpy alone must carry the package
    src = str(Path(ptdimer.observables.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, ptdimer; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"


def _sweep_columns(tmp_path, argv):
    """Exit code, stderr and the named columns of one sweep, warnings as errors."""
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", *argv, "--out", str(out)])
    _, header, data = read_csv(out)
    return code, dict(zip(header, data.T))


def test_passive_loss_q2002_sweep_has_no_decayed_gap(tmp_path, capsys):
    argv = ["--kind", "passive-loss", "--gamma", "-1.2", "--observable", "q2002"]
    code, columns = _sweep_columns(tmp_path, argv + ["--zeta-min", "0", "--zeta-max", "600"])
    assert code == 0
    assert np.all(columns["q2002"] >= -1.0)
    assert "decayed" not in capsys.readouterr().err


def test_gain_gain_all_sweep_reaches_the_asymptotic_shares(tmp_path, capsys):
    argv = ["--kind", "gain-gain", "--gamma", "3", "--observable", "all", "--zeta-max", "300"]
    code, columns = _sweep_columns(tmp_path, argv)
    assert code == 0
    for name in ("share1", "share2", "q00", "q2002"):
        assert np.all(np.isfinite(columns[name])), name
    last = (columns["share1"][-1], columns["share2"][-1])
    assert np.allclose(last, asymptotic_shares(3.0), rtol=0.0, atol=1e-12)
    assert "undefined" not in capsys.readouterr().err


def test_unwritable_out_exits_1_with_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    argv = ["sweep", "--steps", "3", "--out", str(blocker / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
