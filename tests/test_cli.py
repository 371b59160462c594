"""Tests for the command-line front end: sweeps, figures, verification."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptdimer.observables
import ptdimer.verification
from ptdimer.cli import (
    RunSpec,
    UsageError,
    build_parser,
    cmd_figure,
    cmd_sweep,
    main,
    write_curve_csv,
)
from ptdimer.configurations import (
    Kind,
    UnreachableGammaError,
    effective_params,
    preset_realization,
    realization_for_gamma,
)
from ptdimer.observables import (
    CURVE_COLUMNS,
    LAUNCHES,
    ZERO_UNDEFINED,
    ObservableCurve,
    asymptotic_shares,
    launch_moments,
    sample_curve,
    vacuum_pump_weights,
    with_envelope,
)


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


@pytest.mark.parametrize(
    "fields",
    [{"steps": 20.7}, {"gamma": True}, {"out": None}, {"out": ""}, {"out": "sub/"}],
)
def test_config_rejects_mistyped_values(tmp_path, monkeypatch, capsys, fields):
    # each would otherwise be truncated or coerced (20 rows, gamma -1, a file "None"),
    # or name no file (an I/O error on ".", a file "sub")
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"steps": 5, "out": "never.csv", **fields}))
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(next(iter(fields.values()))) in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["typed.json"]


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (None, ["--config", "run.json"], "cannot read config file"),
        ("{kind: gain-loss", ["--config", "run.json"], "config file is not valid JSON"),
        ("[]", ["--config", "run.json"], "config file must hold a single JSON object"),
        ('{"kind": "gain"}', ["--config", "run.json"], "unknown kind 'gain'"),
        ('{"observable": "x"}', ["--config", "run.json"], "unknown observable 'x'"),
        (None, ["--zeta-min", "-1"], "zeta-min must be finite and non-negative, got -1.0"),
        (None, ["--zeta-min", "2", "--zeta-max", "1"], "zeta-max must exceed zeta-min, got 1.0"),
        (None, ["--steps", "x"], "argument --steps: invalid int value: 'x'"),
        (None, ["--bogus"], "unrecognized arguments: --bogus"),
        # linspace repeats a point: the window holds fewer than --steps doubles
        (
            None,
            ["--zeta-min", "1", "--zeta-max", "1.0000000000000002", "--steps", "3"],
            "--zeta-min..--zeta-max is too narrow for --steps 3",
        ),
        (
            None,
            ["--zeta-min", "0.05", "--zeta-max", "0.05000000000000001", "--steps", "50"],
            "--zeta-min..--zeta-max is too narrow for --steps 50",
        ),
    ],
)
def test_bad_sweep_input_is_a_usage_error(tmp_path, monkeypatch, capsys, config, argv, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.json").write_text(config, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert main(["sweep", *argv, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_sweep_creates_the_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--steps", "3", "--out", "new/dir/x.csv"]) == 0
    assert read_csv(tmp_path / "new" / "dir" / "x.csv")[2].shape == (3, 5)


@pytest.mark.parametrize(
    "argv", [["sweep", "--steps", "3", "--out", "f/x.csv"], ["figure", "fig2", "--out", "f/figs"]]
)
def test_output_path_under_a_file_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("not a directory", encoding="utf-8")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["f"]
    assert (tmp_path / "f").read_text(encoding="utf-8") == "not a directory"


def test_cmd_figure_rejects_unknown_id_before_writing(tmp_path):
    with pytest.raises(UsageError, match="unknown figure 'fig9'"):
        cmd_figure("fig9", tmp_path / "figs")
    assert list(tmp_path.iterdir()) == []


def test_moments_breaking_a_bound_are_a_gap_with_one_note(tmp_path, monkeypatch, capsys):
    # negated sandwiches give negative photon numbers at every grid point
    sandwich = ptdimer.observables._sandwich
    monkeypatch.setattr(ptdimer.observables, "_sandwich", lambda *args: -sandwich(*args))
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--kind", "gain-loss", "--gamma", "-0.5", "--out", "x.csv"]
    assert main(argv) == 0
    assert capsys.readouterr() == (
        "wrote x.csv (200 rows)\n",
        "note: zeta=0.05..10, 200 points: "
        "moments at zeta=0.05 break non-negativity or the Cauchy-Schwarz bound\n",
    )
    _, header, data = read_csv(tmp_path / "x.csv")
    assert header == ["zeta", "n1", "n2", "share1", "share2"]
    assert data.shape == (200, 5) and np.isnan(data[:, 1:]).all()


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
    observable = {"fig2": "spont", "fig3": "q00", "fig4": "single", "fig5": "q2002"}[figure]
    start = [] if observable in ZERO_UNDEFINED else ["--zeta-min", "0"]
    for path in files:
        meta, header, data = read_csv(path)
        assert meta.startswith("# kind=")
        assert data.shape[0] == 12
        # each panel is the default sweep of its device, byte for byte
        _, kind, gamma = path.stem.split("_")
        sweep = tmp_path / "sweep" / path.name
        device = ["--kind", kind, "--gamma", gamma.removeprefix("gamma"), *start]
        grid = ["--observable", observable, "--steps", "12", "--out", str(sweep)]
        assert main(["sweep", *device, *grid]) == 0
        assert sweep.read_bytes() == path.read_bytes()


def test_figure_rejects_unknown_id(capsys):
    assert main(["figure", "fig9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "invalid choice: 'fig9'" in err
    assert err.count("\n") == 1


def test_only_help_leaves_main_by_system_exit(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: the following arguments are required: command\n"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "-h"])
    assert exit_info.value.code == 0 and "--zeta-max" in capsys.readouterr().out


def test_verify_passes_at_default_tolerance(capsys):
    report = ptdimer.verification.run_verification()
    assert report.ok
    assert len(report.failures) == 0


def test_verify_checks_every_reachable_device():
    # the oracle checks cover exactly the devices realization_for_gamma builds, in kind
    # order and -m before +m, and every deviation is a plain float
    reachable = []
    for kind in Kind:
        for magnitude in ptdimer.verification.GRID_GAMMA_MAGNITUDES:
            for gamma in (-magnitude, magnitude):
                try:
                    realization_for_gamma(kind, gamma)
                except UnreachableGammaError:
                    continue
                reachable.append((kind.value, gamma))
    report = ptdimer.verification.run_verification()
    labels = re.compile(r"moment oracle \[(\S+) gamma=([-+][0-9.]+)\] vacuum")
    checked = [
        (match[1], float(match[2]))
        for match in map(labels.match, (check.name for check in report.checks))
        if match
    ]
    assert checked == reachable
    assert len(report.checks) == 92
    assert all(type(check.deviation) is float for check in report.checks)
    # verify's limit table, pinned: a change that loosens any limit has to edit this line
    limits = Counter(check.limit for check in report.checks)
    assert limits == {1e-7: 85, 1e-10: 3, 1e-12: 2, 1e-9: 1, 1e-4: 1}


def test_verify_fails_at_impossible_tolerance(monkeypatch):
    monkeypatch.setattr(ptdimer.verification, "ROUTE_TOL", 1e-15)
    report = ptdimer.verification.run_verification()
    assert not report.ok
    text = report.describe()
    assert "FAIL" in text


def test_verify_report_ranks_a_nan_deviation_worst():
    from ptdimer.verification import Check, VerificationReport

    report = VerificationReport()
    report.checks += [Check("a", 1e-9, 1e-7), Check("b", math.nan, 1e-7), Check("c", 5e-8, 1e-7)]
    assert report.worst().name == "b"
    lines = report.describe().splitlines()
    assert lines[1] == "FAIL b: deviation nan > 1e-07"
    assert lines[2] == "worst: b (nan of allowed 1e-07)"


def test_verify_exit_codes(capsys):
    # the route tolerance is a constant, so verify takes no options
    assert main(["verify", "--tolerance", "1e-7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--tolerance" in err
    assert len(err.splitlines()) == 1


def test_verify_exit_code_on_failure(monkeypatch):
    from ptdimer.verification import Check, VerificationReport

    report = VerificationReport()
    report.checks.append(Check("stub case", 1.0, 1e-15))
    monkeypatch.setattr("ptdimer.cli.run_verification", lambda: report)
    assert main(["verify"]) == 1


def test_an_empty_verification_report_fails(monkeypatch, capsys):
    # a run that checked nothing neither passes nor crashes its description
    from ptdimer.verification import VerificationReport

    report = VerificationReport()
    assert not report.ok
    with pytest.raises(ValueError, match="no checks ran"):
        report.worst()
    monkeypatch.setattr("ptdimer.cli.run_verification", lambda: report)
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == "0 checks, route tolerance 1e-07\nno checks ran\n"


def test_verify_detects_corrupted_propagator(monkeypatch):
    # flip the coupling sign in the closed-form route only: the moment oracle
    # must notice and name a failing case
    import ptdimer.core

    def skewed(n):
        return ptdimer.core.hamiltonian(n) * np.array([[1.0, -1.0], [-1.0, 1.0]])

    monkeypatch.setattr(ptdimer.observables, "hamiltonian", skewed)
    report = ptdimer.verification.run_verification()
    assert not report.ok
    assert any("moment oracle" in check.name for check in report.failures)


def test_verify_detects_corrupted_stimulated_cross_products(monkeypatch):
    # halve only the off-diagonal stimulated moments conj(V_1p) V_2p and
    # conj(V_2p) V_1p, the sandwiches formed from a bundle's products, which
    # feed the N00N interference term of q2002; the vacuum moments (formed
    # inside moment_bundles) and the photon numbers stay intact, so only full
    # moment matrices can notice; a stack's products are one array
    moment_bundles, sandwich = ptdimer.observables.moment_bundles, ptdimer.observables._sandwich
    products = []

    def recorded(*args, **kwargs):
        bundles = moment_bundles(*args, **kwargs)
        products.append(bundles.products)
        return bundles

    def halved(weights, x, h):
        moments = sandwich(weights, x, h)
        if any(weights is stimulated for stimulated in products):
            moments = moments * np.array([[1.0, 0.5], [0.5, 1.0]])
        return moments

    monkeypatch.setattr(ptdimer.observables, "moment_bundles", recorded)
    monkeypatch.setattr(ptdimer.observables, "_sandwich", halved)
    report = ptdimer.verification.run_verification()
    assert not report.ok
    assert any(
        "moment oracle" in check.name or "two-photon mean numbers" in check.name
        for check in report.failures
    )
    assert not any(check.name.endswith("vacuum") for check in report.failures)


def _recorded_verification(monkeypatch):
    """One run_verification, with each moment_bundles stack (params, result), each
    _evaluate result and each oracle call (marks, path)."""
    verification, observables = ptdimer.verification, ptdimer.observables
    moment_bundles, evaluate = observables.moment_bundles, verification._evaluate
    integrate = verification.integrate_moments_path
    stacks, evaluations, paths = [], [], []

    def recorded_bundles(params, zetas):
        bundles = moment_bundles(params, zetas)
        stacks.append((list(params), bundles))
        return bundles

    def recorded_evaluations(*args):
        evaluations.append(evaluate(*args))
        return evaluations[-1]

    def recorded_paths(*args, **kwargs):
        paths.append((list(args[2]), integrate(*args, **kwargs)))
        return paths[-1][1]

    monkeypatch.setattr(observables, "moment_bundles", recorded_bundles)
    monkeypatch.setattr(verification, "_evaluate", recorded_evaluations)
    monkeypatch.setattr(verification, "integrate_moments_path", recorded_paths)
    return verification.run_verification(), stacks, evaluations, paths


def test_verify_evaluates_one_stack_and_one_oracle_call(monkeypatch):
    # one device table: one evaluation of one moment_bundles stack (the 21 grid devices)
    # on the grid's marks, and one oracle call on the same marks; every generator is real,
    # so no device's products turn complex in the shared stack
    report, stacks, evaluations, paths = _recorded_verification(monkeypatch)
    assert len(report.checks) == 92 and report.ok
    ((params, bundles),) = stacks
    ((evaluated, *_),) = evaluations
    assert evaluated is bundles
    marks = [0.0, 0.5, 1.0, 2.0, 5.0]
    assert len(params) == 21 and bundles.zetas.tolist() == marks
    assert ptdimer.observables._van_loan_generators(params)[0].dtype == np.float64
    ((oracle_marks, path),) = paths
    assert oracle_marks == marks and len(path) == len(marks)


def test_verify_oracle_deviations_are_each_devices_own(monkeypatch):
    # every oracle and correlation check, recomputed from its devices' own stack
    # against the same oracle path, gives the report's deviation bit for bit: the
    # shared stack keeps devices, launch states, marks and check names aligned
    verification = ptdimer.verification
    report, [(devices, shared)], [(_, _, columns, _)], [(_, path)] = _recorded_verification(
        monkeypatch
    )
    oracle = np.stack(path, 2)
    launches = list(LAUNCHES)
    suffixes = [name.split("] ")[-1] for name in verification._ORACLE_CHECK_NAMES]
    index = -1
    checks = [c for c in report.checks if c.name.startswith(("moment oracle", "two-photon mean"))]
    for check in checks:
        j = 3 if check.name.startswith("two-photon") else suffixes.index(check.name.split("] ")[1])
        if j == 0:  # each device's checks start with its vacuum launch
            index += 1
        p = devices[index]
        bundle = ptdimer.observables.moment_bundles((p,), verification.GRID_ZETAS)
        own = with_envelope(bundle, launch_moments(bundle, launches[j]))[0]
        frame = np.exp(-2.0 * p.beta * bundle.zetas)
        deviation = float(np.max(np.abs(own - oracle[index, j]).max(axis=(1, 2)) * frame))
        assert deviation.hex() == check.deviation.hex(), check.name
    assert len(checks) == 84 and index + 1 == len(devices) == 21  # every row is an oracle row
    deviations = {check.name: check.deviation for check in report.checks}

    # both correlation deviations are exactly 0.0 on this grid, so each section's rows
    # of the shared columns are also compared, byte for byte, with what sample_curve writes
    rows = [i for i, p in enumerate(devices) if max(vacuum_pump_weights(p)) > 0.0]
    past_zero = verification.GRID_ZETAS[1:]
    q = np.array([sample_curve(devices[i], "q00", past_zero).data["q00"] for i in rows])
    bound = float(np.max(np.maximum(-q, q - 1.0), initial=0.0))
    assert bound.hex() == deviations["vacuum correlation bounded in [0, 1]"].hex()
    assert shared.zetas[1:].tolist() == list(past_zero)
    assert q.size == 48 and columns["q00"][rows][:, 1:].tobytes() == q.tobytes()

    q = np.array([sample_curve(p, "q2002", (0.0,)).data["q2002"] for p in devices])
    anchor = float(np.max(np.abs(q + 1.0), initial=0.0))
    assert anchor.hex() == deviations["two-photon correlation anchored at -1"].hex()
    assert q.size == 21 and columns["q2002"][:, :1].tobytes() == q.tobytes()


def test_launch_table_is_the_input_moment_matrix_on_both_routes(monkeypatch):
    # on every verify grid device, each row of LAUNCHES is its launch's input moment
    # matrix on both routes: the closed form at zeta 0 and the oracle started from
    # diag(row) at mark 0 both return it exactly (the closed form's conj(n12) is a -0.0
    # imaginary part, so equal in value, not in bytes); and the observables undefined
    # at zeta 0 are exactly those that read the vacuum launch
    verification, observables = ptdimer.verification, ptdimer.observables
    tables, drift_and_pump = [], verification.drift_and_pump
    monkeypatch.setattr(
        verification, "drift_and_pump", lambda r: tables.append(r) or drift_and_pump(r)
    )
    assert verification.run_verification().ok
    (devices,) = tables
    params = [effective_params(r) for r in devices]
    assert len(devices) == 21
    initial = np.array([np.diag(photons) for photons in LAUNCHES.values()])
    (oracle,) = verification.integrate_moments_path(
        initial, drift_and_pump(devices), [0.0], step=verification.ORACLE_STEP
    )
    bundles = observables.moment_bundles(params, [0.0])
    for j, (launch, photons) in enumerate(LAUNCHES.items()):
        want = np.broadcast_to(np.diag(photons), (len(devices), 2, 2))
        assert np.array_equal(launch_moments(bundles, launch)[:, 0], want), launch
        assert oracle[:, j].tobytes() == want.astype(oracle.dtype).tobytes(), launch

    vacuum = [name for name in CURVE_COLUMNS if observables._CURVE_LAUNCHES[name] == "vacuum"]
    assert ZERO_UNDEFINED == tuple(vacuum)
    for name in CURVE_COLUMNS:
        *_, masks = observables._evaluate(params, name, [0.0], None)
        gap = np.any(list(masks.values()), axis=0)
        assert gap.all() if name in ZERO_UNDEFINED else not gap.any(), name


def test_verify_detects_a_reversed_device_stack(monkeypatch):
    # a bundle stack whose rows run against its devices must fail the oracle checks
    moment_bundles = ptdimer.observables.moment_bundles

    def reversed_stack(*args):
        b = moment_bundles(*args)
        return dataclasses.replace(
            b, n1=b.n1[::-1], n2=b.n2[::-1], n12=b.n12[::-1], products=b.products[::-1],
            h=b.h[::-1], log_envelope=b.log_envelope[::-1],
        )  # fmt: skip

    monkeypatch.setattr(ptdimer.observables, "moment_bundles", reversed_stack)
    report = ptdimer.verification.run_verification()
    assert not report.ok
    assert any("moment oracle" in check.name for check in report.failures)


def test_verify_fails_on_a_nan_structure_sample(monkeypatch, capsys):
    # the structure checks fold their samples with np.max, which keeps a NaN: sample 4 of
    # the first propagator call (the fifth sample's U(za)) fails each check that reads it,
    # by name
    propagator, calls = ptdimer.verification.propagator, []

    def fifth_is_nan(n, zeta):
        calls.append(zeta)
        u = propagator(n, zeta)
        if len(calls) == 1:
            u[0, 4] = math.nan
        return u

    monkeypatch.setattr(ptdimer.verification, "propagator", fifth_is_nan)
    report = ptdimer.verification.run_verification()
    assert {check.name for check in report.failures} == {
        "propagator determinant (scaled)",
        "propagator composition (scaled)",
        "propagator vs matrix exponential (scaled)",
    }
    calls.clear()
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL propagator determinant (scaled): deviation nan" in out
    assert out.endswith("3 checks failed\n")


def test_verify_reports_a_route_that_breaks_a_bound(monkeypatch, capsys):
    # flip the sign of the s* c term of every sandwich: the production moments break a
    # bound, and verify still prints its whole report, failing checks named
    sandwich = ptdimer.observables._sandwich
    flip = np.array([1.0, 1.0, -1.0, 1.0])
    monkeypatch.setattr(
        ptdimer.observables, "_sandwich", lambda weights, x, h: sandwich(weights * flip, x, h)
    )
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    failed = int(lines[-1].removesuffix(" checks failed"))
    assert lines[0].startswith("92 checks") and lines[-2].startswith("worst: ")
    assert failed == sum(line.startswith("FAIL ") for line in lines) > 0


def _plant_in_columns(edit):
    """A defect in the columns of verify's one ``_evaluate``: ``edit(bundle, columns)``."""

    def plant(monkeypatch):
        evaluate = ptdimer.verification._evaluate

        def edited(*args):
            bundle, exponents, columns, masks = evaluate(*args)
            with np.errstate(all="ignore"):
                edit(bundle, columns)
            return bundle, exponents, columns, masks

        monkeypatch.setattr(ptdimer.verification, "_evaluate", edited)

    return plant


def _plant_in_coincidence(term):
    """A defect in the N00N coincidence moment: ``_noon_two_point`` minus ``term(bundle)``."""

    def plant(monkeypatch):
        noon_two_point = ptdimer.observables._noon_two_point

        def edited(bundle):
            with np.errstate(all="ignore"):
                return noon_two_point(bundle) - term(bundle)

        monkeypatch.setattr(ptdimer.observables, "_noon_two_point", edited)

    return plant


def _stimulated(bundle):
    """S = V* V^T of each point, the matrix the coincidence's mixed terms pair with the vacuum."""
    return ptdimer.observables._sandwich(bundle.products, np.diag(LAUNCHES["noon"]), bundle.h)


# The mixed stimulated-spontaneous term n1 S22 + n2 S11 + 2 Re(n12 S21) of the N00N
# coincidence, planted wrong three ways: each term is the right term minus the defect's
_MIXED_TERM_DEFECTS = {
    "noon-mixed-s01-for-s10": lambda b: 2.0 * (
        b.n12 * (_stimulated(b)[..., 1, 0] - _stimulated(b)[..., 0, 1])
    ).real,
    "noon-mixed-conj-n12": lambda b: 2.0 * (
        (b.n12 - b.n12.conj()) * _stimulated(b)[..., 1, 0]
    ).real,
    "noon-mixed-term-dropped": lambda b: (
        b.n1 * _stimulated(b)[..., 1, 1].real
        + b.n2 * _stimulated(b)[..., 0, 0].real
        + 2.0 * (b.n12 * _stimulated(b)[..., 1, 0]).real
    ),
}


def _swap_pump_weights(monkeypatch):
    weights = ptdimer.observables.vacuum_pump_weights
    monkeypatch.setattr(ptdimer.observables, "vacuum_pump_weights", lambda p: weights(p)[::-1])


def _missed(item):
    reason = f"verify passes this defect until ROADMAP item {item}"
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(_swap_pump_weights, id="pump-weights-swapped"),
        pytest.param(
            _plant_in_columns(lambda b, c: c.update(q2002=c["q2002"] + 1.0)),
            id="q2002-without-its-minus-1",
        ),
        pytest.param(
            _plant_in_coincidence(lambda b: 2.0 * np.abs(b.products[..., 1]) ** 2),
            id="noon-pair-term-4-to-2",
            marks=_missed(5),
        ),
        pytest.param(
            _plant_in_coincidence(lambda b: np.abs(b.n12) ** 2),
            id="noon-without-n12-squared",
            marks=_missed(5),
        ),
        *(
            pytest.param(_plant_in_coincidence(term), id=name, marks=_missed(5))
            for name, term in _MIXED_TERM_DEFECTS.items()
        ),
        pytest.param(
            _plant_in_columns(lambda b, c: c.update(q00=np.abs(b.n12) ** 1.999 / (b.n1 * b.n2))),
            id="q00-exponent-1.999",
            marks=_missed(4),
        ),
        pytest.param(
            _plant_in_columns(
                lambda b, c: c.update(share1=b.n2 / (b.n1 + b.n2), share2=b.n1 / (b.n1 + b.n2))
            ),
            id="share1-from-n2",
            marks=_missed(4),
        ),
        pytest.param(
            _plant_in_columns(lambda b, c: c.update(n12_im=-c["n12_im"])),
            id="n12_im-sign-flipped",
            marks=_missed(4),
        ),
    ],
)
def test_verify_fails_on_each_planted_defect(monkeypatch, plant):
    # the mutation survey: each value defect that no other test plants, planted at a
    # function boundary; a strict xfail is a defect verify still passes
    plant(monkeypatch)
    assert not ptdimer.verification.run_verification().ok


@pytest.mark.parametrize("name", _MIXED_TERM_DEFECTS)
def test_mixed_term_defects_move_the_coincidence_column(monkeypatch, name):
    # each mixed-term row of the survey is a real defect: on a pumped grid device it moves
    # q2002 past zeta 0, by more than 1% of the coincidence, and leaves zeta 0, the only
    # point verify reads q2002 at, exactly as it is
    params = effective_params(preset_realization(Kind.GAIN_LOSS, -0.5))
    zetas = ptdimer.verification.GRID_ZETAS
    right = sample_curve(params, "q2002", zetas).data["q2002"]
    _plant_in_coincidence(_MIXED_TERM_DEFECTS[name])(monkeypatch)
    wrong = sample_curve(params, "q2002", zetas).data["q2002"]
    assert wrong[0] == right[0] == -1.0
    assert np.max(np.abs(wrong[1:] - right[1:]) / (right[1:] + 1.0)) > 0.01


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
    # growth-guard notes that count every row with raw columns gapped, and no other note
    notes = [line for line in err.splitlines() if line.startswith("note: ")]
    counts = [int(note.split(", ")[1].split(" points: ")[0]) for note in notes]
    assert sum(counts) == guarded.sum() and all("exceeds the guard" in n for n in notes)


_GUARD_TAIL = " exceeds the guard 1e+12; raw photon numbers are saturation-dominated here\n"
_FROZEN_NOTES = {
    # the :g zetas of a run, and the .1f exponent of its first point
    "--kind gain-gain --gamma 3 --observable all --zeta-max 300 --steps 6": (
        "note: zeta=60.04..300, 5 points: predicted magnitude e^1060.1" + _GUARD_TAIL
    ),
    # the :g run bounds beside the repr zeta of ratio reasons, and two runs from one
    # point in column order
    "--kind loss-loss --gamma 0.5 --observable all --zeta-min 0.123456789 --zeta-max 300 "
    "--steps 4": (
        "note: zeta=0.123457..300, 4 points: "
        "renormalization undefined at zeta=0.123456789: no photons\n"
        "note: zeta=0.123457..300, 4 points: "
        "q00 undefined at zeta=0.123456789: no spontaneous field\n"
    ),
}


@pytest.mark.parametrize("args", _FROZEN_NOTES, ids=["growth", "ratios"])
def test_gap_notes_are_frozen_bytes(tmp_path, capsys, args):
    assert main(["sweep", *args.split(), "--out", str(tmp_path / "notes.csv")]) == 0
    assert capsys.readouterr().err == _FROZEN_NOTES[args]


def test_repeated_in_process_calls_leave_no_state_behind(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # figure writes to ./figures by default
    (tmp_path / "config.json").write_text('{"steps": 9, "zeta_min": 0.3}', encoding="utf-8")
    every_flag = [
        "sweep", "--config", "config.json", "--kind", "gain-gain", "--gamma", "3",
        "--nr", "1.2", "--g", "0.8", "--observable", "all", "--zeta-min", "0.1",
        "--zeta-max", "300", "--steps", "7", "--out", "every.csv",
    ]  # fmt: skip
    calls = [
        every_flag,
        ["sweep", "--out", "defaults.csv"],
        ["sweep", "--kind", "no-such-kind", "--out", "never.csv"],
        ["sweep", "--steps", "1", "--out", "never.csv"],
        ["figure", "fig5", "--steps", "14"],
        ["verify"],
    ]

    def snapshot(argv):
        """Exit code, stdout, stderr and the CSVs written by one call, which are then removed."""
        code = main(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.rglob("*.csv"))}
        for path in tmp_path.rglob("*.csv"):
            path.unlink()
        return (code, captured.out, captured.err), files

    build_parser.cache_clear()
    reused = [snapshot(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1  # one parser served every call
    assert [code for (code, _, _), _ in reused] == [0, 0, 2, 2, 0, 0]
    assert "note: " in reused[0][0][2]
    # the bare sweep gets RunSpec's defaults, not the first sweep's values or notes
    (_, _, defaults_err), defaults_files = reused[1]
    defaults_csv = defaults_files["defaults.csv"].decode()
    assert defaults_csv.startswith("# kind=gain-loss, gamma=-0.5, beta=0, nr=1.5, g=1, ")
    assert defaults_csv.count("\n") == 2 + RunSpec().steps and defaults_err == ""
    for argv, outcome in zip(calls, reused):
        build_parser.cache_clear()
        assert snapshot(argv) == outcome, argv


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
    """Exit code and the named columns of one sweep, warnings as errors."""
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


@pytest.mark.parametrize(
    "device",
    [
        ["--gamma", "-0.5", "--g", "1e-310"],  # n0 = (n1 + n2) / (2 g) overflows
        ["--nr", "1e308"],  # n1 + n2 overflows
        ["--gamma=-1e200"],  # omega = sqrt(1 + n^2) overflows
    ],
)
def test_unrepresentable_device_is_a_usage_error(tmp_path, monkeypatch, capsys, device):
    monkeypatch.chdir(tmp_path)
    grid = ["--zeta-min", "0.001", "--zeta-max", "0.01", "--steps", "3", "--out", "x.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", *device, *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_generator_past_the_float_range_exits_1_with_one_error_line(tmp_path, capsys):
    # gamma 1e154 squares past 1e308 inside the moment exponential
    argv = ["sweep", "--kind", "gain-passive", "--gamma", "1e154", "--observable", "single"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _bound_notes(err):
    """The point count of each stderr note of a bound gap."""
    notes = [line for line in err.splitlines() if "break non-negativity" in line]
    return [int(note.split(", ")[1].split(" points: ")[0]) for note in notes]


def test_squarings_past_the_float_range_leak_no_warning(tmp_path, capsys):
    # the exponential's squarings overflow at the last two points: their non-finite
    # moments are one bound run, gaps in every column
    argv = ["--kind", "loss-loss", "--gamma=135750363313.5263", "--observable", "all"]
    argv += ["--zeta-max=1727071.5446579221", "--steps", "3"]
    code, columns = _sweep_columns(tmp_path, argv)
    assert code == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error" not in err
    assert _bound_notes(err) == [2]
    assert all(np.isnan(values[1:]).all() for name, values in columns.items() if name != "zeta")


def test_far_gain_regime_sweep_gaps_its_bound_breaks(tmp_path, capsys):
    # |Omega| zeta near 1e12 leaves the phase few digits, and single points break a
    # bound (zeta 4.517, 7.563 and 9.188 here): each is a gap, the sweep goes on
    argv = ["--kind", "gain-passive", "--gamma=-7e11", "--observable", "noon_n", "--steps", "50"]
    code, columns = _sweep_columns(tmp_path, argv)
    assert code == 0 and columns["zeta"].size == 50
    counts = _bound_notes(capsys.readouterr().err)
    shares = np.column_stack([columns["share1"], columns["share2"]])
    gapped = np.isnan(shares).any(axis=1)
    assert counts and sum(counts) == gapped.sum() < 50
    assert np.all(shares[~gapped].sum(axis=1) == 1.0)


def test_steep_gain_loss_sweep_exits_0(tmp_path, capsys):
    # |gamma| = 120: omega^2 - (1 + n^2) rounds to 1.8e-12 here, which an absolute
    # consistency check on a stored omega once rejected with a traceback
    argv = ["--kind", "gain-loss", "--gamma", "-120", "--observable", "q00"]
    code, columns = _sweep_columns(tmp_path, argv + ["--zeta-min", "0.001", "--zeta-max", "0.01"])
    assert code == 0
    assert columns["zeta"].size == 200
    assert np.all((columns["q00"] >= 0.0) & (columns["q00"] <= 1.0 + 1e-12))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    reason="the weak guide loses its digits: 50-digit mpmath gives q00 = 1 to 17 digits at "
    "zeta 110.03, 115.03 and 135.04 here, where the curve writes 0.99825, 1.00390 and 1.00163",
)
def test_q00_stays_at_most_one_where_the_vacuum_is_faint(tmp_path):
    argv = ["--kind", "gain-gain", "--gamma=-1703451.1137639566", "--nr=80773.66263519236"]
    argv += ["--g=5.5010974639281266e-06", "--observable", "all", "--steps", "23"]
    argv += ["--zeta-min=110.02907613615932", "--zeta-max=220.05815227231864"]
    code, columns = _sweep_columns(tmp_path, argv)
    assert code == 0
    assert np.nanmax(columns["q00"]) <= 1.0 + 1e-9


_MAGNITUDES = st.floats(-12.0, 12.0).map(lambda exponent: 10.0**exponent)


@st.composite
def _sweep_argv(draw):
    """A sweep over any kind and observable: magnitudes log-uniform, windows down to a few ulps."""
    zeta_max = 10.0 ** draw(st.floats(-12.0, 9.0))
    zeta_min = draw(st.sampled_from([0.0, zeta_max]) | st.floats(0.0, 1.0).map(zeta_max.__mul__))
    if zeta_min == zeta_max:  # a window a few ulps wide
        for _ in range(draw(st.integers(1, 8))):
            zeta_max = math.nextafter(zeta_max, math.inf)
    gamma = draw(st.sampled_from([-1.0, 1.0])) * draw(_MAGNITUDES)
    return [
        "sweep", "--kind", draw(st.sampled_from([kind.value for kind in Kind])),
        f"--gamma={gamma!r}", f"--nr={draw(_MAGNITUDES)!r}", f"--g={draw(_MAGNITUDES)!r}",
        "--observable", draw(st.sampled_from(sorted(CURVE_COLUMNS))),
        f"--zeta-min={zeta_min!r}", f"--zeta-max={zeta_max!r}",
        "--steps", str(draw(st.integers(2, 40))),
    ]  # fmt: skip


@given(_sweep_argv())
@example("sweep --kind gain-passive --gamma=-7e11 --observable noon_n --steps 50".split())
@example(  # non-finite products from squarings that overflow
    "sweep --kind gain-gain --gamma=-18900631207.093437 --observable noon_n --steps 33 "
    "--zeta-min=570485.430974431 --zeta-max=1140970.861948862".split()
)
@example(  # frame moments near 1e186 that keep their bounds, with squares past the range
    "sweep --kind gain-loss --gamma=-117263789548.92374 --nr=0.007517130612247409 "
    "--g=5415503.012166314 --observable q00 --zeta-min=2346.41707712754 "
    "--zeta-max=10491.017439887715 --steps 30".split()
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzzed_sweeps_keep_the_exit_code_contract(argv):
    # any sweep exits 0, 1 or 2 without a traceback or a warning; a bound break is a
    # gap, never an exit 1.  The examples are the draws that once broke this.
    with tempfile.TemporaryDirectory() as folder:
        out, stderr = Path(folder) / "fuzz.csv", io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert err.startswith("usage error: ") and err.count("\n") == 1
            assert not out.exists()
        if code == 1:
            assert err.startswith("error: ") and "break non-negativity" not in err
        if code == 0:
            _, header, data = read_csv(out)
            columns = dict(zip(header, data.T))
            if "share1" in columns:
                share1, share2 = columns["share1"], columns["share2"]
                defined = ~np.isnan(share1)
                assert np.all((share1[defined] >= 0.0) & (share1[defined] <= 1.0))
                assert np.all(share1[defined] + share2[defined] == 1.0)
            if "q00" in columns:
                assert not np.any(columns["q00"] < 0.0)
            if "q2002" in columns:
                assert not np.any(columns["q2002"] < -1.0)


def test_readme_quick_start_runs(capsys):
    # the first python block of the README, as a user would paste it
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out
