"""Tests for the brute-force moment integrator (the verification route)."""

import ast
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import ptdimer.moments
from ptdimer.configurations import DimerRealization, Kind, realization_for_gamma
from ptdimer.moments import (
    DriftAndPump,
    drift_and_pump,
    integrate_moments_path,
    moment_ode_rhs,
)

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
LOSSLESS_TOL = 1e-8


def lossless_coupler():
    # a gain-loss device with vanishing inversion is not constructible
    # (magnitudes are strictly positive), so build the drift directly
    m = np.array([[1.5, 1.0], [1.0, 1.5]], dtype=complex)
    return DriftAndPump(m=m, d=np.zeros((2, 2)))


def test_rhs_zero_state_zero_pump():
    dp = lossless_coupler()
    rhs = moment_ode_rhs(np.zeros((2, 2), dtype=complex), dp)
    assert np.array_equal(rhs, np.zeros((2, 2)))


def test_rhs_vacuum_seeding_equals_pump():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_LOSS, -0.5))
    rhs = moment_ode_rhs(np.zeros((2, 2), dtype=complex), dp)
    assert np.allclose(rhs, dp.d, rtol=0.0, atol=0.0)


def test_rhs_conserves_trace_for_hermitian_drift():
    dp = lossless_coupler()
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state = a @ a.conj().T  # Hermitian PSD
    rhs = moment_ode_rhs(state, dp)
    assert abs(np.trace(rhs)) < 1e-14


def test_rhs_preserves_hermiticity():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, 0.8))
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state = a @ a.conj().T
    rhs = moment_ode_rhs(state, dp)
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-14


def test_lossless_coupler_oscillates():
    # photon in guide 1 of a lossless coupler: n1 = cos^2, n2 = sin^2
    dp = lossless_coupler()
    initial = np.diag([1.0, 0.0]).astype(complex)
    for zeta in (0.3, 1.0, 2.5):
        state = integrate_moments_path(initial, dp, (zeta,), step=1e-3)[0]
        assert np.isclose(state[0, 0].real, math.cos(zeta) ** 2, atol=LOSSLESS_TOL)
        assert np.isclose(state[1, 1].real, math.sin(zeta) ** 2, atol=LOSSLESS_TOL)
        assert np.isclose(np.trace(state).real, 1.0, atol=LOSSLESS_TOL)


def test_passive_vacuum_stays_dark():
    for kind in (Kind.PASSIVE_LOSS, Kind.LOSS_LOSS):
        dp = drift_and_pump(realization_for_gamma(kind, -0.5))
        state = integrate_moments_path(np.zeros((2, 2), dtype=complex), dp, (3.0,), step=1e-3)[0]
        assert np.array_equal(state, np.zeros((2, 2)))


def test_trajectory_stays_hermitian_and_psd():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, -1.2))
    marks = tuple(np.linspace(0.25, 4.0, 16))
    snapshots = integrate_moments_path(
        np.diag([1.0, 0.0]).astype(complex), dp, marks, step=1e-3
    )
    for state in snapshots:
        scale = max(1.0, float(np.max(np.abs(state))))
        assert np.max(np.abs(state - state.conj().T)) <= HERMITICITY_TOL * scale
        assert min(state[0, 0].real, state[1, 1].real) >= -PSD_TOL * scale
        det = np.linalg.det(state).real
        assert det >= -PSD_TOL * scale**2


def test_fourth_order_convergence():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_LOSS, -0.9))
    initial = np.diag([1.0, 0.0]).astype(complex)
    fine = integrate_moments_path(initial, dp, (2.0,), step=1e-4)[0]
    errors = []
    for step in (4e-2, 2e-2):
        state = integrate_moments_path(initial, dp, (2.0,), step=step)[0]
        errors.append(float(np.max(np.abs(state - fine))))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 22.0  # halving the step should buy ~2^4


def test_partial_final_step_matches_continuation():
    # a mark that is not a multiple of the step exercises the remainder step
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_PASSIVE, -0.7))
    initial = np.zeros((2, 2), dtype=complex)
    direct = integrate_moments_path(initial, dp, (1.23456,), step=1e-3)[0]
    fine = integrate_moments_path(initial, dp, (1.23456,), step=1e-5)[0]
    assert np.allclose(direct, fine, rtol=1e-9, atol=1e-12)


def test_path_matches_single_shot_bitwise():
    # mark 0 returns the launch states themselves, bit for bit: verify reads the oracle there
    one = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, 0.5))
    stack = drift_and_pump([realization_for_gamma(kind, -0.5) for kind in Kind])
    initial = np.array([np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)])
    initial = initial.astype(complex)
    marks = (0.0, 0.5, 1.0, 2.0)
    for dp in (one, stack):
        path = integrate_moments_path(initial, dp, marks, step=1e-3)
        shape = dp.m.shape[:-2] + initial.shape
        assert path[0].tobytes() == np.broadcast_to(initial, shape).tobytes()
        for zeta, state in zip(marks, path):
            single = integrate_moments_path(initial, dp, (zeta,), step=1e-3)[0]
            assert state.shape == shape
            assert np.array_equal(state, single)


def test_path_matches_single_shot_bitwise_off_the_step_grid():
    # every mark needs a remainder step; each is still integrated from zero
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_LOSS, -1.2))
    initial = np.diag([1.0, 0.0]).astype(complex)
    marks = (0.3337, 1.23456, 2.0)
    path = integrate_moments_path(initial, dp, marks, step=4e-4)
    for zeta, state in zip(marks, path):
        single = integrate_moments_path(initial, dp, (zeta,), step=4e-4)[0]
        assert np.array_equal(state, single)


def test_stacked_initial_states_match_per_launch_calls():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, -1.2))
    launches = np.array([np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    marks = (0.5, 1.23456, 5.0)
    path = integrate_moments_path(launches, dp, marks, step=4e-4)
    for zeta, states in zip(marks, path):
        assert states.shape == (3, 2, 2)
        for initial, state in zip(launches, states):
            single = integrate_moments_path(initial, dp, (zeta,), step=4e-4)[0]
            assert np.allclose(state, single, rtol=1e-14, atol=0.0)


def test_stacked_devices_match_per_device_calls():
    realizations = [realization_for_gamma(kind, -1.2) for kind in Kind]
    realizations += [realization_for_gamma(Kind.GAIN_GAIN, 0.5)]
    launches = np.array([np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)])
    marks = (0.0, 0.5, 0.50017, 1.23456, 5.0)
    path = integrate_moments_path(launches, drift_and_pump(realizations), marks, step=4e-4)
    for zeta, states in zip(marks, path):
        assert states.shape == (len(realizations), 4, 2, 2)
        for realization, device_states in zip(realizations, states):
            dp = drift_and_pump(realization)
            single = integrate_moments_path(launches, dp, (zeta,), step=4e-4)[0]
            assert np.allclose(device_states, single, rtol=1e-14, atol=0.0)


def _rk4_loop(initial, dp, zeta, step):
    """Reference: the classical four-stage RK4 loop on moment_ode_rhs."""
    n = np.array(initial, dtype=complex)
    count = int(math.floor(zeta / step + 1e-9))
    rem = zeta - count * step
    for h in [step] * count + ([rem] if rem > step * 1e-9 else []):
        k1 = moment_ode_rhs(n, dp)
        k2 = moment_ode_rhs(n + 0.5 * h * k1, dp)
        k3 = moment_ode_rhs(n + 0.5 * h * k2, dp)
        k4 = moment_ode_rhs(n + h * k3, dp)
        n = n + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return n


@pytest.mark.parametrize(
    "kind, gamma",
    [(Kind.GAIN_LOSS, -1.2), (Kind.LOSS_LOSS, 1.2), (Kind.GAIN_GAIN, 0.5)],
)
@pytest.mark.parametrize("zeta", [0.5, 0.50017])
def test_matrix_power_matches_rk4_loop(kind, gamma, zeta):
    # 1,250 steps of 4e-4; the second mark adds a remainder step
    dp = drift_and_pump(realization_for_gamma(kind, gamma))
    for initial in (np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        power = integrate_moments_path(initial, dp, (zeta,), step=4e-4)[0]
        loop = _rk4_loop(initial, dp, zeta, step=4e-4)
        assert np.allclose(power, loop, rtol=1e-12, atol=0.0)


def test_squarings_applied_to_launch_states_match_matrix_power():
    # the oracle applies the squarings of a stacked complex step map to the four stacked
    # launch states; each mark agrees with np.linalg.matrix_power's power applied to them:
    # each small count and the counts of verify's marks at its step.  Every returned state
    # is its own writable array, and a count of 0 returns the launch states byte for byte
    step = 4e-4
    stack = drift_and_pump([realization_for_gamma(kind, -1.2) for kind in Kind])
    p = ptdimer.moments._rk4_step_map(ptdimer.moments._generator(stack), step)
    assert p.shape == (len(Kind), 5, 5) and p.dtype == complex
    initial = np.array(
        [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [[0.5, 0.5], [0.5, 0.5]]],
        dtype=complex,
    )
    w0 = np.vstack((initial.reshape(-1, 4).T, np.ones(len(initial))))
    counts = list(range(41)) + [1250, 2500, 5000, 12500]
    states = integrate_moments_path(initial, stack, [count * step for count in counts], step)
    for count, state in zip(counts, states):
        w = np.linalg.matrix_power(p, count) @ w0
        expected = np.swapaxes(w[..., :-1, :], -1, -2).reshape(state.shape)
        scale = np.abs(expected).max()
        assert np.abs(state - expected).max() <= 1e-14 * scale, count
        assert state.flags.writeable and not np.shares_memory(state, initial), count
    assert all(state.tobytes() == initial.tobytes() for state in states[0])
    for a, b in itertools.combinations(states, 2):
        assert not np.shares_memory(a, b)


def test_path_requires_increasing_marks():
    dp = lossless_coupler()
    with pytest.raises(ValueError):
        integrate_moments_path(np.zeros((2, 2), complex), dp, (1.0, 0.5), step=1e-3)


def test_bad_step_rejected():
    dp = lossless_coupler()
    with pytest.raises(ValueError):
        integrate_moments_path(np.zeros((2, 2), complex), dp, (1.0,), step=0.0)


@pytest.mark.parametrize(
    "initial, marks, message",
    [
        (np.zeros((3, 3)), (1.0,), "must be 2x2"),
        (np.diag([math.nan, 0.0]), (1.0,), "must be finite"),
        (np.zeros((2, 2)), (-0.5, 1.0), "finite and non-negative"),
        (np.zeros((2, 2)), (1.0, math.inf), "finite and non-negative"),
    ],
)
def test_path_rejects_bad_initial_states_and_marks(initial, marks, message):
    dp = lossless_coupler()
    with pytest.raises(ValueError, match=message):
        integrate_moments_path(initial, dp, marks, step=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runaway_amplification_overflows():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_GAIN, 1.2))
    with pytest.raises(OverflowError):
        integrate_moments_path(np.eye(2, dtype=complex), dp, (200.0,), step=0.5)


def test_drift_and_pump_structure():
    dp = drift_and_pump(realization_for_gamma(Kind.GAIN_PASSIVE, -0.5))
    assert dp.m[0, 1] == 1.0 and dp.m[1, 0] == 1.0
    assert np.isclose(dp.m[0, 0], 1.5 - 1.0j, rtol=1e-15)
    assert np.isclose(dp.m[1, 1], 1.5 + 0.0j, rtol=1e-15)
    # only the amplified guide pumps
    assert np.isclose(dp.d[0, 0], 2.0, rtol=1e-15)
    assert dp.d[1, 1] == 0.0


def test_drift_and_pump_stacks_a_sequence_of_devices():
    # a sequence gives one (k, 2, 2) stack whose rows are the devices' own pairs, bit for
    # bit; one device keeps its 2x2 pair, and a one-device sequence is a stack of one
    realizations = [realization_for_gamma(kind, -0.5) for kind in Kind]
    stack = drift_and_pump(realizations)
    assert stack.m.shape == stack.d.shape == (len(realizations), 2, 2)
    for realization, m, d in zip(realizations, stack.m, stack.d):
        one = drift_and_pump(realization)
        assert one.m.shape == one.d.shape == (2, 2)
        assert m.tobytes() == one.m.tobytes() and d.tobytes() == one.d.tobytes()
    assert drift_and_pump(realizations[:1]).m.shape == (1, 2, 2)
    with pytest.raises(ValueError, match="must both be 2x2"):
        drift_and_pump([])


@pytest.mark.parametrize(
    "m, message",
    [
        (np.ones((3, 3)), "must both be 2x2"),
        (np.array([[1.5, 1.0], [1.0, math.nan]]), "must be finite"),
    ],
)
def test_drift_and_pump_rejects_bad_drift(m, message):
    with pytest.raises(ValueError, match=message):
        DriftAndPump(m=m, d=np.zeros((2, 2)))


def test_stacked_drift_and_pump_rejects_a_bad_device():
    good = drift_and_pump([realization_for_gamma(kind, -0.5) for kind in Kind])
    with pytest.raises(ValueError, match="must both be 2x2"):
        DriftAndPump(m=good.m, d=good.d[:-1])
    with pytest.raises(ValueError, match="must both be 2x2"):
        DriftAndPump(m=good.m[0], d=good.d)
    pump = good.d.copy()
    pump[3, 1, 1] = -0.1
    with pytest.raises(ValueError, match="non-negative rates"):
        DriftAndPump(m=good.m, d=pump)
    drift = good.m.copy()
    drift[2, 0, 0] = math.nan
    with pytest.raises(ValueError, match="must be finite"):
        DriftAndPump(m=drift, d=good.d)


def test_drift_and_pump_rejects_negative_pump():
    with pytest.raises(ValueError):
        DriftAndPump(
            m=np.array([[1.5, 1.0], [1.0, 1.5]], dtype=complex),
            d=np.diag([-0.1, 0.0]),
        )


def _package_imports(module_name):
    """The package modules that ``ptdimer/<module_name>.py`` imports, each as ``.name``."""
    source = Path(ptdimer.moments.__file__).with_name(f"{module_name}.py")
    names = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # relative or absolute, resolved in the package
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), "ptdimer")
            names += [f"{module}.{alias.name}" for alias in node.names]
    return {"." + name.split(".")[1] for name in names if name.startswith("ptdimer.")}


def test_the_oracle_and_the_production_route_import_nothing_of_each_other():
    # the oracle is built from the drift and pump alone, and the closed-form route
    # never reaches for the oracle, so each can catch the other's defects
    assert _package_imports("moments") == {".configurations"}
    assert not any(".moments" in _package_imports(name) for name in ("core", "observables"))
