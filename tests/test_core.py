"""Tests for the closed-form transfer matrix and its parameter algebra."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ptdimer.core import (
    EffectiveParams,
    Regime,
    classify_regime,
    complex_sinc,
    dispersion,
    hamiltonian,
    propagator,
)

IDENTITY_TOL = 1e-14
STRUCTURE_RTOL = 1e-10
UNITARITY_TOL = 1e-12


def finite_complex(max_mag):
    reals = st.floats(-max_mag, max_mag, allow_nan=False, allow_infinity=False)
    return st.builds(complex, reals, reals)


# ---------------------------------------------------------------------------
# complex_sinc and dispersion


def test_sinc_at_zero_is_one():
    assert complex_sinc(0.0) == 1.0


@pytest.mark.parametrize("x", [1e-5, 1e-4 * 0.99, 1e-6 + 1e-6j, -5e-5j])
def test_sinc_series_continuous_with_direct_form(x):
    # just below the series threshold the two branches must agree deeply
    series = complex_sinc(x)
    direct = cmath.sin(x) / x
    assert abs(series - direct) < 5e-16


@pytest.mark.parametrize(
    "x, expected",
    [(math.pi, 0.0), (math.pi / 2, 2.0 / math.pi), (1.0j, math.sinh(1.0))],
)
def test_sinc_known_values(x, expected):
    assert np.isclose(complex_sinc(x), expected, rtol=1e-14, atol=1e-15)


def test_dispersion_principal_branch():
    assert dispersion(0.0) == 1.0
    assert dispersion(1.0j) == 0.0
    # beyond the degeneracy the root is purely imaginary with Im > 0
    w = dispersion(-1.2j)
    assert w.real == 0.0
    assert np.isclose(w.imag, math.sqrt(0.44), rtol=1e-15)


@given(finite_complex(3.0))
@settings(max_examples=200)
def test_dispersion_squares_back(n):
    w = dispersion(n)
    assert cmath.isclose(w * w, 1.0 + n * n, rel_tol=1e-12, abs_tol=1e-12)
    assert w.real >= 0.0


# ---------------------------------------------------------------------------
# propagator values


def test_propagator_at_zero_is_identity():
    u = propagator(0.3 - 0.8j, 0.0)
    assert np.array_equal(u, np.eye(2, dtype=complex))


def test_propagator_degenerate_point_is_polynomial():
    # at n = i the splitting vanishes and U = I + i zeta H exactly
    u = propagator(1.0j, 0.7)
    expected = np.array([[0.3, 0.7j], [0.7j, 1.7]])
    assert np.allclose(u, expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("gamma", [-0.5, 0.3, 0.9])
@pytest.mark.parametrize("zeta", [0.4, 1.0, 3.7])
def test_propagator_oscillatory_trig_form(gamma, zeta):
    # for n = i gamma with |gamma| < 1 the entries reduce to plain trig
    w = math.sqrt(1.0 - gamma * gamma)
    u = propagator(complex(0.0, gamma), zeta)
    s = math.sin(w * zeta) / w
    assert np.isclose(u[0, 0], math.cos(w * zeta) - gamma * s, rtol=1e-13, atol=1e-15)
    assert np.isclose(u[1, 1], math.cos(w * zeta) + gamma * s, rtol=1e-13, atol=1e-15)
    assert np.isclose(u[0, 1], 1j * s, rtol=1e-13, atol=1e-15)
    assert np.isclose(u[1, 0], 1j * s, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("gamma", [-1.2, 1.5])
@pytest.mark.parametrize("zeta", [0.4, 2.0])
def test_propagator_broken_hyperbolic_form(gamma, zeta):
    # beyond the degeneracy the same closed form turns hyperbolic
    k = math.sqrt(gamma * gamma - 1.0)
    u = propagator(complex(0.0, gamma), zeta)
    s = math.sinh(k * zeta) / k
    assert np.isclose(u[0, 0], math.cosh(k * zeta) - gamma * s, rtol=1e-13)
    assert np.isclose(u[1, 1], math.cosh(k * zeta) + gamma * s, rtol=1e-13)
    assert np.isclose(u[0, 1], 1j * s, rtol=1e-13)


@pytest.mark.parametrize("zeta", [-0.1, math.nan, math.inf])
def test_propagator_rejects_bad_zeta(zeta):
    with pytest.raises(ValueError):
        propagator(0.5j, zeta)


def test_propagator_rejects_non_finite_index():
    with pytest.raises(ValueError):
        propagator(complex(math.nan, 0.0), 1.0)


# ---------------------------------------------------------------------------
# propagator structure (property tests)


@given(finite_complex(2.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_propagator_det_and_composition(n, za, zb):
    ua, ub, uab = propagator(n, za), propagator(n, zb), propagator(n, za + zb)
    scale = max(1.0, np.max(np.abs(ua)), np.max(np.abs(ub)))
    det = ua[0, 0] * ua[1, 1] - ua[0, 1] * ua[1, 0]
    assert abs(det - 1.0) <= STRUCTURE_RTOL * scale**2
    assert np.max(np.abs(ub @ ua - uab)) <= STRUCTURE_RTOL * scale**2


@given(st.floats(-2.0, 2.0, allow_nan=False), st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_propagator_unitary_for_real_detuning(nr, zeta):
    u = propagator(complex(nr, 0.0), zeta)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= UNITARITY_TOL


@given(finite_complex(2.0), st.floats(0.05, 3.0))
@settings(max_examples=100, deadline=None)
def test_propagator_matches_matrix_exponential(n, zeta):
    u = propagator(n, zeta)
    reference = expm(1j * zeta * hamiltonian(n))
    scale = max(1.0, np.max(np.abs(u)))
    assert np.max(np.abs(u - reference)) <= STRUCTURE_RTOL * scale


# ---------------------------------------------------------------------------
# effective parameters and regimes


def test_from_detuning_fills_derived_fields():
    p = EffectiveParams.from_detuning(-0.5j, 1.5 - 0.25j)
    assert p.gamma == -0.5
    assert p.beta == 0.25
    assert np.isclose(p.omega, math.sqrt(0.75), rtol=1e-15)


def test_effective_params_rejects_inconsistent_omega():
    with pytest.raises(ValueError):
        EffectiveParams(n=-0.5j, n0=1.5 + 0.0j, gamma=-0.5, beta=0.0, omega=1.0 + 0.0j)


@pytest.mark.parametrize(
    "n, expected",
    [
        (-0.5j, Regime.PT_SYMMETRIC),
        (0.99j, Regime.PT_SYMMETRIC),
        (1.0j, Regime.KATO),
        (-1.0j, Regime.KATO),
        (1.2j, Regime.BROKEN),
        (0.3 - 0.5j, Regime.GENERIC),
    ],
)
def test_classify_regime(n, expected):
    p = EffectiveParams.from_detuning(n, 1.5 + 0.0j)
    assert classify_regime(p) is expected


def test_classify_regime_tolerates_rounding_at_degeneracy():
    p = EffectiveParams.from_detuning(complex(0.0, 1.0 + 5e-13), 1.5 + 0.0j)
    assert classify_regime(p) is Regime.KATO
