import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_wave.dynamics import step_linear_ensemble
from sigma_wave.grid import BallEnsemble, GridSpec, _to_grid
from sigma_wave.noise import (
    NoiseKind,
    NoiseStream,
    alpha_m,
    sigma_m,
    stationary_ensemble,
)
from sigma_wave.wick import hermite

SPEC = GridSpec(32, 1.0)
M = 8


def test_hermite_displayed_values():
    assert hermite(2, 3.0, 1.0) == 8.0
    assert hermite(3, 2.0, 1.0) == 2.0
    assert hermite(0, 5.0, 2.0) == 1.0
    assert hermite(1, -1.5, 2.0) == -1.5
    x, c = 1.7, 0.6
    assert hermite(4, x, c) == pytest.approx(x**4 - 6 * c * x**2 + 3 * c**2, rel=1e-14)
    with pytest.raises(ValueError):
        hermite(5, 1.0, 1.0)


@given(x=st.floats(-3, 3), c=st.floats(0, 2))
@settings(deadline=None)
def test_hermite_generating_function(x, c):
    # sum_k t^k/k! H_k(x;c) is the Taylor expansion of exp(tx - c t^2/2)
    t = 1e-2
    series = sum(t**k / math.factorial(k) * hermite(k, x, c) for k in range(5))
    assert series == pytest.approx(np.exp(t * x - c * t * t / 2.0), abs=1e-8)


@given(x=st.floats(-5, 5), c=st.floats(0, 3), k=st.integers(1, 3))
@settings(deadline=None)
def test_hermite_recurrence(x, c, k):
    lhs = hermite(k + 1, x, c)
    rhs = x * hermite(k, x, c) - k * c * hermite(k - 1, x, c)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def convolution_samples(draws, t=1.0, dt=0.5):
    """Grid values of the stochastic convolutions of components 0, ...,
    draws - 1 at time t, from rest, packed on the M ball."""
    streams = [NoiseStream(2024, k, NoiseKind.DRIVE) for k in range(draws)]
    ens = BallEnsemble.zeros(SPEC, M, draws)
    for step in range(int(round(t / dt))):
        ens = step_linear_ensemble(ens, streams, step, dt)
    return _to_grid(ens.pos, SPEC.n_grid, ens.radius)


def spatial_mean(values: np.ndarray) -> np.ndarray:
    return np.mean(values, axis=(-2, -1))


def test_wick_pair_and_triple_mc_means_vanish():
    t = 1.0
    c = sigma_m(t, 1.0, M)
    draws = 400
    fields = convolution_samples(2 * draws)
    a, b = fields[0::2], fields[1::2]
    same_pair = spatial_mean(hermite(2, a, c))
    cross_pair = spatial_mean(a * b)
    same_triple = spatial_mean(hermite(3, a, c))
    cross_triple = spatial_mean(hermite(2, a, c) * b)
    for vals in (same_pair, cross_pair, same_triple, cross_triple):
        tol = 4.0 * np.std(vals) / np.sqrt(draws)
        assert np.mean(vals) == pytest.approx(0.0, abs=tol)


def test_wick_square_of_equilibrium_sample_is_centered():
    alpha = alpha_m(1.0, M)
    draws = 400
    ens = stationary_ensemble(SPEC, M, 77, draws)
    vals = spatial_mean(hermite(2, _to_grid(ens.pos, SPEC.n_grid, ens.radius), alpha))
    assert np.mean(vals) == pytest.approx(0.0, abs=4.0 * np.std(vals) / np.sqrt(draws))


def test_chaos_orthogonality_of_independent_squares():
    alpha = alpha_m(1.0, M)
    draws = 10_000
    # value of :u^2: at x = 0 without a transform, components 2k against 2k + 1
    at_zero = np.sum(stationary_ensemble(SPEC, M, 11, 2 * draws).pos, axis=1).real
    a = at_zero[::2] ** 2 - alpha
    b = at_zero[1::2] ** 2 - alpha
    cov = np.mean(a * b) - np.mean(a) * np.mean(b)
    se = np.sqrt(np.var(a) * np.var(b) / draws)
    assert cov == pytest.approx(0.0, abs=4.0 * se)


def test_wick_cube_homogeneity():
    gen = np.random.Generator(np.random.Philox(5))
    grid = gen.standard_normal(SPEC.shape())
    lam, c = 1.7, 0.4
    lhs = hermite(3, lam * grid, lam * lam * c)
    rhs = lam**3 * hermite(3, grid, c)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
