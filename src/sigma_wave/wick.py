"""Hermite polynomials with a variance parameter (pointwise Wick powers).

A Wick power subtracts from a power of a Gaussian field exactly the
contractions that would make its expectation blow up as the truncation is
removed.  On the grid this is pointwise: the drifts, the estimators and the
Gibbs potential (the Wick square of the components' square sum) write these
polynomials out in factored or closed form at the grid values of packed
stacks, and the tests check them against :func:`hermite`.  The variance
parameter is ``sigma_m(t)`` for fields produced by the running convolution
and ``alpha_m`` for equilibrium fields; picking the wrong one leaves an O(1)
bias that the mean-zero tests catch.

The scalar variance ignores the tiny anisotropy of the discrete-mode sum
near the Nyquist shell; at the truncations used here the mismatch is far
below Monte Carlo resolution.
"""

from __future__ import annotations

__all__ = ["hermite"]


def hermite(k: int, x, c):
    """Degree-k Hermite polynomial with variance parameter c, k <= 4."""
    if k == 0:
        return x * 0 + 1.0
    if k == 1:
        return x * 1.0
    if k == 2:
        return x * x - c
    if k == 3:
        return x * (x * x - 3.0 * c)
    if k == 4:
        x2 = x * x
        return x2 * (x2 - 6.0 * c) + 3.0 * c * c
    raise ValueError(f"hermite degree must be in 0..4, got {k}")
