"""Tests for LGL/Gauss rules and 1D spectral operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mangll.quadrature import (
    child_interpolation_matrices,
    differentiation_matrix,
    gauss_legendre,
    gauss_lobatto,
    lagrange_interpolation_matrix,
    legendre,
    legendre_deriv,
    mass_1d,
    vandermonde,
)


def test_lgl_small_cases():
    x2, w2 = gauss_lobatto(2)
    np.testing.assert_allclose(x2, [-1, 1])
    np.testing.assert_allclose(w2, [1, 1])
    x3, w3 = gauss_lobatto(3)
    np.testing.assert_allclose(x3, [-1, 0, 1], atol=1e-15)
    np.testing.assert_allclose(w3, [1 / 3, 4 / 3, 1 / 3])
    x4, _ = gauss_lobatto(4)
    np.testing.assert_allclose(abs(x4[1]), np.sqrt(1 / 5), atol=1e-14)


@pytest.mark.parametrize("n", range(2, 12))
def test_lgl_properties(n):
    x, w = gauss_lobatto(n)
    assert x[0] == -1 and x[-1] == 1
    assert np.all(np.diff(x) > 0)
    np.testing.assert_allclose(w.sum(), 2.0, atol=1e-13)
    np.testing.assert_allclose(x + x[::-1], 0, atol=1e-13)  # symmetric
    # Exactness to degree 2n-3.
    for deg in range(2 * n - 2):
        val = (x**deg * w).sum()
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        np.testing.assert_allclose(val, exact, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 10))
def test_gauss_exactness(n):
    x, w = gauss_legendre(n)
    for deg in range(2 * n):
        val = (x**deg * w).sum()
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        np.testing.assert_allclose(val, exact, atol=1e-12)


def test_rules_reject_bad_sizes():
    with pytest.raises(ValueError):
        gauss_lobatto(1)
    with pytest.raises(ValueError):
        gauss_legendre(0)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_differentiation_exact_on_polynomials(n):
    x, _ = gauss_lobatto(n)
    D = differentiation_matrix(n)
    for deg in range(n):
        np.testing.assert_allclose(
            D @ x**deg, deg * x ** max(deg - 1, 0) * (deg > 0), atol=1e-10
        )
    # Derivative of a constant is zero (row sums vanish).
    np.testing.assert_allclose(D @ np.ones(n), 0, atol=1e-12)


def test_interpolation_matrix_exactness_and_delta():
    x, _ = gauss_lobatto(6)
    y = np.linspace(-1, 1, 17)
    M = lagrange_interpolation_matrix(x, y)
    for deg in range(6):
        np.testing.assert_allclose(M @ x**deg, y**deg, atol=1e-11)
    # Interpolating to the nodes themselves gives the identity.
    I = lagrange_interpolation_matrix(x, x)
    np.testing.assert_allclose(I, np.eye(6), atol=1e-13)


def _interpolation_rows(src, dst):
    """The per-destination-point loop the matrix is pinned against."""
    n = len(src)
    bw = np.array([1.0 / np.prod(src[j] - np.delete(src, j)) for j in range(n)])
    out = np.zeros((len(dst), n))
    for i, xd in enumerate(dst):
        d = xd - src
        hit = np.abs(d) < 1e-14
        if hit.any():
            out[i, np.argmax(hit)] = 1.0
            continue
        terms = bw / d
        out[i] = terms / terms.sum()
    return out


@pytest.mark.parametrize("seed", range(4))
def test_interpolation_matrix_equals_the_per_row_loop_bytewise(seed):
    """All rows at once, the same bytes as one row at a time: off-node
    points, exact node hits, near hits inside the tolerance, and the
    half-cell points of hanging faces."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        src, _w = gauss_lobatto(int(rng.integers(2, 10)))
        m = int(rng.choice([0, 1, 3, 16, 200]))
        dst = rng.uniform(-1.5, 1.5, m)
        for kind in range(3):
            k = rng.integers(0, m, m // 3) if m else np.zeros(0, int)
            node = src[rng.integers(0, len(src), len(k))]
            dst[k] = (node, 0.5 * node + rng.choice([-0.5, 0.5], len(k)),
                      node + rng.uniform(-2e-14, 2e-14, len(k)))[kind]
        got = lagrange_interpolation_matrix(src, dst)
        want = _interpolation_rows(src, dst)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 4, 7])
def test_child_interpolation(n):
    x, _ = gauss_lobatto(n)
    I0, I1 = child_interpolation_matrices(n)
    f = lambda t: 0.3 * t ** (n - 1) - t + 0.5
    np.testing.assert_allclose(I0 @ f(x), f(0.5 * (x - 1)), atol=1e-11)
    np.testing.assert_allclose(I1 @ f(x), f(0.5 * (x + 1)), atol=1e-11)
    # Partition of unity rows.
    np.testing.assert_allclose(I0.sum(axis=1), 1, atol=1e-12)


def test_mass_1d_integrates():
    M = mass_1d(5)
    x, _ = gauss_lobatto(5)
    np.testing.assert_allclose(np.ones(5) @ M @ x**2, 2 / 3, atol=1e-12)


@settings(max_examples=20)
@given(st.integers(0, 8), st.floats(-1, 1))
def test_legendre_recurrence_vs_numpy(n, x):
    ours = legendre(n, np.array([x]))[0]
    ref = np.polynomial.legendre.legval(x, [0] * n + [1])
    assert abs(ours - ref) < 1e-10


def test_legendre_deriv_endpoints():
    for n in range(1, 7):
        d = legendre_deriv(n, np.array([1.0, -1.0]))
        np.testing.assert_allclose(d[0], n * (n + 1) / 2, atol=1e-12)
        np.testing.assert_allclose(
            d[1], (-1.0) ** (n - 1) * n * (n + 1) / 2, atol=1e-12
        )


def test_vandermonde_orthonormality():
    n = 6
    x, w = gauss_lobatto(n)
    V = vandermonde(n, x)
    # Gram matrix under LGL quadrature is near identity (exact except the
    # (n-1, n-1) entry, inflated by the LGL endpoint rule).
    G = V.T @ np.diag(w) @ V
    np.testing.assert_allclose(G[:-1, :-1], np.eye(n - 1), atol=1e-10)
    assert G[-1, -1] > 1.0
