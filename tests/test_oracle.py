"""Forward error of the eigenfunction tables against an exact rational oracle.

The model has a real spectrum and exact data: A = E Lambda E^-1 with an
integer E of determinant 1 and dyadic eigenvalues, so A is exact in
floats, and an integer SPD B, taken as B c^2 for the units x -> c x.  The
oracle reads the float inputs as the rationals they are (``Fraction``).
It solves the Lyapunov equation in the eigenbasis, Sigma = E S E^T with
S_IJ = -(E^-1 B E^-T)_IJ / (lambda_I + lambda_J), and raises every
eigenfunction up to order 5 by the ladder operators of ``ladder`` in exact
arithmetic.  Exact Gaussian moments come from Stein's recursion, so the
exact pairing matrix must be delta_MK 2^|K| K! with no rounding at all.

Row K of the float forward table is the exact row times prod_I s_I^K_I,
s_I the scale of the unit-norm eigenvector ``eig.right[:, I]`` against
e_I, and the adjoint row the exact one times prod_I s_I^-K_I.  A row's
error is relative to its largest coefficient, which makes it unit-free.
"""

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from ou_spectral import build_model, ladder
from ou_spectral.monomials import graded_index

ORDER = 5
E = ((1, 1, 0), (1, 2, 1), (0, 1, 2))
LAMBDA = (Fraction(-1, 2), Fraction(-1), Fraction(-2))
B = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
N = len(E)


def _mul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
            for i in range(len(X))]


def _apply(X, v):
    return [sum(x * y for x, y in zip(row, v)) for row in X]


def _t(X):
    return [list(row) for row in zip(*X)]


def _inv(X):
    """Gauss-Jordan inverse of a nonsingular rational matrix."""
    n = len(X)
    M = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(X)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                M[r] = [v - M[r][c] * u for v, u in zip(M[r], M[c])]
    return [row[n:] for row in M]


E_INV = _inv(E)
A = _mul(_mul(E, [[LAMBDA[i] if i == j else 0 for j in range(N)] for i in range(N)]), E_INV)


def _raise(p, a, w):
    """(a . x) p + w . grad p, polynomials as {exponents: Fraction}."""
    out = {}
    for e, c in p.items():
        for j in range(N):
            up = e[:j] + (e[j] + 1,) + e[j + 1 :]
            down = e[:j] + (e[j] - 1,) + e[j + 1 :]
            out[up] = out.get(up, 0) + a[j] * c
            if e[j]:
                out[down] = out.get(down, 0) + w[j] * e[j] * c
    return {e: c for e, c in out.items() if c != 0}


def _oracle(Bc):
    """Exact forward and adjoint eigenfunctions up to ORDER, by mode, and
    Sigma, for the drift A and the float diffusion ``Bc``."""
    Bp = _mul(_mul(E_INV, [[Fraction(v) for v in row] for row in Bc]), _t(E_INV))
    S = [[-Bp[i][j] / (LAMBDA[i] + LAMBDA[j]) for j in range(N)] for i in range(N)]
    Sigma = _mul(_mul(E, S), _t(E))
    Sigma_inv = _inv(Sigma)
    e, w = _t(E), E_INV
    weights = {
        "forward": [(_apply(Sigma_inv, e[I]), [-v for v in e[I]]) for I in range(N)],
        "adjoint": [
            ([2 * v for v in w[I]], [-2 * v for v in _apply(Sigma, w[I])]) for I in range(N)
        ],
    }
    tables = {}
    for side, ops in weights.items():
        rows = {(0,) * N: {(0,) * N: Fraction(1)}}
        for K in graded_index(N, ORDER).modes[1:]:
            I = next(i for i, k in enumerate(K) if k)
            rows[K] = _raise(rows[K[:I] + (K[I] - 1,) + K[I + 1 :]], *ops[I])
        tables[side] = rows
    return tables, Sigma


def _forward_error(c):
    """Largest relative row error of each float table at units c."""
    Bc = B * c**2
    model = build_model(np.array([[float(v) for v in row] for row in A]), Bc)
    assert np.array_equal(model.A, np.array(A, dtype=float))
    tables, _ = _oracle(Bc)
    idx = graded_index(N, ORDER)
    e = np.array(E, dtype=float)
    s = np.einsum("iI,iI->I", model.eig.right.real, e) / np.einsum("iI,iI->I", e, e)
    errors = {}
    for side, sign in (("forward", 1), ("adjoint", -1)):
        got = ladder._eigenfunctions(model, side, ORDER)
        worst = 0.0
        for r, K in enumerate(idx.modes):
            want = np.zeros(len(idx.modes))
            for a, coeff in tables[side][K].items():
                want[idx.row[a]] = float(coeff)
            want *= np.prod(s ** (sign * np.array(K)))
            worst = max(worst, np.abs(got[r] - want).max() / np.abs(want).max())
        errors[side] = worst
    return errors


def test_oracle_pairings_are_exactly_the_normalization():
    tables, Sigma = _oracle(B)

    @cache
    def moment(a):
        # Stein: E[x_i x^b] = sum_j Sigma_ij b_j E[x^(b - e_j)], b = a - e_i.
        if not any(a):
            return Fraction(1)
        i = next(i for i, k in enumerate(a) if k)
        b = a[:i] + (a[i] - 1,) + a[i + 1 :]
        return sum(
            Sigma[i][j] * b[j] * moment(b[:j] + (b[j] - 1,) + b[j + 1 :])
            for j in range(N) if b[j]
        )

    modes = graded_index(N, ORDER).modes
    for M in modes:
        g = tables["adjoint"][M]
        gh = {b: sum(c * moment(tuple(x + y for x, y in zip(a, b))) for a, c in g.items())
              for b in modes}
        for K in modes:
            pairing = sum(c * gh[b] for b, c in tables["forward"][K].items())
            norm = 2 ** sum(K) * math.prod(map(math.factorial, K)) if M == K else 0
            assert pairing == norm, (M, K)


# At c = 1e4 the largest coefficient of forward row K scales as
# c^-(|K| + |K| mod 2), below the absolute prune_eps (1e-13) from order 3
# on; the tables are not pruned, so they keep those rows.
@pytest.mark.parametrize("c", [1.0, 1e-4, 1e4])
def test_eigenfunction_tables_match_the_exact_oracle(c):
    errors = _forward_error(c)
    assert max(errors.values()) <= 1e-12, errors
