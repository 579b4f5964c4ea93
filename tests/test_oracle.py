"""Forward error of the eigenfunction tables against an exact rational oracle.

Each model has exact data: A = E Lambda E^-1 with dyadic eigenvalues, so A
is exact in floats, and an integer SPD B, taken as B c^2 for the units
x -> c x.  The real spectrum has an integer E of determinant 1.  The
complex one has one real eigenvalue and one conjugate pair whose real
parts differ, and E's columns are u + iv, u - iv and w for the columns
u, v, w of the real E, so E has Gaussian integer entries and determinant
-2i.  Its arithmetic is in Gaussian rationals, pairs of Fractions
(``GaussianRational``).  The oracle reads the float inputs as the
rationals they are (``Fraction``).  It solves the Lyapunov equation in the
eigenbasis, Sigma = E S E^T with S_IJ = -(E^-1 B E^-T)_IJ / (lambda_I +
lambda_J), and raises every eigenfunction up to the model's order by the
ladder operators of ``ladder`` in exact arithmetic.  Exact Gaussian
moments come from Stein's recursion, so the exact pairing matrix must be
delta_MK 2^|K| K! with no rounding at all.

Row K of the float forward table is the exact row times prod_I s_I^K_I,
s_I the complex scale of the unit-norm, phase-fixed eigenvector
``eig.right[:, I]`` against the exact column e_I, and the adjoint row the
exact one times prod_I conj(s_I)^-K_I, as the adjoint ladder reads the
conjugate left eigenvectors.  A row's error is relative to its largest
coefficient, which makes it unit-free.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np
import pytest

from ou_spectral import build_model, ladder
from ou_spectral.monomials import graded_index

B = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
N = len(B)


class GaussianRational:
    """real + imag i with Fraction parts.  Mixes with ints and Fractions,
    and shares their ``real``, ``imag`` and ``conjugate``."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        # Arithmetic hands in Fractions; converting them again is the hot
        # path of the pairing check.
        self.real = real if isinstance(real, Fraction) else Fraction(real)
        self.imag = imag if isinstance(imag, Fraction) else Fraction(imag)

    @staticmethod
    def of(x):
        return x if isinstance(x, GaussianRational) else GaussianRational(x)

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -GaussianRational.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return GaussianRational(self.real * other, self.imag * other)
        o = other
        return GaussianRational(
            self.real * o.real - self.imag * o.imag, self.real * o.imag + self.imag * o.real
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        d = o.real * o.real + o.imag * o.imag
        return self * GaussianRational(o.real / d, -o.imag / d)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __eq__(self, other):
        o = GaussianRational.of(other)
        return self.real == o.real and self.imag == o.imag

    def conjugate(self):
        return GaussianRational(self.real, -self.imag)

    def __complex__(self):
        return complex(float(self.real), float(self.imag))


def _mul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
            for i in range(len(X))]


def _apply(X, v):
    return [sum(x * y for x, y in zip(row, v)) for row in X]


def _t(X):
    return [list(row) for row in zip(*X)]


def _conj(v):
    return [x.conjugate() for x in v]


def _real(X):
    """The Fractions of a matrix whose entries are real."""
    assert all(x.imag == 0 for row in X for x in row), X
    return [[Fraction(x.real) for x in row] for row in X]


def _inv(X):
    """Gauss-Jordan inverse of a nonsingular exact matrix."""
    n = len(X)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(X)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                M[r] = [v - M[r][c] * u for v, u in zip(M[r], M[c])]
    return [row[n:] for row in M]


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvectors E (columns), eigenvalues and the order to check."""

    E: tuple
    LAMBDA: tuple
    order: int

    @cached_property
    def E_inv(self):
        return _inv(self.E)

    @cached_property
    def A(self):
        diag = [[self.LAMBDA[i] if i == j else 0 for j in range(N)] for i in range(N)]
        return _real(_mul(_mul(self.E, diag), self.E_inv))


U, V, W = (1, 1, 0), (1, 2, 1), (0, 1, 2)
REAL = Spectrum(
    E=tuple(zip(*(tuple(map(Fraction, col)) for col in (U, V, W)))),
    LAMBDA=(Fraction(-1, 2), Fraction(-1), Fraction(-2)),
    order=5,
)
COMPLEX = Spectrum(
    E=tuple(
        (GaussianRational(u, v), GaussianRational(u, -v), GaussianRational(w))
        for u, v, w in zip(U, V, W)
    ),
    LAMBDA=(GaussianRational(Fraction(-1, 2), 1), GaussianRational(Fraction(-1, 2), -1),
            GaussianRational(-2)),
    order=4,
)


def _raise(p, a, w):
    """(a . x) p + w . grad p, polynomials as {exponents: exact coefficient}."""
    out = {}
    for e, c in p.items():
        for j in range(N):
            up = e[:j] + (e[j] + 1,) + e[j + 1 :]
            down = e[:j] + (e[j] - 1,) + e[j + 1 :]
            out[up] = out.get(up, 0) + a[j] * c
            if e[j]:
                out[down] = out.get(down, 0) + w[j] * e[j] * c
    return {e: c for e, c in out.items() if c != 0}


def _oracle(spec, Bc):
    """Exact forward and adjoint eigenfunctions of ``spec`` up to its
    order, by mode, and Sigma, for the float diffusion ``Bc``."""
    E, E_INV, LAMBDA = spec.E, spec.E_inv, spec.LAMBDA
    Bp = _mul(_mul(E_INV, [[Fraction(v) for v in row] for row in Bc]), _t(E_INV))
    S = [[-Bp[i][j] / (LAMBDA[i] + LAMBDA[j]) for j in range(N)] for i in range(N)]
    Sigma = _real(_mul(_mul(E, S), _t(E)))
    Sigma_inv = _inv(Sigma)
    e, w = _t(E), [_conj(row) for row in E_INV]
    weights = {
        "forward": [(_apply(Sigma_inv, e[I]), [-v for v in e[I]]) for I in range(N)],
        "adjoint": [
            ([2 * v for v in w[I]], [-2 * v for v in _apply(Sigma, w[I])]) for I in range(N)
        ],
    }
    tables = {}
    for side, ops in weights.items():
        rows = {(0,) * N: {(0,) * N: Fraction(1)}}
        for K in graded_index(N, spec.order).modes[1:]:
            I = next(i for i, k in enumerate(K) if k)
            rows[K] = _raise(rows[K[:I] + (K[I] - 1,) + K[I + 1 :]], *ops[I])
        tables[side] = rows
    return tables, Sigma


def _pairings_are_exactly_the_normalization(spec):
    tables, Sigma = _oracle(spec, B)

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

    modes = graded_index(N, spec.order).modes
    for M in modes:
        g = {a: c.conjugate() for a, c in tables["adjoint"][M].items()}
        gh = {b: sum(c * moment(tuple(x + y for x, y in zip(a, b))) for a, c in g.items())
              for b in modes}
        for K in modes:
            pairing = sum(c * gh[b] for b, c in tables["forward"][K].items())
            norm = 2 ** sum(K) * math.prod(map(math.factorial, K)) if M == K else 0
            assert pairing == norm, (M, K)


def _forward_error(spec, c):
    """Largest relative row error of each float table at units c."""
    Bc = B * c**2
    A = np.array([[float(v) for v in row] for row in spec.A])
    # A is dyadic, so the floats hold it exactly.
    assert [[Fraction(v) for v in row] for row in A] == spec.A
    model = build_model(A, Bc)
    assert np.array_equal(model.A, A)
    # The oracle's modes are the model's, in the model's order.
    np.testing.assert_allclose(model.eig.values, [complex(v) for v in spec.LAMBDA], atol=1e-14)
    tables, _ = _oracle(spec, Bc)
    idx = graded_index(N, spec.order)
    e = np.array([[complex(v) for v in row] for row in spec.E])
    # eig.right[:, I] = s_I e_I: the right columns are e's, scaled.
    s = np.einsum("iI,iI->I", e.conj(), model.eig.right) / np.einsum("iI,iI->I", e.conj(), e)
    scales = {"forward": s, "adjoint": 1.0 / s.conj()}
    errors = {}
    for side, scale in scales.items():
        got = ladder._eigenfunctions(model, side, spec.order)
        worst = 0.0
        for r, K in enumerate(idx.modes):
            want = np.zeros(len(idx.modes), dtype=complex)
            for a, coeff in tables[side][K].items():
                want[idx.row[a]] = complex(coeff)
            want *= np.prod(scale ** np.array(K))
            worst = max(worst, np.abs(got[r] - want).max() / np.abs(want).max())
        errors[side] = worst
    return errors


def test_oracle_pairings_are_exactly_the_normalization():
    _pairings_are_exactly_the_normalization(REAL)


def test_complex_oracle_pairings_are_exactly_the_normalization():
    _pairings_are_exactly_the_normalization(COMPLEX)


# At c = 1e4 the largest coefficient of forward row K scales as
# c^-(|K| + |K| mod 2), so from order 3 on every entry of a row is below
# 1e-13.
@pytest.mark.parametrize("c", [1.0, 1e-4, 1e4])
def test_eigenfunction_tables_match_the_exact_oracle(c):
    errors = _forward_error(REAL, c)
    assert max(errors.values()) <= 1e-12, errors


@pytest.mark.parametrize("c", [1.0, 1e-4, 1e4])
def test_complex_eigenfunction_tables_match_the_exact_oracle(c):
    errors = _forward_error(COMPLEX, c)
    assert max(errors.values()) <= 1e-12, errors
