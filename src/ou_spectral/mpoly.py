"""Multivariate polynomials with complex coefficients on the graded index.

A polynomial of degree d in n variables stores one complex coefficient
per row of ``monomials.graded_index(n, d)``: the monomials of total
degree up to d, by degree, and within a degree in reverse lexicographic
order, which is the graded lexicographic order printing uses.  The
vector is trimmed to the degree, so its top degree holds a nonzero
entry; the zero polynomial has an empty vector and degree -1.  The index
of a lower degree is a prefix of the index of a higher one, so operands
of different degrees line up once the shorter vector is padded with
zeros.

Nothing here prunes: arithmetic keeps every coefficient it computes, so
none is lost for being small in the units of x.  ``prune_eps`` is the
printer's threshold only.  ``render`` hides a term whose size is below
``prune_eps`` times the largest finite term's, each term's size measured
in the units given by a per-axis scale.  Arithmetic on two polynomials
carries the larger of their ``prune_eps``.

Arithmetic is gathers through the shift tables of the index.  A partial
derivative gathers through ``up``, a product sums shifted copies of one
operand along the index's sum table, and each run of a power table is
its parent rows times a linear factor, gathered through ``down``.  Zero
weights take no part, so a NaN coefficient reaches only the terms it
contributes to.  Instances and their coefficient vectors are immutable.
"""

import cmath
import math
import operator
from types import MappingProxyType

import numpy as np

from .errors import AxisOutOfRangeError, DimensionMismatchError
from .monomials import degree_of_row, graded_index, index_size

DEFAULT_PRUNE_EPS = 1e-13

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


def _padded(c, size):
    """The vectors along the last axis of c padded with zeros to ``size``
    entries."""
    out = np.zeros(c.shape[:-1] + (size,), dtype=np.complex128)
    out[..., : c.shape[-1]] = c
    return out


class MPoly:
    """Polynomial in ``nvars`` variables: a coefficient vector over the
    graded index.

    Parameters
    ----------
    nvars : int
        Number of variables, at least 1.  A count, axis or exponent that
        is not integral raises ``TypeError`` here and below.
    terms : dict, optional
        Map from exponent tuple (length ``nvars``, nonnegative ints) to
        coefficient.
    prune_eps : float, optional
        Display threshold of ``render``, carried onto results of arithmetic
        with this polynomial.  Defaults to ``DEFAULT_PRUNE_EPS``.
    """

    __slots__ = ("nvars", "coeffs", "prune_eps", "_degree")

    def __init__(self, nvars, terms=None, prune_eps=None):
        nvars = operator.index(nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            key = tuple(map(operator.index, exps))
            if len(key) != nvars:
                raise DimensionMismatchError(
                    f"exponent tuple {key} has length {len(key)}, expected {nvars}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            clean[key] = complex(c)
        degree = max(map(sum, clean), default=-1)
        coeffs = np.zeros(index_size(nvars, degree), dtype=np.complex128)
        if clean:
            row = graded_index(nvars, degree).row
            for key, c in clean.items():
                coeffs[row[key]] = c
        self._store(nvars, coeffs, prune_eps)

    @classmethod
    def from_coeffs(cls, nvars, coeffs, prune_eps=None):
        """The polynomial with coefficients ``coeffs`` on the first rows of
        the graded index of ``nvars`` variables, the rows after them zero;
        trimmed to its degree, and never sharing ``coeffs``."""
        self = object.__new__(cls)
        self._store(operator.index(nvars), coeffs, prune_eps)
        return self

    def _store(self, nvars, coeffs, prune_eps):
        """Set the fields from a copy of ``coeffs``, trimmed to its degree."""
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        eps = DEFAULT_PRUNE_EPS if prune_eps is None else float(prune_eps)
        if not 0.0 <= eps < math.inf:
            raise ValueError(f"prune_eps must be finite and nonnegative, got {eps}")
        c = np.array(coeffs, dtype=np.complex128)
        nz = c.nonzero()[0]
        degree = degree_of_row(nvars, nz[-1]) if nz.size else -1
        size = index_size(nvars, degree)
        c = c[:size] if c.size >= size else _padded(c, size)
        c.setflags(write=False)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "prune_eps", eps)
        object.__setattr__(self, "_degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, nvars, prune_eps=None):
        return cls.from_coeffs(nvars, (), prune_eps)

    @classmethod
    def constant(cls, nvars, c, prune_eps=None):
        return cls.from_coeffs(nvars, (complex(c),), prune_eps)

    @classmethod
    def variable(cls, nvars, axis, prune_eps=None):
        nvars, axis = operator.index(nvars), operator.index(axis)
        if not 0 <= axis < nvars:
            raise AxisOutOfRangeError(f"axis {axis} outside 0..{nvars - 1}")
        # Rows 0..nvars of the index are 1, x_1, ..., x_nvars.
        return cls.from_coeffs(nvars, np.eye(nvars + 1)[axis + 1], prune_eps)

    # ---- basic queries ----

    def is_zero(self):
        return not self.coeffs.size

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return self._degree

    def max_coeff(self):
        """Largest coefficient magnitude; 0 for the zero polynomial."""
        if not self.coeffs.size:
            return 0.0
        return float(np.abs(self.coeffs).max())

    @property
    def terms(self):
        """Read-only map from exponent tuple to coefficient over the
        nonzero rows, in graded lexicographic order."""
        nz = self.coeffs.nonzero()[0]
        if not nz.size:
            return MappingProxyType({})
        modes = graded_index(self.nvars, self._degree).modes
        return MappingProxyType(dict(zip([modes[r] for r in nz], self.coeffs[nz].tolist())))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    # ---- arithmetic ----

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )
        return max(self.prune_eps, other.prune_eps)

    def _combine(self, other, op):
        if isinstance(other, _SCALARS):
            other = MPoly.constant(self.nvars, other, self.prune_eps)
        if not isinstance(other, MPoly):
            return NotImplemented
        eps = self._check_compat(other)
        b = other.coeffs
        out = _padded(self.coeffs, max(self.coeffs.size, b.size))
        # inf - inf is NaN, which the result keeps.
        with np.errstate(invalid="ignore"):
            op(out[: b.size], b, out=out[: b.size])
        return MPoly.from_coeffs(self.nvars, out, eps)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __neg__(self):
        return MPoly.from_coeffs(self.nvars, -self.coeffs, self.prune_eps)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = complex(other)
            if cmath.isfinite(c):
                out = self.coeffs * c
            else:
                # 0 * inf is NaN on the absent terms, which stay absent.
                with np.errstate(invalid="ignore"):
                    out = self.coeffs * c
                out[self.coeffs == 0.0] = 0.0
            return MPoly.from_coeffs(self.nvars, out, self.prune_eps)
        if not isinstance(other, MPoly):
            return NotImplemented
        eps = self._check_compat(other)
        p, q = (self, other) if self.coeffs.size >= other.coeffs.size else (other, self)
        if q.is_zero():
            return MPoly.zero(self.nvars, eps)
        idx = graded_index(self.nvars, p._degree + q._degree)
        # shift[k] sends the rows of p to those of p times monomial k.
        out = np.zeros(len(idx.modes), dtype=np.complex128)
        shift = idx.sum_table(q.coeffs.size, p.coeffs.size)
        for k in q.coeffs.nonzero()[0]:
            out[shift[k]] += q.coeffs[k] * p.coeffs
        return MPoly.from_coeffs(self.nvars, out, eps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(1.0 / complex(other))
        return NotImplemented

    # ---- calculus and substitution ----

    def diff(self, axis):
        """Partial derivative along one variable: one gather through ``up``."""
        axis = operator.index(axis)
        if not 0 <= axis < self.nvars:
            raise AxisOutOfRangeError(f"axis {axis} outside 0..{self.nvars - 1}")
        idx = graded_index(self.nvars, max(self._degree, 0))
        size = index_size(self.nvars, self._degree - 1)
        out = self.coeffs[idx.up[axis, :size]] * (idx.exponents[:size, axis] + 1)
        return MPoly.from_coeffs(self.nvars, out, self.prune_eps)

    def conj(self):
        return MPoly.from_coeffs(self.nvars, np.conj(self.coeffs), self.prune_eps)

    def affine(self, M, b):
        """Substitute x_i -> b_i + sum_j M[i, j] y_j.

        ``M`` may change the number of variables: with shape (nvars, m)
        the result lives in m variables.  The result is the coefficient
        vector times the ``power_table`` of the map.
        """
        M = np.asarray(M, dtype=complex)
        b = np.asarray(b, dtype=complex).reshape(-1)
        if M.ndim != 2 or M.shape[0] != self.nvars or b.shape[0] != self.nvars:
            raise DimensionMismatchError(
                f"affine map shapes {M.shape}, {b.shape} do not fit {self.nvars} variables"
            )
        if self._degree < 0:
            return MPoly.zero(M.shape[1], self.prune_eps)
        powers = power_table(M, b, self._degree)
        nz = self.coeffs.nonzero()[0]
        return MPoly.from_coeffs(M.shape[1], self.coeffs[nz] @ powers[nz], self.prune_eps)

    def __call__(self, x):
        """Evaluate at a point (sequence of ``nvars`` numbers)."""
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.shape[0] != self.nvars:
            raise DimensionMismatchError(
                f"point has {x.shape[0]} coordinates, expected {self.nvars}"
            )
        exps, coeffs = self.to_arrays()
        return complex(coeffs @ np.prod(x**exps, axis=1))

    def to_arrays(self):
        """Exponent matrix and coefficient vector of the nonzero terms in
        graded-lex order."""
        nz = self.coeffs.nonzero()[0]
        if not nz.size:
            return (
                np.zeros((0, self.nvars), dtype=np.int64),
                np.zeros(0, dtype=np.complex128),
            )
        exps = graded_index(self.nvars, self._degree).exponents[nz]
        return exps.astype(np.int64), self.coeffs[nz]

    # ---- rendering ----

    def __str__(self):
        return render(self)

    def __repr__(self):
        return (
            f"MPoly(nvars={self.nvars}, nterms={np.count_nonzero(self.coeffs)}, "
            f"degree={self.degree()})"
        )


def _poly_for(p, nvars):
    """The one check of a polynomial argument: ``TypeError`` unless ``p``
    is an ``MPoly``, ``DimensionMismatchError`` unless it has ``nvars``
    variables."""
    if not isinstance(p, MPoly):
        raise TypeError("expected an MPoly")
    if p.nvars != nvars:
        raise DimensionMismatchError(f"polynomial in {p.nvars} variables, expected {nvars}")


def _fmt_real(v):
    return f"{v:.12g}"


def _fmt_coeff(c):
    if c.imag == 0.0:
        return _fmt_real(c.real)
    sign = "+" if c.imag >= 0.0 else "-"
    return f"({_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i)"


def _fmt_monomial(exps):
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(parts)


def render(p, scale=None):
    """Canonical string form: graded-lex terms, 12 significant digits.

    A finite term c_a x^a is hidden when |c_a| prod_i scale_i^a_i is below
    ``p.prune_eps`` times the largest such size over the finite terms, so
    x -> c x with ``scale`` -> c ``scale`` hides the same terms; ``scale``
    holds one unit per variable, all 1 when None.  A NaN or infinite
    coefficient is always shown.  Raises ``DimensionMismatchError`` when
    ``scale`` is not one entry per variable, and ``ValueError`` when an
    entry is not finite and positive.
    """
    if scale is not None:
        scale = np.asarray(scale, dtype=float)
        if scale.shape != (p.nvars,):
            raise DimensionMismatchError(
                f"scale of shape {scale.shape} for a polynomial in {p.nvars} variables"
            )
        if not np.all((scale > 0.0) & (scale < np.inf)):
            raise ValueError(f"scale entries must be finite and positive, got {scale.tolist()}")
    exps, coeffs = p.to_arrays()
    # Logs of the sizes: a power of extreme units overflows where a size does not.
    size = np.log(np.abs(coeffs))
    if scale is not None:
        size += exps @ np.log(scale)
    finite = np.isfinite(coeffs)
    shown = ~finite | (np.exp(size - size[finite].max(initial=-np.inf)) >= p.prune_eps)
    text = ""
    for a, c in zip(exps[shown].tolist(), coeffs[shown].tolist()):
        if text and c.imag == 0.0 and c.real < 0.0:
            text += " - " + _fmt_real(-c.real)
        else:
            text += (" + " if text else "") + _fmt_coeff(c)
        if any(a):
            text += "*" + _fmt_monomial(a)
    return text or "0"


def coeff_distance(p, q):
    """Largest coefficient difference between two polynomials.

    NaN when some difference is NaN (an overflow on either side), so a
    non-finite mismatch never hides behind a finite one.
    """
    if p.nvars != q.nvars:
        raise DimensionMismatchError(
            f"operands have {p.nvars} and {q.nvars} variables"
        )
    size = max(p.coeffs.size, q.coeffs.size)
    if not size:
        return 0.0
    with np.errstate(invalid="ignore"):
        return float(np.abs(_padded(p.coeffs, size) - _padded(q.coeffs, size)).max())


def power_table(M, b, degree):
    """Powers of the affine map y -> M y + b, M of shape (n, m).

    Row k holds the coefficients of prod_i (M y + b)_i^{K_i}, K the k-th
    row of ``graded_index(n, degree)``, on the graded index of m
    variables up to ``degree``: its parent's row p times b_I + M_I . y,
    the rows of one of the index's ``runs`` together, summed term by term
    (b_I p, then M_Ij p read at row - e_j) in elementwise products, so a
    lower degree's table is the leading block of this one, bit for bit.
    """
    rows, cols = graded_index(M.shape[0], degree), graded_index(M.shape[1], degree)
    powers = np.zeros((len(rows.modes), len(cols.modes)), dtype=np.complex128)
    powers[0, 0] = 1.0
    for k, I, run, parents in rows.runs:
        width = index_size(M.shape[1], k)
        # -1 in ``down`` reads the last column, where parent rows are zero.
        p = powers[parents, :width]
        out = b[I] * p if b[I] != 0.0 else np.zeros_like(p)
        for j in M[I].nonzero()[0]:
            out += M[I, j] * p[:, cols.down[j, :width]]
        powers[run, :width] = out
    return powers


def hermite_table(degree):
    """Table h of shape (degree + 1, degree + 1): h[m, j] is the
    coefficient of x^j in the physicists' Hermite polynomial H_m.

    Built by H_{m+1} = 2 x H_m - 2 m H_{m-1}, which keeps every
    coefficient an exact integer.
    """
    if degree < 0:
        raise ValueError("Hermite order must be nonnegative")
    h = np.zeros((degree + 1, degree + 1))
    h[0, 0] = 1.0
    for m in range(degree):
        # At m = 0 the second term reads the zero last row.
        h[m + 1, 1:] = 2.0 * h[m, :-1]
        h[m + 1] -= 2.0 * m * h[m - 1]
    return h


def hermite_products(V, degree):
    """Hermite closed forms along the rows of V, shape (n, m).

    Row k holds, on the graded index of m variables up to ``degree``, the
    coefficients of prod_I (V_I . u)^{K_I}, K the k-th row of
    ``graded_index(n, degree)``, once each monomial u^a is replaced by
    prod_i H_{a_i}(y_i).  That power table (``power_table``) is
    homogeneous, so its rows of degree k read only the u^a of degree k,
    and H_a has degree |a|: each degree is one product of its diagonal
    block with the Hermite map of its monomials, entry (a, b)
    prod_i h[a_i, b_i] of ``hermite_table``; a lower degree is its leading block.
    """
    table = power_table(V, np.zeros(V.shape[0]), degree)
    rows, cols = graded_index(V.shape[0], degree), graded_index(V.shape[1], degree)
    h = hermite_table(degree)
    for k in range(degree + 1):
        a, b = cols.exponents[cols.degree(k)], cols.exponents[: cols.degree(k).stop]
        # Complex from the start: the block product would otherwise hold a
        # complex copy of the map beside it.
        hmap = np.ones((len(a), len(b)), dtype=np.complex128)
        for i in range(V.shape[1]):
            hmap.real *= h[a[:, i, None], b[:, i]]
        # A view: degree k's rows are overwritten in place.
        block = table[rows.degree(k)]
        block[:, : len(b)] = block[:, cols.degree(k)] @ hmap
    return table


def hermite(n):
    """Physicists' Hermite polynomial H_n as a one-variable MPoly: row n
    of ``hermite_table``."""
    n = operator.index(n)
    return MPoly.from_coeffs(1, hermite_table(n)[n])
