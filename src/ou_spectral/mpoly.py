"""Sparse multivariate polynomials with complex coefficients.

Terms live in a dict mapping exponent tuples to coefficients.  Every
instance keeps one invariant: each key is a tuple of ``nvars``
nonnegative Python ints and each value a Python ``complex`` whose
magnitude is at least ``prune_eps``.  The public constructor validates
and converts its input to establish it.  Arithmetic results are built
from operands that already hold it, using only int addition on
exponents and complex arithmetic on coefficients, so they go through
``MPoly._trusted``, which skips validation and only drops coefficients
below the prune threshold; cancellation dust never accumulates.
Negation and conjugation keep every magnitude exactly, so they skip the
prune pass as well (``MPoly._wrap``).
Instances are treated as immutable; no method mutates its receiver.

Printing and ``items()`` use graded lexicographic order (total degree
first, then lexicographic on exponents), which makes every rendered
polynomial canonical.
"""

import math
import operator

import numpy as np

from .errors import AxisOutOfRangeError, DimensionMismatchError

DEFAULT_PRUNE_EPS = 1e-13

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


def _grlex_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class MPoly:
    """Polynomial in ``nvars`` variables, stored sparsely.

    Parameters
    ----------
    nvars : int
        Number of variables, at least 1.
    terms : dict, optional
        Map from exponent tuple (length ``nvars``, nonnegative ints) to
        coefficient.  Coefficients with magnitude below ``prune_eps``
        are dropped.
    prune_eps : float, optional
        Prune threshold carried onto results of arithmetic with this
        polynomial.  Defaults to ``DEFAULT_PRUNE_EPS``.
    """

    __slots__ = ("nvars", "terms", "prune_eps")

    def __init__(self, nvars, terms=None, prune_eps=None):
        nvars = int(nvars)
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        eps = DEFAULT_PRUNE_EPS if prune_eps is None else float(prune_eps)
        if eps < 0.0:
            raise ValueError("prune_eps must be nonnegative")
        clean = {}
        if terms:
            for exps, c in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != nvars:
                    raise DimensionMismatchError(
                        f"exponent tuple {key} has length {len(key)}, expected {nvars}"
                    )
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                c = complex(c)
                if abs(c) >= eps and c != 0.0:
                    clean[key] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "prune_eps", eps)

    @classmethod
    def _trusted(cls, nvars, terms, eps):
        """Wrap terms that already satisfy the module invariant except for
        pruning.  The caller guarantees the keys and value types."""
        return cls._wrap(
            nvars, {e: c for e, c in terms.items() if abs(c) >= eps and c != 0.0}, eps
        )

    @classmethod
    def _wrap(cls, nvars, terms, eps):
        """Wrap terms that satisfy the whole invariant, pruning included.
        For maps that keep every ``|c|``, such as negation and conjugation."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "prune_eps", eps)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, nvars, prune_eps=None):
        return cls(nvars, {}, prune_eps)

    @classmethod
    def constant(cls, nvars, c, prune_eps=None):
        return cls(nvars, {(0,) * nvars: c}, prune_eps)

    @classmethod
    def variable(cls, nvars, axis, prune_eps=None):
        if not 0 <= axis < nvars:
            raise AxisOutOfRangeError(f"axis {axis} outside 0..{nvars - 1}")
        exps = tuple(1 if i == axis else 0 for i in range(nvars))
        return cls(nvars, {exps: 1.0}, prune_eps)

    @classmethod
    def linear(cls, nvars, coeffs, const=0.0, prune_eps=None):
        """Build ``sum_i coeffs[i] * x_i + const``."""
        coeffs = list(coeffs)
        if len(coeffs) != nvars:
            raise DimensionMismatchError(
                f"got {len(coeffs)} linear coefficients for {nvars} variables"
            )
        terms = {(0,) * nvars: const}
        for i, c in enumerate(coeffs):
            exps = tuple(1 if j == i else 0 for j in range(nvars))
            terms[exps] = c
        return cls(nvars, terms, prune_eps)

    # ---- basic queries ----

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def max_coeff(self):
        """Largest coefficient magnitude; 0 for the zero polynomial."""
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def items(self):
        """Terms in graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    # ---- arithmetic ----

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )
        return max(self.prune_eps, other.prune_eps)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.constant(self.nvars, other, self.prune_eps)
        if not isinstance(other, MPoly):
            return NotImplemented
        eps = self._check_compat(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0.0) + c
        return MPoly._trusted(self.nvars, out, eps)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._wrap(self.nvars, {e: -c for e, c in self.terms.items()}, self.prune_eps)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.constant(self.nvars, other, self.prune_eps)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = complex(other)
            return MPoly._trusted(
                self.nvars, {e: v * c for e, v in self.terms.items()}, self.prune_eps
            )
        if not isinstance(other, MPoly):
            return NotImplemented
        eps = self._check_compat(other)
        out = {}
        add = operator.add
        other_items = other.terms.items()
        for ea, ca in self.terms.items():
            for eb, cb in other_items:
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return MPoly._trusted(self.nvars, out, eps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(1.0 / complex(other))
        return NotImplemented

    # ---- calculus and substitution ----

    def diff(self, axis):
        """Partial derivative along one variable."""
        if not 0 <= axis < self.nvars:
            raise AxisOutOfRangeError(f"axis {axis} outside 0..{self.nvars - 1}")
        out = {}
        for exps, c in self.terms.items():
            e = exps[axis]
            if e == 0:
                continue
            key = exps[:axis] + (e - 1,) + exps[axis + 1 :]
            out[key] = out.get(key, 0.0) + c * e
        return MPoly._trusted(self.nvars, out, self.prune_eps)

    def conj(self):
        return MPoly._wrap(
            self.nvars, {e: c.conjugate() for e, c in self.terms.items()}, self.prune_eps
        )

    def affine(self, M, b):
        """Substitute x_i -> b_i + sum_j M[i, j] y_j.

        ``M`` may change the number of variables: with shape (nvars, m)
        the result lives in m variables.
        """
        M = np.asarray(M, dtype=complex)
        b = np.asarray(b, dtype=complex).reshape(-1)
        if M.ndim != 2 or M.shape[0] != self.nvars or b.shape[0] != self.nvars:
            raise DimensionMismatchError(
                f"affine map shapes {M.shape}, {b.shape} do not fit {self.nvars} variables"
            )
        m = M.shape[1]
        subs = [
            MPoly.linear(m, M[i, :], const=b[i], prune_eps=self.prune_eps)
            for i in range(self.nvars)
        ]
        # Power tables, filled lazily up to the largest exponent used.
        pows = [[MPoly.constant(m, 1.0, self.prune_eps), subs[i]] for i in range(self.nvars)]
        result = MPoly.zero(m, self.prune_eps)
        one = (0,) * m
        for exps, c in self.items():
            term = MPoly._trusted(m, {one: c}, self.prune_eps)
            for i, e in enumerate(exps):
                while len(pows[i]) <= e:
                    pows[i].append(pows[i][-1] * subs[i])
                if e:
                    term = term * pows[i][e]
            result = result + term
        return result

    def __call__(self, x):
        """Evaluate at a point (sequence of ``nvars`` numbers)."""
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.shape[0] != self.nvars:
            raise DimensionMismatchError(
                f"point has {x.shape[0]} coordinates, expected {self.nvars}"
            )
        total = 0.0 + 0.0j
        for exps, c in self.items():
            v = c
            for xi, e in zip(x, exps):
                if e:
                    v = v * xi**e
            total += v
        return total

    def to_arrays(self):
        """Exponent matrix and coefficient vector in graded-lex order."""
        items = self.items()
        if not items:
            return (
                np.zeros((0, self.nvars), dtype=np.int64),
                np.zeros(0, dtype=np.complex128),
            )
        exps = np.array([e for e, _ in items], dtype=np.int64)
        coeffs = np.array([c for _, c in items], dtype=np.complex128)
        return exps, coeffs

    # ---- rendering ----

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"MPoly(nvars={self.nvars}, nterms={len(self.terms)}, degree={self.degree()})"


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


def render(p):
    """Canonical string form: graded-lex terms, 12 significant digits."""
    items = p.items()
    if not items:
        return "0"
    pieces = []
    for exps, c in items:
        mono = _fmt_monomial(exps)
        if c.imag == 0.0 and c.real < 0.0 and pieces:
            body = _fmt_real(-c.real)
            joiner = " - "
        else:
            body = _fmt_coeff(c)
            joiner = " + "
        text = body if not mono else f"{body}*{mono}"
        if not pieces:
            pieces.append(text)
        else:
            pieces.append(joiner + text)
    return "".join(pieces)


def coeff_distance(p, q):
    """Largest coefficient difference between two polynomials."""
    if p.nvars != q.nvars:
        raise DimensionMismatchError(
            f"operands have {p.nvars} and {q.nvars} variables"
        )
    worst = 0.0
    for exps in set(p.terms) | set(q.terms):
        d = abs(p.terms.get(exps, 0.0) - q.terms.get(exps, 0.0))
        if d > worst:
            worst = d
    return worst


_HERMITE_CACHE = None


def hermite(n):
    """Physicists' Hermite polynomial H_n as a one-variable MPoly.

    Built by the derivative recurrence H_{n+1} = 2 x H_n - H_n', which
    keeps every coefficient an exact integer.
    """
    global _HERMITE_CACHE
    n = int(n)
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    if _HERMITE_CACHE is None:
        _HERMITE_CACHE = [MPoly.constant(1, 1.0)]
    two_x = MPoly(1, {(1,): 2.0})
    while len(_HERMITE_CACHE) <= n:
        h = _HERMITE_CACHE[-1]
        _HERMITE_CACHE.append(two_x * h - h.diff(0))
    return _HERMITE_CACHE[n]


def hermite_in_var(n, axis, nvars, prune_eps=None):
    """H_n in variable ``axis`` of an ``nvars``-variable polynomial ring."""
    if not 0 <= axis < nvars:
        raise AxisOutOfRangeError(f"axis {axis} outside 0..{nvars - 1}")
    h = hermite(n)
    terms = {}
    for (e,), c in h.terms.items():
        key = tuple(e if i == axis else 0 for i in range(nvars))
        terms[key] = c
    return MPoly(nvars, terms, prune_eps)


def multinomial(n, parts):
    """Exact multinomial coefficient n! / prod(parts_i!)."""
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out
