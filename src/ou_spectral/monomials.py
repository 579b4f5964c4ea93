"""The graded multi-index that every route over the modes shares.

A multi-index K labels both the eigenpair with eigenvalue sum_I K_I
lambda_I and the monomial x^K.  Up to a total order they come by order,
and within one order in reverse lexicographic order (``enumerate_modes``).
Mode K is raised from its ``parent`` K - e_I, I the first nonzero axis
of K.  Every recursion over the modes raises along ``GradedIndex.runs``,
that rule as row slices; the solve and the pairing matrix of ``verify``
read their rows from ``graded_index`` too, and every count of its rows,
C(n + d, n), from ``index_size``.  Its ``normalizations`` hold the
duality normalization 2^|K| K! of each mode (``mode_normalization``), which
grid evaluation and the ``verify`` suites divide by.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ModeIndexMismatchError, NonFiniteResultError

# (dim, degree) pairs whose index is kept.
INDEX_CACHE_SIZE = 32


def compositions(total, parts):
    """All tuples of ``parts`` nonnegative ints summing to ``total``.

    The first entry runs from ``total`` down to 0, recursively, so the
    tuples come out in reverse lexicographic order.
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_modes(dim, max_order):
    """All multi-indices with total order up to max_order, graded-lex."""
    return list(graded_index(dim, max_order).modes)


def _max_order(max_order):
    """``max_order`` as an int, the one reader of an order argument:
    ``TypeError`` unless it is an integer, ``ValueError`` when negative."""
    try:
        order = operator.index(max_order)
    except TypeError:
        raise TypeError(f"max_order must be an integer, got {max_order!r}") from None
    if order < 0:
        raise ValueError("max_order must be nonnegative")
    return order


def index_size(dim, degree):
    """Number of multi-indices of ``dim`` entries up to total order
    ``degree``, C(dim + degree, dim); 0 below order 0."""
    return math.comb(degree + dim, dim) if degree >= 0 else 0


def degree_of_row(dim, r):
    """Total order of the mode in row ``r`` of a graded index."""
    d = 0
    while index_size(dim, d) <= r:
        d += 1
    return d


def parent(K):
    """(I, K - e_I), I the first nonzero axis of K: the step that raises K."""
    I = next(i for i, k in enumerate(K) if k > 0)
    return I, K[:I] + (K[I] - 1,) + K[I + 1 :]


def mode_normalization(K):
    """Duality normalization prod_I 2^{K_I} K_I! of an eigenpair;
    ``NonFiniteResultError`` names K when it is not a finite float."""
    out = 1.0
    for k in map(operator.index, K):
        if k < 0:
            raise ModeIndexMismatchError(f"multi-index {tuple(K)} has a negative entry")
        try:
            out *= float(2**k) * float(math.factorial(k))
        except OverflowError:
            out = math.inf
    if not math.isfinite(out):
        raise NonFiniteResultError(f"normalization 2^|K| K! of K={tuple(K)} is not a finite float")
    return out


@dataclass(frozen=True, eq=False)
class GradedIndex:
    """Read-only tables over ``modes``, one row per mode.

    ``row`` maps a mode to its row; ``exponents`` stacks the modes.  Row
    ``up[i, r]`` holds modes[r] + e_i and ``down[i, r]`` modes[r] - e_i,
    -1 off the index.  ``runs`` is ``parent`` as slices, one per order k >= 1
    and axis I: (k, I, the order-k rows raised along I, their parent rows).
    """

    modes: tuple
    row: MappingProxyType
    exponents: np.ndarray
    up: np.ndarray
    down: np.ndarray
    runs: tuple

    def degree(self, k):
        """Slice of the rows of total order k."""
        n = self.exponents.shape[1]
        return slice(index_size(n, k - 1), index_size(n, k))

    @cached_property
    def normalizations(self):
        """Read-only ``mode_normalization(K)`` of each mode, in row order,
        built on first read; one that overflows raises again on every read."""
        out = np.array([mode_normalization(K) for K in self.modes])
        out.setflags(write=False)
        return out

    def sum_table(self, rows_a, rows_b):
        """Table S of shape (rows_a, rows_b): S[k, r] is the row of
        modes[k] + modes[r], each run reached from its parents by one
        gather through ``up``.  rows_a ends on a whole order, and the two
        degrees must add up to at most the degree of the index."""
        S = np.empty((rows_a, rows_b), dtype=np.intp)
        S[0] = np.arange(rows_b)
        for _, I, rows, parents in self.runs:
            if rows.start >= rows_a:
                break
            S[rows] = self.up[I][S[parents]]
        return S


def graded_index(dim, degree):
    """The ``GradedIndex`` of all multi-indices of ``dim`` entries up to
    total order ``degree``, each read as an integer (``operator.index``)
    before the cache is, which would take 3.0 for 3."""
    return _graded_index(operator.index(dim), operator.index(degree))


@lru_cache(maxsize=INDEX_CACHE_SIZE)
def _graded_index(dim, degree):
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    modes = tuple(K for k in range(degree + 1) for K in compositions(k, dim))
    row = {K: r for r, K in enumerate(modes)}
    up = np.full((dim, len(modes)), -1, dtype=np.intp)
    down = np.full_like(up, -1)
    for r, K in enumerate(modes):
        for i in np.flatnonzero(K):
            down[i, r] = row[K[:i] + (K[i] - 1,) + K[i + 1 :]]
            up[i, down[i, r]] = r
    runs = []
    for (k, I), group in itertools.groupby(modes[1:], lambda K: (sum(K), parent(K)[0])):
        K, size = next(group), 1 + len(list(group))
        r, p = row[K], row[parent(K)[1]]
        runs.append((k, I, slice(r, r + size), slice(p, p + size)))
    exponents = np.array(modes, dtype=np.intp)
    for a in (exponents, up, down):
        a.setflags(write=False)
    return GradedIndex(modes, MappingProxyType(row), exponents, up, down, tuple(runs))
