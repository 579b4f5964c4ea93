"""The graded multi-index that every route over the modes shares.

A multi-index K labels both the eigenpair with eigenvalue sum_I K_I
lambda_I and the monomial x^K.  Up to a total order they come by order,
and within one order in reverse lexicographic order (``enumerate_modes``).
Mode K is raised from its ``parent`` K - e_I, I the first nonzero axis
of K.  The ladder builds its eigenfunctions along these parents; the
Gaussian moments, the grid recursion, the solve, polynomial products and
the pairing matrix of ``verify`` read their rows from ``graded_index``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

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
    return list(graded_index(int(dim), int(max_order)).modes)


def parent(K):
    """(I, K - e_I), I the first nonzero axis of K: the step that raises K."""
    I = next(i for i, k in enumerate(K) if k > 0)
    return I, K[:I] + (K[I] - 1,) + K[I + 1 :]


@dataclass(frozen=True, eq=False)
class GradedIndex:
    """Read-only tables over ``modes``, one row per mode.

    ``row`` maps a mode to its row; ``exponents`` stacks the modes.  Row
    ``up[i, r]`` holds modes[r] + e_i and ``down[i, r]`` modes[r] - e_i,
    -1 off the index.  ``steps[r - 1]`` reaches row r from its parent P:
    (row of P, I, ((J, P_J, row of P - e_J) for nonzero P_J)).
    """

    modes: tuple
    row: MappingProxyType
    exponents: np.ndarray
    up: np.ndarray
    down: np.ndarray
    steps: tuple

    def degree(self, k):
        """Slice of the rows of total order k."""
        n = self.exponents.shape[1]
        return slice(math.comb(k + n - 1, n), math.comb(k + n, n))

    def sum_table(self, rows_a, rows_b):
        """Table S of shape (rows_a, rows_b): S[k, r] is the row of
        modes[k] + modes[r], each row reached from its parent's by one
        gather through ``up``.  The two degrees must add up to at most the
        degree of the index."""
        S = np.empty((rows_a, rows_b), dtype=np.intp)
        S[0] = np.arange(rows_b)
        for k, (p, I, _) in enumerate(self.steps[: rows_a - 1], 1):
            S[k] = self.up[I, S[p]]
        return S


@lru_cache(maxsize=INDEX_CACHE_SIZE)
def graded_index(dim, degree):
    """The ``GradedIndex`` of all multi-indices of ``dim`` entries up to
    total order ``degree``."""
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
    steps = []
    for I, P in map(parent, modes[1:]):
        lower = tuple((J, P[J], int(down[J, row[P]])) for J in range(dim) if P[J])
        steps.append((row[P], I, lower))
    exponents = np.array(modes, dtype=np.intp)
    for a in (exponents, up, down):
        a.setflags(write=False)
    return GradedIndex(modes, MappingProxyType(row), exponents, up, down, tuple(steps))
