import math
import re

import numpy as np
import pytest

import ou_spectral as ou
from ou_spectral import errors, monomials
from ou_spectral.monomials import (
    INDEX_CACHE_SIZE,
    compositions,
    enumerate_modes,
    graded_index,
    mode_normalization,
    parent,
)

SHAPES = [(1, 0), (1, 5), (2, 0), (2, 6), (3, 4), (4, 3), (5, 2)]


def _shift(K, i, step):
    return K[:i] + (K[i] + step,) + K[i + 1 :]


@pytest.mark.parametrize("dim, degree", SHAPES)
def test_rows_are_enumerate_modes(dim, degree):
    idx = graded_index(dim, degree)
    assert idx.modes == tuple(enumerate_modes(dim, degree))
    assert len(idx.modes) == math.comb(dim + degree, dim)
    assert all(idx.row[K] == r for r, K in enumerate(idx.modes))
    assert len(idx.row) == len(idx.modes)
    assert idx.exponents.shape == (len(idx.modes), dim)
    assert [tuple(a) for a in idx.exponents.tolist()] == list(idx.modes)


@pytest.mark.parametrize("dim, degree", SHAPES)
def test_degree_slices(dim, degree):
    idx = graded_index(dim, degree)
    stop = 0
    for k in range(degree + 1):
        s = idx.degree(k)
        assert s.start == stop
        assert idx.modes[s] == tuple(compositions(k, dim))
        stop = s.stop
    assert stop == len(idx.modes)


@pytest.mark.parametrize("dim, degree", SHAPES)
def test_shift_tables_match_exponent_arithmetic(dim, degree):
    idx = graded_index(dim, degree)
    assert idx.up.shape == idx.down.shape == (dim, len(idx.modes))
    for r, K in enumerate(idx.modes):
        for i in range(dim):
            if sum(K) < degree:
                assert idx.modes[idx.up[i, r]] == _shift(K, i, 1)
            else:
                assert idx.up[i, r] == -1
            if K[i]:
                assert idx.modes[idx.down[i, r]] == _shift(K, i, -1)
            else:
                assert idx.down[i, r] == -1


@pytest.mark.parametrize("dim, degree", SHAPES)
def test_steps_follow_the_ladder_parent(dim, degree):
    # The raising steps are held as runs of rows: one per order and axis,
    # by order and then axis, each a plain slice.
    idx = graded_index(dim, degree)
    assert [(k, I) for k, I, _, _ in idx.runs] == [
        (k, I) for k in range(1, degree + 1) for I in range(dim)
    ]
    covered = []
    for k, I, rows, parents in idx.runs:
        assert rows.step is None and parents.step is None
        # forward_eigenfunction raises K from K - e_I, I its first nonzero axis.
        want = [K for K in idx.modes[idx.degree(k)] if parent(K)[0] == I]
        assert list(idx.modes[rows]) == want
        assert list(idx.modes[parents]) == [parent(K)[1] for K in want]
        for K in want:
            first = next(i for i, m in enumerate(K) if m)
            assert parent(K) == (first, _shift(K, first, -1))
        covered.extend(range(rows.start, rows.stop))
    assert covered == list(range(1, len(idx.modes)))


@pytest.mark.parametrize("dim, degree", SHAPES + [(1, 150)])
def test_normalizations_are_mode_normalization_row_by_row(dim, degree):
    idx = graded_index(dim, degree)
    want = np.array([mode_normalization(K) for K in idx.modes])
    assert idx.normalizations.tobytes() == want.tobytes()
    assert not idx.normalizations.flags.writeable
    with pytest.raises(ValueError):
        idx.normalizations[0] = 7.0
    assert idx.normalizations is idx.normalizations
    for k in range(degree + 1):
        lead = idx.normalizations[: idx.degree(k).stop]
        assert lead.tobytes() == graded_index(dim, k).normalizations.tobytes()


def test_normalizations_that_overflow_raise_on_every_read():
    # 2^151 151! is not a finite float; the index itself still builds.
    idx = graded_index(1, 151)
    for _ in range(2):
        with pytest.raises(errors.NonFiniteResultError, match=re.escape("K=(151,)")):
            idx.normalizations


def test_parent_is_the_step_of_the_eigenfunction_builders(model_3d):
    K = (0, 2, 1)
    I, P = parent(K)
    assert (I, P) == (1, (0, 1, 1))
    f = ou.raise_forward(model_3d, I, ou.forward_eigenfunction(model_3d, P))
    g = ou.raise_adjoint(model_3d, I, ou.adjoint_eigenfunction(model_3d, P))
    assert ou.coeff_distance(f.poly, ou.forward_eigenfunction(model_3d, K).poly) == 0.0
    assert ou.coeff_distance(g, ou.adjoint_eigenfunction(model_3d, K)) == 0.0


def test_cached_arrays_are_read_only():
    idx = graded_index(3, 3)
    for a in (idx.exponents, idx.up, idx.down):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 7
    with pytest.raises(TypeError):
        idx.row[(9, 9, 9)] = 0
    assert isinstance(idx.modes, tuple) and isinstance(idx.runs, tuple)


def test_cache_is_bounded_and_rebuilds_equal():
    first = graded_index(2, 3)
    assert graded_index(2, 3) is first
    for degree in range(INDEX_CACHE_SIZE + 4):
        graded_index(1, degree)
    info = graded_index.cache_info()
    assert info.maxsize == INDEX_CACHE_SIZE
    assert info.currsize <= INDEX_CACHE_SIZE
    again = graded_index(2, 3)
    assert again is not first
    assert again.modes == first.modes and again.runs == first.runs
    assert np.array_equal(again.up, first.up) and np.array_equal(again.down, first.down)


def test_index_validation():
    with pytest.raises(ValueError):
        graded_index(0, 2)
    with pytest.raises(ValueError):
        graded_index(2, -1)
    assert monomials.enumerate_modes is ou.enumerate_modes
    assert monomials.mode_normalization is ou.mode_normalization


@pytest.mark.parametrize("dim, order", [(2, 2.5), (2.0, 2), (2, "2")])
def test_enumerate_modes_refuses_a_count_that_is_not_integral(dim, order):
    # int() read the order 2.5 as 2 and listed the 6 modes of order 2.
    with pytest.raises(TypeError):
        enumerate_modes(dim, order)


def test_enumerate_modes_reads_integral_counts_as_before():
    want = enumerate_modes(2, 2)
    assert len(want) == 6
    assert enumerate_modes(np.int64(2), np.int8(2)) == want
    assert enumerate_modes(2, True) == enumerate_modes(2, 1)
