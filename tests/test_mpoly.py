import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import errors
from ou_spectral.mpoly import (
    MPoly,
    coeff_distance,
    hermite,
    hermite_in_var,
    multinomial,
    render,
)
from ou_spectral.spectral import battery_polynomials


def random_int_poly(rng, nvars, degree, lo=-6, hi=7):
    terms = {}
    for _ in range(8):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=nvars))
        if sum(exps) > degree:
            continue
        terms[exps] = float(rng.integers(lo, hi))
    return MPoly(nvars, terms)


def test_ring_axioms_exact_on_integer_polys():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = random_int_poly(rng, 3, 4)
        q = random_int_poly(rng, 3, 4)
        r = random_int_poly(rng, 3, 4)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_degree_and_zero():
    z = MPoly.zero(2)
    assert z.is_zero() and z.degree() == -1 and z.max_coeff() == 0.0
    p = MPoly(2, {(2, 1): 3.0, (0, 0): -1.0})
    assert p.degree() == 3
    assert p.max_coeff() == 3.0
    assert (p - p).is_zero()


def test_product_degree_adds():
    rng = np.random.default_rng(11)
    p = random_int_poly(rng, 2, 3)
    q = random_int_poly(rng, 2, 2)
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree() == p.degree() + q.degree()


def test_diff_product_rule_exact():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = random_int_poly(rng, 2, 3)
        q = random_int_poly(rng, 2, 3)
        for axis in range(2):
            lhs = (p * q).diff(axis)
            rhs = p.diff(axis) * q + p * q.diff(axis)
            assert lhs == rhs


def test_diff_constant_is_zero():
    assert MPoly.constant(3, 5.0).diff(1).is_zero()


def test_prune_drops_dust_keeps_signal():
    p = MPoly(1, {(0,): 1e-14, (1,): 1.0})
    assert (0,) not in p.terms and (1,) in p.terms
    q = MPoly(1, {(0,): 1.0}, prune_eps=1e-6)
    s = p + q
    assert s.prune_eps == 1e-6
    tiny = MPoly(1, {(0,): 1e-7}, prune_eps=1e-6)
    assert tiny.is_zero()


def test_evaluation_matches_horner_by_hand():
    p = MPoly(2, {(2, 0): 3.0, (1, 1): -2.0, (0, 0): 1.0})
    x, y = 1.5, -0.5
    assert p((x, y)) == pytest.approx(3 * x**2 - 2 * x * y + 1)


def test_evaluation_complex_coefficients():
    p = MPoly(1, {(1,): 1j, (0,): 2.0})
    assert p([3.0]) == pytest.approx(2.0 + 3.0j)


def test_affine_shift_matches_pointwise():
    rng = np.random.default_rng(17)
    p = random_int_poly(rng, 2, 4)
    M = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    q = p.affine(M, b)
    for _ in range(5):
        y = rng.normal(size=2)
        npt.assert_allclose(q(y), p(M @ y + b), atol=1e-9)


def test_affine_can_change_variable_count():
    p = MPoly(2, {(1, 1): 1.0})
    q = p.affine(np.array([[1.0], [2.0]]), np.zeros(2))
    assert q.nvars == 1
    assert q([1.5]) == pytest.approx(1.5 * 3.0)


def test_conj():
    p = MPoly(1, {(1,): 1 + 2j})
    assert p.conj().terms[(1,)] == 1 - 2j


HERMITE_TABLE = {
    0: {(0,): 1},
    1: {(1,): 2},
    2: {(0,): -2, (2,): 4},
    3: {(1,): -12, (3,): 8},
    4: {(0,): 12, (2,): -48, (4,): 16},
    5: {(1,): 120, (3,): -160, (5,): 32},
    6: {(0,): -120, (2,): 720, (4,): -480, (6,): 64},
}


def test_hermite_table_exact():
    for n, want in HERMITE_TABLE.items():
        got = hermite(n).terms
        assert got == {k: complex(v) for k, v in want.items()}


def test_hermite_three_term_recurrence_consistency():
    # Independent identity: H_{n+1} = 2 x H_n - 2 n H_{n-1}
    x = MPoly(1, {(1,): 1.0})
    for n in range(1, 12):
        lhs = hermite(n + 1)
        rhs = 2.0 * x * hermite(n) - (2.0 * n) * hermite(n - 1)
        assert lhs == rhs


def test_hermite_parity_and_leading_coefficient():
    for n in range(10):
        h = hermite(n)
        assert h.terms[(n,)] == complex(2**n)
        for (e,), _ in h.terms.items():
            assert (e - n) % 2 == 0


def test_hermite_in_var_embedding():
    h = hermite_in_var(2, 1, 3)
    assert h.terms == {(0, 0, 0): complex(-2), (0, 2, 0): complex(4)}


def test_render_canonical_forms():
    assert render(MPoly.zero(1)) == "0"
    assert render(hermite(2)) == "-2 + 4*x1^2"
    assert render(MPoly(2, {(1, 1): 1.0, (0, 0): -0.5})) == "-0.5 + 1*x1*x2"
    assert render(MPoly(1, {(1,): 1 - 2j})) == "(1-2i)*x1"
    assert str(MPoly(1, {(2,): 1.25})) == "1.25*x1^2"


def test_render_order_is_graded_lex():
    p = MPoly(2, {(0, 2): 1.0, (1, 0): 1.0, (2, 0): 1.0, (1, 1): 1.0})
    assert render(p) == "1*x1 + 1*x1^2 + 1*x1*x2 + 1*x2^2"


def test_render_twelve_significant_digits():
    p = MPoly(1, {(0,): 1.0 / 3.0})
    assert render(p) == "0.333333333333"


def test_to_arrays_graded_lex():
    p = MPoly(2, {(0, 1): 2.0, (1, 0): 3.0, (0, 0): 1.0})
    exps, coeffs = p.to_arrays()
    npt.assert_array_equal(exps, [[0, 0], [1, 0], [0, 1]])
    npt.assert_array_equal(coeffs, [1.0, 3.0, 2.0])


def test_coeff_distance():
    p = MPoly(1, {(1,): 1.0})
    q = MPoly(1, {(1,): 1.0 + 1e-3, (0,): 1e-4})
    assert coeff_distance(p, q) == pytest.approx(1e-3)
    assert coeff_distance(p, p) == 0.0


def test_multinomial_values():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5, 0, 0)) == 1
    assert multinomial(6, (1, 2, 3)) == 60
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_dimension_mismatch_and_axis_errors():
    p = MPoly(2, {(1, 0): 1.0})
    q = MPoly(3, {(1, 0, 0): 1.0})
    with pytest.raises(errors.DimensionMismatchError):
        p + q
    with pytest.raises(errors.DimensionMismatchError):
        p * q
    with pytest.raises(errors.DimensionMismatchError):
        coeff_distance(p, q)
    with pytest.raises(errors.AxisOutOfRangeError):
        p.diff(2)
    with pytest.raises(errors.AxisOutOfRangeError):
        MPoly.variable(2, 5)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MPoly(1, {(-1,): 1.0})


def test_immutability():
    p = MPoly(1, {(1,): 1.0})
    with pytest.raises(AttributeError):
        p.nvars = 2


def _assert_canonical(r):
    # Arithmetic results bypass the validating constructor; they must be
    # exactly what that constructor would have built from the same terms.
    assert r == MPoly(r.nvars, r.terms, r.prune_eps)
    for exps, c in r.terms.items():
        assert type(exps) is tuple and len(exps) == r.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is complex
        assert abs(c) >= r.prune_eps and c != 0.0


def _trusted_path_cases():
    polys = battery_polynomials(2, count=8, max_degree=3)
    polys.append(MPoly(2, {(1, 2): 1 - 2j, (0, 0): 0.5j, (3, 0): -4.0}))
    polys.append(MPoly.constant(2, 2.5))
    polys.append(MPoly(2, {(0, 5): 1.0, (1, 0): -3.0, (2, 2): 1e-3}))
    return polys


def test_arithmetic_results_match_validating_constructor():
    polys = _trusted_path_cases()
    M = np.array([[0.5, -1.0], [2.0, 0.25j]])
    b = np.array([0.3, -0.7])
    for i, p in enumerate(polys):
        q = polys[(i + 1) % len(polys)]
        results = [p + q, p - q, -p, 2.5 * p, p * (1 - 1j), p * q, p.conj()]
        results += [p.diff(axis) for axis in range(2)]
        results += [p.affine(M, b), p.affine(np.array([[1.0], [2.0]]), b)]
        for r in results:
            _assert_canonical(r)


def test_negation_and_conjugation_keep_every_term():
    # Both keep |c| exactly, so their results skip the prune pass; they
    # must still be what the validating constructor builds.
    eps = 1e-13
    edge = MPoly(2, {(0, 0): eps, (1, 0): complex(-0.0, eps), (0, 1): complex(eps, -0.0)})
    wide = MPoly(2, {(2, 1): 1e-6 - 1e-6j, (0, 3): -2e-6}, prune_eps=1e-6)
    for p in _trusted_path_cases() + [edge, wide]:
        for r in (-p, p.conj(), -(p.conj()), (-p).conj()):
            _assert_canonical(r)
            assert set(r.terms) == set(p.terms)
            assert r.prune_eps == p.prune_eps
            assert r.terms is not p.terms
        assert -(-p) == p and p.conj().conj() == p


def test_arithmetic_still_prunes_dust_and_nan():
    p = MPoly(1, {(0,): 1.0, (1,): 1.0})
    q = MPoly(1, {(1,): -1.0 + 1e-15})
    s = p + q
    assert s.terms == {(0,): 1.0 + 0.0j}
    _assert_canonical(s)
    assert (p - MPoly(1, {(1,): 1.0 - 1e-15})).terms == {(0,): 1.0 + 0.0j}
    assert (1e-14 * p).is_zero()
    assert (p * MPoly(1, {(0,): 1e-14})).is_zero()
    assert (MPoly(1, {(1,): 1e-13}).diff(0) * 0.5).is_zero()
    assert (p * float("nan")).is_zero()
    assert (p * complex(float("nan"), 0.0)).is_zero()
    wide = MPoly(1, {(0,): 1.0}, prune_eps=1e-6)
    assert (wide + MPoly(1, {(1,): 1e-7})).terms == {(0,): 1.0 + 0.0j}
