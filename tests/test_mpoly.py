import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import errors
from ou_spectral.gaussian import ForwardFunction
from ou_spectral.ladder import (
    apply_adjoint,
    apply_forward,
    build_model,
    lower_adjoint,
    lower_forward,
    raise_adjoint,
    raise_forward,
)
from ou_spectral.monomials import graded_index
from ou_spectral.mpoly import (
    MPoly,
    coeff_distance,
    hermite,
    hermite_products,
    hermite_table,
    power_table,
    render,
)
from ou_spectral.verify import battery_polynomials


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
    # The polynomial keeps every coefficient; only render hides a term
    # below prune_eps times the largest one.
    p = MPoly(1, {(0,): 1e-14, (1,): 1.0})
    assert p.terms == {(0,): 1e-14 + 0j, (1,): 1.0 + 0j}
    assert render(p) == "1*x1"
    assert render(MPoly(1, p.terms, prune_eps=0.0)) == "1e-14 + 1*x1"
    q = MPoly(1, {(0,): 1.0}, prune_eps=1e-6)
    s = p + q
    assert s.prune_eps == 1e-6
    tiny = MPoly(1, {(0,): 1e-7}, prune_eps=1e-6)
    assert not tiny.is_zero() and render(tiny) == "1e-07"
    assert render(tiny + MPoly(1, {(1,): 1.0})) == "1*x1"


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


def test_hermite_table_matches_numpy_herm2poly():
    # numpy's Hermite series module is an independent implementation.
    h = hermite_table(20)
    for m in range(21):
        want = np.polynomial.hermite.herm2poly([0.0] * m + [1.0])
        npt.assert_array_equal(h[m, : m + 1], want)
        npt.assert_array_equal(h[m, m + 1 :], 0.0)
        npt.assert_array_equal(hermite(m).coeffs, want)


def test_render_canonical_forms():
    assert render(MPoly.zero(1)) == "0"
    assert render(MPoly.zero(2), [3.0, 0.5]) == "0"
    assert render(MPoly(2, {(1, 0): 0.0})) == "0"
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


def test_render_always_shows_non_finite_terms():
    # NaN and inf are printed whatever their neighbours, and the dust test
    # measures the finite terms against the largest finite one, so an
    # infinite term hides nothing.
    inf, nan = float("inf"), float("nan")
    assert render(MPoly(1, {(0,): 1.0, (1,): inf, (2,): 1e-20})) == "1 + inf*x1"
    assert render(MPoly(1, {(0,): 2.0, (1,): -inf, (2,): 0.5})) == "2 - inf*x1 + 0.5*x1^2"
    assert render(MPoly(1, {(0,): 1e-20, (1,): nan, (2,): 1.0})) == "nan*x1 + 1*x1^2"
    assert render(MPoly(1, {(0,): nan})) == "nan"
    assert render(MPoly(1, {(0,): inf, (3,): 1e-300}), [10.0]) == "inf + 1e-300*x1^3"


def _shown(text):
    """The monomials of the terms that ``render`` printed."""
    terms = text.replace(" - ", " + ").split(" + ")
    return [term.split("*", 1)[1] if "*" in term else "" for term in terms]


@pytest.mark.parametrize("c", [1e-8, 1e-3, 1e3, 1e8])
def test_render_hides_the_same_terms_in_every_unit(c):
    # x -> c x sends the coefficient of x^a to c^-|a| times itself; scaled
    # by c too, the units give each term the size it had, so the same
    # terms are printed.
    p = MPoly(
        2,
        {(0, 0): 1.0, (1, 0): 1e-15, (0, 2): -3.0, (1, 1): 2e-14j, (3, 0): 1e-11, (2, 2): 0.5},
    )
    sigma = np.array([0.7, 1.3])
    image = p.affine(np.eye(2) / c, np.zeros(2))
    want = ["", "x2^2", "x1^3", "x1^2*x2^2"]
    assert _shown(render(p, sigma)) == want
    assert _shown(render(image, c * sigma)) == want
    # Measured in the units of x instead, the image prints other terms.
    assert _shown(render(image)) != want


@pytest.mark.parametrize(
    "scale", [[0.0, 1.0], [np.inf, 1.0], [np.nan, 1.0], [-1.0, 1.0]], ids=str
)
def test_render_refuses_a_unit_that_is_not_finite_and_positive(scale):
    # Each of these printed the nonzero polynomial as "0"; the zero unit
    # also warned "divide by zero encountered in log".
    p = MPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError, match="finite and positive"):
        render(p, scale)


@pytest.mark.parametrize("scale", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]], ids=str)
def test_render_refuses_a_scale_of_the_wrong_shape(scale):
    # A length other than the number of variables raised numpy's matmul
    # ValueError.
    with pytest.raises(errors.DimensionMismatchError, match="2 variables"):
        render(MPoly(2, {(0, 0): 1, (1, 0): 1}), scale)


def test_render_compares_terms_whose_unit_powers_overflow():
    # 1e80^4 and 1e80^5 overflow a float; the terms' sizes, 1e20 and
    # 1e90, do not, and the smaller is dust next to the larger.
    assert render(MPoly(1, {(4,): 1e-300, (5,): 1e-310}), [1e80]) == "1e-310*x1^5"


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


def test_overflow_is_not_an_exact_match():
    # inf - inf is NaN: a difference of overflowed polynomials must not
    # read as the zero polynomial, nor their distance as 0.
    inf, nan = float("inf"), float("nan")
    a = MPoly(1, {(1,): inf})
    for d in (a - a, a + (-a), a - MPoly(1, {(1,): inf}, prune_eps=1e-20)):
        assert not d.is_zero()
        assert np.isnan(d.terms[(1,)])
    assert not coeff_distance(a, a) == 0.0
    assert np.isnan(coeff_distance(a, a))
    assert MPoly(1, {(0,): nan}).terms.keys() == {(0,)}
    # A NaN difference wins over every finite one, in either operand order.
    p = MPoly(1, {(0,): 5.0, (1,): nan, (2,): 1.0})
    q = MPoly(1, {(1,): 1.0})
    assert np.isnan(coeff_distance(p, q)) and np.isnan(coeff_distance(q, p))
    assert coeff_distance(a, MPoly(1, {(1,): 1.0})) == inf


def test_non_finite_scalar_multiple_keeps_absent_terms_absent():
    # 0 * inf is NaN on every absent term: it must stay absent, with no
    # RuntimeWarning, and only the present term takes the non-finite value.
    inf, nan = float("inf"), float("nan")
    p = MPoly(2, {(1, 0): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = p * inf
        assert got.terms.keys() == {(1, 0)}
        value = got.terms[(1, 0)]
        assert value.real == inf and np.isnan(value.imag)
        for c in (nan, complex(0.0, -inf), np.float64(inf)):
            for r in (p * c, c * p):
                assert r.terms.keys() == {(1, 0)}
                assert not np.isfinite(r.terms[(1, 0)])


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


@pytest.mark.parametrize(
    "build",
    [
        # int() read the exponent 1.7 as 1, so this was 1*x1.
        lambda: MPoly(2, {(1.7, 0): 1.0}),
        # int() read 2.5 variables as 2.
        lambda: MPoly(2.5, {(1, 0): 1.0}),
        lambda: MPoly.from_coeffs(2.5, [1.0]),
        # int() read 2.7 as 2, so this was H_2.
        lambda: hermite(2.7),
        # The axis reached an index and raised an untyped IndexError.
        lambda: MPoly(2, {(1, 1): 1.0}).diff(0.5),
        lambda: MPoly.variable(2, 1.0),
        lambda: MPoly.variable(2.0, 1),
        lambda: MPoly(2, {("1", 0): 1.0}),
    ],
    ids=[
        "exponent-1.7",
        "nvars-2.5",
        "from_coeffs-nvars-2.5",
        "hermite-2.7",
        "diff-axis-0.5",
        "variable-axis-1.0",
        "variable-nvars-2.0",
        "exponent-str",
    ],
)
def test_a_count_that_is_not_integral_is_refused(build):
    with pytest.raises(TypeError):
        build()


def test_integral_counts_read_as_before():
    want = MPoly(2, {(1, 0): 2.0, (0, 3): 1.0})
    got = MPoly(np.int64(2), {(np.int64(1), False): 2.0, (np.int8(0), 3): 1.0})
    assert got == want and got.terms == {(1, 0): 2.0, (0, 3): 1.0}
    assert type(got.nvars) is int
    assert MPoly.from_coeffs(np.int64(2), want.coeffs) == want
    assert hermite(np.int64(3)) == hermite(3)
    assert want.diff(np.int64(1)) == want.diff(1)
    assert MPoly.variable(np.int64(2), np.int8(1)) == MPoly(2, {(0, 1): 1.0})


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
        # Every nonzero coefficient is a term, however small.
        assert c != 0.0


def _arithmetic_cases():
    polys = battery_polynomials(2, count=8, max_degree=3)
    polys.append(MPoly(2, {(1, 2): 1 - 2j, (0, 0): 0.5j, (3, 0): -4.0}))
    polys.append(MPoly.constant(2, 2.5))
    polys.append(MPoly(2, {(0, 5): 1.0, (1, 0): -3.0, (2, 2): 1e-3}))
    return polys


def test_arithmetic_results_match_validating_constructor():
    polys = _arithmetic_cases()
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
    # Both keep |c| exactly, so they keep every term; they must still be
    # what the validating constructor builds.
    eps = 1e-13
    edge = MPoly(2, {(0, 0): eps, (1, 0): complex(-0.0, eps), (0, 1): complex(eps, -0.0)})
    wide = MPoly(2, {(2, 1): 1e-6 - 1e-6j, (0, 3): -2e-6}, prune_eps=1e-6)
    for p in _arithmetic_cases() + [edge, wide]:
        for r in (-p, p.conj(), -(p.conj()), (-p).conj()):
            _assert_canonical(r)
            assert set(r.terms) == set(p.terms)
            assert r.prune_eps == p.prune_eps
            assert r.terms is not p.terms
        assert -(-p) == p and p.conj().conj() == p


def test_arithmetic_keeps_dust_and_nan():
    # Arithmetic keeps every finite coefficient, however small; render
    # hides what is small next to the largest term.
    p = MPoly(1, {(0,): 1.0, (1,): 1.0})
    q = MPoly(1, {(1,): -1.0 + 1e-15})
    s = p + q
    assert s.terms == {(0,): 1.0 + 0.0j, (1,): complex(1.0 + (-1.0 + 1e-15))}
    _assert_canonical(s)
    assert render(s) == "1"
    d = p - MPoly(1, {(1,): 1.0 - 1e-15})
    assert d.terms == {(0,): 1.0 + 0.0j, (1,): complex(1.0 - (1.0 - 1e-15))}
    assert render(d) == "1"
    # A small polynomial is not dust: its terms are its own scale.
    for small in (1e-14 * p, p * MPoly(1, {(0,): 1e-14})):
        assert small.terms == {(0,): 1e-14 + 0j, (1,): 1e-14 + 0j}
        assert render(small) == "1e-14 + 1e-14*x1"
    assert (MPoly(1, {(1,): 1e-13}).diff(0) * 0.5).terms == {(0,): 5e-14 + 0j}
    for nan in (float("nan"), complex(float("nan"), 0.0)):
        r = p * nan
        assert set(r.terms) == set(p.terms)
        assert all(np.isnan(c) for c in r.terms.values())
    wide = MPoly(1, {(0,): 1.0}, prune_eps=1e-6)
    r = wide + MPoly(1, {(1,): 1e-7})
    assert r.terms == {(0,): 1.0 + 0.0j, (1,): 1e-7 + 0.0j}
    assert render(r) == "1"


def _dict_add(a, b):
    # One dict pass that drops only the exact zeros.
    out = dict(a.terms)
    for exps, c in b.terms.items():
        out[exps] = out.get(exps, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0}


def _dict_diff(p, axis):
    out = {}
    for exps, c in p.terms.items():
        e = exps[axis]
        if e:
            key = exps[:axis] + (e - 1,) + exps[axis + 1 :]
            out[key] = out.get(key, 0.0) + c * e
    return {e: c for e, c in out.items() if c != 0.0}


def test_add_and_diff_match_a_dict_pass():
    eps = 1e-13
    base = MPoly(2, {(1, 0): 1 + 2j, (0, 1): 3.0, (2, 2): complex(1.0, -0.0), (0, 0): 2e-13})
    equal_eps = [
        # a merged key cancelling to exactly 0, another ending below eps
        MPoly(2, {(1, 0): -1 - 2j, (2, 0): 0.5, (0, 1): -3.0 + 1e-14}),
        # a merged key landing exactly on eps; signed zeros
        MPoly(2, {(0, 0): -1e-13, (2, 2): complex(1.0, -0.0), (3, 0): complex(-0.0, 2.0)}),
        MPoly(2, {(0, 3): complex(eps, -0.0), (1, 0): complex(-0.0, -1.0)}),
    ]
    mixed_eps = [
        # the lower-eps operand holds terms below the larger eps
        MPoly(2, {(1, 0): 1e-7, (0, 1): 2.0, (1, 1): 3e-10j}, prune_eps=1e-6),
        MPoly(2, {(1, 0): -1 - 2j + 1e-7}, prune_eps=1e-6),
        MPoly(2, {(0, 0): 5e-7, (3, 0): 1.0}, prune_eps=1e-20),
    ]
    small = MPoly(2, {(0, 0): 1e-10, (1, 0): 1.0, (0, 2): 5e-7}, prune_eps=1e-20)
    pairs = [(base, q) for q in equal_eps + mixed_eps]
    pairs += [(q, base) for q in equal_eps + mixed_eps]
    pairs += [(small, mixed_eps[0]), (mixed_eps[0], small), (base, base), (base, -base)]
    for a, b in pairs:
        for r, want in ((a + b, _dict_add(a, b)), (a - b, _dict_add(a, -b))):
            _assert_canonical(r)
            assert r.prune_eps == max(a.prune_eps, b.prune_eps)
            assert r.terms == want
    for c in (0.0, 1.5, complex(-0.0, 1.0), -2e-13):
        const = MPoly.constant(2, c)
        assert (base + c).terms == _dict_add(base, const)

    # diff: coefficients at exactly eps, signed zero parts, a wide eps.
    edge = MPoly(
        2,
        {
            (1, 0): eps,
            (2, 0): complex(-0.0, eps),
            (1, 1): complex(eps, -0.0),
            (0, 3): complex(-eps, -0.0),
            (3, 2): complex(-0.0, -2.5),
            (0, 0): 7.0,
        },
    )
    wide = MPoly(2, {(2, 1): 1e-6 - 1e-6j, (0, 3): -2e-6, (1, 0): complex(1e-6, -0.0)}, prune_eps=1e-6)
    for p in _arithmetic_cases() + [base, edge, wide] + equal_eps + mixed_eps:
        for axis in range(2):
            r = p.diff(axis)
            _assert_canonical(r)
            assert r.prune_eps == p.prune_eps
            assert r.terms == _dict_diff(p, axis)


# ---- an exact reference: Fraction coefficients in a dict ----


def _exact(p):
    """The terms of an MPoly with integer coefficients, as Fractions."""
    out = {}
    for e, c in p.terms.items():
        assert c.imag == 0.0 and c.real == int(c.real)
        out[e] = Fraction(int(c.real))
    return out


def _clean(terms):
    return {e: c for e, c in terms.items() if c != 0}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return _clean(out)


def _ref_diff(a, axis):
    out = {}
    for e, c in a.items():
        if e[axis]:
            key = e[:axis] + (e[axis] - 1,) + e[axis + 1 :]
            out[key] = out.get(key, 0) + c * e[axis]
    return _clean(out)


def _ref_ladder_step(a, lin, grad):
    """(lin . x) a + grad . grad a, the form of every ladder operator."""
    n = len(lin)
    out = {}
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        out = _ref_add(out, _ref_mul({unit: Fraction(lin[i])}, a))
        out = _ref_add(out, _ref_mul({(0,) * n: Fraction(grad[i])}, _ref_diff(a, i)))
    return out


def _ref_affine(a, M, b):
    """x_i -> b_i + sum_j M[i][j] y_j by expanding every power."""
    m = len(M[0])
    out = {}
    for e, c in a.items():
        term = {(0,) * m: c}
        for i, k in enumerate(e):
            sub = {(0,) * m: Fraction(b[i])}
            for j in range(m):
                sub = _ref_add(sub, {tuple(int(l == j) for l in range(m)): Fraction(M[i][j])})
            for _ in range(k):
                term = _ref_mul(term, sub)
        out = _ref_add(out, term)
    return out


def _random_exact_poly(rng, nvars, degree):
    terms = {}
    for _ in range(int(rng.integers(0, 10))):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=nvars))
        if sum(exps) <= degree:
            terms[exps] = float(rng.integers(-9, 10))
    return MPoly(nvars, terms)


def test_arithmetic_is_exact_against_a_fraction_reference():
    # Integer coefficients stay far below 2^53, so every float operation
    # is exact and the coefficient-vector arithmetic must agree with the
    # exact dict arithmetic term for term, pruning of zeros included.
    rng = np.random.default_rng(44)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        p = _random_exact_poly(rng, n, int(rng.integers(0, 6)))
        q = _random_exact_poly(rng, n, int(rng.integers(0, 6)))
        P, Q = _exact(p), _exact(q)
        assert _exact(p + q) == _ref_add(P, Q)
        assert _exact(p - q) == _ref_add(P, Q, -1)
        assert _exact(p - p) == {}
        assert _exact(p * q) == _ref_mul(P, Q)
        for axis in range(n):
            assert _exact(p.diff(axis)) == _ref_diff(P, axis)
        m = int(rng.integers(1, 4))
        M = rng.integers(-2, 3, size=(n, m)).tolist()
        b = rng.integers(-2, 3, size=n).tolist()
        assert _exact(p.affine(M, b)) == _ref_affine(P, M, b)


def test_ladder_gathers_are_exact_against_a_fraction_reference():
    # With A = -I and B = 2I the eigenvectors are unit vectors and Sigma is
    # I, exactly, so every ladder operator and L itself has integer weights:
    # raising forward is x_I - d_I, lowering forward 2 d_I, raising adjoint
    # 2 x_I - 2 d_I, lowering adjoint d_I, and L and its adjoint are both
    # -x . grad + (grad . grad).
    rng = np.random.default_rng(45)
    for n in (1, 2, 3):
        model = build_model(-np.eye(n), 2.0 * np.eye(n))
        assert np.array_equal(model.eig.right, np.eye(n))
        assert np.array_equal(model.Sigma, np.eye(n))
        for _ in range(30):
            p = _random_exact_poly(rng, n, int(rng.integers(0, 6)))
            P = _exact(p)
            f = ForwardFunction(p, model.f0)
            for I in range(n):
                unit = [int(j == I) for j in range(n)]
                zero = [0] * n
                assert _exact(raise_forward(model, I, f).poly) == _ref_ladder_step(
                    P, unit, [-u for u in unit]
                )
                assert _exact(lower_forward(model, I, f).poly) == _ref_ladder_step(
                    P, zero, [2 * u for u in unit]
                )
                assert _exact(raise_adjoint(model, I, p)) == _ref_ladder_step(
                    P, [2 * u for u in unit], [-2 * u for u in unit]
                )
                assert _exact(lower_adjoint(model, I, p)) == _ref_ladder_step(P, zero, unit)
            want = {}
            for i in range(n):
                unit = tuple(int(j == i) for j in range(n))
                want = _ref_add(want, _ref_mul({unit: Fraction(-1)}, _ref_diff(P, i)))
                want = _ref_add(want, _ref_diff(_ref_diff(P, i), i))
            assert _exact(apply_adjoint(model, p)) == want
            assert _exact(apply_forward(model, f).poly) == want


def test_coefficient_vector_keeps_nan_and_dust():
    nan = float("nan")
    p = MPoly(2, {(0, 0): 1.0, (1, 0): nan, (0, 2): 2.0})
    # The NaN survives every operation that reaches it, and only there.
    for r in (p + p, p - p, 3.0 * p, p * MPoly.variable(2, 1), p.diff(0)):
        assert any(np.isnan(c) for c in r.terms.values())
    assert np.isnan((p - p).terms[(1, 0)]) and set((p - p).terms) == {(1, 0)}
    assert set((p * MPoly.variable(2, 1)).terms) == {(0, 1), (1, 1), (0, 3)}
    assert set(p.diff(1).terms) == {(0, 1)}
    # An entry below prune_eps is kept; the vector is trimmed to the
    # degree of its last nonzero entry, an exact cancellation or an
    # underflow.
    dust = MPoly(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 3): 1.0})
    r = dust - MPoly(2, {(0, 3): 1.0 - 5e-14})
    assert r.terms == {(0, 0): 1.0, (1, 0): 1.0, (0, 3): 1.0 - (1.0 - 5e-14)}
    assert r.degree() == 3 and r.coeffs.size == 10
    r = dust - MPoly(2, {(0, 3): 1.0})
    assert r.degree() == 1 and r.coeffs.size == 3
    assert (dust * 1e-14).degree() == 3 and (dust * 1e-14).coeffs.size == 10
    under = MPoly(2, {(0, 0): 1.0, (0, 3): 1e-300}) * 1e-300
    assert under.terms == {(0, 0): 1e-300 + 0j} and under.coeffs.size == 1
    wide = MPoly(2, {(0, 0): 1.0}, prune_eps=1e-6)
    assert (wide + MPoly(2, {(2, 0): 5e-7})).coeffs.size == 6


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_tables_read_below_their_top_degree_are_a_direct_build():
    # Row K of a power table is its parent's row times one linear factor,
    # and the Hermite products map each degree's block of it.  A table
    # built to degree 7 must hold the table of each lower degree as its
    # leading block bit for bit, so that the model's cache may read a
    # lower degree from it; a product whose rounding depends on the
    # table's width broke that by up to 3.6e-15 at n = 4, degree 4.
    rng = np.random.default_rng(34)
    for n in range(1, 6):
        V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        shift = rng.normal(size=n) + 1j * rng.normal(size=n)
        tables = {
            "power": lambda k: power_table(V, np.zeros(n), k),
            "shifted power": lambda k: power_table(V, shift, k),
            "hermite": lambda k: hermite_products(V, k),
        }
        for name, build in tables.items():
            top = build(7)
            for k in range(7):
                direct = build(k)
                rows, cols = direct.shape
                assert np.array_equal(_bits(top[:rows, :cols]), _bits(direct)), (name, n, k)


def test_hermite_products_transient_is_below_its_table():
    # Each degree's Hermite map was built real, and the block product cast
    # it to complex, so both copies were alive at once: at n = 5, order 7
    # that held 10.0 MiB beyond the 9.6 MiB table, 8.0 MiB once the map is
    # built complex.
    rng = np.random.default_rng(40)
    V = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    graded_index(5, 7)  # the index is cached, outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = hermite_products(V, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - table.nbytes < table.nbytes
