import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import errors
from ou_spectral.mpoly import (
    MPoly,
    _add_gradient,
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


def test_arithmetic_prunes_dust_and_keeps_nan():
    p = MPoly(1, {(0,): 1.0, (1,): 1.0})
    q = MPoly(1, {(1,): -1.0 + 1e-15})
    s = p + q
    assert s.terms == {(0,): 1.0 + 0.0j}
    _assert_canonical(s)
    assert (p - MPoly(1, {(1,): 1.0 - 1e-15})).terms == {(0,): 1.0 + 0.0j}
    assert (1e-14 * p).is_zero()
    assert (p * MPoly(1, {(0,): 1e-14})).is_zero()
    assert (MPoly(1, {(1,): 1e-13}).diff(0) * 0.5).is_zero()
    for nan in (float("nan"), complex(float("nan"), 0.0)):
        r = p * nan
        assert set(r.terms) == set(p.terms)
        assert all(np.isnan(c) for c in r.terms.values())
    wide = MPoly(1, {(0,): 1.0}, prune_eps=1e-6)
    assert (wide + MPoly(1, {(1,): 1e-7})).terms == {(0,): 1.0 + 0.0j}


def _dict_add(a, b):
    # One dict pass, then a prune pass over every coefficient.
    eps = max(a.prune_eps, b.prune_eps)
    out = dict(a.terms)
    for exps, c in b.terms.items():
        out[exps] = out.get(exps, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0 and not abs(c) < eps}


def _dict_diff(p, axis):
    out = {}
    for exps, c in p.terms.items():
        e = exps[axis]
        if e:
            key = exps[:axis] + (e - 1,) + exps[axis + 1 :]
            out[key] = out.get(key, 0.0) + c * e
    return {e: c for e, c in out.items() if c != 0.0 and not abs(c) < p.prune_eps}


def _bits(terms):
    # Keys in order and both parts of each value bit for bit (signed zeros too).
    return [(e, c.real.hex(), c.imag.hex()) for e, c in terms.items()]


def test_add_and_diff_match_the_full_prune_pass():
    eps = 1e-13
    base = MPoly(2, {(1, 0): 1 + 2j, (0, 1): 3.0, (2, 2): complex(1.0, -0.0), (0, 0): 2e-13})
    equal_eps = [
        # a merged key cancelling to exactly 0, another ending below eps
        MPoly(2, {(1, 0): -1 - 2j, (2, 0): 0.5, (0, 1): -3.0 + 1e-14}),
        # a merged key landing exactly on eps; signed zeros, merged and new
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
            assert _bits(r.terms) == _bits(want)
    for c in (0.0, 1.5, complex(-0.0, 1.0), -2e-13):
        const = MPoly.constant(2, c)
        assert _bits((base + c).terms) == _bits(_dict_add(base, const))

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
    for p in _trusted_path_cases() + [base, edge, wide] + equal_eps + mixed_eps:
        for axis in range(2):
            r = p.diff(axis)
            _assert_canonical(r)
            assert r.prune_eps == p.prune_eps
            assert _bits(r.terms) == _bits(_dict_diff(p, axis))


def _gradient_by_sums(out, grad, p):
    # The sequence of sums that _add_gradient builds in one pass.
    for i, c in grad:
        out = out + c * p.diff(i)
    return out


def _random_gradient_case(rng, eps):
    n = int(rng.integers(1, 4))

    def coeff():
        kind = rng.integers(0, 4)
        if kind == 0:  # within a factor of 2 of eps
            return complex(eps * rng.uniform(0.5, 2.0), 0.0) * rng.choice([1, -1, 1j, -1j])
        if kind == 1:  # real, with a signed zero imaginary part
            return complex(rng.normal(), rng.choice([0.0, -0.0]))
        return complex(rng.normal(), rng.normal())

    def terms(k):
        return {tuple(int(e) for e in rng.integers(0, 4, size=n)): coeff() for _ in range(k)}

    p = MPoly(n, terms(8))
    grad = [
        (int(i), rng.choice([coeff(), np.float64(rng.uniform(0.5, 1.0)), 0.6]))
        for i in rng.permutation(n)[: int(rng.integers(1, n + 1))]
    ]
    # out shares keys with the derivatives; some of them cancel the first
    # contribution exactly, so a later axis adds that key back at the end.
    out = terms(4)
    for i, c in grad:
        for exps, v in p.terms.items():
            e = exps[i]
            if e and rng.uniform() < 0.5:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                out[key] = -((0.0 + v * e) * complex(c)) if rng.uniform() < 0.5 else coeff()
    return MPoly(n, out), grad, p


def test_add_gradient_matches_the_sequence_of_sums():
    eps = 1e-13
    rng = np.random.default_rng(2026)
    cases = [_random_gradient_case(rng, eps) for _ in range(200)]
    nan = float("nan")
    p = MPoly(2, {(1, 0): 1.0, (0, 1): 2.0, (1, 1): complex(nan, 0.0), (2, 0): -0.0 + 3j})
    cases += [
        # two axes onto one key in the opposite order of p's terms
        (MPoly(2, {(0, 0): 1.0}), [(0, 0.1), (1, 0.7)], MPoly(2, {(0, 1): 0.3, (1, 0): 0.2})),
        # exact cancellation, then the key comes back from the next axis
        (MPoly(2, {(0, 0): -2.0, (1, 0): 5.0}), [(0, 2.0), (1, 1.0)], p),
        # NaN in p, in out and as a weight
        (MPoly(2, {(0, 0): nan, (1, 0): 1.0}), [(1, 1.0), (0, nan)], p),
        # prune_eps differs: out's is larger, then p's
        (MPoly(2, {(0, 0): 1.0}, prune_eps=1e-6), [(0, 1e-7), (1, 1.0)], p),
        (MPoly(2, {(0, 0): 1.0}), [(0, 3e-14), (1, 1.0)], MPoly(2, p.terms, prune_eps=1e-20)),
    ]
    dropped = moved = 0
    for out, grad, p in cases:
        got = _add_gradient(out, grad, p)
        want = _gradient_by_sums(out, grad, p)
        assert _bits(got.terms) == _bits(want.terms)
        assert got.prune_eps == want.prune_eps and got.nvars == want.nvars
        kept = [k for k in got.terms if k in out.terms]
        dropped += len(kept) < len(out.terms)
        moved += kept != [k for k in out.terms if k in got.terms]
    # Keys of out were dropped, and keys dropped by one axis came back.
    assert dropped and moved
