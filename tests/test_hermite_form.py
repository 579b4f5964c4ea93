import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import errors, hermite_form
from ou_spectral.mpoly import hermite


def test_canonical_transform_squares_to_twice_covariance(model_3d):
    tr = ou.canonical_transform(model_3d)
    npt.assert_allclose(tr.T, tr.T.T)
    npt.assert_allclose(tr.T @ tr.T, 2.0 * model_3d.Sigma, atol=1e-12)
    npt.assert_allclose(tr.T @ tr.T_inv, np.eye(3), atol=1e-12)
    npt.assert_allclose(tr.jac, np.linalg.det(tr.T))


def test_to_canonical_produces_half_identity_covariance(model_diag, model_3d):
    for model in (model_diag, model_3d):
        model_c, tr = ou.to_canonical(model)
        npt.assert_allclose(model_c.Sigma, 0.5 * np.eye(model.dim), atol=1e-9)
        assert ou.is_canonical(model_c)
        # spectrum is invariant under the similarity transform
        npt.assert_allclose(
            sorted(model_c.eig.values, key=lambda z: (z.real, z.imag)),
            sorted(model.eig.values, key=lambda z: (z.real, z.imag)),
            atol=1e-10,
        )


def test_diag_model_transform_is_diagonal(model_diag):
    tr = ou.canonical_transform(model_diag)
    npt.assert_allclose(tr.T, np.diag([1.0, np.sqrt(2.0)]), atol=1e-14)


def test_spiral_is_already_canonical(model_spiral):
    assert ou.is_canonical(model_spiral)


def test_non_canonical_rejected(model_diag):
    with pytest.raises(errors.NotCanonicalError):
        ou.forward_hermite(model_diag, (1, 0))
    with pytest.raises(errors.NotCanonicalError):
        ou.adjoint_hermite(model_diag, (0, 1))


def test_one_dimensional_hermite_form_is_hermite(model_1d):
    for n in range(6):
        assert ou.coeff_distance(ou.forward_hermite(model_1d, (n,)), hermite(n)) <= 1e-12
        assert ou.coeff_distance(ou.adjoint_hermite(model_1d, (n,)), hermite(n)) <= 1e-12


def test_hermite_form_matches_ladder_on_spiral(model_spiral):
    for K in ou.enumerate_modes(2, 5):
        d = ou.coeff_distance(
            ou.forward_hermite(model_spiral, K),
            ou.forward_eigenfunction(model_spiral, K).poly,
        )
        assert d <= 1e-9, f"forward mismatch at K={K}: {d:.3e}"
        d = ou.coeff_distance(
            ou.adjoint_hermite(model_spiral, K),
            ou.adjoint_eigenfunction(model_spiral, K),
        )
        assert d <= 1e-9, f"adjoint mismatch at K={K}: {d:.3e}"


def test_hermite_form_matches_ladder_after_transform(model_3d):
    model_c, _ = ou.to_canonical(model_3d)
    for K in [(1, 0, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1)]:
        d = ou.coeff_distance(
            ou.forward_hermite(model_c, K),
            ou.forward_eigenfunction(model_c, K).poly,
        )
        assert d <= 1e-9
        d = ou.coeff_distance(
            ou.adjoint_hermite(model_c, K),
            ou.adjoint_eigenfunction(model_c, K),
        )
        assert d <= 1e-9


def test_single_mode_multinomial_expansion_by_hand(model_spiral):
    # (sum_k e_k a_k)^2 applied to 1: coefficients e1^2, 2 e1 e2, e2^2
    e = model_spiral.eig.right[:, 0]
    from ou_spectral.mpoly import MPoly, hermite_in_var

    want = (
        complex(e[0] ** 2) * hermite_in_var(2, 0, 2)
        + complex(2 * e[0] * e[1]) * hermite_in_var(1, 0, 2) * hermite_in_var(1, 1, 2)
        + complex(e[1] ** 2) * hermite_in_var(2, 1, 2)
    )
    got = ou.forward_hermite(model_spiral, (2, 0))
    assert ou.coeff_distance(got, want) <= 1e-12


def test_densities_agree_through_the_transform(model_diag):
    # The pushforward of an original-coordinates eigenfunction along
    # x = T y is again an eigenfunction of the canonical model, so the
    # two must be pointwise proportional (the rebuilt model renormalizes
    # its eigenvectors, which rescales eigenfunctions).
    model_c, tr = ou.to_canonical(model_diag)
    K = (1, 1)
    f_orig = ou.forward_eigenfunction(model_diag, K)
    f_can = ou.forward_eigenfunction(model_c, K)
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(6):
        y = rng.normal(size=2)
        x = tr.T @ y
        a = complex(f_orig.poly(x)) * f_orig.base.pdf(x) * tr.jac
        b = complex(f_can.poly(y)) * f_can.base.pdf(y)
        ratios.append(a / b)
    for r in ratios[1:]:
        npt.assert_allclose(r, ratios[0], rtol=1e-9)


def test_hermite_form_keeps_the_model_prune_eps(model_spiral):
    fine = ou.build_model(model_spiral.A, model_spiral.B, prune_eps=1e-20)
    for K in ((1, 1), (2, 0), (0, 3)):
        assert ou.forward_hermite(fine, K).prune_eps == 1e-20
        assert ou.adjoint_hermite(fine, K).prune_eps == 1e-20
        # the products cached for the fine model do not leak into others
        assert ou.forward_hermite(model_spiral, K).prune_eps == model_spiral.prune_eps


def test_hermite_product_cache_is_bounded_over_many_prune_eps(model_spiral, monkeypatch):
    size = hermite_form.HPROD_CACHE_SIZE
    hermite_form._HPROD_CACHE.clear()
    for k in range(size + 50):
        hermite_form._hermite_product((2, 1), 2, 1e-13 * (1.0 + k / 4096.0))
        assert len(hermite_form._HPROD_CACHE) <= size
    assert len(hermite_form._HPROD_CACHE) == size
    # The same bound holds through the public route, one model per eps.
    monkeypatch.setattr(hermite_form, "HPROD_CACHE_SIZE", 16)
    hermite_form._HPROD_CACHE.clear()
    for k in range(40):
        model = ou.build_model(model_spiral.A, model_spiral.B, prune_eps=1e-14 * (1.0 + k))
        ou.forward_hermite(model, (2, 1))
        ou.adjoint_hermite(model, (1, 2))
        assert len(hermite_form._HPROD_CACHE) <= 16


def test_hermite_product_rebuilt_after_eviction_equals_original(monkeypatch):
    monkeypatch.setattr(hermite_form, "HPROD_CACHE_SIZE", 4)
    hermite_form._HPROD_CACHE.clear()
    first = hermite_form._hermite_product((3, 2), 2, 1e-13)
    kept = hermite_form._hermite_product((1, 1), 2, 1e-13)
    for m in range(6):
        hermite_form._hermite_product((m, 0), 2, 1e-13)
        # Keep one entry in use: least-recently-used eviction spares it.
        assert hermite_form._hermite_product((1, 1), 2, 1e-13) is kept
    assert (2, (3, 2), 1e-13) not in hermite_form._HPROD_CACHE
    rebuilt = hermite_form._hermite_product((3, 2), 2, 1e-13)
    assert rebuilt is not first
    assert rebuilt == first and rebuilt.prune_eps == first.prune_eps
    assert list(rebuilt.terms.items()) == list(first.terms.items())
