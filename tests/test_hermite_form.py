import dataclasses
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import cli, errors, hermite_form, ladder, verify
from ou_spectral.mpoly import hermite

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_canonical_transform_squares_to_twice_covariance(model_3d):
    # T is sqrt(2) times f0's Cholesky factor, lower triangular.
    tr = ou.canonical_transform(model_3d)
    npt.assert_allclose(tr.T @ tr.T.T, 2.0 * model_3d.Sigma, atol=1e-12)
    npt.assert_allclose(tr.T @ tr.T_inv, np.eye(3), atol=1e-12)
    npt.assert_array_equal(np.triu(tr.T, 1), 0.0)


def test_canonical_frame_is_the_whitened_frame_of_f0(four_models):
    # y = T^-1 x is z / sqrt(2) for the whitened coordinates z of f0, the
    # frame of grid evaluation: there is one whitening route.
    rng = np.random.default_rng(8)
    for name, model in four_models.items():
        tr = ou.canonical_transform(model)
        pts = rng.normal(size=(6, model.dim))
        [(_, z, _)] = model.f0._whitened_blocks(pts)
        npt.assert_allclose(tr.T_inv @ pts.T, z / np.sqrt(2.0), rtol=1e-14, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("name", ["canonical_1d", "diag_2d", "spiral_2d", "random_3d"])
def test_canonical_frame_holds_in_any_units(name, c):
    # Under x -> c x (B times c^2) the rebuilt model is canonical and its
    # ladder eigenfunctions match the Hermite closed form.
    cfg = cli.load_config(str(CONFIGS / f"{name}.json"))
    model = ou.build_model(cfg.A, cfg.B * c**2)
    model_c, tr = ou.to_canonical(model)
    assert ou.is_canonical(model_c)
    npt.assert_allclose(tr.T @ tr.T.T, 2.0 * model.Sigma, rtol=1e-12, atol=0.0)
    assert verify.hermite_suite(model, 5).passed


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


@pytest.mark.parametrize(
    "K, error",
    [
        ((1,), errors.ModeIndexMismatchError),
        ((1, 0, 0), errors.ModeIndexMismatchError),
        ((1, -1), errors.ModeIndexMismatchError),
        ((1.5, 0), TypeError),
        ((0, "1"), TypeError),
    ],
)
def test_closed_forms_refuse_a_bad_mode_as_the_eigenfunctions_do(model_spiral, K, error):
    # The closed forms read the mode through the ladder's own check, so a
    # bad K raises the same error on all four routes.
    routes = (
        ou.forward_eigenfunction,
        ou.adjoint_eigenfunction,
        ou.forward_hermite,
        ou.adjoint_hermite,
    )
    for route in routes:
        with pytest.raises(error) as excinfo:
            route(model_spiral, K)
        assert type(excinfo.value) is error, route.__name__


def test_one_dimensional_hermite_form_is_hermite(model_1d):
    for n in range(6):
        assert ou.coeff_distance(ou.forward_hermite(model_1d, (n,)), hermite(n)) <= 1e-12
        assert ou.coeff_distance(ou.adjoint_hermite(model_1d, (n,)), hermite(n)) <= 1e-12


def _assert_matches_ladder(model_c, modes):
    for K in modes:
        d = ou.coeff_distance(
            ou.forward_hermite(model_c, K),
            ou.forward_eigenfunction(model_c, K).poly,
        )
        assert d <= 1e-9, f"forward mismatch at K={K}: {d:.3e}"
        d = ou.coeff_distance(
            ou.adjoint_hermite(model_c, K),
            ou.adjoint_eigenfunction(model_c, K),
        )
        assert d <= 1e-9, f"adjoint mismatch at K={K}: {d:.3e}"


def test_hermite_form_matches_ladder_on_spiral(model_spiral):
    _assert_matches_ladder(model_spiral, ou.enumerate_modes(2, 5))


def test_hermite_form_matches_ladder_after_transform(model_3d):
    model_c, _ = ou.to_canonical(model_3d)
    _assert_matches_ladder(model_c, [(1, 0, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1)])


@pytest.mark.parametrize("n", [4, 5])
def test_hermite_form_matches_ladder_in_higher_dimensions(n):
    # A fixed random stable model (the recipe of tests/test_verify.py's
    # _random_model), taken to canonical coordinates.
    rng = np.random.default_rng(20261018)
    A = rng.standard_normal((n, n)) - 2.5 * np.eye(n)
    L = rng.standard_normal((n, n))
    model_c, _ = ou.to_canonical(ou.build_model(A, L @ L.T + 0.2 * np.eye(n)))
    _assert_matches_ladder(model_c, ou.enumerate_modes(n, 5))


def test_single_mode_multinomial_expansion_by_hand(model_spiral):
    # (sum_k e_k a_k)^2 applied to 1: coefficients e1^2, 2 e1 e2, e2^2 on
    # H_2(y1) = 4 y1^2 - 2, H_1(y1) H_1(y2) = 4 y1 y2 and H_2(y2) = 4 y2^2 - 2.
    e = model_spiral.eig.right[:, 0]
    want = ou.MPoly(
        2,
        {
            (0, 0): -2 * e[0] ** 2 - 2 * e[1] ** 2,
            (2, 0): 4 * e[0] ** 2,
            (1, 1): 4 * (2 * e[0] * e[1]),
            (0, 2): 4 * e[1] ** 2,
        },
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
        a = complex(f_orig.poly(x)) * f_orig.base.pdf(x) * np.linalg.det(tr.T)
        b = complex(f_can.poly(y)) * f_can.base.pdf(y)
        ratios.append(a / b)
    for r in ratios[1:]:
        npt.assert_allclose(r, ratios[0], rtol=1e-9)


def test_hermite_form_keeps_the_model_prune_eps(model_spiral):
    fine = ou.build_model(model_spiral.A, model_spiral.B, prune_eps=1e-20)
    for K in ((1, 1), (2, 0), (0, 3)):
        assert ou.forward_hermite(fine, K).prune_eps == 1e-20
        assert ou.adjoint_hermite(fine, K).prune_eps == 1e-20
        # the table cached on the fine model does not leak into others
        assert ou.forward_hermite(model_spiral, K).prune_eps == model_spiral.prune_eps


def _canonical_models():
    """The four configs and random models of n = 2-4, canonical."""
    models = {}
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(str(path))
        models[path.stem] = ou.build_model(cfg.A, cfg.B)
    for n in (2, 3, 4):
        rng = np.random.default_rng(77 + n)
        A = rng.standard_normal((n, n)) - 2.5 * np.eye(n)
        L = rng.standard_normal((n, n))
        models[f"random_n{n}"] = ou.build_model(A, L @ L.T + 0.2 * np.eye(n))
    return {
        name: model if ou.is_canonical(model) else ou.to_canonical(model)[0]
        for name, model in models.items()
    }


def test_closed_forms_read_below_their_top_order_match_a_direct_build():
    # One table per side, read at order 6 first: each lower order reads its
    # leading block, which must equal the table built at that order bit for
    # bit, and each closed form of the public route the one a fresh model
    # builds.  The random models reach coefficients of 7e8.
    for name, model in _canonical_models().items():
        for side, public in (("forward", ou.forward_hermite), ("adjoint", ou.adjoint_hermite)):
            top = ladder._grown(model, hermite_form._hermite_table, (side,), 6)[1]
            for k in range(6, -1, -1):
                fresh = dataclasses.replace(model)
                direct = hermite_form._hermite_table(fresh, side, k)[0]
                rows = len(direct)
                lead = np.ascontiguousarray(top[:rows, :rows])
                assert np.array_equal(lead.view(np.int64), direct.view(np.int64)), (name, side, k)
                for K in ou.enumerate_modes(model.dim, k):
                    if sum(K) == k:
                        want = public(dataclasses.replace(model), K)
                        assert public(model, K) == want, (name, side, K)
            assert model._op_cache[(hermite_form._hermite_table, side)][0] == 6
