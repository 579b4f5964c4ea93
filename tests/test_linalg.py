import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import errors, linalg
from ou_spectral.gaussian import GaussianDensity, stationary_density
from ou_spectral.ladder import build_model

from conftest import A_3D, A_SPIRAL, B_3D

ROOT = Path(__file__).resolve().parents[1]


def test_eig_spiral_values_from_characteristic_polynomial():
    # lambda^2 + 2 lambda + 5 = 0 gives -1 +/- 2i, positive imaginary first
    eig = linalg.biorthogonal_eig(A_SPIRAL)
    npt.assert_allclose(eig.values, [-1 + 2j, -1 - 2j], atol=1e-12)


def test_eig_left_right_biorthonormal():
    for A in (A_SPIRAL, A_3D, np.diag([-1.0, -2.0])):
        eig = linalg.biorthogonal_eig(A)
        npt.assert_allclose(eig.left @ eig.right, np.eye(len(A)), atol=1e-12)
        # right eigenvectors actually are eigenvectors
        for i in range(len(A)):
            npt.assert_allclose(
                A @ eig.right[:, i], eig.values[i] * eig.right[:, i], atol=1e-12
            )
            npt.assert_allclose(
                eig.left[i, :] @ A, eig.values[i] * eig.left[i, :], atol=1e-12
            )


def test_eig_ordering_and_phase_deterministic():
    eig1 = linalg.biorthogonal_eig(A_3D)
    eig2 = linalg.biorthogonal_eig(A_3D.copy())
    npt.assert_array_equal(eig1.values, eig2.values)
    npt.assert_array_equal(eig1.right, eig2.right)
    # descending real part, conjugate pairs adjacent with +imag first
    assert eig1.values[0].imag == 0.0
    assert eig1.values[1].imag > 0.0
    assert eig1.values[2] == np.conj(eig1.values[1])
    # largest-magnitude component of each column is real and positive
    for k in range(3):
        col = eig1.right[:, k]
        piv = col[int(np.argmax(np.abs(col)))]
        assert abs(piv.imag) < 1e-14 and piv.real > 0
        npt.assert_allclose(np.linalg.norm(col), 1.0, atol=1e-12)


def test_eig_conjugate_pair_columns_are_conjugate():
    eig = linalg.biorthogonal_eig(A_SPIRAL)
    npt.assert_allclose(eig.right[:, 1], np.conj(eig.right[:, 0]), atol=1e-14)


def test_eig_same_real_part_two_pairs_stay_paired():
    # Block diagonal: eigenvalues -1 +/- i and -1 +/- 3i share a real part.
    A = np.zeros((4, 4))
    A[:2, :2] = [[-1.0, -1.0], [1.0, -1.0]]
    A[2:, 2:] = [[-1.0, -3.0], [3.0, -1.0]]
    eig = linalg.biorthogonal_eig(A)
    vals = eig.values
    assert vals[1] == np.conj(vals[0]) and vals[3] == np.conj(vals[2])
    assert vals[0].imag > 0 and vals[2].imag > 0


def _rotations(rng, n):
    """Block-diagonal real matrix of n // 2 rotation blocks a I + b J and,
    for odd n, one real eigenvalue, with a and the real eigenvalue drawn
    from two values and b from two, so real parts are shared, pairs
    repeat and a real eigenvalue can equal a pair's real part; its blocks
    permuted into place, which is exact."""
    reals, imags = (-1.0, -0.5), (1.0, 2.0)
    A = np.zeros((n, n))
    for k in range(n // 2):
        a, b = rng.choice(reals), rng.choice(imags)
        A[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[a, -b], [b, a]]
    if n % 2:
        A[-1, -1] = rng.choice(reals)
    P = np.eye(n)[rng.permutation(n)]
    return P @ A @ P.T


def _pair_layout_battery():
    """Seeded real matrices with n <= 6: random ones, block-diagonal
    rotations (``_rotations``) and similarity transforms of those."""
    rng = np.random.default_rng(35)
    out = []
    for n in range(1, 7):
        out += [rng.standard_normal((n, n)) for _ in range(40)]
        for _ in range(30):
            A = _rotations(rng, n)
            S = rng.standard_normal((n, n)) + n * np.eye(n)
            out += [A, S @ A @ np.linalg.inv(S)]
    return out


PAIR_LAYOUT_BATTERY = _pair_layout_battery()


def _units(values):
    """Start and width of each unit of ``values``: a real eigenvalue, or a
    complex one and the entry after it."""
    i = 0
    while i < len(values):
        width = 2 if values[i].imag != 0.0 else 1
        yield i, width
        i += width


def test_lapack_lists_each_pair_as_adjacent_exact_conjugates():
    # The eigen order rests on this layout of dgeev: each complex
    # eigenvalue of a real matrix comes first with a positive imaginary
    # part, its exact conjugate right after it, in values and vector
    # columns.  If a numpy or LAPACK build breaks it, the mode labels would
    # change; this test fails first.
    pairs = 0
    for A in PAIR_LAYOUT_BATTERY:
        values, vecs = np.linalg.eig(A)
        for i, width in _units(values):
            if width == 2:
                pairs += 1
                assert values[i].imag > 0.0, (A, values)
                assert values[i + 1] == np.conj(values[i]), (A, values)
                assert np.array_equal(vecs[:, i + 1], np.conj(vecs[:, i])), A
    assert pairs > 500


def test_eig_order_is_sorted_units_on_the_pair_battery():
    # Documented order: units by descending real part, then descending
    # imaginary part, of their first value; each pair adjacent exact
    # conjugates, positive imaginary part first, with exact conjugate
    # right eigenvectors.
    for A in PAIR_LAYOUT_BATTERY:
        eig = linalg.biorthogonal_eig(A)
        values = eig.values
        assert sorted(map(complex, values), key=lambda v: (v.real, v.imag)) == sorted(
            map(complex, np.linalg.eigvals(A)), key=lambda v: (v.real, v.imag)
        )
        keys = []
        for i, width in _units(values):
            keys.append((-values[i].real, -values[i].imag))
            if width == 2:
                assert values[i].imag > 0.0 and values[i + 1] == np.conj(values[i])
                assert np.array_equal(eig.right[:, i + 1], np.conj(eig.right[:, i]))
        assert keys == sorted(keys), values

def test_eig_defective_raises():
    with pytest.raises(errors.DefectiveMatrixError):
        linalg.biorthogonal_eig([[-1.0, 1.0], [0.0, -1.0]])


def test_eig_repeated_eigenvalue_with_full_basis_accepted():
    eig = linalg.biorthogonal_eig(-np.eye(2))
    npt.assert_allclose(eig.values, [-1.0, -1.0])


def test_eig_not_square():
    with pytest.raises(errors.NotSquareError):
        linalg.biorthogonal_eig(np.zeros((2, 3)))


def test_lyapunov_1d_and_diag():
    npt.assert_allclose(linalg.solve_lyapunov([[-1.0]], [[1.0]]), [[0.5]], atol=1e-14)
    S = linalg.solve_lyapunov(np.diag([-1.0, -2.0]), np.diag([1.0, 4.0]))
    npt.assert_allclose(S, np.diag([0.5, 1.0]), atol=1e-13)


def test_lyapunov_spiral_is_half_identity():
    S = linalg.solve_lyapunov(A_SPIRAL, np.eye(2))
    npt.assert_allclose(S, 0.5 * np.eye(2), atol=1e-13)


def test_lyapunov_residual_and_spd():
    S = linalg.solve_lyapunov(A_3D, B_3D)
    resid = A_3D @ S + S @ A_3D.T + B_3D
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(B_3D))
    npt.assert_allclose(S, S.T)
    assert np.all(np.linalg.eigvalsh(S) > 0)


def test_lyapunov_rejects_unstable_and_nonspd():
    with pytest.raises(errors.UnstableDriftError):
        linalg.solve_lyapunov([[0.5]], [[1.0]])
    with pytest.raises(errors.NotSPDError):
        linalg.solve_lyapunov(A_SPIRAL, [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(errors.NotSPDError):
        linalg.solve_lyapunov(A_SPIRAL, [[1.0, 0.5], [0.0, 1.0]])


def test_spd_check_does_not_depend_on_units():
    # Asymmetry is measured against the matrix's largest entry: with a floor
    # of 1 under it, c^2 [[1, 0.5], [-0.5, 1]] was refused at c = 1 and
    # taken as symmetric at c = 1e-8.
    for c in (1.0, 1e-8):
        S = c**2 * np.array([[1.0, 0.5], [-0.5, 1.0]])
        with pytest.raises(errors.NotSPDError, match="^cov is not symmetric$"):
            GaussianDensity(mean=[0.0, 0.0], cov=S)
        for build in (linalg.solve_lyapunov, build_model):
            with pytest.raises(errors.NotSPDError, match="^B is not symmetric$"):
                build(A_SPIRAL, S)
        # The symmetric matrix of the same scale is SPD at every c.
        npt.assert_array_equal(GaussianDensity(mean=[0.0, 0.0], cov=np.abs(S)).cov, np.abs(S))
        build_model(A_SPIRAL, np.abs(S))


def test_expm_rotation_quarter_turn():
    # exp(t [[0,-1],[1,0]]) is rotation by t
    R = linalg.expm(np.array([[0.0, -1.0], [1.0, 0.0]]), np.pi / 2)
    npt.assert_allclose(R, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_expm_identity_at_zero():
    npt.assert_allclose(linalg.expm(A_3D, 0.0), np.eye(3), atol=1e-15)


def test_expm_semigroup():
    E1 = linalg.expm(A_SPIRAL, 0.3)
    E2 = linalg.expm(A_SPIRAL, 0.7)
    npt.assert_allclose(E1 @ E2, linalg.expm(A_SPIRAL, 1.0), atol=1e-12)


def _config_drift(name):
    return np.array(json.loads((ROOT / "configs" / f"{name}.json").read_text())["A"])


CONFIG_DRIFTS = ("canonical_1d", "diag_2d", "spiral_2d", "random_3d")
BATTERY_TIMES = (0.0, 0.1, 0.5, 1.0, 3.0, 10.0)
JORDAN = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
# Triangular t A whose diagonal entries differ by 1e-9, 1e-5 and 0.01, all
# scaled (s = 2): the divided difference (e^x2 - e^x1) / (x2 - x1) of their
# exact off-diagonal cancels, and scipy 1.17's compiled expm, which takes
# it, reads 9e-8, 5e-12 and 4e-15 off on them.
NEAR_REPEATED = (
    ("near-repeated-1e-9", np.array([[-10.0, 10.0], [0.0, -10.0 + 1e-9]]), 1.0),
    ("near-repeated-1e-6", np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-6]]), 10.0),
    ("near-repeated-1e-3", np.array([[-1.0, 1.0], [0.0, -1.0 + 1e-3]]), 10.0),
)


def _battery():
    """(label, A, t): the configs' drifts at the battery's times, a small
    t A that takes degree 3, a stiff diagonal, a rotation, a stiff
    triangular A and its transpose, triangular A whose diagonal entries
    nearly repeat and their transposes, a 3 x 3 Jordan block and its
    transpose, and seeded random A with n <= 6, triangular ones among
    them."""
    for name in CONFIG_DRIFTS:
        for t in BATTERY_TIMES:
            yield f"{name}@{t}", _config_drift(name), t
    yield "small", A_SPIRAL, 1e-3
    yield "stiff", np.diag([-1e6, -1e-3]), 1.0
    yield "rotation", np.array([[0.0, -1.0], [1.0, 0.0]]), np.pi / 2
    yield "triangular", np.array([[-300.0, 1.0], [0.0, -350.0]]), 1.0
    yield "triangular-lower", np.array([[-300.0, 0.0], [1.0, -350.0]]), 1.0
    for label, T, t in NEAR_REPEATED:
        yield label, T, t
        yield f"{label}-lower", T.T, t
    for t in (0.5, 1.0, 3.0, 10.0):
        yield f"jordan@{t}", JORDAN, t
        yield f"jordan-lower@{t}", JORDAN.T, t
    rng = np.random.default_rng(5401)
    for k in range(40):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2.0, 0.7)
        yield f"random{k}", np.triu(A) if k % 8 == 7 else A, 1.0


def _relative(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def test_expm_matches_scipy_on_the_battery():
    # Two references.  scipy.sparse.linalg.expm is scipy's pure-Python run
    # of the same algorithm (Al-Mohy & Higham 2009, exact 1-norms below
    # n = 200); it squares a lower triangular input as a full one, so it
    # reads the transpose there.  scipy.linalg.expm is its compiled run,
    # whose [13/13] approximant in scipy 1.17 adds A^6 once more to the odd
    # part U: it agrees to 1e-14 wherever it takes a degree below 13 and
    # sits up to 1.2e-13 off where it takes 13 (``test_expm_matches_closed_forms``
    # reads the spiral's 7.8e-14 there against its closed form).  Its Code
    # Fragment 2.1 also takes the plain divided difference for the first
    # off-diagonal, which reads 9e-8 off on the near-repeated diagonals
    # (``test_expm_of_a_triangular_matrix_keeps_its_diagonals_exact``), so
    # only the pure-Python run is their reference.
    import scipy.linalg
    from scipy.sparse.linalg import expm as sparse_expm

    pure, compiled, degree_13 = {}, {}, {}
    for label, A, t in _battery():
        got, tA = linalg.expm(A, t), t * A
        want = sparse_expm(tA.T).T if "lower" in label else sparse_expm(tA)
        pure[label] = _relative(got, want)
        if label.startswith("near-repeated"):
            continue
        offdiag = np.tril(tA, -1).any() or np.triu(tA, 1).any()
        degree = linalg._pade_structure(tA)[0] if offdiag else 0
        (degree_13 if degree == 13 else compiled)[label] = _relative(got, scipy.linalg.expm(tA))
    assert max(pure.values()) <= 1e-14, max(pure, key=pure.get)
    assert max(compiled.values()) <= 1e-14, max(compiled, key=compiled.get)
    assert max(degree_13.values()) <= 2e-13, max(degree_13, key=degree_13.get)


@pytest.mark.parametrize("t", BATTERY_TIMES + (30.0,))
def test_expm_matches_closed_forms(t):
    # exp(t(-I + 2J)) = e^-t R(2t) for the spiral drift; a Jordan block
    # gives e^-t [1, t, t^2/2] on its diagonals, upper or lower.  At t = 3
    # and 10, scipy.linalg.expm 1.17 reads 7.8e-14 from the spiral's.
    c, s = np.cos(2.0 * t), np.sin(2.0 * t)
    spiral = np.exp(-t) * np.array([[c, -s], [s, c]])
    assert _relative(linalg.expm(A_SPIRAL, t), spiral) <= 1e-14
    jordan = np.exp(-t) * np.array([[1.0, t, t * t / 2], [0.0, 1.0, t], [0.0, 0.0, 1.0]])
    assert _relative(linalg.expm(JORDAN, t), jordan) <= 1e-14
    assert _relative(linalg.expm(JORDAN.T, t), jordan.T) <= 1e-14
    c, s = np.cos(t), np.sin(t)
    rotation = np.array([[c, -s], [s, c]])
    assert _relative(linalg.expm([[0.0, -1.0], [1.0, 0.0]], t), rotation) <= 1e-14


@pytest.mark.parametrize(
    "a, gap, b",
    [
        (-300.0, 5.0, 1.0),
        (-300.0, 50.0, 1.0),
        (-300.0, 50.0, 1e3),
        (-10.0, -1e-9, 10.0),
        (-10.0, 1e-5, 10.0),
        (-10.0, -1e-2, 10.0),
    ],
)
def test_expm_of_a_triangular_matrix_keeps_its_diagonals_exact(a, gap, b):
    # exp([[a, b], [0, a - gap]]) has e^a, e^(a - gap) on its diagonal and
    # b (e^a - e^(a - gap)) / gap above it.  At a = -300 the scaling is
    # 2^-7; squaring the approximant alone reads 5e-14 here, while
    # Code Fragment 2.1 resets both diagonals exactly at each squaring.  At
    # a = -10 (s = 2) the diagonal nearly repeats, and the off-diagonal is
    # e^a sinh(b) / b at the half-gap, whose divided difference would read
    # 9e-8 off at gap 1e-9.
    T = np.array([[a, b], [0.0, a - gap]])
    off = b * np.exp(a) * -np.expm1(-gap) / gap
    want = np.array([[np.exp(a), off], [0.0, np.exp(a - gap)]])
    assert _relative(linalg.expm(T, 1.0), want) <= 1e-15
    assert _relative(linalg.expm(T.T, 1.0), want.T) <= 1e-15


def _similar(a, b):
    # Q [[a, b], [0, -a]] Q^-1: its even powers are a^2 I, so eta = |a|,
    # while |A|^(2m+1) grows with b: the case the ell correction is for.
    Q = np.array([[1.0, 2.0], [0.5, 3.0]])
    return Q @ np.array([[a, b], [0.0, -a]]) @ np.linalg.inv(Q)


@pytest.mark.parametrize(
    "A, t, m, s",
    [
        (A_SPIRAL, 1e-3, 3, 0),
        (A_SPIRAL, 0.1, 7, 0),
        (A_SPIRAL, 0.5, 9, 0),
        (A_SPIRAL, 1.0, 13, 0),
        (A_SPIRAL, 3.0, 13, 1),
        (A_SPIRAL, 10.0, 13, 3),
        (A_SPIRAL, 1e10, 13, 33),
        (A_3D, 0.1, 7, 0),
        (A_3D, 10.0, 13, 3),
        (JORDAN, 1.0, 9, 0),
        (JORDAN.T, 10.0, 13, 2),
        (np.array([[-300.0, 0.0], [1.0, -350.0]]), 1.0, 13, 7),
        (NEAR_REPEATED[0][1], 1.0, 13, 2),
        (_similar(1e-4, 1.0), 1.0, 7, 0),
        (_similar(0.1, 1.0), 1.0, 5, 0),
        (_similar(1e-4, 1e5), 1.0, 13, 14),
        (_similar(1e-4, 1e10), 1.0, 13, 30),
    ],
)
def test_expm_picks_the_degree_and_scaling_scipy_picks(A, t, m, s):
    # The (m, s) that scipy.linalg.expm 1.17 picks for t A, read from its
    # ``pick_pade_structure``, every degree among them: scaling from the
    # unscaled powers' exact norms, and the ell correction, which adds 14
    # and 30 squarings to the last two although their eta is 1e-4.
    assert linalg._pade_structure(t * A)[:2] == (m, s)


@pytest.mark.parametrize("t", [1e100, 1e300, 1e308])
def test_expm_whose_powers_overflow_is_not_finite_without_a_warning(t):
    # At 1e100 and 1e300 every entry of t A is finite but (t A)^4 is not;
    # at 1e308 t A itself holds infinite entries.  No scaling is computed
    # from a bound that is not finite, so nothing raises or warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (A_SPIRAL, A_3D):
            E = linalg.expm(A, t)
            assert E.shape == A.shape and not np.isfinite(E).any()


@pytest.mark.parametrize("t", [0.0, 0.3, 7.0, 1e300, 1e308])
def test_expm_of_a_diagonal_or_1x1_matrix_is_np_exp(t):
    # Bit for bit, and at 1e308, where t A is -inf, exp gives exactly 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (np.diag([-1.0, -2.0]), np.diag([-1e6, -1e-3, 0.0]), np.array([[-0.5]])):
            with np.errstate(over="ignore"):
                want = np.diag(np.exp(t * np.diag(A)))
            got = linalg.expm(A, t)
            assert got.tobytes() == want.tobytes(), (A.tolist(), t)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        linalg.biorthogonal_eig([[np.nan, 0.0], [0.0, -1.0]])


A_2D, B_2D = np.diag([-1.0, -2.0]), np.eye(2)
COMPLEX = np.array([[1j, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "name, call",
    [
        ("A", lambda: build_model(A_2D + COMPLEX, B_2D)),
        ("B", lambda: build_model(A_2D, B_2D + COMPLEX)),
        ("A", lambda: linalg.solve_lyapunov(A_2D + COMPLEX, B_2D)),
        ("B", lambda: linalg.solve_lyapunov(A_2D, B_2D + COMPLEX)),
        ("A", lambda: linalg.biorthogonal_eig((A_2D + COMPLEX).tolist())),
        ("cov", lambda: GaussianDensity(mean=[0.0, 0.0], cov=B_2D + COMPLEX)),
        ("Sigma", lambda: stationary_density(B_2D + COMPLEX)),
    ],
    ids=["build-A", "build-B", "lyapunov-A", "lyapunov-B", "eig-list", "cov", "Sigma"],
)
def test_a_complex_matrix_is_refused_not_truncated(name, call):
    # Converting to float would keep the real part with only a
    # ComplexWarning, and answer for a matrix that was not given.
    with pytest.raises(ValueError, match=f"^{name} must have real entries$"):
        call()


def test_lyapunov_dimension_mismatch_is_named_as_build_model_names_it():
    for call in (linalg.solve_lyapunov, build_model):
        with pytest.raises(errors.DimensionMismatchError, match="^A is 2x2 but B is 3x3$"):
            call(A_2D, np.eye(3))


def test_package_import_and_cli_leave_scipy_unloaded():
    # No module of the package imports scipy (``tests/test_layering.py``),
    # so neither the import nor any subcommand loads it.  propagate and
    # mc-check read spiral_2d's initial and sim blocks, and call expm on
    # its 2 x 2 drift; solve reads canonical_1d's source block.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys\n"
        "import ou_spectral.cli as cli\n"
        "COMMANDS = ('verify', 'eigensystem', 'solve', 'propagate', 'mc-check')\n"
        "loaded = 'scipy' in sys.modules\n"
        "for command, config in zip(COMMANDS, sys.argv[1:]):\n"
        "    assert cli.main([command, config]) == 0, command\n"
        "print(loaded, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code]
        + [str(ROOT / "configs" / f"{name}.json") for name in ["canonical_1d"] * 3 + ["spiral_2d"] * 2],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"
