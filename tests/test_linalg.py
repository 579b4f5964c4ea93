import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import errors, linalg
from ou_spectral.gaussian import GaussianDensity, stationary_density
from ou_spectral.ladder import build_model

from conftest import A_3D, A_SPIRAL, B_3D


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
    # expm imports scipy itself, and verify, eigensystem and solve never
    # call it, so neither the import nor those commands load scipy.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys\n"
        "import ou_spectral.cli as cli\n"
        "loaded = 'scipy' in sys.modules\n"
        "for command in ('verify', 'eigensystem', 'solve'):\n"
        "    assert cli.main([command, sys.argv[1]]) == 0\n"
        "print(loaded, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "configs" / "canonical_1d.json")],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"
