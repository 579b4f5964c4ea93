import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import errors, linalg

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
