from pathlib import Path

import numpy as np
import pytest

import ou_spectral as ou

# The package under test must be this checkout's, never another installed
# or neighbouring copy, so that a comparison of two checkouts compares them.
SRC = Path(__file__).resolve().parents[1] / "src"
assert Path(ou.__file__).resolve().is_relative_to(SRC), (
    f"ou_spectral imported from {ou.__file__}, not from {SRC}"
)

A_SPIRAL = np.array([[-1.0, -2.0], [2.0, -1.0]])
B_SPIRAL = np.eye(2)

A_DIAG = np.diag([-1.0, -2.0])
B_DIAG = np.diag([1.0, 4.0])

A_3D = np.array(
    [
        [-0.9632, -0.324, -0.2956],
        [-0.6358, -2.0834, -0.9311],
        [0.3011, 0.6718, -1.0232],
    ]
)
B_3D = np.array(
    [
        [0.5458, -0.0211, 0.0232],
        [-0.0211, 1.1745, -0.3557],
        [0.0232, -0.3557, 0.8821],
    ]
)


@pytest.fixture(scope="session")
def model_1d():
    return ou.build_model([[-1.0]], [[1.0]])


@pytest.fixture(scope="session")
def model_diag():
    return ou.build_model(A_DIAG, B_DIAG)


@pytest.fixture(scope="session")
def model_spiral():
    return ou.build_model(A_SPIRAL, B_SPIRAL)


@pytest.fixture(scope="session")
def model_3d():
    return ou.build_model(A_3D, B_3D)


@pytest.fixture(scope="session")
def four_models(model_1d, model_diag, model_spiral, model_3d):
    return {
        "canonical_1d": model_1d,
        "diag_2d": model_diag,
        "spiral_2d": model_spiral,
        "random_3d": model_3d,
    }
