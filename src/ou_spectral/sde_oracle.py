"""Euler-Maruyama oracle for the underlying stochastic dynamics.

Independent of everything spectral: paths of dX = A X dt + sqrt(B) dW
are stepped directly and their terminal sample moments reported with
standard errors.  Agreement with the exact Gaussian propagator ties the
operator-level construction back to the process it describes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotSPDError
from .gaussian import GaussianDensity
from .kernels import active_backend, em_paths


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings; seed is reduced modulo 2^64."""

    paths: int
    dt: float
    t_final: float
    seed: int

    def __post_init__(self):
        # With two paths d1 = -d2, so every product d_i d_j is the same on
        # both and the covariance standard errors are zero up to rounding.
        if self.paths < 3:
            raise ValueError("paths must be at least 3")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least dt")


@dataclass(frozen=True)
class MomentReport:
    """Terminal sample moments with standard errors."""

    mean: np.ndarray
    cov: np.ndarray
    mean_stderr: np.ndarray
    cov_stderr: np.ndarray
    paths: int
    t_final: float
    backend: str


def simulate(model, F0, cfg):
    """Run Euler-Maruyama paths from a Gaussian initial law.

    Parameters
    ----------
    model : OUModel
    F0 : GaussianDensity
        Initial law; paths start from independent draws of it.
    cfg : SimConfig
        ``t_final`` should be an integer multiple of ``dt``; the step
        count is rounded to the nearest integer.

    Returns
    -------
    MomentReport
        Bit-reproducible for a fixed seed.
    """
    if not isinstance(F0, GaussianDensity):
        raise TypeError("simulate takes a GaussianDensity initial law")
    if F0.dim != model.dim:
        raise DimensionMismatchError(
            f"initial law of dimension {F0.dim} for a {model.dim}-dimensional model"
        )
    try:
        LB = np.linalg.cholesky(model.B)
        L0 = np.linalg.cholesky(F0.cov)
    except np.linalg.LinAlgError:
        raise NotSPDError("diffusion or initial covariance is not SPD") from None
    n_steps = int(round(cfg.t_final / cfg.dt))

    X = em_paths(model.A, LB, F0.mean, L0, cfg.paths, n_steps, cfg.dt, cfg.seed)

    mean = X.mean(axis=0)
    d = X - mean[None, :]
    cov = (d.T @ d) / (cfg.paths - 1)
    mean_stderr = d.std(axis=0, ddof=1) / np.sqrt(cfg.paths)
    n = model.dim
    cov_stderr = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            prod = d[:, i] * d[:, j]
            cov_stderr[i, j] = prod.std(ddof=1) / np.sqrt(cfg.paths)
    return MomentReport(
        mean=mean,
        cov=cov,
        mean_stderr=mean_stderr,
        cov_stderr=cov_stderr,
        paths=cfg.paths,
        t_final=cfg.t_final,
        backend=active_backend(),
    )
