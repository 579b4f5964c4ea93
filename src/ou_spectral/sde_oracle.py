"""Euler-Maruyama oracle for the underlying stochastic dynamics.

Independent of everything spectral: paths of dX = A X dt + sqrt(B) dW
are stepped directly and their terminal sample moments reported with
standard errors.  Agreement with the exact Gaussian propagator ties the
operator-level construction back to the process it describes.

Paths are stepped ``PATH_CHUNK`` at a time, and each block's power sums
are added to running totals, so no array holds one row per path and the
memory of a run does not grow with its path count.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteResultError, NotSPDError
from .gaussian import GaussianDensity
from .kernels import PATH_CHUNK, em_paths


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings; seed is reduced modulo 2^64.

    ``paths`` and ``seed`` are integers (``TypeError`` otherwise), and
    ``t_final`` is a finite integer multiple of ``dt``, so that the paths
    stop at the time the report names.
    """

    paths: int
    dt: float
    t_final: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "paths", operator.index(self.paths))
        object.__setattr__(self, "seed", operator.index(self.seed))
        # With two paths d1 = -d2, so every product d_i d_j is the same on
        # both and the covariance standard errors are zero up to rounding.
        if self.paths < 3:
            raise ValueError("paths must be at least 3")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least dt")
        if abs(self.steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final must be an integer multiple of dt, got t_final={self.t_final} "
                f"and dt={self.dt}"
            )

    @property
    def steps(self):
        """Number of Euler-Maruyama steps from 0 to ``t_final``."""
        return round(self.t_final / self.dt)


@dataclass(frozen=True)
class MomentReport:
    """Terminal sample moments, with standard errors, of ``paths`` paths at ``t_final``."""

    mean: np.ndarray
    cov: np.ndarray
    mean_stderr: np.ndarray
    cov_stderr: np.ndarray
    paths: int
    t_final: float


def simulate(model, F0, cfg):
    """Run Euler-Maruyama paths from a Gaussian initial law.

    Parameters
    ----------
    model : OUModel
    F0 : GaussianDensity
        Initial law; paths start from independent draws of it.
    cfg : SimConfig
        ``cfg.steps`` steps of ``dt`` end exactly at ``t_final``.

    Returns
    -------
    MomentReport
        Bit-reproducible for a fixed seed.  Memory does not grow with
        ``cfg.paths``: paths are stepped one block at a time.

    Raises ``NonFiniteResultError``, naming dt and max_I |1 + dt lambda_I|,
    when a moment or a standard error is not finite, as when the step
    leaves the Euler-Maruyama stability region and the paths overflow.
    """
    if not isinstance(F0, GaussianDensity):
        raise TypeError("simulate takes a GaussianDensity initial law")
    if F0.dim != model.dim:
        raise DimensionMismatchError(
            f"initial law of dimension {F0.dim} for a {model.dim}-dimensional model"
        )
    try:
        LB = np.linalg.cholesky(model.B)
    except np.linalg.LinAlgError:
        raise NotSPDError("diffusion is not SPD") from None

    N, n = cfg.paths, model.dim
    # Sums about the first block's mean c, so that no digits are lost to a
    # mean far from the origin.
    G = np.zeros(((n + 1) ** 2, (n + 1) ** 2))
    # Paths that overflow are reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, N, PATH_CHUNK):
            P = min(PATH_CHUNK, N - first)
            # n_paths and n_steps stay positional: the benchmark's trace reads
            # them as the fifth and sixth arguments.
            X = em_paths(
                model.A, LB, F0.mean, F0.factor, P, cfg.steps, cfg.dt, cfg.seed, first=first
            )
            if first == 0:
                c = X.mean(axis=0)
            G += _power_sums(X, c)

        delta = G[0, 1 : n + 1] / N
        # d = x - mean = T^T u with T = [-delta; I], so d (x) d = (T (x) T)^T w.
        T = np.vstack([-delta, np.eye(n)])
        K = np.kron(T, T)
        sum_dd = (G[0] @ K).reshape(n, n)
        sum_dd2 = np.einsum("ak,ab,bk->k", K, G, K).reshape(n, n)
        cov = sum_dd / (N - 1)
        report = MomentReport(
            mean=c + delta,
            cov=cov,
            mean_stderr=np.sqrt(np.diag(cov) / N),
            cov_stderr=np.sqrt((sum_dd2 - sum_dd**2 / N) / ((N - 1) * N)),
            paths=N,
            t_final=cfg.t_final,
        )
    moments = (report.mean, report.cov, report.mean_stderr, report.cov_stderr)
    if not all(np.isfinite(m).all() for m in moments):
        growth = float(np.max(np.abs(1.0 + cfg.dt * model.eig.values)))
        raise NonFiniteResultError(
            f"the simulated moments at t_final={cfg.t_final:g} are not finite; "
            f"dt={cfg.dt:g} gives max_I |1 + dt lambda_I| = {growth:.6g}"
        )
    return report


def _power_sums(X, c):
    """Sum of w w^T over the rows x of X, with u = (1, x - c) and w = u (x) u.

    Its row 0 holds the count and the sums of u_a u_b; the whole matrix
    holds every sum of u_a u_b u_c u_d, the power sums of x - c up to
    degree four.
    """
    u = np.ones((X.shape[0], X.shape[1] + 1))
    np.subtract(X, c, out=u[:, 1:])
    w = (u[:, :, None] * u[:, None, :]).reshape(u.shape[0], -1)
    return w.T @ w
