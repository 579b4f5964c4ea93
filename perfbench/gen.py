"""Seeded input generator for the benchmark workloads.

Every input a workload feeds to ``ou_spectral`` comes from here: CLI
config files for ``verify-cold`` and ``mc-oracle``, and the model pool,
initial densities, grids and sources for ``spectral-stream``.  The seed
is the only argument that changes the inputs; the same seed always gives
byte-identical files (see ``write_cycle``).

Each workload runs in cycles.  A cycle is a fixed list of slots, and a
slot fixes the shape of its task: dimension, order, real or complex drift
spectrum, unit scale, grid size stratum.  The seed draws the numbers
inside each slot (drift, diffusion, densities, grid points, unit scale
within its stratum), so two seeds give the same mix of work with
different values.  That keeps the timing mix stable from seed to seed
while the values never repeat.

Only numpy is used; this module never imports ``ou_spectral``.
"""

import json
import os

import numpy as np

WORKLOADS = ("verify-cold", "spectral-stream", "mc-oracle")
_WORKLOAD_KEY = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Unit-scale strata, as ranges of log10(c) for the map x -> c x.  A
# rescaled model keeps A and multiplies B by c^2, so every density and
# grid scales with c.  The low and high strata fail at commit 0b40eab
# (ROADMAP item 2); the middle one passes and is the control.
SCALE_LOW = (-8.0, -4.0)
SCALE_MID = (-1.0, 1.0)
SCALE_HIGH = (2.5, 4.5)
SCALE_POOL_LOW = (-6.0, -5.0)
SCALE_POOL_HIGH = (5.0, 6.0)

# Stiff drifts: eigenvalues -10^a and -10^b.  At commit 0b40eab the
# moderate stratum fails verify, and the extreme one (ratio at least 1e9)
# is rejected by build_model with UnstableDriftError although the drift
# is stable.
STIFF_MODERATE = ((3.0, 4.0), (-1.0, 0.0))
STIFF_EXTREME = ((6.0, 7.0), (-3.5, -3.0))

# verify-cold: (kind, dimension, spectrum, max_order, parameter).  The
# first cycle replaces slots 1 and 2 with the repository's fixed configs
# of the same shape, so each run verifies them exactly once and no
# Wick-moment table keyed by their covariance carries over to later
# cycles.
VERIFY_SLOTS = (
    ("plain", 2, "real", 3, None),
    ("plain", 2, "complex", 6, None),
    ("plain", 3, "complex", 4, None),
    ("rescaled", 2, "complex", 4, SCALE_LOW),
    ("plain", 2, "real", 5, None),
    ("plain", 3, "real", 3, None),
    ("rescaled", 2, "real", 4, SCALE_MID),
    ("stiff", 2, "real", 4, STIFF_MODERATE),
    ("plain", 2, "complex", 4, None),
    ("plain", 3, "complex", 3, None),
    ("rescaled", 2, "complex", 4, SCALE_HIGH),
    ("stiff", 2, "real", 4, STIFF_EXTREME),
)
VERIFY_FIXED = {1: "spiral_2d.json", 2: "random_3d.json"}

# mc-oracle: the two fixed configs every cycle, then generated configs
# whose dimension cycles through 1, 2, 3 with one paths x steps setting.
# 15 tasks per cycle: an odd count keeps the median on one task class.
MC_GENERATED = 13
MC_PATHS = 10000
MC_DT = 0.005
MC_T_FINAL = 1.0
MC_FIXED = ("spiral_2d.json", "canonical_1d.json")

# spectral-stream pool: (dimension, spectrum, max_order, scale stratum).
# Orders are capped so that one request takes about a second or less.
POOL = (
    (2, "complex", 6, None),
    (3, "real", 5, None),
    (4, "complex", 4, None),
    (5, "complex", 3, None),
    (2, "real", 5, None),
    (3, "complex", 4, None),
    (2, "complex", 5, SCALE_POOL_LOW),
    (2, "complex", 5, SCALE_POOL_HIGH),
)
# Every 4th request is a solve.  A 33rd request, one more expansion, makes
# the cycle odd: then the median request of a run is one request class
# rather than the mean of two classes, which may lie far apart.
SPECTRAL_CYCLE = 33
TIME_FACTORS = (2.0, 4.0, 8.0)  # evaluation times, in units of 1/min|Re lambda|
GRID_LOG10 = (3.0, 4.0, 5.0)  # grid strata: 10^u points, u jittered upwards
# Narrow, so that a slot's grid, and with it its request time, stays about
# the same from seed to seed and the run's median request does not move
# with the seed.
GRID_JITTER = 0.1
GRID_TERM_POINTS = 1_200_000  # cap on polynomial terms x grid points
MEAN_SHIFT = 0.05  # initial mean offset, in stationary standard deviations
COV_SHIFT = 0.05  # initial covariance perturbation, relative


# Nominal seconds per cycle, tasks and checks together, on a 2-vCPU Linux
# machine at commit 0b40eab.  A run holds a fixed number of whole cycles,
# cycle_count(workload, seconds), so that a seed always gives the same
# tasks and the same failures, however fast the machine or the program.
CYCLE_SECONDS = {"verify-cold": 16.5, "spectral-stream": 15.5, "mc-oracle": 9.5}


def cycle_count(workload, seconds):
    """Number of whole cycles in a run of about ``seconds`` (at least 1)."""
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def rng_for(seed, workload, *keys):
    """Generator for one (seed, workload, keys) stream."""
    entropy = [int(seed), _WORKLOAD_KEY[workload]] + [int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _log_uniform(rng, lo_hi):
    return float(10.0 ** rng.uniform(*lo_hi))


def _mixing(rng, n):
    """Well-conditioned change of basis, so the drift is non-normal."""
    while True:
        S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(S) < 10.0:
            return S


def _drift(rng, n, spectrum, rates=None):
    """Stable real drift with the requested spectrum type.

    ``rates`` fixes the decay rates of a real spectrum (stiff drifts).
    A complex spectrum holds one conjugate pair; other modes are real.
    """
    if rates is None:
        rates = rng.uniform(0.5, 2.5, size=n)
    D = np.diag(-np.asarray(rates, dtype=float))
    if spectrum == "complex":
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.5, 2.5)
        D[:2, :2] = [[-a, -b], [b, -a]]
    S = _mixing(rng, n)
    return S @ D @ np.linalg.inv(S)


def _diffusion(rng, n):
    M = rng.standard_normal((n, n))
    B = M @ M.T / n + 0.5 * np.eye(n)
    return 0.5 * (B + B.T)


def stationary_cov(A, B):
    """Solution of A S + S A^T = -B, by the Kronecker system."""
    n = A.shape[0]
    K = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A)
    S = np.linalg.solve(K, -B.reshape(n * n)).reshape(n, n)
    return 0.5 * (S + S.T)


def _near_stationary(rng, Sigma):
    """Gaussian a small step away from N(0, Sigma)."""
    n = Sigma.shape[0]
    L = np.linalg.cholesky(Sigma)
    mean = L @ (MEAN_SHIFT * rng.standard_normal(n))
    P = rng.standard_normal((n, n)) / np.sqrt(n)
    P = np.eye(n) + COV_SHIFT * 0.5 * (P + P.T)
    cov = L @ P @ P.T @ L.T
    return mean, 0.5 * (cov + cov.T)


def _model_arrays(rng, n, spectrum, kind, param):
    """Drift, diffusion and unit scale for one slot."""
    scale = 1.0
    if kind == "stiff":
        fast, slow = param
        rates = [10.0 ** rng.uniform(*fast), 10.0 ** rng.uniform(*slow)]
        A = _drift(rng, n, "real", rates=rates)
    else:
        A = _drift(rng, n, spectrum)
    B = _diffusion(rng, n)
    if kind == "rescaled":
        scale = _log_uniform(rng, param)
        B = scale * scale * B
    return A, B, scale


def _config(n, A, B, max_order, initial=None, sim=None):
    cfg = {"dimension": n, "A": A.tolist(), "B": B.tolist(), "max_order": max_order}
    if initial is not None:
        cfg["initial"] = {"mean": initial[0].tolist(), "cov": initial[1].tolist()}
    if sim is not None:
        cfg["sim"] = sim
    return cfg


def verify_cycle(seed, k):
    """Tasks of cycle ``k`` of verify-cold, as dicts."""
    tasks = []
    for slot, (kind, n, spectrum, order, param) in enumerate(VERIFY_SLOTS):
        task = {"id": f"c{k}s{slot}", "kind": kind, "dimension": n, "max_order": order}
        if k == 0 and slot in VERIFY_FIXED:
            task["fixed"] = VERIFY_FIXED[slot]
        else:
            rng = rng_for(seed, "verify-cold", k, slot)
            A, B, scale = _model_arrays(rng, n, spectrum, kind, param)
            task["scale"] = scale
            task["config"] = _config(n, A, B, order)
        tasks.append(task)
    return tasks


def mc_cycle(seed, k):
    """Tasks of cycle ``k`` of mc-oracle, as dicts."""
    tasks = []
    for slot, name in enumerate(MC_FIXED):
        tasks.append({"id": f"c{k}s{slot}", "kind": "plain", "fixed": name})
    for j in range(MC_GENERATED):
        slot = len(MC_FIXED) + j
        n = 1 + j % 3
        spectrum = "complex" if n >= 2 and j % 2 == 1 else "real"
        rng = rng_for(seed, "mc-oracle", k, slot)
        A = _drift(rng, n, spectrum)
        B = _diffusion(rng, n)
        initial = _near_stationary(rng, stationary_cov(A, B))
        sim = {
            "paths": MC_PATHS,
            "dt": MC_DT,
            "t_final": MC_T_FINAL,
            "seed": int(rng.integers(0, 2**62)),
        }
        tasks.append(
            {
                "id": f"c{k}s{slot}",
                "kind": "plain",
                "dimension": n,
                "config": _config(n, A, B, 2, initial=initial, sim=sim),
            }
        )
    return tasks


def spectral_pool(seed):
    """Model pool of spectral-stream: drift, diffusion, order, scale."""
    pool = []
    for m, (n, spectrum, order, stratum) in enumerate(POOL):
        rng = rng_for(seed, "spectral-stream", 0, m)
        kind = "plain" if stratum is None else "rescaled"
        A, B, scale = _model_arrays(rng, n, spectrum, kind, stratum)
        pool.append(
            {
                "kind": kind,
                "dimension": n,
                "max_order": order,
                "scale": scale,
                "A": A.tolist(),
                "B": B.tolist(),
            }
        )
    return pool


def _modes(n, order):
    """Number of multi-indices of total order at most ``order``."""
    out = 1
    for i in range(1, n + 1):
        out = out * (order + i) // i
    return out


def _monomials(n, degree):
    """Exponent lists of every monomial of total ``degree`` in n variables."""
    if n == 1:
        return [[degree]]
    return [[first] + rest for first in range(degree, -1, -1)
            for rest in _monomials(n - 1, degree - first)]


def _odd_source(rng, n, order, scale):
    """Every odd-degree monomial up to ``order``, random complex coefficients.

    Odd monomials have zero mean under any centred Gaussian, so the
    source has no stationary component and L P = q is solvable.  The
    coefficients are in scaled coordinates: degree d carries c^-d.
    """
    terms = []
    for deg in range(1, order + 1, 2):
        for exps in _monomials(n, deg):
            coeff = rng.standard_normal(2) * scale ** (-deg)
            terms.append([exps, [float(coeff[0]), float(coeff[1])]])
    return terms


def spectral_cycle(seed, k, pool):
    """Requests of cycle ``k`` of spectral-stream.

    Request j uses model (j + j // 8) mod 8, so each model gets one solve
    and three expansions per cycle; the three expansions of a model use
    the small, middle and large grid stratum.  The 33rd request adds a
    small-grid expansion on model 4.  Grids are capped at
    GRID_TERM_POINTS polynomial terms x points.
    """
    requests = []
    seen = [0] * len(pool)
    for j in range(SPECTRAL_CYCLE):
        m = (j + j // len(pool)) % len(pool)
        spec = pool[m]
        n, order, scale = spec["dimension"], spec["max_order"], spec["scale"]
        rng = rng_for(seed, "spectral-stream", k + 1, j)
        req = {"id": f"c{k}r{j}", "model": m, "kind": spec["kind"]}
        if j % 4 == 3:
            req["op"] = "solve"
            req["source"] = _odd_source(rng, n, order, scale)
        else:
            stratum = seen[m] % len(GRID_LOG10)
            seen[m] += 1
            A = np.array(spec["A"])
            Sigma = stationary_cov(A, np.array(spec["B"]))
            mean, cov = _near_stationary(rng, Sigma)
            u = GRID_LOG10[stratum] + rng.uniform(0.0, GRID_JITTER)
            cap = GRID_TERM_POINTS // _modes(n, order)
            slowest = float(np.min(np.abs(np.linalg.eigvals(A).real)))
            req["op"] = "expand"
            req["mean"] = mean.tolist()
            req["cov"] = cov.tolist()
            req["times"] = [f / slowest for f in TIME_FACTORS]
            req["grid_points"] = int(min(round(10.0**u), cap))
            req["grid_seed"] = int(rng.integers(0, 2**62))
        requests.append(req)
    return requests


def grid_points(req, Sigma):
    """Evaluation grid of an expand request: a widened stationary sample."""
    rng = np.random.default_rng(req["grid_seed"])
    n = Sigma.shape[0]
    z = rng.standard_normal((req["grid_points"], n))
    return 1.5 * z @ np.linalg.cholesky(Sigma).T


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def write_cycle(workload, seed, k, outdir, configs_dir, pool=None):
    """Write the inputs of cycle ``k`` under ``outdir``; return its tasks.

    CLI workloads get one config file per task (fixed configs are copied
    byte for byte from ``configs_dir``) and each task gains a ``path``.
    spectral-stream writes ``pool.json`` with cycle 0 and one request
    file per cycle.
    """
    os.makedirs(outdir, exist_ok=True)
    if workload == "spectral-stream":
        if pool is None:
            pool = spectral_pool(seed)
        if k == 0:
            _dump(os.path.join(outdir, "pool.json"), pool)
        requests = spectral_cycle(seed, k, pool)
        _dump(os.path.join(outdir, f"cycle{k}.json"), requests)
        return requests
    tasks = verify_cycle(seed, k) if workload == "verify-cold" else mc_cycle(seed, k)
    for task in tasks:
        path = os.path.join(outdir, f"{task['id']}.json")
        if "fixed" in task:
            with open(os.path.join(configs_dir, task["fixed"]), "rb") as src:
                data = src.read()
            with open(path, "wb") as dst:
                dst.write(data)
        else:
            _dump(path, task["config"])
        task["path"] = path
    return tasks
