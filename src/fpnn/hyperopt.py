"""Bayesian hyperparameter search with a Gaussian-process surrogate and
expected-improvement acquisition.

The surrogate is an exact GP with an anisotropic squared-exponential kernel
and a noise term, fit by Cholesky on points normalized to the unit cube and
objectives standardized. Kernel hyperparameters are chosen by maximizing
the log marginal likelihood with a multi-start coordinate search, keeping
the module free of gradient-based optimizers and fully deterministic.
Integer dimensions are relaxed to continuous values and rounded before
evaluation. The objective is any callable on a point dict; the module
imports nothing of the network or training (the exhaustive depth sweep
lives in :mod:`fpnn.training`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import FpnnError

log = logging.getLogger(__name__)
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ERFC = np.frompyfunc(math.erfc, 1, 1)

N_INITIAL_TRIALS = 4
N_RANDOM_CANDIDATES = 1024
N_LOCAL_CANDIDATES = 128
LOCAL_PERTURBATION = 0.05


# ---------------------------------------------------------------------------
# search space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dimension:
    """One search dimension: continuous [low, high] (optionally log-scaled)
    or an integer range {low..high}."""

    name: str
    low: float
    high: float
    integer: bool = False
    log: bool = False

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"dimension {self.name!r}: low must be < high")
        if self.log and self.low <= 0:
            raise ValueError(f"dimension {self.name!r}: log scale needs low > 0")
        if self.integer and self.log:
            raise ValueError(f"dimension {self.name!r}: integer dims are linear")

    def from_unit(self, u: float):
        u = min(max(float(u), 0.0), 1.0)
        if self.log:
            return float(math.exp(math.log(self.low) + u * (math.log(self.high) - math.log(self.low))))
        value = self.low + u * (self.high - self.low)
        if self.integer:
            return int(min(max(round(value), self.low), self.high))
        return float(value)

    def to_unit(self, value: float) -> float:
        if self.log:
            return (math.log(value) - math.log(self.low)) / (math.log(self.high) - math.log(self.low))
        return (float(value) - self.low) / (self.high - self.low)


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple[Dimension, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("search space needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def from_unit(self, u: np.ndarray) -> dict:
        return {d.name: d.from_unit(u[i]) for i, d in enumerate(self.dims)}

    def to_unit(self, point: dict) -> np.ndarray:
        return np.array([d.to_unit(point[d.name]) for d in self.dims])


def default_search_space() -> SearchSpace:
    """Model/training knobs searched for the life-prediction task; the
    inception-unit count is always part of it."""
    return SearchSpace(
        (
            Dimension("learning_rate", 1e-4, 1e-2, log=True),
            Dimension("batch_size", 8, 64, integer=True),
            Dimension("alpha", 0.005, 0.3),
            Dimension("weight_decay", 1e-6, 1e-3, log=True),
            Dimension("noi", 0, 4, integer=True),
        )
    )


@dataclass
class Trial:
    point: dict
    objective: float  # validation MAPE (%); NaN when failed
    status: str  # "ok" | "failed"
    message: str = ""


# ---------------------------------------------------------------------------
# Gaussian process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel in standardized-objective space."""

    lengthscales: np.ndarray  # per input dimension
    signal_var: float
    noise_var: float


@dataclass
class GpSurrogate:
    x: np.ndarray  # [n, d] observed points
    y_mean: float
    y_std: float
    kernel: KernelParams
    chol: np.ndarray  # lower Cholesky factor of K + noise*I (+ jitter)
    alpha: np.ndarray  # solve(K, standardized objectives)


def _kernel_matrix(a: np.ndarray, b: np.ndarray, k: KernelParams) -> np.ndarray:
    d = (a[:, None, :] - b[None, :, :]) / k.lengthscales
    return k.signal_var * np.exp(-0.5 * np.sum(d * d, axis=-1))


def _factor(x: np.ndarray, ys: np.ndarray, kernel: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor of K + noise*I + jitter*I, at the first of
    ``_JITTERS`` that makes it positive definite, and solve(K, ys)."""
    k_mat = _kernel_matrix(x, x, kernel) + kernel.noise_var * np.eye(len(x))
    for jitter in _JITTERS:
        try:
            chol = np.linalg.cholesky(k_mat + jitter * np.eye(len(k_mat)))
        except np.linalg.LinAlgError:
            continue
        return chol, np.linalg.solve(chol.T, np.linalg.solve(chol, ys))
    raise FpnnError(
        "kernel matrix is not positive definite even with jitter 1e-6; "
        "likely duplicate observation points with near-zero noise"
    )


def _log_marginal_likelihood(x, ys, kernel: KernelParams) -> float:
    try:
        chol, alpha = _factor(x, ys, kernel)
    except FpnnError:
        return -np.inf
    return float(
        -0.5 * ys @ alpha - np.log(np.diag(chol)).sum() - 0.5 * len(x) * math.log(2 * math.pi)
    )


def _fit_kernel(x: np.ndarray, ys: np.ndarray) -> KernelParams:
    """Maximize log marginal likelihood by multi-start coordinate search."""
    d = x.shape[1]
    factors = np.array([0.25, 0.5, 1 / 1.4, 1.0, 1.4, 2.0, 4.0])
    # coordinates: lengthscales..., signal variance, noise variance
    low = np.array([0.05] * d + [1e-2, 1e-8])
    high = np.array([20.0] * d + [1e2, 1.0])

    def kernel(theta: np.ndarray) -> KernelParams:
        return KernelParams(theta[:d].copy(), float(theta[d]), float(theta[d + 1]))

    best, best_lml = None, -np.inf
    for ell0, sn0 in ((0.3, 1e-4), (1.0, 1e-2), (3.0, 1e-2)):
        theta = np.array([ell0] * d + [1.0, sn0])
        for _ in range(3):  # coordinate sweeps
            for j in range(d + 2):
                cands = np.repeat(theta[None], len(factors), axis=0)
                cands[:, j] = np.clip(theta[j] * factors, low[j], high[j])
                lmls = [_log_marginal_likelihood(x, ys, kernel(t)) for t in cands]
                theta = cands[int(np.argmax(lmls))]
        lml = _log_marginal_likelihood(x, ys, kernel(theta))
        if lml > best_lml:
            best, best_lml = kernel(theta), lml
    if best is None:
        raise FpnnError("kernel fitting failed for every start")
    return best


def gp_fit(points: np.ndarray, objectives: np.ndarray, kernel: KernelParams | None = None) -> GpSurrogate:
    """Exact GP regression via Cholesky.

    ``points`` is [n, d] (callers normalize to the unit cube); objectives
    are standardized internally. When ``kernel`` is omitted its parameters
    are fit by maximizing the log marginal likelihood.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(objectives, dtype=float)
    if len(x) != len(y):
        raise ValueError("points and objectives must have equal length")
    if len(x) < 2:
        raise ValueError("GP fitting needs at least 2 points")
    if len(np.unique(x, axis=0)) < 2:
        raise FpnnError("GP fitting needs at least 2 distinct points")
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    ys = (y - y_mean) / y_std
    if kernel is None:
        kernel = _fit_kernel(x, ys)
    else:
        kernel = KernelParams(np.asarray(kernel.lengthscales, dtype=float),
                              float(kernel.signal_var), float(kernel.noise_var))
        if kernel.lengthscales.shape != (x.shape[1],):
            raise ValueError("lengthscales must have one entry per dimension")
    chol, alpha = _factor(x, ys, kernel)
    return GpSurrogate(x, y_mean, y_std, kernel, chol, alpha)


def gp_predict(surrogate: GpSurrogate, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at a batch of points [m, d].

    Variance is clamped at zero (numerical dust can dip to about -1e-12).
    """
    if q.ndim != 2 or q.shape[1] != surrogate.x.shape[1]:
        raise ValueError(f"query shape {q.shape} is not [m, {surrogate.x.shape[1]}]")
    k_star = _kernel_matrix(q, surrogate.x, surrogate.kernel)
    mean_std = k_star @ surrogate.alpha
    v = np.linalg.solve(surrogate.chol, k_star.T)
    var_std = surrogate.kernel.signal_var - np.sum(v * v, axis=0)
    var_std = np.maximum(var_std, 0.0)
    mean = surrogate.y_mean + surrogate.y_std * mean_std
    var = surrogate.y_std**2 * var_std
    return mean, var


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF as ``0.5 * erfc(-z / sqrt(2))``, elementwise. It
    agrees with ``scipy.special.ndtr`` to 1e-10 relative wherever ndtr is
    nonzero, lower tail included, where ``0.5 * (1 + erf)`` would cancel."""
    return 0.5 * _ERFC(-z / math.sqrt(2.0)).astype(float)


# Below this z = (best - mean) / sigma, EI = sigma * (z * cdf(z) + pdf(z))
# loses about z**2-fold relative accuracy to the cancellation of its two
# terms, so the tail form of ``_ei_tail`` takes over.
EI_TAIL_Z = -5.0
_EI_TAIL_TERMS = 40  # continued-fraction depth: 3e-16 relative at z = -5


def _ei_tail(x: np.ndarray) -> np.ndarray:
    """``z * cdf(z) + pdf(z)`` at z = -x for x > -EI_TAIL_Z, with no terms
    that cancel. Laplace's continued fraction gives the Mills ratio
    cdf(-x) / pdf(x) = 1 / f0, where f_{k-1} = x + k / f_k; then 1 - x / f0 =
    1 / (f0 * f1), so the value is pdf(x) / (f0 * f1)."""
    f = x.copy()
    for k in range(_EI_TAIL_TERMS, 1, -1):
        f = x + k / f
    return np.exp(-0.5 * x * x) / _SQRT_2PI / ((x + 1.0 / f) * f)


def ei_value(mean: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """Expected improvement for minimization at equal-length arrays of
    posterior means and standard deviations; sigma == 0 collapses to
    max(0, best - mean). Below ``EI_TAIL_Z`` it takes the tail form."""
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    improve = best - mean
    out = np.maximum(improve, 0.0)
    pos = sigma > 0
    z = improve[pos] / sigma[pos]
    ei = improve[pos] * _normal_cdf(z) + sigma[pos] * np.exp(-0.5 * z * z) / _SQRT_2PI
    tail = z < EI_TAIL_Z
    ei[tail] = sigma[pos][tail] * _ei_tail(-z[tail])
    out[pos] = ei
    return out


# ---------------------------------------------------------------------------
# optimization loop
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _halton(n: int, d: int) -> np.ndarray:
    """Unscrambled Halton sequence; deterministic low-discrepancy design."""
    if d > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    out = np.empty((n, d))
    for j in range(d):
        p = _PRIMES[j]
        for i in range(n):
            f, r, x = 1.0, 0.0, i + 1
            while x > 0:
                f /= p
                r += f * (x % p)
                x //= p
            out[i, j] = r
    return out


def bayes_optimize(objective, space: SearchSpace, budget: int, seed: int) -> tuple[Trial, list[Trial]]:
    """Minimize ``objective(point_dict)`` within ``budget`` evaluations.

    Four Halton-sequence initial trials, then EI-maximizing proposals over
    1024 seeded uniform candidates plus local perturbations of the
    incumbent. Failed evaluations (exceptions or non-finite objectives)
    are recorded and excluded from the surrogate. Deterministic per seed.
    """
    if budget < N_INITIAL_TRIALS:
        raise ValueError(f"budget must be >= {N_INITIAL_TRIALS}")
    rng = np.random.default_rng(seed)
    trials: list[Trial] = []
    unit_points: list[np.ndarray] = []

    def run(u: np.ndarray) -> None:
        u = np.clip(u, 0.0, 1.0)
        point = space.from_unit(u)
        try:
            value = float(objective(point))
            if math.isfinite(value):
                trials.append(Trial(point, value, "ok"))
            else:
                trials.append(Trial(point, float("nan"), "failed", "non-finite objective"))
        except Exception as exc:  # noqa: BLE001 - failed trials are data
            log.warning("trial %d at %s failed", len(trials), point, exc_info=True)
            trials.append(Trial(point, float("nan"), "failed", f"{type(exc).__name__}: {exc}"))
        unit_points.append(space.to_unit(point) if trials[-1].status == "ok" else u)

    for u in _halton(min(N_INITIAL_TRIALS, budget), space.ndim):
        run(u)

    while len(trials) < budget:
        ok = [i for i, t in enumerate(trials) if t.status == "ok"]
        candidates = rng.uniform(size=(N_RANDOM_CANDIDATES, space.ndim))
        if len(ok) >= 2 and len({tuple(unit_points[i]) for i in ok}) >= 2:
            x_obs = np.stack([unit_points[i] for i in ok])
            y_obs = np.array([trials[i].objective for i in ok])
            surrogate = gp_fit(x_obs, y_obs)
            best = float(y_obs.min())
            incumbent = x_obs[int(np.argmin(y_obs))]
            local = np.clip(
                incumbent + LOCAL_PERTURBATION * rng.standard_normal((N_LOCAL_CANDIDATES, space.ndim)),
                0.0, 1.0,
            )
            cand = np.vstack([candidates, local])
            mean, var = gp_predict(surrogate, cand)
            ei = ei_value(mean, np.sqrt(var), best)
            run(cand[int(np.argmax(ei))])
        else:
            run(candidates[0])

    ok_trials = [t for t in trials if t.status == "ok"]
    if not ok_trials:
        raise FpnnError("every trial failed; nothing to optimize")
    best_trial = min(ok_trials, key=lambda t: t.objective)
    return best_trial, trials
