"""Paired mean/variance estimators, the Kullback-Leibler divergence and risk bounds.

The mean is estimated from the first replicate by projection, the variance from
the second replicate by averaging squared projection residuals over each coarse
block.  Splitting the data keeps the two estimators independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_space import Model, _dimension_bound_holds, _project, is_power_of_two, project

KAPPA = 1.0 + 2.0 * math.exp(-1.0)

VARIANCE_FLOOR = 1e-12


class DegenerateVarianceError(RuntimeError):
    """A variance estimate collapsed to (numerical) zero.

    The second replicate lies exactly in the mean space on some coarse block,
    which has probability zero for continuous data and signals malformed input.
    """


@dataclass(frozen=True)
class Observations:
    """Two independent replicates of the same Gaussian vector."""

    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y1", np.asarray(self.y1, dtype=float))
        object.__setattr__(self, "y2", np.asarray(self.y2, dtype=float))
        if self.y1.shape != self.y2.shape or self.y1.ndim != 1:
            raise ValueError("replicates must be 1-d arrays of equal length")
        if not is_power_of_two(len(self.y1)):
            raise ValueError(f"length must be a power of two, got {len(self.y1)}")
        if not (np.isfinite(self.y1).all() and np.isfinite(self.y2).all()):
            raise ValueError("replicates must be finite")

    @property
    def n(self) -> int:
        return len(self.y1)


@dataclass(frozen=True)
class Estimate:
    """A fitted pair: mean constant on fine blocks, variance constant on coarse blocks."""

    mean: np.ndarray
    variance: np.ndarray
    model: Model


@dataclass(frozen=True)
class TruthSpec:
    """The true mean and variance vectors, for simulation and risk evaluation."""

    s: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.s.shape != self.sigma.shape or self.s.ndim != 1:
            raise ValueError("s and sigma must be 1-d arrays of equal length")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.s)


def phi(u):
    """log(u) + 1/u - 1, the per-coordinate variance discrepancy; zero iff u == 1."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("phi requires strictly positive arguments")
    out = _phi(u)
    return float(out) if out.ndim == 0 else out


def _phi(u):
    return np.log(u) + 1.0 / u - 1.0


def kl_divergence(truth: TruthSpec, mean: np.ndarray, variance: np.ndarray) -> float:
    """Kullback-Leibler divergence from the true Gaussian to the candidate one."""
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if mean.shape != (truth.n,) or variance.shape != (truth.n,):
        raise ValueError("mean/variance length mismatch with truth")
    if np.any(variance <= 0):
        raise ValueError("variance must be strictly positive")
    return float(_loss("kullback", truth, mean, variance))


def log_likelihood(y1: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Negative log-likelihood of the first replicate, up to additive constants."""
    y1 = np.asarray(y1, dtype=float)
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if y1.shape != mean.shape or y1.shape != variance.shape:
        raise ValueError("length mismatch")
    if np.any(variance <= 0):
        raise ValueError("variance must be strictly positive")
    return float(_neg_log_likelihood(y1, mean, variance))


def fit(m: Model, obs: Observations) -> Estimate:
    """Fit the model: projected first replicate for the mean, blockwise residual
    variance of the second replicate for the variance."""
    if obs.n != m.n:
        raise ValueError(f"observations have length {obs.n}, model expects {m.n}")
    mean, block_var, degenerate = _fit_rows(m, obs.y1, obs.y2)
    if degenerate:
        raise DegenerateVarianceError(
            "zero residual variance on a coarse block: second replicate lies in the mean space"
        )
    return Estimate(mean=mean, variance=m.coarse.expand(block_var), model=m)


# Unchecked kernels along the last axis.  The public functions above call them on
# one vector and the simulation lab on an (R, n) block of replications, so each
# quantity has one formula and a batched row equals the scalar value bit for bit.


def _fit_rows(m: Model, y1: np.ndarray, y2: np.ndarray):
    """`fit`: the mean, the variance per coarse block, and whether any block fell below VARIANCE_FLOOR."""
    mean = _project(m, y1)
    block_var = m.coarse.block_means((y2 - _project(m, y2)) ** 2)
    return mean, block_var, np.any(block_var < VARIANCE_FLOOR, axis=-1)


def _neg_log_likelihood(y1, mean, variance):
    """`log_likelihood`."""
    return 0.5 * np.sum((y1 - mean) ** 2 / variance + np.log(variance), axis=-1)


def _loss(kind: str, truth: TruthSpec, mean, variance):
    """The loss of a fitted pair: 'kullback' (`kl_divergence`), 'quadratic_mean' or 'quadratic_variance'."""
    if kind == "kullback":
        return 0.5 * np.sum((truth.s - mean) ** 2 / variance + _phi(variance / truth.sigma), axis=-1)
    if kind == "quadratic_mean":
        return np.sum((truth.s - mean) ** 2, axis=-1)
    if kind == "quadratic_variance":
        return np.sum((truth.sigma - variance) ** 2, axis=-1)
    raise ValueError(f"unknown risk kind {kind!r}")


def best_approx(m: Model, truth: TruthSpec) -> tuple[Estimate, float]:
    """Best in-model approximation of the truth and the resulting bias.

    The optimal variance on a coarse block averages the true variance plus the
    squared mean-approximation error.  The bias has a closed log form which
    coincides with the divergence to the approximant.
    """
    if truth.n != m.n:
        raise ValueError(f"truth has length {truth.n}, model expects {m.n}")
    s_m = project(m, truth.s)
    block_var = m.coarse.block_means((truth.s - s_m) ** 2 + truth.sigma)
    sigma_m = m.coarse.expand(block_var)
    bias = 0.5 * float(np.sum(np.log(sigma_m / truth.sigma)))
    return Estimate(mean=s_m, variance=sigma_m, model=m), bias


def prop1_bounds(m: Model, truth: TruthSpec, gamma: float, theta: float) -> tuple[float, float]:
    """Lower and upper bounds sandwiching the Kullback risk of the fitted pair.

    lower = max(bias, D/(4*gamma)); upper = bias + kappa*gamma^2*theta^2*D with
    kappa = 1 + 2/e.  Requires the dimension bound to hold for the model.
    """
    if not _dimension_bound_holds(m.n, m.dim, gamma, theta):
        raise ValueError(
            f"dimension bound violated: n={m.n} < {theta / (theta - 1.0) * (gamma + 2.0) * m.dim:.1f}"
        )
    _, bias = best_approx(m, truth)
    lower = max(bias, m.dim / (4.0 * gamma))
    upper = bias + KAPPA * gamma**2 * theta**2 * m.dim
    return lower, upper
