"""Dyadic partitions, the piecewise-constant model family and its projection geometry.

A model pairs a coarse dyadic partition (on which the variance estimate is
constant) with a refinement of it (on which the mean estimate is constant).
The admissible family is filtered by two dimension constraints tied to the
sample size; everything downstream enumerates this family exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EmptyCollectionError(ValueError):
    """Every candidate model was filtered out: n is too small for the configuration."""


def check_power_of_two(name: str, x: int) -> None:
    """Raise ValueError unless x is an integer (numpy's too) among 1, 2, 4, 8, ..."""
    if not (isinstance(x, (int, np.integer)) and x >= 1 and (x & (x - 1)) == 0):
        raise ValueError(f"{name} must be a power of two, got {x}")


def log_power(x: float, epsilon: float) -> float:
    """Natural log of x raised to the power 1 + epsilon, i.e. (log x)^(1+epsilon).

    Requires x > 1 so the outer logarithm is defined.
    """
    if x <= 1.0:
        raise ValueError(f"log_power requires x > 1, got {x}")
    return math.exp((1.0 + epsilon) * math.log(math.log(x)))


def block_means(y: np.ndarray, blocks: int) -> np.ndarray:
    """Means of `blocks` equal consecutive blocks along the last axis, which shrinks to length `blocks`."""
    return _blocks(y, blocks).mean(axis=-1)


def _blocks(y: np.ndarray, blocks: int) -> np.ndarray:
    """y with its last axis split into `blocks` equal consecutive blocks: a view if y is contiguous."""
    return y.reshape(y.shape[:-1] + (blocks, y.shape[-1] // blocks))


def expand(values: np.ndarray, n: int) -> np.ndarray:
    """Blow per-block values along the last axis up to length n, each block being n // blocks long."""
    values = np.asarray(values, dtype=float)
    return np.repeat(values, n // values.shape[-1], axis=-1)


@dataclass(frozen=True)
class Model:
    """The 2**level coarse blocks of {1, ..., n} for the variance, each split into
    per_block_dim fine blocks for the mean.

    per_block_dim is restricted to powers of two so the fine partition is itself
    dyadic: it has 2**level * per_block_dim blocks.
    """

    n: int
    level: int
    per_block_dim: int

    def __post_init__(self):
        check_power_of_two("n", self.n)
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if 2**self.level > self.n:
            raise ValueError(f"2**{self.level} blocks exceed n={self.n}")
        d = self.per_block_dim
        check_power_of_two("per_block_dim", d)
        if d * 2**self.level > self.n:
            raise ValueError(f"per_block_dim {d} exceeds coarse block size {self.n >> self.level}")

    @property
    def num_coarse(self) -> int:
        return 2**self.level

    @property
    def num_fine(self) -> int:
        return self.num_coarse * self.per_block_dim

    @property
    def dim(self) -> int:
        """Dimension of the product space: |coarse blocks| * (per_block_dim + 1)."""
        return self.num_coarse * (self.per_block_dim + 1)

    def describe(self) -> dict:
        return {"k_m": self.level, "d_m": self.per_block_dim, "D_m": self.dim}


#: The default theta, epsilon and delta of the lab, the oracle checks and the CLI.
THETA = 2.0
EPSILON = 0.01
DELTA = 3.0

#: The range of each constant: (bound, whether a value is in it).
_CONSTANT_RANGES = {
    "gamma": (">= 1", lambda v: v >= 1.0),
    "theta": ("> 1", lambda v: v > 1.0),
    "epsilon": ("> 0", lambda v: v > 0.0),
    "delta": ("> 0", lambda v: v > 0.0),
}


@dataclass(frozen=True)
class CollectionConfig:
    """The constants of one selection procedure at a given sample size.

    gamma, theta and epsilon enter both the admissible family (see
    `build_collection`) and the penalty (gamma*theta + (log D)^(1+epsilon)) * D
    of `selector.penalty`; delta enters only the family.
    """

    n: int
    gamma: float
    theta: float
    epsilon: float
    delta: float

    def __post_init__(self):
        check_power_of_two("n", self.n)
        for name, (bound, holds) in _CONSTANT_RANGES.items():
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not holds(value):
                raise ValueError(f"{name} must be {bound}, got {value}")


def _dimension_bound_holds(n: int, dim: int, gamma: float, theta: float) -> bool:
    """Whether n >= theta/(theta-1) * (gamma+2) * D, the sample size a model of dimension D needs."""
    return dim <= (theta - 1.0) / theta * n / (gamma + 2.0)


def all_models(n: int) -> list[Model]:
    """Every model on {1, ..., n}, by ascending level, then ascending per_block_dim."""
    k_n = n.bit_length() - 1
    return [Model(n, k, 2**j) for k in range(k_n + 1) for j in range(k_n - k + 1)]


def build_collection(cfg: CollectionConfig) -> list[Model]:
    """Enumerate all admissible models, in canonical order.

    A model with coarse level k and per-block dimension d (1, 2, 4, ... up
    to the coarse block size) is kept when both
      n >= theta/(theta-1) * (gamma+2) * D   and
      D <= 5*delta*gamma*n / (log n)^(1+epsilon),
    with D = 2**k * (d+1).  Canonical order: ascending D, then ascending
    number of coarse blocks; the first minimum in this order wins downstream.
    """
    n = cfg.n
    dim_cap_log = 5.0 * cfg.delta * cfg.gamma * n / log_power(n, cfg.epsilon) if n > 1 else 0.0
    models = [
        m
        for m in all_models(n)
        if _dimension_bound_holds(n, m.dim, cfg.gamma, cfg.theta) and m.dim <= dim_cap_log
    ]
    if not models:
        raise EmptyCollectionError(
            f"no admissible model for n={n}, gamma={cfg.gamma}, theta={cfg.theta}: "
            "sample size too small for this configuration"
        )
    models.sort(key=lambda m: (m.dim, m.num_coarse))
    return models


def project(m: Model, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the model's mean space: blockwise means on the fine partition."""
    y = np.asarray(y, dtype=float)
    if y.shape != (m.n,):
        raise ValueError(f"expected a length-{m.n} vector, got shape {y.shape}")
    return expand(block_means(y, m.num_fine), m.n)
