"""Dyadic partitions, the piecewise-constant model family and its projection geometry.

A model pairs a coarse dyadic partition (on which the variance estimate is
constant) with a refinement of it (on which the mean estimate is constant).
The admissible family is filtered by two dimension constraints tied to the
sample size; everything downstream enumerates this family exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class EmptyCollectionError(ValueError):
    """Every candidate model was filtered out: n is too small for the configuration."""


def is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def log_power(x: float, epsilon: float) -> float:
    """Natural log of x raised to the power 1 + epsilon, i.e. (log x)^(1+epsilon).

    Requires x > 1 so the outer logarithm is defined.
    """
    if x <= 1.0:
        raise ValueError(f"log_power requires x > 1, got {x}")
    return math.exp((1.0 + epsilon) * math.log(math.log(x)))


@dataclass(frozen=True)
class DyadicPartition:
    """Regular partition of {1, ..., n} into 2**level consecutive blocks."""

    level: int
    n: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if not is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if 2**self.level > self.n:
            raise ValueError(f"2**{self.level} blocks exceed n={self.n}")

    @property
    def num_blocks(self) -> int:
        return 2**self.level

    @property
    def block_size(self) -> int:
        return self.n // self.num_blocks

    def block_means(self, y: np.ndarray) -> np.ndarray:
        """Per-block means along the last axis, which shrinks from n to num_blocks."""
        return y.reshape(y.shape[:-1] + (self.num_blocks, self.block_size)).mean(axis=-1)

    def expand(self, block_values: np.ndarray) -> np.ndarray:
        """Blow per-block values along the last axis back up to length n."""
        return np.repeat(np.asarray(block_values, dtype=float), self.block_size, axis=-1)


@dataclass(frozen=True)
class Model:
    """A coarse partition for the variance and a dyadic refinement for the mean.

    per_block_dim is the number of fine blocks inside each coarse block; it is
    restricted to powers of two so the fine partition is itself dyadic.  The
    fine partition is derived from the other two fields.
    """

    coarse: DyadicPartition
    per_block_dim: int
    fine: DyadicPartition = field(init=False)

    def __post_init__(self):
        d = self.per_block_dim
        if not is_power_of_two(d):
            raise ValueError(f"per_block_dim must be a power of two, got {d}")
        if d > self.coarse.block_size:
            raise ValueError(
                f"per_block_dim {d} exceeds coarse block size {self.coarse.block_size}"
            )
        fine = DyadicPartition(self.coarse.level + int(math.log2(d)), self.coarse.n)
        object.__setattr__(self, "fine", fine)

    @classmethod
    def create(cls, n: int, level: int, per_block_dim: int) -> "Model":
        return cls(DyadicPartition(level, n), per_block_dim)

    @property
    def n(self) -> int:
        return self.coarse.n

    @property
    def level(self) -> int:
        return self.coarse.level

    @property
    def num_coarse(self) -> int:
        return self.coarse.num_blocks

    @property
    def dim(self) -> int:
        """Dimension of the product space: |coarse blocks| * (per_block_dim + 1)."""
        return self.num_coarse * (self.per_block_dim + 1)

    def describe(self) -> dict:
        return {"k_m": self.level, "d_m": self.per_block_dim, "D_m": self.dim}


@dataclass(frozen=True)
class CollectionConfig:
    """Parameters bounding the admissible model family for a given sample size."""

    n: int
    gamma: float
    theta: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if not is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.theta <= 1.0:
            raise ValueError(f"theta must be > 1, got {self.theta}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")


def _dimension_bound_holds(n: int, dim: int, gamma: float, theta: float) -> bool:
    """Whether n >= theta/(theta-1) * (gamma+2) * D, the sample size a model of dimension D needs."""
    return dim <= (theta - 1.0) / theta * n / (gamma + 2.0)


def build_collection(cfg: CollectionConfig) -> list[Model]:
    """Enumerate all admissible models, in canonical order.

    A model with coarse level k and per-block dimension d (a power of two up
    to the coarse block size) is kept when both
      n >= theta/(theta-1) * (gamma+2) * D   and
      D <= 5*delta*gamma*n / (log n)^(1+epsilon),
    with D = 2**k * (d+1).  Canonical order: ascending D, then ascending
    number of coarse blocks; this fixes argmin tie-breaking downstream.
    """
    n = cfg.n
    k_n = n.bit_length() - 1
    dim_cap_log = 5.0 * cfg.delta * cfg.gamma * n / log_power(n, cfg.epsilon) if n > 1 else 0.0
    models = []
    for k in range(k_n + 1):
        d = 1
        while d <= 2 ** (k_n - k):
            dim = 2**k * (d + 1)
            if _dimension_bound_holds(n, dim, cfg.gamma, cfg.theta) and dim <= dim_cap_log:
                models.append(Model.create(n, k, d))
            d *= 2
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
    return _project(m, y)


def _project(m: Model, y: np.ndarray) -> np.ndarray:
    """`project` along the last axis of y, unchecked: the batched and scalar fits share it."""
    return m.fine.expand(m.fine.block_means(y))


def projection_diagonal(m: Model) -> np.ndarray:
    """Diagonal of the projection matrix: 1/|J| on each fine block J."""
    return np.full(m.n, 1.0 / m.fine.block_size)
