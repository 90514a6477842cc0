"""Dyadic partitions, the piecewise-constant model family and its projection geometry.

A model pairs a coarse dyadic partition (on which the variance estimate is
constant) with a refinement of it (on which the mean estimate is constant).
The admissible family is filtered by two dimension constraints tied to the
sample size; everything downstream enumerates this family exhaustively.
It also holds the one check of each kind of input: `check_power_of_two`,
`check_constant`, `check_vector` (data vectors) and `check_reps` (rep counts).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np


class EmptyCollectionError(ValueError):
    """Every candidate model was filtered out: n is too small for the configuration."""


def check_power_of_two(name: str, x: int) -> None:
    """Raise ValueError unless x is an integer (numpy's too, not a bool) among 1, 2, 4, 8, ..."""
    if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1 and (x & (x - 1)) == 0):
        raise ValueError(f"{name} must be a power of two, got {x}")


def check_vector(name: str, x, positive: bool = False) -> np.ndarray:
    """x as a 1-d float array; raise ValueError unless every entry is finite (and > 0 if positive)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    valid = (x > 0) & (x < np.inf) if positive else np.isfinite(x)
    if not valid.all():
        raise ValueError(f"{name} must be finite" + (" and strictly positive" if positive else ""))
    return x


def check_reps(name: str, reps: int, least: int) -> int:
    """reps, after raising ValueError unless it is an integer (numpy's too, not a bool) of at least `least`."""
    if not isinstance(reps, (int, np.integer)) or isinstance(reps, bool):
        raise ValueError(f"{name} must be an integer, got {reps!r}")
    if reps < least:
        raise ValueError(f"{name} must be >= {least}, got {reps}")
    return reps


def log_power(x: float, epsilon: float) -> float:
    """Natural log of x raised to the power 1 + epsilon, i.e. (log x)^(1+epsilon).

    Requires x > 1 so the outer logarithm is defined.  A value past the float range is inf.
    """
    if x <= 1.0:
        raise ValueError(f"log_power requires x > 1, got {x}")
    try:
        return math.exp((1.0 + epsilon) * math.log(math.log(x)))
    except OverflowError:
        return math.inf


def block_means(y: np.ndarray, blocks: int) -> np.ndarray:
    """Means of `blocks` equal consecutive blocks along the last axis, which shrinks to length `blocks`.

    The sum and the in-place division are those of `ndarray.mean`, without its Python wrapper.
    """
    sums = np.add.reduce(_blocks(y, blocks), axis=-1)
    return np.divide(sums, y.shape[-1] // blocks, out=sums)


def _blocks(y: np.ndarray, blocks: int) -> np.ndarray:
    """y with its last axis split into `blocks` equal consecutive blocks: a view if y is contiguous."""
    return y.reshape(y.shape[:-1] + (blocks, y.shape[-1] // blocks))


def expand(values: np.ndarray, n: int) -> np.ndarray:
    """Blow per-block values along the last axis up to length n, each block being n // blocks long."""
    values = np.asarray(values, dtype=float)
    return np.repeat(values, n // values.shape[-1], axis=-1)


class Model(NamedTuple("Model", [("n", int), ("level", int), ("per_block_dim", int)])):
    """The 2**level coarse blocks of {1, ..., n} for the variance, each split into
    per_block_dim fine blocks for the mean.

    per_block_dim is restricted to powers of two so the fine partition is itself
    dyadic: it has 2**level * per_block_dim blocks.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace`, which copies by `_make`, checks too

    def __new__(cls, n: int, level: int, per_block_dim: int):
        check_power_of_two("n", n)
        if not (isinstance(level, (int, np.integer)) and not isinstance(level, bool) and level >= 0):
            raise ValueError(f"level must be a nonnegative integer, got {level}")
        if 2**level > n:
            raise ValueError(f"2**{level} blocks exceed n={n}")
        check_power_of_two("per_block_dim", per_block_dim)
        if per_block_dim * 2**level > n:
            raise ValueError(f"per_block_dim {per_block_dim} exceeds coarse block size {n >> level}")
        return super().__new__(cls, n, level, per_block_dim)

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


class CollectionConfig(NamedTuple(
    "CollectionConfig", [("n", int), ("gamma", float), ("theta", float), ("epsilon", float), ("delta", float)]
)):
    """The constants of one selection procedure at a given sample size.

    gamma, theta and epsilon enter both the admissible family (see
    `build_collection`) and the penalty (gamma*theta + (log D)^(1+epsilon)) * D
    of `selector.penalty`; delta enters only the family.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace`, which copies by `_make`, checks too

    def __new__(cls, n: int, gamma: float, theta: float, epsilon: float, delta: float):
        check_power_of_two("n", n)
        for name, value in zip(_CONSTANT_RANGES, (gamma, theta, epsilon, delta)):
            check_constant(name, value)
        return super().__new__(cls, n, gamma, theta, epsilon, delta)


def check_constant(name: str, value: float) -> None:
    """Raise ValueError unless the constant `name` (gamma, theta, epsilon or delta) is finite and in range."""
    bound, holds = _CONSTANT_RANGES[name]
    if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if not holds(value):
        raise ValueError(f"{name} must be {bound}, got {value}")


def _dimension_bound_holds(n: int, dim: int, gamma: float, theta: float) -> bool:
    """Whether n >= theta/(theta-1) * (gamma+2) * D, the sample size a model of dimension D needs."""
    return dim <= (theta - 1.0) / theta * n / (gamma + 2.0)


@functools.lru_cache(maxsize=None, typed=True)
def all_models(n: int) -> tuple[Model, ...]:
    """Every model on {1, ..., n}, built once per n, in canonical order: by fine partition, then coarse level.

    With 2**j fine and 2**k coarse blocks (k <= j), D = 2**j + 2**k strictly
    increases along this order: it is ascending D, no two models share a D, and
    each fine partition is one stretch.  The first minimum in it wins downstream.
    """
    check_power_of_two("n", n)
    return tuple(Model(n, k, 2 ** (j - k)) for j in range(int(n).bit_length()) for k in range(j + 1))


def build_collection(cfg: CollectionConfig) -> list[Model]:
    """The admissible models, a new list of a prefix of `all_models(n)`.

    A model with coarse level k and per-block dimension d, D = 2**k * (d+1), is kept when both
      n >= theta/(theta-1) * (gamma+2) * D   and
      D <= 5*delta*gamma*n / (log n)^(1+epsilon).
    Both bound D from above, so the collection ends at the first model that fails either.
    """
    n = cfg.n
    # (log n)^(1+epsilon) is 0 at n = 1, and at n = 2 (log log 2 < 0) it underflows to 0.0 for a
    # large epsilon: the cap is then unbounded, its limit, as a subnormal divisor already gives.
    log_n_power = log_power(n, cfg.epsilon) if n > 1 else 0.0
    dim_cap_log = 5.0 * cfg.delta * cfg.gamma * n / log_n_power if log_n_power > 0.0 else math.inf

    def admissible(m: Model) -> bool:
        return _dimension_bound_holds(n, m.dim, cfg.gamma, cfg.theta) and m.dim <= dim_cap_log

    models = list(itertools.takewhile(admissible, all_models(n)))
    if not models:
        raise EmptyCollectionError(
            f"no admissible model for n={n}, gamma={cfg.gamma}, theta={cfg.theta}: "
            "sample size too small for this configuration"
        )
    return models


def project(m: Model, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the model's mean space: blockwise means on the fine partition."""
    y = np.asarray(y, dtype=float)
    if y.shape != (m.n,):
        raise ValueError(f"expected a length-{m.n} vector, got shape {y.shape}")
    return expand(block_means(y, m.num_fine), m.n)
