"""Paired mean/variance estimators, the Kullback-Leibler divergence and risk bounds.

The mean is estimated from the first replicate by projection, the variance from
the second replicate by averaging squared projection residuals over each coarse
block.  Splitting the data keeps the two estimators independent.

All fit arithmetic lives here, including the block kernel `_fit_block` that
scores a model collection on an (R, n) block for `select` and the simulation lab.
The kernel takes the loss terms that depend only on the variance once per run
of equal true variance within a coarse block, bit-identical to `kl_divergence`'s
per-point terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .model_space import (
    Model, _blocks, _dimension_bound_holds, block_means, check_constant, check_power_of_two, check_vector, expand,
)

KAPPA = 1.0 + 2.0 * math.exp(-1.0)

VARIANCE_FLOOR = 1e-12

#: The losses of a fitted pair that `_loss` and the block kernel take.
RISK_KINDS = ("kullback", "quadratic_mean", "quadratic_variance")


class DegenerateVarianceError(RuntimeError):
    """A variance estimate collapsed to (numerical) zero.

    The second replicate lies exactly in the mean space on some coarse block,
    which has probability zero for continuous data and signals malformed input.
    """

    def __init__(
        self, message="zero residual variance on a coarse block: second replicate lies in the mean space"
    ):
        super().__init__(message)


class _ObservationsFields(NamedTuple):
    y1: np.ndarray
    y2: np.ndarray


class Observations(_ObservationsFields):
    """Two independent replicates of the same Gaussian vector."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace`, which copies by `_make`, checks too

    def __new__(cls, y1: np.ndarray, y2: np.ndarray):
        y1, y2 = check_vector("y1", y1), check_vector("y2", y2)
        if len(y1) != len(y2):
            raise ValueError("replicates must have equal length")
        check_power_of_two("length", len(y1))
        return super().__new__(cls, y1, y2)

    @property
    def n(self) -> int:
        return len(self.y1)


class Estimate(NamedTuple):
    """A fitted pair: the mean per fine block and the variance per coarse block of the
    model; `mean` and `variance` expand them to length-n vectors."""

    model: Model
    block_mean: np.ndarray
    block_variance: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return expand(self.block_mean, self.model.n)

    @property
    def variance(self) -> np.ndarray:
        return expand(self.block_variance, self.model.n)


class _TruthSpecFields(NamedTuple):
    s: np.ndarray
    sigma: np.ndarray


class TruthSpec(_TruthSpecFields):
    """The true mean and variance vectors, for simulation and risk evaluation."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace`, which copies by `_make`, checks too

    def __new__(cls, s: np.ndarray, sigma: np.ndarray):
        s, sigma = check_vector("s", s), check_vector("sigma", sigma, positive=True)
        if len(s) != len(sigma):
            raise ValueError("s and sigma must have equal length")
        return super().__new__(cls, s, sigma)

    @property
    def n(self) -> int:
        return len(self.s)


def phi(u):
    """log(u) + 1/u - 1, the per-coordinate variance discrepancy; zero iff u == 1."""
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0):
        raise ValueError("phi requires strictly positive arguments")
    out = _phi(np.array(u, ndmin=1)).reshape(u.shape)
    return float(out) if out.ndim == 0 else out


def _phi(u, out=None):
    """`phi`, unchecked, written into out when given.  Overwrites u with log(u)."""
    out = np.divide(1.0, u, out=out)
    return np.subtract(np.add(np.log(u, out=u), out, out=out), 1.0, out=out)


def kl_divergence(truth: TruthSpec, mean: np.ndarray, variance: np.ndarray) -> float:
    """Kullback-Leibler divergence from the true Gaussian to the candidate one."""
    mean = check_vector("mean", mean)
    variance = check_vector("variance", variance, positive=True)
    if len(mean) != truth.n or len(variance) != truth.n:
        raise ValueError("mean/variance length mismatch with truth")
    return float(_loss("kullback", truth, (truth.s - mean) ** 2, variance))


def log_likelihood(y1: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Negative log-likelihood of the first replicate, up to additive constants."""
    y1 = check_vector("y1", y1)
    mean = check_vector("mean", mean)
    variance = check_vector("variance", variance, positive=True)
    if len(y1) != len(mean) or len(y1) != len(variance):
        raise ValueError("length mismatch")
    return float(_neg_log_likelihood(y1, mean, variance))


def fit(m: Model, obs: Observations) -> Estimate:
    """Fit the model: projected first replicate for the mean, blockwise residual
    variance of the second replicate for the variance."""
    if obs.n != m.n:
        raise ValueError(f"observations have length {obs.n}, model expects {m.n}")
    block_mean, block_var, degenerate = _fit_rows(m, obs.y1, obs.y2)
    if degenerate:
        raise DegenerateVarianceError
    return Estimate(m, block_mean, block_var)


# Unchecked kernels along the last axis.  The public functions above call them on
# one vector and the block kernel `_fit_block` on an (R, n) block of replications, so
# each quantity has one formula and a batched row equals the scalar value bit for bit.


def _fit_rows(m: Model, y1: np.ndarray, y2: np.ndarray, fine=None):
    """`fit`: mean per fine block, variance per coarse block, and whether any fell below VARIANCE_FLOOR.

    `fine` is `_fine_fit(m.num_fine, y1, y2)` when the caller already has it: every
    model on one fine partition shares it.
    """
    block_mean, r2 = _fine_fit(m.num_fine, y1, y2) if fine is None else fine
    block_var = block_means(r2, m.num_coarse)
    return block_mean, block_var, np.any(block_var < VARIANCE_FLOOR, axis=-1)


def _fine_fit(num_fine: int, y1: np.ndarray, y2: np.ndarray, out=None):
    """The part of `fit` that depends only on the fine partition: the block means of y1
    and the squared projection residuals of y2, written into out when given."""
    return block_means(y1, num_fine), _squared_residuals(y2, block_means(y2, num_fine), out)


def _squared_residuals(y: np.ndarray, block_values: np.ndarray, out=None):
    """(y - expand(block_values, n)) ** 2 along the last axis, written into out when given.

    The block values are broadcast over their blocks, not expanded; y may be one
    vector and block_values rows.
    """
    blocks = block_values.shape[-1]
    if out is None:
        out = np.empty(block_values.shape[:-1] + y.shape[-1:])
    view = _blocks(out, blocks)
    np.subtract(_blocks(y, blocks), block_values[..., None], out=view)
    np.square(view, out=view)
    return out


def _neg_log_likelihood(y1, mean, variance):
    """`log_likelihood`."""
    return _block_log_likelihood((y1 - mean) ** 2, variance)


def _block_log_likelihood(sq_err, block_var, out=None):
    """`log_likelihood` from the squared errors (y1 - mean) ** 2 and the variance on equal
    blocks along the last axis (blocks of one point for `log_likelihood`).

    The log is taken of the block values, then broadcast; the summed terms are
    written into out when given.
    """
    blocks = block_var.shape[-1]
    if out is None:
        out = np.empty(sq_err.shape)
    terms = _blocks(out, blocks)
    np.divide(_blocks(sq_err, blocks), block_var[..., None], out=terms)
    np.add(terms, np.log(block_var)[..., None], out=terms)
    return 0.5 * np.add.reduce(out, axis=-1)


def _loss(kind: str, truth: TruthSpec, sq_err, variance):
    """The loss of a fitted pair from its squared mean errors (truth.s - mean) ** 2 and its variance:
    'kullback' (`kl_divergence`), 'quadratic_mean' or 'quadratic_variance'."""
    if kind == "quadratic_mean":
        return np.add.reduce(sq_err, axis=-1)
    terms = _variance_terms(kind, truth.sigma, variance)
    if kind == "quadratic_variance":
        return np.add.reduce(terms, axis=-1)
    return 0.5 * np.add.reduce(sq_err / variance + terms, axis=-1)


def _variance_terms(kind: str, sigma, variance, out=(None, None)):
    """The loss terms that depend only on the variance, written into out[0] when given:
    phi(variance / sigma) for 'kullback' (the ratio goes to out[1]) and (sigma - variance) ** 2
    for 'quadratic_variance'."""
    terms, ratio = out
    if kind == "kullback":
        return _phi(np.divide(variance, sigma, out=ratio), out=terms)
    return np.square(np.subtract(sigma, variance, out=terms), out=terms)


def _sigma_runs(sigma: np.ndarray, blocks: int):
    """The runs of sigma on `blocks` equal coarse blocks: the cells of the common refinement of
    the blocks and the runs of equal neighbouring values of sigma, in order.

    Returns (sigma on each run, the block of each run, the run of each point), or None when
    every point is its own run.
    """
    n = len(sigma)
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(sigma[1:], sigma[:-1], out=start[1:])
    start[:: n // blocks] = True
    first = np.flatnonzero(start)
    if len(first) == n:
        return None
    return sigma[first], first // (n // blocks), np.cumsum(start) - 1


def _run_loss(kind: str, sigma, runs, sq_err, block_var, out):
    """`_loss` of a kind with variance terms, 'kullback' or 'quadratic_variance', for variances
    given per coarse block, block_var (rows, blocks).

    runs is `_sigma_runs(sigma, blocks)`: the variance terms are taken once per run and
    expanded to the points, or once per point when runs is None.  out is two (rows, n) arrays
    for the terms.  Every term equals its value in `_loss` on the expanded variance: a variance
    and a sigma that compare equal are equal bit for bit, so each term comes from the same IEEE
    operations on the same inputs, and the same contiguous (rows, n) terms are summed.
    """
    terms, scratch = out
    blocks = block_var.shape[-1]
    if runs is None:
        np.copyto(_blocks(terms, blocks), block_var[..., None])
        var_terms = _variance_terms(kind, sigma, terms, out=(scratch, terms))
    else:
        run_sigma, run_block, point_run = runs
        shape = (len(block_var), len(run_sigma))
        variance, run_terms = (b.reshape(-1)[: shape[0] * shape[1]].reshape(shape) for b in (scratch, terms))
        # mode="clip" writes straight into out; the default mode buffers it.  The indices are in range.
        np.take(block_var, run_block, axis=-1, out=variance, mode="clip")
        _variance_terms(kind, run_sigma, variance, out=(run_terms, variance))
        var_terms = np.take(run_terms, point_run, axis=-1, out=scratch, mode="clip")
    if kind == "quadratic_variance":
        return np.add.reduce(var_terms, axis=-1)
    np.divide(_blocks(sq_err, blocks), block_var[..., None], out=_blocks(terms, blocks))
    return 0.5 * np.add.reduce(np.add(terms, var_terms, out=terms), axis=-1)


def _fit_block(models: Sequence[Model], y1: np.ndarray, y2: np.ndarray, rank: bool, truth=None, kind=None):
    """Fit every model to each row of an (R, n) block with `fit`'s arithmetic: (lik, losses, bad).

    lik[r, j] is `log_likelihood` of model j on row r if rank, losses[r, j]
    is the loss `kind` against truth if a kind is given (both 0 otherwise), and
    bad[r] whether row r is degenerate for any model.  Nothing is kept between
    calls.

    The y1 block means and the squared residuals of a fine partition are computed
    once for each stretch of consecutive models on it; in `all_models`' order
    each fine partition is one stretch.  The loss terms that depend only on the
    variance are taken once per run of `_sigma_runs(truth.sigma, blocks)`
    (`_run_loss`), found once per coarse level as the levels come up.  Every
    (R, n) temporary is written into buffers allocated once per call.
    """
    size, n = y1.shape
    bad = np.zeros(size, dtype=bool)
    lik = np.zeros((size, len(models)))
    losses = np.zeros((size, len(models)))
    runs = {}
    # Squared errors of y1 and of the true mean from the y1 block means, y2's squared
    # projection residuals, and the scratch of the sums.
    y1_err, s_err, r2, terms, scratch = np.empty((5, size, n))
    num_fine = None
    for j, m in enumerate(models):
        if m.num_fine != num_fine:
            num_fine = m.num_fine
            fine = _fine_fit(num_fine, y1, y2, out=r2)
            if rank:
                _squared_residuals(y1, fine[0], out=y1_err)
            if kind is not None:
                _squared_residuals(truth.s, fine[0], out=s_err)
        _, block_var, degenerate = _fit_rows(m, y1, y2, fine)
        bad |= degenerate
        if bad.any():  # callers discard or redraw those rows; keep their arithmetic finite
            block_var = np.where(bad[:, None], 1.0, block_var)
        if rank:
            lik[:, j] = _block_log_likelihood(y1_err, block_var, out=terms)
        if kind == "quadratic_mean":
            losses[:, j] = _loss(kind, truth, s_err, None)
        elif kind is not None:
            if m.num_coarse not in runs:
                runs[m.num_coarse] = _sigma_runs(truth.sigma, m.num_coarse)
            losses[:, j] = _run_loss(kind, truth.sigma, runs[m.num_coarse], s_err, block_var, (terms, scratch))
    return lik, losses, bad


def best_approx(m: Model, truth: TruthSpec) -> tuple[Estimate, float]:
    """Best in-model approximation of the truth and the resulting bias.

    The optimal variance on a coarse block averages the true variance plus the
    squared mean-approximation error.  The bias has a closed log form which
    coincides with the divergence to the approximant.
    """
    if truth.n != m.n:
        raise ValueError(f"truth has length {truth.n}, model expects {m.n}")
    block_mean = block_means(truth.s, m.num_fine)
    block_var = block_means((truth.s - expand(block_mean, m.n)) ** 2 + truth.sigma, m.num_coarse)
    bias = 0.5 * float(np.add.reduce(np.log(expand(block_var, m.n) / truth.sigma)))
    return Estimate(m, block_mean, block_var), bias


def prop1_bounds(m: Model, truth: TruthSpec, gamma: float, theta: float) -> tuple[float, float]:
    """Lower and upper bounds sandwiching the Kullback risk of the fitted pair.

    lower = max(bias, D/(4*gamma)); upper = bias + kappa*gamma^2*theta^2*D with
    kappa = 1 + 2/e, inf past the float range.  Requires the dimension bound to hold for the model.
    """
    check_constant("gamma", gamma)
    check_constant("theta", theta)
    if not _dimension_bound_holds(m.n, m.dim, gamma, theta):
        raise ValueError(
            f"dimension bound violated: n={m.n} < {theta / (theta - 1.0) * (gamma + 2.0) * m.dim:.1f}"
        )
    _, bias = best_approx(m, truth)
    lower = max(bias, m.dim / (4.0 * gamma))
    try:
        upper = bias + KAPPA * gamma**2 * theta**2 * m.dim
    except OverflowError:  # a Python float's ** raises where * gives inf
        upper = math.inf
    return lower, upper
