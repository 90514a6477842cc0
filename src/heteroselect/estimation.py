"""Paired mean/variance estimators, the Kullback-Leibler divergence and risk bounds.

The mean is estimated from the first replicate by projection, the variance from
the second replicate by averaging squared projection residuals over each coarse
block.  Splitting the data keeps the two estimators independent.

All fit arithmetic lives here, in the block kernel's passes over an (R, n) block:
`_fit_block` fits a model collection, and is the only code that fits (`fit`,
`select(cfg, obs)`, the lab and `variance_mean_check` are its cases);
`_block_likelihoods` ranks the fits exactly, for `select`'s audit of every model;
`_block_screen` ranks them for the lab, from coarse block sums of the exact pass's own
squared errors with a bound on the rounding, so that the lab needs exact likelihoods only
where that bound cannot decide a pick; `_block_losses` scores the fits that are read; and
`_loss_screen` gives every fit's loss by coarse block in closed form, with a bound on the rounding,
so that the lab's oracle needs exact losses only for the models that can be its pick.
The loss pass takes each whole term once per cell of a step truth (a stretch of a fine
block on which the true mean and variance are constant), or else the terms that depend
only on the variance once per run of equal true variance within a coarse block, and
writes them to the points with one `np.repeat`, bit-identical to `kl_divergence`'s
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


class Observations(NamedTuple("Observations", [("y1", np.ndarray), ("y2", np.ndarray)])):
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


class TruthSpec(NamedTuple("TruthSpec", [("s", np.ndarray), ("sigma", np.ndarray)])):
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
    return float(_block_log_likelihood((y1 - mean) ** 2, variance))


def fit(m: Model, obs: Observations) -> Estimate:
    """Fit the model: projected first replicate for the mean, blockwise residual
    variance of the second replicate for the variance.  The one-model, one-row case of `_fit_block`."""
    if obs.n != m.n:
        raise ValueError(f"observations have length {obs.n}, model expects {m.n}")
    [(block_mean, block_var)], bad = _fit_block([m], obs.y1[None], obs.y2[None])
    if bad[0]:
        raise DegenerateVarianceError
    return Estimate(m, block_mean[0], block_var[0])


# Unchecked kernels along the last axis.  The public functions above call them on
# one vector or one row and the block passes below on an (R, n) block of replications,
# so each quantity has one formula and a batched row equals the scalar value bit for bit.


def _squared_residuals(y: np.ndarray, block_values: np.ndarray, out: np.ndarray):
    """(y - expand(block_values, n)) ** 2 along the last axis, written into out.

    The block values are broadcast over their blocks, not expanded; y may be one
    vector and block_values rows.
    """
    blocks = block_values.shape[-1]
    view = _blocks(out, blocks)
    np.subtract(_blocks(y, blocks), block_values[..., None], out=view)
    np.square(view, out=view)
    return out


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


def _runs(blocks: int, *vectors):
    """The runs of the truth vectors on `blocks` equal blocks: the cells of the common refinement of
    the blocks and the runs of equal neighbouring values of each vector, in order.

    Returns (the first point of each run, its length), or None when every point is its own run.
    """
    n = len(vectors[0])
    start = np.zeros(n, dtype=bool)
    for v in vectors:
        start[1:] |= v[1:] != v[:-1]
    start[:: n // blocks] = True
    first = np.flatnonzero(start)
    if len(first) == n:
        return None
    return first, np.diff(first, append=n)


def _run_loss(kind: str, sigma, runs, sq_err, block_var, out):
    """`_loss` of a kind with variance terms, 'kullback' or 'quadratic_variance', for variances
    given per coarse block, block_var (rows, blocks).

    runs is `_runs(blocks, sigma)`: the variance terms are taken once per run and `np.repeat`
    writes each to its points, or they are taken once per point when runs is None.  out is two
    (rows, n) arrays for the per-point terms.  Every term equals its value in `_loss` on the
    expanded variance: a variance and a sigma that compare equal are equal bit for bit, so each
    term comes from the same IEEE operations on the same inputs, and the same contiguous (rows, n)
    terms are summed.
    """
    terms, scratch = out
    blocks = block_var.shape[-1]
    if runs is None:
        np.copyto(_blocks(terms, blocks), block_var[..., None])
        var_terms = _variance_terms(kind, sigma, terms, out=(scratch, terms))
    else:
        first, length = runs
        variance = np.take(block_var, first // (len(sigma) // blocks), axis=-1)
        var_terms = np.repeat(_variance_terms(kind, sigma[first], variance, out=(None, variance)), length, axis=-1)
    if kind == "quadratic_variance":
        return np.add.reduce(var_terms, axis=-1)
    np.divide(_blocks(sq_err, blocks), block_var[..., None], out=_blocks(terms, blocks))
    return 0.5 * np.add.reduce(np.add(terms, var_terms, out=terms), axis=-1)


def _cell_loss(kind: str, sigma, cells, cell_err, block_var):
    """`_loss` of 'kullback' or 'quadratic_mean' on the cells (first, length) of a fine partition,
    `_runs(fine, s, sigma)`, from the squared mean errors per cell, cell_err (rows, cells), and the
    variances per coarse block, block_var (rows, blocks).

    The whole term is taken once per cell, by `_loss`'s IEEE operations in its order, and `np.repeat`
    writes it to the cell's points, so the same contiguous (rows, n) terms are summed.  Values of s
    that compare equal give equal squared errors, bit for bit: (s - m) ** 2 is +0 for either sign
    of a zero s - m.
    """
    first, length = cells
    terms = cell_err
    if kind == "kullback":
        variance = np.take(block_var, first // (len(sigma) // block_var.shape[-1]), axis=-1)
        terms = np.divide(cell_err, variance)
        np.add(terms, _variance_terms(kind, sigma[first], variance, out=(None, variance)), out=terms)
    total = np.add.reduce(np.repeat(terms, length, axis=-1), axis=-1)
    return total if kind == "quadratic_mean" else 0.5 * total


def _fit_block(models: Sequence[Model], y1: np.ndarray, y2: np.ndarray):
    """Fit every model to each row of an (R, n) block, the only code that fits: (fits, bad).

    fits[j] is model j's (y1 block means (R, fine), variance per coarse block (R, coarse)), and bad[r]
    whether row r is degenerate for any model; from the first model that finds it so, its variances
    read 1.0, to keep finite the arithmetic of callers, who raise, discard or redraw it.  Each stretch
    of models on one fine partition (in `all_models`' order, one per partition) shares one means array
    and one fill of the (R, n) buffer r2.  Nothing is kept between calls.
    """
    bad = np.zeros(len(y1), dtype=bool)
    fits = []
    r2 = np.empty(y1.shape)
    num_fine = None
    for m in models:
        if m.num_fine != num_fine:
            num_fine = m.num_fine
            block_mean = block_means(y1, num_fine)
            _squared_residuals(y2, block_means(y2, num_fine), out=r2)
        block_var = block_means(r2, m.num_coarse)
        bad |= (block_var < VARIANCE_FLOOR).any(axis=-1)
        if bad.any():
            block_var = np.where(bad[:, None], 1.0, block_var)
        fits.append((block_mean, block_var))
    return fits, bad


def _block_likelihoods(y1: np.ndarray, fits) -> np.ndarray:
    """lik[r, j], `log_likelihood` of row r of y1 under fits[j] of `_fit_block`, the squared
    errors taken once for each stretch of fits that share a means array."""
    lik = np.empty((len(y1), len(fits)))
    y1_err, terms = np.empty((2,) + y1.shape)
    means = None
    for j, (block_mean, block_var) in enumerate(fits):
        if block_mean is not means:
            means = block_mean
            _squared_residuals(y1, means, out=y1_err)
        lik[:, j] = _block_log_likelihood(y1_err, block_var, out=terms)
    return lik


def _block_screen(y1: np.ndarray, fits):
    """(approx, slack)[r, j]: lik[r, j] of `_block_likelihoods(y1, fits)` taken by coarse block, and a
    bound slack >= |approx - lik| on the rounding of either, for the lab to rank by.

    Both take the same rounded squared errors e_i = (y1 - block mean) ** 2 of `_squared_residuals`,
    once per fine partition, and np.log of the same coarse block variances v, L = log v.  The
    exact pass halves the sum of fl(fl(e_i / v) + L) over a row's n points.  The screen sums e_i
    into fine blocks, one reduce per fine partition, then adds neighbouring block sums in pairs,
    level by level, into each coarse block I, as S_I.  It halves the sum over the blocks of
    fl(fl(S_I / v) + |I| * L), where |I| is a power of two, so |I| * L is exact.  The per-fit
    arithmetic runs on all fits' coarse blocks side by side, and `np.add.reduceat` sums each
    fit's segment.

    The bound holds for any order of addition.  Each term of a sum of m terms goes through at most
    m - 1 additions (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2), so a
    computed sum is the sum of its terms, each times some (1 + theta_k) with |theta_k| <= gamma_k =
    k u / (1 - k u), u = 2**-53, where k counts that term's roundings.  In the exact pass, e_i / v
    goes through k <= (n - 1) + 2 roundings and L through n.  In the screen, with c coarse blocks,
    e_i goes through (|I| - 1) + 2 + (c - 1), as the fine sums and their merges are one sum of |I|
    terms, and |I| L through c.  Their deviations from 0.5 * sum_i (e_i / v + L) add up to at most
    0.5 gamma_K B, with B = sum_i e_i / v + sum_I |I| |L| and K = n + 1 + |I| + c, at most 2n + 2
    for every fit, as |I| c = n.  The sum X of fl(fl(S_I / v) + |I| |L|), summed as the
    approximation is, is at least (1 - gamma_K) B.  So |approx - lik| <= 0.5 gamma_K X / (1 - gamma_K)
    <= (K + 1) u X with K = 2n + 2, with room for the rounding of that product while K u < 1/4.  An
    operation whose result underflows errs by up to 2**-1075 instead; at most n + c + 3 of them do.  So
    slack = (K + 1) u X + (n + c + 3) 2**-1074.  It does not grow with the data's offset,
    because both sides sum the same rounded errors.  X is taken as X + X, so a sum past half the
    float range makes the slack inf, and the row's pick exact: the exact pass's partial sums stay
    below about X, and so finite.  Non-finite values raise no warning, as the picks route their
    rows to `_block_likelihoods`.
    """
    n = y1.shape[-1]
    y1_err = np.empty(y1.shape)
    sums, means = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for block_mean, block_var in fits:
            fine, coarse = block_mean.shape[-1], block_var.shape[-1]
            if block_mean is not means:
                means = block_mean
                _squared_residuals(y1, means, out=y1_err)
                level = {fine: np.add.reduce(_blocks(y1_err, fine), axis=-1)}
            while coarse not in level:
                s = level[min(level)]
                level[s.shape[-1] // 2] = s[:, ::2] + s[:, 1::2]
            sums.append(level[coarse])
        coarse = np.array([v.shape[-1] for _, v in fits])
        starts = np.cumsum(coarse) - coarse
        var = np.concatenate([v for _, v in fits], axis=-1)
        q = np.divide(np.concatenate(sums, axis=-1), var)
        p = np.multiply(np.log(var, out=var), np.repeat(n // coarse, coarse), out=var)
        approx = 0.5 * np.add.reduceat(q + p, starts, axis=-1)
        x = np.add.reduceat(np.add(q, np.abs(p, out=p), out=q), starts, axis=-1)
        slack = (x + x) * ((2 * n + 3) * 2.0**-54) + (n + coarse + 3) * 2.0**-1074
    return approx, slack


def _block_losses(fits, truth: TruthSpec, kind: str) -> np.ndarray:
    """losses[r, j], the loss `kind` against truth of row r of fits[j] of `_fit_block`.

    The squared errors of truth.s are taken once for each stretch of fits that share a means
    array.  A step truth is scored per cell: where the fine partition of a stretch has fewer
    cells `_runs(fine, truth.s, truth.sigma)` than points, 'kullback' and 'quadratic_mean' take
    each whole term once per cell (`_cell_loss`); a mean that changes at every point has none, and is
    tested for once per call.  Otherwise the terms are taken per point, into
    three (R, n) buffers allocated once per call, and the variance terms once per run of
    `_runs(coarse, truth.sigma)` (`_run_loss`), found once per coarse level.  Both expand by
    `np.repeat`, whose result is a new array, as it has no out=; it measured faster than a `take`
    into a reused buffer: 20-26 us against 49-50 us for a (64, 1024) expansion from at most 67
    cells (2 shared vCPUs, numpy 2.4).
    """
    n, rows = truth.n, len(fits[0][0])
    losses = np.empty((rows, len(fits)))
    s_err, terms, scratch = np.empty((3, rows, n))
    sigma_runs = {}
    pointwise = bool((truth.s[1:] != truth.s[:-1]).all())  # then every point is its own cell
    means = cells = None
    for j, (block_mean, block_var) in enumerate(fits):
        if block_mean is not means and kind != "quadratic_variance":
            means, fine = block_mean, block_mean.shape[-1]
            cells = None if pointwise else _runs(fine, truth.s, truth.sigma)
            if cells is None:
                _squared_residuals(truth.s, means, out=s_err)
            else:
                first = cells[0]
                cell_err = np.square(np.subtract(truth.s[first], np.take(means, first // (n // fine), axis=-1)))
        if cells is not None:
            losses[:, j] = _cell_loss(kind, truth.sigma, cells, cell_err, block_var)
        elif kind == "quadratic_mean":
            losses[:, j] = _loss(kind, truth, s_err, None)
        else:
            coarse = block_var.shape[-1]
            if coarse not in sigma_runs:
                sigma_runs[coarse] = _runs(coarse, truth.sigma)
            losses[:, j] = _run_loss(kind, truth.sigma, sigma_runs[coarse], s_err, block_var, (terms, scratch))
    return losses


#: The loss screen's allowance for the error of `np.log`: |np.log(x) - log x| <= LOG_ALLOWANCE * (|log x| + 1)
#: for every positive normal x.  That is 4,096 ulps of the result, or of 1 near x = 1, a thousand times the
#: 4 ulps that numpy documents for its own SIMD log, and glibc's log is within 1.
LOG_ALLOWANCE = 2.0**-40


def _loss_screen(fits, truth: TruthSpec, kind: str):
    """(approx, slack)[r, j]: losses[r, j] of `_block_losses(fits, truth, kind)` taken by coarse block
    in closed form, and a bound slack >= |approx - losses| on the rounding of either, for the lab's oracle.

    Both take the same rounded squared errors e_i = (truth.s - block mean) ** 2 of `_squared_residuals`,
    once per fine partition (not for 'quadratic_variance'), and the same coarse block variances v.  The
    screen sums e_i into fine blocks and adds neighbouring block sums in pairs into each coarse block I,
    as S_I, as `_block_screen` does, and takes the sums of sigma, sigma ** 2, log sigma and |log sigma|
    over I once per coarse level in each call.  Then, with |I| a power of two:
    - 'kullback', 0.5 sum_i (e_i / v + log(v / sigma_i) + sigma_i / v - 1), by block:
      0.5 sum_I ((S_I + sum_I sigma) / v + |I| log v - sum_I log sigma - |I|);
    - 'quadratic_mean', sum_I S_I;
    - 'quadratic_variance', sum_i (sigma_i - v) ** 2, by block:
      sum_I (sum_I sigma ** 2 - 2 v sum_I sigma + |I| v ** 2).
    The per-fit arithmetic runs on all fits' coarse blocks side by side, and `np.add.reduceat` sums
    each fit's segment.

    The bound holds for any order of addition (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 4.2).  Write each loss as a signed sum of nonnegative atoms: e_i / v, sigma_i / v, |log v|,
    |log sigma_i| and 1 per point for 'kullback'; e_i for 'quadratic_mean'; sigma_i ** 2, 2 v sigma_i
    and v ** 2 for 'quadratic_variance' (whose term (sigma_i - v) ** 2 is at most their sum).  Let X be
    their sum over a row's n points, taken by block as the screen takes its terms.  A computed sum is the
    sum of its atoms, each times some (1 + theta_k) with |theta_k| <= gamma_k = k u / (1 - k u), u =
    2**-53, where k counts the roundings on the atom's way.  The loss pass's terms go through at most 5
    roundings (fl(v / sigma) shifts log by at most 1.01 u, an atom 1 times theta_2; fl(1 / fl(v / sigma))
    rounds sigma / v twice) and then n - 1 additions; the screen's atoms go through at most |I| - 1
    additions into their block sums, 5 operations on those and c - 1 additions over the c coarse blocks,
    and |I| + c <= n + 1.  So each side is within 0.5 gamma_K X of the exact real loss ('kullback' halves
    it), with K = n + 4 for every kind.  Then `np.log`: the loss pass takes it of n ratios, the screen
    of n sigmas and c variances, the latter times |I|.  Each errs by at most LOG_ALLOWANCE (|log x| + 1),
    and |log fl(v / sigma)| <= |log v| + |log sigma| + 2 u; with the atoms 1 (n of them) that adds at most
    3 LOG_ALLOWANCE X to the two sides' 0.5-weighted gap.  So |approx - losses| <= (gamma_K + 3 LOG_ALLOWANCE)
    X_real, and the computed X is at least (1 - gamma_K - LOG_ALLOWANCE) X_real, more than X_real / 2
    by far.  A product or quotient whose result underflows errs by up to 2**-1075 instead; at most
    3n + 3c + 2 of them do on the two sides.  So slack = (X + X) ((K + 1) u + 2 LOG_ALLOWANCE) +
    (2n + 2c + 2) 2**-1074, with room for the rounding of the slack itself.  A sum past half the float
    range makes the slack inf, and the oracle exact: the loss pass's partial sums stay below about X.
    Non-finite values raise no warning, as the oracle sends every model to `_block_losses` then.
    """
    n, rows = truth.n, len(fits[0][0])
    coarse = np.array([v.shape[-1] for _, v in fits])
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "kullback":
            log_sigma = np.log(truth.sigma)
            points = np.stack([truth.sigma, log_sigma, np.abs(log_sigma)])
        else:
            points = np.stack([truth.sigma, np.square(truth.sigma)])
        moments = {c: np.add.reduce(_blocks(points, c), axis=-1) for c in set(coarse.tolist())}
        sums = []
        if kind != "quadratic_variance":
            s_err = np.empty((rows, n))
            means = None
            for block_mean, block_var in fits:
                if block_mean is not means:
                    means = block_mean
                    _squared_residuals(truth.s, means, out=s_err)
                    level = {means.shape[-1]: np.add.reduce(_blocks(s_err, means.shape[-1]), axis=-1)}
                while block_var.shape[-1] not in level:
                    s = level[min(level)]
                    level[s.shape[-1] // 2] = s[:, ::2] + s[:, 1::2]
                sums.append(level[block_var.shape[-1]])
            sums = np.concatenate(sums, axis=-1)
        starts = np.cumsum(coarse) - coarse
        size = np.repeat(n // coarse, coarse)
        var = np.concatenate([v for _, v in fits], axis=-1)
        block = np.concatenate([moments[c] for c in coarse.tolist()], axis=-1)
        if kind == "kullback":
            sigma, log_sigma, abs_log_sigma = block
            q = np.divide(np.add(sums, sigma, out=sums), var, out=sums)
            p = np.multiply(size, np.log(var, out=var), out=var)
            value = q + p - log_sigma - size
            magnitude = np.add(np.add(q, np.abs(p, out=p), out=q), abs_log_sigma + size, out=q)
        elif kind == "quadratic_mean":
            value = magnitude = sums
        else:
            sigma, sigma2 = block
            cross = np.multiply(var + var, sigma)
            square = np.multiply(size, np.square(var, out=var), out=var)
            value = sigma2 - cross + square
            magnitude = np.add(np.add(cross, sigma2, out=cross), square, out=cross)
        approx = np.add.reduceat(value, starts, axis=-1)
        if kind == "kullback":
            approx *= 0.5
        x = np.add.reduceat(magnitude, starts, axis=-1)
        slack = (x + x) * ((n + 5) * 2.0**-53 + 2.0 * LOG_ALLOWANCE) + (2 * n + 2 * coarse + 2) * 2.0**-1074
    return approx, slack


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
