"""Standalone verification oracles backing the property-test suite and `verify`.

These check the two technical ingredients the risk analysis rests on: an
inverse-moment bound for noncentral quadratic forms and the eigenvalue
localization of a variance matrix compressed by a projection, plus the exact
expectation of the blockwise variance estimator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimation import KAPPA, DegenerateVarianceError, TruthSpec, _fit_block, best_approx, prop1_bounds
from .model_space import (
    DELTA, EPSILON, THETA, CollectionConfig, Model, all_models, block_means, build_collection, check_reps,
    check_vector,
)
from .simlab import Scenario, SeedPolicy, _block_rows, _map, _mean_and_se, risk_profile


class InverseMomentCase(NamedTuple("InverseMomentCase", [("a", np.ndarray), ("b", np.ndarray)])):
    """Offsets a and scales b defining Z = sum_i (a_i + sqrt(b_i) * zeta_i)^2."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace`, which copies by `_make`, checks too

    def __new__(cls, a: np.ndarray, b: np.ndarray):
        a, b = check_vector("offsets a", a), check_vector("scales b", b, positive=True)
        if len(a) != len(b):
            raise ValueError("a and b must have equal length")
        if len(a) <= 2:
            raise ValueError("need n > 2 for the inverse moment to be finite")
        return super().__new__(cls, a, b)

    @property
    def n(self) -> int:
        return len(self.a)


class InverseMomentResult(NamedTuple):
    mc_estimate: float
    std_error: float
    bound: float
    holds: bool


def _gaussian_blocks(rng: np.random.Generator, reps: int, shift: np.ndarray, scale: np.ndarray):
    """Yield (first row, block) over reps rows of shift + scale * z, z standard normal, drawn
    from rng `_block_rows(n)` rows at a time into one reused buffer and transformed in place."""
    rows = _block_rows(len(scale))
    draws = np.empty((min(rows, reps), len(scale)))
    for first in range(0, reps, rows):
        block = rng.standard_normal(out=draws[: reps - first])
        np.multiply(scale, block, out=block)
        np.add(shift, block, out=block)
        yield first, block


def _inverse_forms(case: InverseMomentCase, reps: int, rng: np.random.Generator) -> np.ndarray:
    """1/Z for each of reps draws of Z, computed in place block by block with the
    operations of 1 / sum((a + sqrt(b) * z)**2) in their order."""
    inv = np.empty(reps)
    for first, z in _gaussian_blocks(rng, reps, case.a, np.sqrt(case.b)):
        out = inv[first : first + len(z)]
        np.square(z, out=z)
        np.sum(z, axis=1, out=out)
        np.divide(1.0, out, out=out)
    return inv


def lemma11_check(
    case: InverseMomentCase,
    reps: int,
    seeds: SeedPolicy,
    kappa: float = KAPPA,
) -> InverseMomentResult:
    """Monte Carlo check of E[1/Z] <= (1/E[Z]) * (1 + 2*kappa*(b_max/b_min)^2 / (n-2)); the bound
    is inf only when it is itself past the float range, not when (b_max/b_min)^2 alone is."""
    check_reps("reps", reps, 10_000)
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")
    estimate, se = map(float, _mean_and_se(_inverse_forms(case, reps, seeds.stream())))
    mean_z = float(np.sum(case.a**2 + case.b))
    ratio = float(case.b.max() / case.b.min())
    try:
        bound = (1.0 + 2.0 * kappa * ratio**2 / (case.n - 2)) / mean_z
    except OverflowError:  # a Python float's ** raises where * gives inf
        bound = math.inf
    if bound == math.inf:  # some step passed the float range: the same bound, without squaring the ratio
        bound = 1.0 / mean_z + 2.0 * kappa * ratio * (ratio / mean_z) / (case.n - 2)
    return InverseMomentResult(
        mc_estimate=estimate, std_error=se, bound=bound, holds=estimate <= bound + 3.0 * se
    )


class CompressedSpectrumResult(NamedTuple):
    tau_min: float
    tau_max: float
    holds: bool


#: Largest gap, relative to max sigma, allowed between the eigensolver's spectrum and the closed
#: form; backward-stable `eigvalsh` errs by about |J| * 2.2e-16 of it on a fine block J.
SPECTRUM_RTOL = 1e-9


def lemma10_check(sigma_diag: np.ndarray, m: Model) -> CompressedSpectrumResult:
    """Check that the nonzero eigenvalues of P*diag(sigma)*P stay inside [min sigma, max sigma].

    P is the blockwise-mean projection onto the fine blocks, so the matrix is block-diagonal:
    on a fine block J it is (1/|J|^2) * sum(sigma_J) * ones((|J|, |J|)).  Its spectrum is taken
    by `np.linalg.eigvalsh` of those blocks and must equal, within SPECTRUM_RTOL * max sigma,
    the closed form: one nonzero eigenvalue per fine block, the block's mean of sigma, and
    |J| - 1 zeros.  tau_min and tau_max span the eigensolver's nonzero eigenvalues.  The blocks
    take n * |J| floats, so the check is cheap for any n whose fine blocks are small.
    """
    sigma_diag = check_vector("sigma_diag", sigma_diag, positive=True)
    if len(sigma_diag) != m.n:
        raise ValueError(f"sigma_diag must have length {m.n}")
    size = m.n // m.num_fine
    proj = np.full((m.num_fine, size, size), 1.0 / size)
    spectrum = np.linalg.eigvalsh(proj @ (sigma_diag.reshape(m.num_fine, size, 1) * proj))  # ascending rows
    closed = np.zeros_like(spectrum)
    closed[:, -1] = block_means(sigma_diag, m.num_fine)
    tau = spectrum[:, -1]
    lo, hi = float(sigma_diag.min()), float(sigma_diag.max())
    tol = SPECTRUM_RTOL * hi
    agrees = bool(np.all(np.abs(spectrum - closed) <= tol))
    holds = agrees and bool(tau.min() >= lo - tol and tau.max() <= hi + tol)
    return CompressedSpectrumResult(tau_min=float(tau.min()), tau_max=float(tau.max()), holds=holds)


class VarianceMeanResult(NamedTuple):
    empirical: np.ndarray
    expected: np.ndarray
    std_error: np.ndarray
    holds: bool


def variance_mean_check(
    truth: TruthSpec,
    m: Model,
    reps: int,
    seeds: SeedPolicy,
) -> VarianceMeanResult:
    """Monte Carlo check of E[sigma_hat_I] = sigma_{m,I} * (1 - rho_I) on every coarse block.

    rho_I averages the projection diagonal (1/|J| on each fine block J) weighted by the true variances
    over the block, normalized by the best in-model variance.  Passes when every block's empirical mean
    is within 4 standard errors of the prediction.  The estimates of all draws are held for the
    reduction: one float per draw and coarse block.  A draw that `fit` refuses raises its error.
    """
    check_reps("reps", reps, 2)
    sigma_m_blocks = best_approx(m, truth)[0].block_variance
    diag_sigma = truth.sigma * (m.num_fine / m.n)
    rho = block_means(diag_sigma, m.num_coarse) / sigma_m_blocks
    expected = sigma_m_blocks * (1.0 - rho)

    sighats = np.empty((m.num_coarse, reps))
    for first, y2 in _gaussian_blocks(seeds.stream(), reps, truth.s, np.sqrt(truth.sigma)):
        [(_, sighat)], bad = _fit_block([m], y2, y2)
        if bad.any():
            raise DegenerateVarianceError
        sighats[:, first : first + len(y2)] = sighat.T
    empirical, se = _mean_and_se(sighats)
    holds = bool(np.all(np.abs(empirical - expected) <= 4.0 * se))
    return VarianceMeanResult(empirical=empirical, expected=expected, std_error=se, holds=holds)


def random_inverse_moment_cases(num_cases: int, seeds: SeedPolicy) -> list[InverseMomentCase]:
    """Random offset/scale pairs with scale ratio below 5 and n in {4, ..., 64}."""
    rng = seeds.stream()
    cases = []
    for _ in range(num_cases):
        n = int(rng.integers(4, 65))
        a = rng.normal(0.0, 2.0, size=n)
        b = np.exp(rng.uniform(0.0, math.log(5.0), size=n))
        b *= rng.uniform(0.2, 5.0)
        cases.append(InverseMomentCase(a=a, b=b))
    return cases


def lemma11_battery(
    num_cases: int,
    reps: int,
    seeds: SeedPolicy,
    kappa: float = KAPPA,
) -> list[InverseMomentResult]:
    """`lemma11_check` on random cases, each on its own seed namespace, the cases run through
    `_map` at any n: a case draws a whole block per `standard_normal` call, so its
    GIL-holding Python is per block, not per draw."""
    cases = random_inverse_moment_cases(num_cases, seeds.namespaced(0))
    return _map(lambda i: lemma11_check(cases[i], reps, seeds.namespaced(1 + i), kappa=kappa), range(len(cases)))


def lemma10_battery(num_cases: int, n: int, seeds: SeedPolicy) -> list[CompressedSpectrumResult]:
    """Random (variance diagonal, model) pairs, the model drawn from `all_models(n)`."""
    rng = seeds.stream()
    models = all_models(n)
    results = []
    for _ in range(num_cases):
        m = models[int(rng.integers(len(models)))]
        sigma_diag = np.exp(rng.normal(0.0, 1.0, size=n))
        results.append(lemma10_check(sigma_diag, m))
    return results


class SandwichEntry(NamedTuple):
    model: Model
    lower: float
    upper: float
    risk: float
    std_error: float
    holds: bool


def prop1_sandwich_check(
    scenario: Scenario,
    n: int,
    reps: int,
    seeds: SeedPolicy,
    theta: float = THETA,
    epsilon: float = EPSILON,
    delta: float = DELTA,
) -> list[SandwichEntry]:
    """Check the risk sandwich for every model of the scenario's collection at its true gamma.

    The Monte Carlo Kullback risk of each fixed model must lie within
    [lower - 3se, upper + 3se] of its analytic bounds.
    """
    cfg = CollectionConfig(n, scenario.true_gamma, theta, epsilon, delta)
    collection = build_collection(cfg)
    truth = scenario.truth(n)
    reports = risk_profile(scenario, collection, reps, seeds, "kullback")
    entries = []
    for m, rep in zip(collection, reports):
        lower, upper = prop1_bounds(m, truth, cfg.gamma, cfg.theta)
        holds = lower - 3.0 * rep.std_error <= rep.estimate <= upper + 3.0 * rep.std_error
        entries.append(
            SandwichEntry(
                model=m,
                lower=lower,
                upper=upper,
                risk=rep.estimate,
                std_error=rep.std_error,
                holds=bool(holds),
            )
        )
    return entries
