"""Independent re-implementation of the estimator, used to check program outputs.

It imports nothing from `heteroselect`.  It re-derives, from the paper's
definitions, what the CLI must print: the scenarios M1-M4, the admissible
dyadic collection, the penalized criterion and the Kullback loss.  The random
streams follow the program's documented substream rule, replication r of
scenario i reads `SeedSequence(seed, spawn_key=(i, r))`, so the reference sees
bit-identical data.  It is vectorised over replications through per-level
block statistics, so checking a run costs far less than the run.

Agreement with the program is to a stated relative tolerance (`RTOL`), not
bit for bit: sums are taken in another order here.
"""

from __future__ import annotations

import math

import numpy as np

THETA = 2.0
EPSILON = 0.01
DELTA = 3.0
FIT_GAMMA = 2.0
VARIANCE_FLOOR = 1e-12

#: Relative tolerance for ratios and standard errors printed by `table`.
RTOL = 1e-9


def _m1_mean(x):
    return np.select([x < 0.25, x < 0.5, x < 0.75], [4.0, 0.0, 2.0], default=1.0)


#: name -> (mean function, variance function, true variance-ratio bound), in table order.
SCENARIOS = {
    "M1": (_m1_mean, lambda x: np.where(x < 0.5, 2.0, 1.0), 2.0),
    "M2": (lambda x: 1.0 + np.sin(2.0 * np.pi * x + np.pi / 3.0), lambda x: np.ones_like(x), 1.0),
    "M3": (
        lambda x: 1.5 * x,
        lambda x: 0.5 + 2.0 * np.sin(4.0 * np.pi * np.minimum(x, 0.5) ** 2) / 3.0,
        7.0 / 3.0,
    ),
    "M4": (
        lambda x: 1.0 + np.sin(4.0 * np.pi * np.minimum(x, 0.5)),
        lambda x: (3.0 + np.sin(2.0 * np.pi * x)) / 2.0,
        2.0,
    ),
}


def truth(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    mean_fn, var_fn, _ = SCENARIOS[name]
    x = np.arange(1, n + 1) / n
    return mean_fn(x) * np.ones(n), var_fn(x) * np.ones(n)


def _log_power(x: float) -> float:
    return math.exp((1.0 + EPSILON) * math.log(math.log(x)))


def collection(n: int, gamma: float) -> list[tuple[int, int]]:
    """Admissible (coarse level k, per-block dimension d) pairs in canonical order."""
    k_n = n.bit_length() - 1
    cap_small = (THETA - 1.0) / THETA * n / (gamma + 2.0)
    cap_log = 5.0 * DELTA * gamma * n / _log_power(n)
    models = [
        (k, 2**j)
        for k in range(k_n + 1)
        for j in range(k_n - k + 1)
        if 2**k * (2**j + 1) <= cap_small and 2**k * (2**j + 1) <= cap_log
    ]
    return sorted(models, key=lambda m: (2 ** m[0] * (m[1] + 1), m[0]))


def _penalty(model: tuple[int, int], gamma: float) -> float:
    dim = 2 ** model[0] * (model[1] + 1)
    return (gamma * THETA + _log_power(dim)) * dim


def replicate_normals(seed: int, key: tuple[int, ...], n: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).standard_normal(2 * n)


class _Fits:
    """Fits of every model to R stacked replicate pairs, from per-level block statistics."""

    def __init__(self, y1: np.ndarray, y2: np.ndarray):
        self.y1, self.y2 = y1, y2
        self.reps, self.n = y1.shape
        self._levels: dict[int, tuple] = {}

    def _level(self, f: int):
        if f not in self._levels:
            out = []
            for y in (self.y1, self.y2):
                blocks = y.reshape(self.reps, 2**f, self.n >> f)
                mean = blocks.mean(axis=2)
                rss = ((blocks - mean[:, :, None]) ** 2).sum(axis=2)
                out.append((mean, rss))
            self._levels[f] = tuple(out)
        return self._levels[f]

    def fit(self, model: tuple[int, int]):
        """(fine-block means of y1, coarse-block variances, negative log-likelihood)."""
        k, d = model
        (mean1, rss1), (_, rss2) = self._level(k + d.bit_length() - 1)
        coarse = self.n >> k
        a = rss1.reshape(self.reps, 2**k, d).sum(axis=2)
        v = rss2.reshape(self.reps, 2**k, d).sum(axis=2) / coarse
        if np.any(v < VARIANCE_FLOOR):
            raise RuntimeError("degenerate variance in the reference fit")
        loglik = 0.5 * (a / v).sum(axis=1) + 0.5 * coarse * np.log(v).sum(axis=1)
        return mean1, v, loglik

    def kl(self, model: tuple[int, int], s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        mean1, v, _ = self.fit(model)
        mean = np.repeat(mean1, self.n // mean1.shape[1], axis=1)
        var = np.repeat(v, self.n >> model[0], axis=1)
        u = var / sigma
        return 0.5 * ((s - mean) ** 2 / var + np.log(u) + 1.0 / u - 1.0).sum(axis=1)


def _select(fits: _Fits, models: list[tuple[int, int]], gamma: float) -> np.ndarray:
    """Index into `models` of the chosen model per replicate (first minimum wins ties)."""
    crit = np.stack([fits.fit(m)[2] + _penalty(m, gamma) for m in models], axis=1)
    return crit.argmin(axis=1)


def _mean_se(losses: np.ndarray) -> tuple[float, float]:
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(len(losses)))


def table_rows(seed: int, n: int, reps: int, gammas: list[float]) -> list[tuple[str, float, float, float]]:
    """(scenario, gamma, ratio, std_error) rows of `heteroselect table --kind kullback`."""
    rows = []
    for i, name in enumerate(SCENARIOS):
        s, sigma = truth(name, n)
        z = np.stack([replicate_normals(seed, (i, r), n) for r in range(reps)])
        sd = np.sqrt(sigma)
        fits = _Fits(s + sd * z[:, :n], s + sd * z[:, n:])
        kl = {}
        for m in set(collection(n, SCENARIOS[name][2])).union(*(collection(n, g) for g in gammas)):
            kl[m] = fits.kl(m, s, sigma)
        oracle = [_mean_se(kl[m]) for m in collection(n, SCENARIOS[name][2])]
        best = min(range(len(oracle)), key=lambda j: (oracle[j][0], j))
        o_est, o_se = oracle[best]
        for g in gammas:
            models = collection(n, g)
            chosen = _select(fits, models, g)
            losses = np.array([kl[models[j]][r] for r, j in enumerate(chosen)])
            est, se = _mean_se(losses)
            ratio = est / o_est
            ratio_se = abs(ratio) * math.sqrt((se / est) ** 2 + (o_se / o_est) ** 2)
            rows.append((name, g, ratio, ratio_se))
    return rows


def fit_inputs(seed: int, n: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """One (name, y1, y2) dataset per scenario, drawn from the workload seed."""
    out = []
    for i, name in enumerate(SCENARIOS):
        s, sigma = truth(name, n)
        z = replicate_normals(seed, (1000 + i,), n)
        sd = np.sqrt(sigma)
        out.append((name, s + sd * z[:n], s + sd * z[n:]))
    return out


def fit_choice(y1: np.ndarray, y2: np.ndarray, gamma: float = FIT_GAMMA) -> dict:
    """What `heteroselect fit` must print for the chosen model.

    `model` is compared exactly, the scalars with `close`, and `mean` and
    `variance` (expanded to length n) with `far`; `scale` is the data scale
    used there as the floor of the relative tolerance.
    """
    n = len(y1)
    models = collection(n, gamma)
    fits = _Fits(y1[None, :], y2[None, :])
    k, d = models[int(_select(fits, models, gamma)[0])]
    mean1, v, loglik = fits.fit((k, d))
    pen = _penalty((k, d), gamma)
    return {
        "model": {"k_m": k, "d_m": d, "D_m": 2**k * (d + 1)},
        "mean": np.repeat(mean1[0], n // mean1.shape[1]),
        "variance": np.repeat(v[0], n >> k),
        "likelihood": float(loglik[0]),
        "penalty": pen,
        "criterion": float(loglik[0]) + pen,
        "scale": float(np.abs(y1).max()),
    }


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def far(got: np.ndarray, want: np.ndarray, scale: float, rtol: float = RTOL) -> np.ndarray:
    """Indices where `got` and `want` differ by more than `rtol` relative to max(|got|, |want|, scale).

    A block mean near zero carries the rounding error of sums of order
    `scale`, so that is the smallest magnitude the tolerance is taken against.
    """
    if got.shape != want.shape:
        return np.arange(max(got.size, 1))
    bound = rtol * np.maximum(np.maximum(np.abs(got), np.abs(want)), scale)
    return np.flatnonzero(~(np.abs(got - want) <= bound))
