import itertools
import math
import re

import numpy as np
import pytest

from heteroselect import model_space, oracle_checks, simlab
from heteroselect.estimation import Observations, TruthSpec, kl_divergence, log_likelihood
from heteroselect.model_space import (
    CollectionConfig,
    EmptyCollectionError,
    Model,
    _blocks,
    all_models,
    block_means,
    build_collection,
    expand,
    log_power,
    project,
)
from heteroselect.oracle_checks import InverseMomentCase, lemma10_check, lemma11_check, variance_mean_check
from heteroselect.simlab import (
    SeedPolicy, convergence_experiment, get_scenario, lipschitz_scenario, mc_risk, selection_frequency,
)


def test_partition_blocks_cover_and_are_equal_sized():
    labels = expand(np.arange(4), 16)
    # every index belongs to exactly one block, blocks are consecutive and equal-sized
    assert len(labels) == 16
    np.testing.assert_array_equal(labels, np.arange(16) // 4)
    np.testing.assert_array_equal(np.bincount(labels.astype(int)), [4, 4, 4, 4])


def test_partition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Model(8, -1, 1)
    with pytest.raises(ValueError):
        Model(12, 0, 1)
    with pytest.raises(ValueError):
        Model(8, 4, 1)
    with pytest.raises(ValueError):
        Model(8, 1, 8)  # 2 coarse blocks of 4 cannot hold 8 fine blocks each


@pytest.mark.parametrize("level", [1.0, 1.5, -0.0, math.log2(4)])
def test_model_rejects_a_level_that_is_not_an_integer(level):
    with pytest.raises(ValueError, match="level must be a nonnegative integer"):
        Model(1024, level, 2)


def test_model_dimension_formula():
    m = Model(1024, 2, 2)
    assert m.dim == 4 * 3 == 12
    assert Model(np.int64(1024), 2, np.int64(2)).dim == 12  # numpy integers are sizes too


@pytest.mark.parametrize("field", ["gamma", "theta", "epsilon", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_constants(field, value):
    constants = {"gamma": 2.0, "theta": 2.0, "epsilon": 0.01, "delta": 3.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        CollectionConfig(1024, **constants)


def test_model_rejects_non_power_of_two_dim():
    with pytest.raises(ValueError):
        Model(16, 1, 3)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CollectionConfig(1024.0, 2.0, 2.0, 0.01, 3.0), "n must be a power of two, got 1024.0"),
        (lambda: Model(64.0, 0, 1), "n must be a power of two, got 64.0"),
        (lambda: Model(64, 0, 2.0), "per_block_dim must be a power of two, got 2.0"),
    ],
    ids=["config-n", "model-n", "model-per_block_dim"],
)
def test_float_sizes_are_not_powers_of_two(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Model(8, True, 2), "level must be a nonnegative integer, got True"),
        (lambda: Model(8, False, 2), "level must be a nonnegative integer, got False"),
        (lambda: Model(True, 0, 1), "n must be a power of two, got True"),
        (lambda: Model(8, 0, True), "per_block_dim must be a power of two, got True"),
        (lambda: CollectionConfig(True, 2.0, 2.0, 0.01, 3.0), "n must be a power of two, got True"),
        (lambda: CollectionConfig(8, True, 2.0, 0.01, 3.0), "gamma must be finite, got True"),
        (lambda: CollectionConfig(8, 2.0, 2.0, 0.01, np.True_), "delta must be finite, got True"),
        (lambda: all_models(True), "n must be a power of two, got True"),
        (lambda: model_space.check_reps("reps", True, 1), "reps must be an integer, got True"),
        (lambda: model_space.check_reps("reps", False, 0), "reps must be an integer, got False"),
    ],
    ids=[
        "model-level", "model-level-false", "model-n", "model-per_block_dim", "config-n", "config-gamma",
        "config-numpy-delta", "all_models", "reps", "reps-false",
    ],
)
def test_bools_are_not_integers_or_constants(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_fine_blocks_nest_in_coarse_blocks():
    m = Model(32, 2, 4)
    coarse = expand(np.arange(m.num_coarse), m.n)
    fine = expand(np.arange(m.num_fine), m.n)
    assert m.num_fine == 4 * m.num_coarse
    # fine blocks 4i, ..., 4i+3 exactly cover coarse block i
    np.testing.assert_array_equal(fine // 4, coarse)


def brute_force_collection(cfg):
    """Independent enumeration of the admissible (k, d) pairs."""
    k_n = int(math.log2(cfg.n))
    out = set()
    for k in range(k_n + 1):
        for j in range(k_n - k + 1):
            d = 2**j
            dim = 2**k * (d + 1)
            ok_small = cfg.n >= cfg.theta / (cfg.theta - 1) * (cfg.gamma + 2) * dim
            ok_log = dim <= 5 * cfg.delta * cfg.gamma * cfg.n / math.log(cfg.n) ** (1 + cfg.epsilon)
            if ok_small and ok_log:
                out.add((k, d))
    return out


def ordered_brute_force_collection(cfg):
    """The brute-force pairs in canonical order: ascending D, then fewer coarse blocks."""
    return sorted(brute_force_collection(cfg), key=lambda kd: (2 ** kd[0] * (kd[1] + 1), 2 ** kd[0]))


@pytest.mark.parametrize("n", [1, 2, 64])
def test_all_models_lists_every_model_once_in_order(n):
    valid = []
    for k in range(8):
        for d in range(1, n + 1):
            try:
                Model(n, k, d)
            except ValueError:
                continue
            valid.append((k, d))
    models = all_models(n)
    assert len(models) == len(valid)
    assert sorted((m.level, m.per_block_dim) for m in models) == sorted(valid)
    dims = [m.dim for m in models]
    assert dims == sorted(set(dims))  # canonical order: ascending D, no two models share a D


def test_all_models_is_built_once_per_n():
    assert isinstance(all_models(64), tuple)
    assert all_models(64) is all_models(64)
    assert all_models(1024) is all_models(1024)


@pytest.mark.parametrize("n", [0, 1024.0])
def test_all_models_rejects_a_size_that_is_not_a_power_of_two(n):
    with pytest.raises(ValueError, match=f"n must be a power of two, got {n}"):
        all_models(n)


def test_build_collection_n16_single_model():
    coll = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    assert [(m.level, m.per_block_dim, m.dim) for m in coll] == [(0, 1, 2)]


def test_build_collection_n1024_dimension_cap():
    coll = build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
    assert all(m.dim <= 128 for m in coll)


@pytest.mark.parametrize("gamma,theta", [(1.0, 2.0), (2.0, 2.0), (3.0, 1.5)])
def test_build_collection_matches_brute_force(gamma, theta):
    cfg = CollectionConfig(1024, gamma, theta, 0.01, 3.0)
    coll = build_collection(cfg)
    assert {(m.level, m.per_block_dim) for m in coll} == brute_force_collection(cfg)


def test_build_collection_canonical_order():
    coll = build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
    keys = [(m.dim, m.num_coarse) for m in coll]
    assert keys == sorted(keys)
    # deterministic: rebuilding gives the identical sequence
    again = build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
    assert [(m.level, m.per_block_dim) for m in again] == [(m.level, m.per_block_dim) for m in coll]


def test_build_collection_empty_is_an_error():
    with pytest.raises(EmptyCollectionError):
        build_collection(CollectionConfig(4, 1.0, 2.0, 0.01, 3.0))


@pytest.mark.parametrize("epsilon", [0.01, 1000.0, 3000.0, 1e300])
def test_build_collection_at_n2_is_empty_when_the_log_power_underflows(epsilon):
    # log log 2 < 0, so (log 2)^(1+epsilon) reaches 0.0 from epsilon ~2,000 on: an unbounded cap.
    assert (log_power(2, epsilon) == 0.0) == (epsilon > 2000)
    with pytest.raises(EmptyCollectionError, match="^no admissible model for n=2,"):
        build_collection(CollectionConfig(2, 2.0, 2.0, epsilon, 3.0))


def test_build_collection_returns_a_new_list_each_call():
    cfg = CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0)
    first = build_collection(cfg)
    expected = list(first)
    first.reverse()
    first.append(Model(1024, 0, 1))
    second = build_collection(cfg)
    assert second is not first
    assert second == expected
    second.clear()
    assert build_collection(cfg) == expected


@pytest.mark.parametrize("n", [16, 64, 1024, 65536])
@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 7.0 / 3.0, 3.0])
def test_build_collection_equals_an_uncached_recomputation(n, gamma):
    cfg = CollectionConfig(n, gamma, 2.0, 0.01, 3.0)
    expected = ordered_brute_force_collection(cfg)
    model_space.all_models.cache_clear()
    for calls in (1, 2):  # all_models(n) is a miss, then a hit
        if expected:
            assert [(m.level, m.per_block_dim) for m in build_collection(cfg)] == expected
        else:
            with pytest.raises(EmptyCollectionError):
                build_collection(cfg)
        info = model_space.all_models.cache_info()
        assert (info.misses, info.hits) == (1, calls - 1)


def test_build_collection_sweep_equals_the_brute_force():
    # Every power of two up to 2**20 under a grid of constants: the collection is the
    # admissible set in (dim, num_coarse) order, or empty (n=1 admits no model).
    for e, gamma, theta, epsilon, delta in itertools.product(
        range(21), [1.0, 1.25, 1.5, 2.0, 7.0 / 3.0, 2.5, 3.0, 10.0], [1.1, 2.0, 5.0], [0.01, 1.0], [0.1, 3.0]
    ):
        cfg = CollectionConfig(2**e, gamma, theta, epsilon, delta)
        expected = ordered_brute_force_collection(cfg) if e > 0 else []
        try:
            got = [(m.level, m.per_block_dim) for m in build_collection(cfg)]
        except EmptyCollectionError:
            got = []
        assert got == expected, cfg


def test_int_and_float_constants_give_equal_collections():
    for n in (64, 1024):
        model_space.all_models.cache_clear()
        by_int = build_collection(CollectionConfig(n, 2, 2, 0.01, 3))
        by_float = build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0))
        assert by_float == by_int
        model_space.all_models.cache_clear()
        assert build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0)) == by_int


def test_numpy_integer_n_gives_the_int_collection_and_risk():
    for n in (64, 1024):
        by_numpy, by_int = (CollectionConfig(size, 2.0, 2.0, 0.01, 3.0) for size in (np.int64(n), n))
        assert build_collection(by_numpy) == build_collection(by_int)
    by_numpy, by_int = (CollectionConfig(size, 2.0, 2.0, 0.01, 3.0) for size in (np.int64(64), 64))
    sc = get_scenario("M1")
    assert mc_risk(sc, by_numpy, 50, SeedPolicy(3)) == mc_risk(sc, by_int, 50, SeedPolicy(3))
    # The float 1024.0 is no size, though it hashes like 1024.
    with pytest.raises(ValueError, match="^n must be a power of two, got 1024.0$"):
        all_models(1024.0)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("rows", [None, 3])
def test_block_means_equals_the_mean_bit_for_bit(rows):
    n = 64
    rng = np.random.default_rng(11)
    shape = (n,) if rows is None else (rows, n)
    # Signed zeros, subnormals, values near 1e300 and ordinary ones, mixed within blocks.
    pool = np.array([-0.0, 0.0, 5e-324, -2.5e-320, 1e300, -9.9e299, 7.3e299, 1.0, -3.25, 1e-8])
    values = [
        pool[rng.integers(len(pool), size=shape)],
        rng.integers(-7, 8, size=shape) * 5e-324,  # subnormals only: each mean rounds once
        rng.normal(size=shape) * 1e300,
        np.full(shape, -0.0),
    ]
    if rows is not None:
        # The (R, n) views of one (R, 2, n) buffer that the lab hands the kernel.
        values.append(rng.normal(size=(rows, 2, n))[:, 1])
    for y in values:
        for blocks in (2**k for k in range(n.bit_length())):
            got = block_means(y, blocks)
            want = _blocks(y, blocks).mean(axis=-1)
            assert got.shape == want.shape == shape[:-1] + (blocks,)
            assert np.array_equal(_bits(got), _bits(want))


def test_project_blockwise_means():
    m = Model(4, 0, 2)  # fine: 2 blocks of 2
    np.testing.assert_allclose(project(m, [1, 3, 5, 7]), [2, 2, 6, 6])


def test_project_global_mean():
    m = Model(4, 0, 1)  # fine: 1 block of 4
    np.testing.assert_allclose(project(m, [1, 2, 3, 4]), [2.5] * 4)


def test_project_fixed_point():
    m = Model(8, 1, 2)
    y = np.repeat([1.0, -2.0, 3.0, 0.5], 2)
    np.testing.assert_array_equal(project(m, y), y)


def test_project_length_mismatch():
    with pytest.raises(ValueError):
        project(Model(8, 0, 1), np.zeros(4))


def test_project_idempotent_and_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = Model(64, int(rng.integers(0, 4)), 2 ** int(rng.integers(0, 3)))
        y = rng.normal(size=64)
        py = project(m, y)
        np.testing.assert_allclose(project(m, py), py, rtol=1e-12, atol=1e-12)
        resid = y - py
        assert abs(np.dot(resid, py)) <= 1e-10 * max(1.0, np.linalg.norm(y) ** 2)
        assert np.linalg.norm(py) <= np.linalg.norm(y) + 1e-12


def test_nested_refinement():
    rng = np.random.default_rng(1)
    m_coarse = Model(64, 1, 2)  # 4 fine blocks
    m_fine = Model(64, 2, 4)  # 16 fine blocks, refines the 4
    assert m_fine.n == m_coarse.n and m_fine.num_fine >= m_coarse.num_fine
    shift = m_fine.num_fine // m_coarse.num_fine
    fine_labels = expand(np.arange(m_fine.num_fine), m_fine.n)
    coarse_labels = expand(np.arange(m_coarse.num_fine), m_coarse.n)
    np.testing.assert_array_equal(fine_labels // shift, coarse_labels)
    y = rng.normal(size=64)
    np.testing.assert_allclose(
        project(m_coarse, project(m_fine, y)), project(m_coarse, y), rtol=1e-12
    )


def test_log_power():
    assert log_power(math.e, 0.5) == pytest.approx(1.0)
    assert log_power(2.0, 0.01) == pytest.approx(math.log(2.0) ** 1.01)
    with pytest.raises(ValueError):
        log_power(1.0, 0.01)


@pytest.mark.parametrize("x, epsilon", [(1024, 1000.0), (2.0**1000, 1e300)])
def test_log_power_past_the_float_range_is_inf(x, epsilon):
    assert log_power(x, epsilon) == math.inf


_TRUTH = TruthSpec(s=np.zeros(4), sigma=np.ones(4))


def _refines_the_mean(m):
    return m.per_block_dim > 1


# Each entry point that takes a rep count: (call with reps, a valid count, the module and name of its draw).
_REPS_CALLS = {
    "mc_risk": (
        lambda reps: mc_risk(get_scenario("M1"), Model(64, 1, 2), reps, SeedPolicy(71)),
        10,
        simlab,
        "_draw",
    ),
    "selection_frequency": (
        lambda reps: selection_frequency(get_scenario("M2"), 64, _refines_the_mean, reps, SeedPolicy(72)),
        1000,
        simlab,
        "_draw",
    ),
    "lemma11_check": (
        lambda reps: lemma11_check(InverseMomentCase(a=np.zeros(4), b=np.ones(4)), reps, SeedPolicy(73)),
        20_000,
        oracle_checks,
        "_gaussian_blocks",
    ),
    "variance_mean_check": (
        lambda reps: variance_mean_check(_TRUTH, Model(4, 0, 2), reps, SeedPolicy(74)),
        10,
        oracle_checks,
        "_gaussian_blocks",
    ),
    "convergence_experiment": (
        lambda reps: convergence_experiment(lipschitz_scenario(), [64, 128], reps, SeedPolicy(75)),
        10,
        simlab,
        "_draw",
    ),
}


@pytest.mark.parametrize("entry", _REPS_CALLS)
@pytest.mark.parametrize("kind", [float, np.float64])
def test_a_rep_count_that_is_not_an_integer_fails_before_any_draw(entry, kind, monkeypatch):
    call, reps, module, draw = _REPS_CALLS[entry]

    def no_draw(*args):
        raise AssertionError(f"{entry} drew before checking reps")

    monkeypatch.setattr(module, draw, no_draw)
    with pytest.raises(ValueError, match=f"^reps must be an integer, got {re.escape(repr(kind(reps)))}$"):
        call(kind(reps))


@pytest.mark.parametrize("entry", _REPS_CALLS)
def test_a_numpy_integer_rep_count_gives_the_same_report(entry):
    call, reps, _, _ = _REPS_CALLS[entry]
    np.testing.assert_equal(call(np.int64(reps)), call(reps))


def test_check_reps_returns_the_count_and_names_it():
    assert model_space.check_reps("--reps", np.int64(7), 2) == 7
    with pytest.raises(ValueError, match="^--reps must be >= 2, got 1$"):
        model_space.check_reps("--reps", 1, 2)
    with pytest.raises(ValueError, match="^--reps must be an integer, got '2'$"):
        model_space.check_reps("--reps", "2", 2)


# Each vector argument of the six entry points that take one: (entry point, argument name, whether
# it must be positive, the call with that argument replaced by v and every other one valid).
_VECTOR_CALLS = [
    ("Observations", "y1", False, lambda v: Observations(y1=v, y2=np.ones(4))),
    ("Observations", "y2", False, lambda v: Observations(y1=np.ones(4), y2=v)),
    ("TruthSpec", "s", False, lambda v: TruthSpec(s=v, sigma=np.ones(4))),
    ("TruthSpec", "sigma", True, lambda v: TruthSpec(s=np.zeros(4), sigma=v)),
    ("kl_divergence", "mean", False, lambda v: kl_divergence(_TRUTH, v, np.ones(4))),
    ("kl_divergence", "variance", True, lambda v: kl_divergence(_TRUTH, np.zeros(4), v)),
    ("log_likelihood", "y1", False, lambda v: log_likelihood(v, np.zeros(4), np.ones(4))),
    ("log_likelihood", "mean", False, lambda v: log_likelihood(np.zeros(4), v, np.ones(4))),
    ("log_likelihood", "variance", True, lambda v: log_likelihood(np.zeros(4), np.zeros(4), v)),
    ("InverseMomentCase", "offsets a", False, lambda v: InverseMomentCase(a=v, b=np.ones(4))),
    ("InverseMomentCase", "scales b", True, lambda v: InverseMomentCase(a=np.zeros(4), b=v)),
    ("lemma10_check", "sigma_diag", True, lambda v: lemma10_check(v, Model(4, 0, 2))),
]


@pytest.mark.parametrize(
    "entry, name, positive, call", _VECTOR_CALLS, ids=[f"{e}-{a}" for e, a, *_ in _VECTOR_CALLS]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, "2-d"])
def test_a_bad_data_vector_is_rejected_by_name(entry, name, positive, call, bad):
    if bad == "2-d":
        v, fault = np.ones((1, 4)), "a 1-d array"
    elif bad == 0.0 and not positive:
        call(np.array([1.0, bad, 1.0, 1.0]))  # 0 is a valid mean or data value
        return
    else:
        v, fault = np.array([1.0, bad, 1.0, 1.0]), "finite and strictly positive" if positive else "finite"
    with pytest.raises(ValueError, match=f"^{name} must be {fault}$"):
        call(v)
