import math

import numpy as np
import pytest

from heteroselect.model_space import (
    CollectionConfig,
    EmptyCollectionError,
    Model,
    all_models,
    build_collection,
    expand,
    log_power,
    project,
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
    assert [(m.level, m.per_block_dim) for m in all_models(n)] == valid


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
