"""The record contract: every public record is an immutable NamedTuple with a `Name(field=value, ...)`
repr; the records that check their inputs reject bad ones with the same messages; `Model` and
`CollectionConfig` hash as the tuples of their fields."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heteroselect
from heteroselect import estimation, model_space, oracle_checks, selector, simlab
from heteroselect.estimation import Estimate, Observations, TruthSpec
from heteroselect.model_space import CollectionConfig, Model
from heteroselect.oracle_checks import (
    CompressedSpectrumResult, InverseMomentCase, InverseMomentResult, SandwichEntry, VarianceMeanResult,
)
from heteroselect.selector import ModelAudit, SelectionResult
from heteroselect.simlab import (
    ConvergencePoint, ConvergenceResult, Oracle, RatioCell, RiskReport, SeedPolicy, get_scenario,
)

_MODEL = Model(8, 1, 2)
_ESTIMATE = Estimate(Model(4, 0, 1), np.zeros(1), np.ones(1))
_AUDIT = ModelAudit(_MODEL, 1.0, 2.0, 3.0)
_POINT = ConvergencePoint(64, 0.125, 0.01)

# Each public record: a valid instance, and its bad inputs with the message each must raise.
_RECORDS = {
    "Model": (
        _MODEL,
        [
            (lambda: Model(6, 0, 1), "n must be a power of two, got 6"),
            (lambda: Model(8, -1, 1), "level must be a nonnegative integer, got -1"),
            (lambda: Model(8, 1.0, 1), "level must be a nonnegative integer, got 1.0"),
            (lambda: Model(8, 4, 1), "2**4 blocks exceed n=8"),
            (lambda: Model(8, 0, 3), "per_block_dim must be a power of two, got 3"),
            (lambda: Model(8, 1, 8), "per_block_dim 8 exceeds coarse block size 4"),
        ],
    ),
    "CollectionConfig": (
        CollectionConfig(64, 2.0, 2.0, 0.01, 3.0),
        [
            (lambda: CollectionConfig(48, 2.0, 2.0, 0.01, 3.0), "n must be a power of two, got 48"),
            (lambda: CollectionConfig(64, 0.5, 2.0, 0.01, 3.0), "gamma must be >= 1, got 0.5"),
            (lambda: CollectionConfig(64, 2.0, 1.0, 0.01, 3.0), "theta must be > 1, got 1.0"),
            (lambda: CollectionConfig(64, 2.0, 2.0, 0.0, 3.0), "epsilon must be > 0, got 0.0"),
            (lambda: CollectionConfig(64, 2.0, 2.0, 0.01, math.nan), "delta must be finite, got nan"),
        ],
    ),
    "Observations": (
        Observations(np.arange(4.0), np.ones(4)),
        [
            (lambda: Observations(np.ones((1, 4)), np.ones(4)), "y1 must be a 1-d array"),
            (lambda: Observations(np.ones(4), np.array([1.0, math.nan, 1.0, 1.0])), "y2 must be finite"),
            (lambda: Observations(np.ones(4), np.ones(2)), "replicates must have equal length"),
            (lambda: Observations(np.ones(3), np.ones(3)), "length must be a power of two, got 3"),
        ],
    ),
    "Estimate": (_ESTIMATE, []),
    "TruthSpec": (
        TruthSpec(np.zeros(4), np.ones(4)),
        [
            (lambda: TruthSpec(np.array([0.0, math.inf, 0.0, 0.0]), np.ones(4)), "s must be finite"),
            (lambda: TruthSpec(np.zeros(4), np.zeros(4)), "sigma must be finite and strictly positive"),
            (lambda: TruthSpec(np.zeros(4), np.ones(2)), "s and sigma must have equal length"),
        ],
    ),
    "ModelAudit": (_AUDIT, []),
    "SelectionResult": (SelectionResult(_MODEL, _ESTIMATE, 3.0, (_AUDIT,)), []),
    "Scenario": (get_scenario("lipschitz"), []),
    "Oracle": (
        Oracle((_MODEL, Model(8, 0, 1))),
        [
            (lambda: Oracle([]), "an oracle needs at least one model"),
            (lambda: Oracle([_MODEL, Model(16, 1, 2)]), "the oracle's models have different sample sizes"),
            (lambda: Oracle([_MODEL, CollectionConfig(8, 2.0, 2.0, 0.01, 3.0)]),
             "an oracle's models must all be Models"),
            (lambda: Oracle([1]), "an oracle's models must all be Models"),
        ],
    ),
    "RiskReport": (RiskReport(1.5, 0.25, 10, "kullback"), []),
    "SeedPolicy": (SeedPolicy(7, (1, 2)), []),
    "RatioCell": (RatioCell("M1", 2.0, 1.25, 0.01), []),
    "ConvergencePoint": (_POINT, []),
    "ConvergenceResult": (ConvergenceResult((_POINT,), -0.5), []),
    "InverseMomentCase": (
        InverseMomentCase(np.zeros(4), np.ones(4)),
        [
            (lambda: InverseMomentCase(np.full(4, math.nan), np.ones(4)), "offsets a must be finite"),
            (lambda: InverseMomentCase(np.zeros(4), -np.ones(4)), "scales b must be finite and strictly positive"),
            (lambda: InverseMomentCase(np.zeros(4), np.ones(3)), "a and b must have equal length"),
            (lambda: InverseMomentCase(np.zeros(2), np.ones(2)), "need n > 2 for the inverse moment to be finite"),
        ],
    ),
    "InverseMomentResult": (InverseMomentResult(0.5, 0.01, 1.0, True), []),
    "CompressedSpectrumResult": (CompressedSpectrumResult(1.0, 2.0, True), []),
    "VarianceMeanResult": (VarianceMeanResult(np.ones(2), np.ones(2), np.full(2, 0.1), False), []),
    "SandwichEntry": (SandwichEntry(_MODEL, 1.0, 2.0, 1.5, 0.1, True), []),
}


def test_every_public_record_is_covered():
    modules = (estimation, model_space, oracle_checks, selector, simlab)
    public = {
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
        and value.__module__ == module.__name__ and not name.startswith("_")
    }
    assert public == set(_RECORDS)


@pytest.mark.parametrize("name", _RECORDS)
def test_record_contract(name):
    record, rejected = _RECORDS[name]
    assert type(record).__name__ == name
    # A NamedTuple: fields by name, as a dict and by unpacking, and a changed copy by `_replace`.
    assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
    assert list(record._asdict()) == list(record._fields)
    assert type(record._replace()) is type(record)
    # Immutable: neither a field nor a new attribute can be set.
    for attr in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"
    for build, message in rejected:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize(
    "record", [Model(1024, 1, 2), CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0)], ids=["Model", "CollectionConfig"]
)
def test_models_and_configs_hash_as_their_fields(record):
    assert hash(record) == hash(tuple(record))
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert {record: "value"}[twin] == "value"


def test_scenario_defaults_its_smoothness_constants():
    constants = ("const_mean", "const_var")
    assert [getattr(get_scenario("M1"), c) for c in constants] == [1.0, 1.0]
    assert [getattr(get_scenario("lipschitz"), c) for c in constants] == [1.0, 0.5]


def test_importing_the_cli_does_not_load_dataclasses():
    # Each dataclass generates its methods with `exec` at import: a cost every command pays at start-up.
    # numpy loads `numpy.random` lazily, at the first draw (about 18 ms).  No path imports
    # `concurrent.futures`, which loads `logging` (about 9.5 ms): `simlab._map` runs on `threading`.
    env = dict(os.environ, PYTHONPATH=str(Path(heteroselect.__file__).resolve().parents[1]))
    lazy = ["dataclasses", "numpy.random", "concurrent.futures", "logging"]
    code = f"import sys, heteroselect.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "record, change, message",
    [
        (_MODEL, {"n": 6}, "n must be a power of two, got 6"),
        (CollectionConfig(64, 2.0, 2.0, 0.01, 3.0), {"gamma": 0.5}, "gamma must be >= 1, got 0.5"),
        (Observations(np.ones(4), np.ones(4)), {"y2": np.ones(2)}, "replicates must have equal length"),
        (TruthSpec(np.zeros(4), np.ones(4)), {"sigma": np.zeros(4)}, "sigma must be finite and strictly positive"),
        (InverseMomentCase(np.zeros(4), np.ones(4)), {"b": np.ones(3)}, "a and b must have equal length"),
        (Oracle([_MODEL]), {"models": ()}, "an oracle needs at least one model"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, tuple) else None,
)
def test_replace_checks_the_new_fields_as_the_constructor_does(record, change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**change)
    copy = record._replace(**{f: getattr(record, f) for f in change})
    assert type(copy) is type(record) and repr(copy) == repr(record)
