"""Spans around the public functions of each `heteroselect` module, wrapped from outside.

`Tracer.install()` replaces every binding of a traced function, in every
`heteroselect` module namespace that holds it, by a wrapper that records a
span (name, start, end, parent).  Modules bind `fit`, `select` and friends by
name at import time, so patching only the defining module would miss calls;
scanning all namespaces for the same object catches every import site.
`install()` then looks for any reference to an unwrapped target still held by
a `heteroselect` module (namespace, class, function default or module-level
container) and raises `MissedBindingError` if it finds one, so a missed
import site stops the run instead of under-reporting.

Spans are kept in flat arrays and reduced only after the body has run.  A
span's self time is its duration minus the durations of its direct children;
calls are single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from array import array
from collections import defaultdict

#: (layer name, defining module, attribute); a dotted attribute is a method.
TARGETS = [
    ("cli.main", "heteroselect.cli", "main"),
    ("cli.read_pairs", "heteroselect.cli", "_read_pairs"),
    ("cli.cmd_fit", "heteroselect.cli", "cmd_fit"),
    ("simlab.ratio_table", "heteroselect.simlab", "ratio_table"),
    ("simlab.mc_risk", "heteroselect.simlab", "mc_risk"),
    ("simlab.risk_profile", "heteroselect.simlab", "risk_profile"),
    ("simlab.sample", "heteroselect.simlab", "sample"),
    ("simlab.truth", "heteroselect.simlab", "Scenario.truth"),
    ("simlab.stream", "heteroselect.simlab", "SeedPolicy.stream"),
    ("selector.select", "heteroselect.selector", "select"),
    ("selector.penalty", "heteroselect.selector", "penalty"),
    ("estimation.fit", "heteroselect.estimation", "fit"),
    ("estimation.log_likelihood", "heteroselect.estimation", "log_likelihood"),
    ("estimation.kl_divergence", "heteroselect.estimation", "kl_divergence"),
    ("estimation.best_approx", "heteroselect.estimation", "best_approx"),
    ("estimation.prop1_bounds", "heteroselect.estimation", "prop1_bounds"),
    ("model_space.project", "heteroselect.model_space", "project"),
    ("model_space.build_collection", "heteroselect.model_space", "build_collection"),
    ("oracle_checks.lemma11_check", "heteroselect.oracle_checks", "lemma11_check"),
    ("oracle_checks.lemma10_check", "heteroselect.oracle_checks", "lemma10_check"),
    ("oracle_checks.prop1_sandwich_check", "heteroselect.oracle_checks", "prop1_sandwich_check"),
]

#: Layers whose inputs `Tracer._observe` inspects.
OBSERVED = {
    "estimation.fit",
    "selector.penalty",
    "selector.select",
    "simlab.sample",
    "model_space.project",
    "oracle_checks.lemma11_check",
}

#: Layers whose self time is the per-replication loop overhead of the simulation lab.
LOOP_LAYERS = ("simlab.ratio_table", "simlab.mc_risk", "simlab.risk_profile")


def _data_key(obs) -> bytes:
    return hashlib.sha1(obs.y1.tobytes() + obs.y2.tobytes()).digest()


class MissedBindingError(RuntimeError):
    """A `heteroselect` module still holds a traced function that was not wrapped."""


def _modules() -> list:
    return [m for key, m in sorted(sys.modules.items()) if key == "heteroselect" or key.startswith("heteroselect.")]


def _unwrapped_sites(modules, originals: dict[int, str]):
    """Yield "where -> layer" for every reference to an original target left in `modules`.

    Looks at module namespaces, the attributes of classes defined there, the
    defaults of functions defined there, and the items of module-level
    containers: every place a call could reach the original without a lookup
    through a wrapped name.
    """

    def hits(where, values):
        for value in values:
            if id(value) in originals:
                yield f"{where} -> {originals[id(value)]}"

    for mod in modules:
        for key, value in vars(mod).items():
            where = f"{mod.__name__}.{key}"
            yield from hits(where, [value])
            if isinstance(value, dict):
                yield from hits(where, value.values())
            elif isinstance(value, (list, tuple, set, frozenset)):
                yield from hits(where, value)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cls_key, member in vars(value).items():
                    yield from hits(f"{where}.{cls_key}", [member, getattr(member, "__func__", None)])
                    if callable(member):
                        yield from hits(f"{where}.{cls_key}", _defaults(member))
            elif callable(value) and getattr(value, "__module__", None) == mod.__name__:
                yield from hits(where, _defaults(value))


def _defaults(fn) -> list:
    return [*(getattr(fn, "__defaults__", None) or ()), *(getattr(fn, "__kwdefaults__", None) or {}).values()]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self.keys = defaultdict(set)  # layer -> distinct inputs seen
        self.extra = defaultdict(float)  # computed counters: bytes, draws, models, raises
        self._last_obs = None
        self._last_obs_key = b""

    def _obs_key(self, obs) -> bytes:
        if obs is not self._last_obs:
            self._last_obs, self._last_obs_key = obs, _data_key(obs)
        return self._last_obs_key

    def _observe(self, name, args, kwargs):
        """Record input keys and computed counters before a call; cost lands outside its span."""
        if name == "estimation.fit":
            m, obs = args
            self.keys[name].add((m.level, m.per_block_dim, m.n, self._obs_key(obs)))
        elif name == "selector.penalty":
            m, spec = args
            self.keys[name].add((m.level, m.per_block_dim, m.n, spec.gamma, spec.theta, spec.epsilon))
        elif name == "selector.select":
            self.extra["selector.select.models"] += len(args[0])
        elif name == "simlab.sample":
            scenario, n, rng = args
            seq = rng.bit_generator.seed_seq
            self.keys[name].add((scenario.name, n, seq.entropy, tuple(seq.spawn_key)))
        elif name == "model_space.project":
            self.extra["model_space.project.bytes"] += 16 * args[0].n
        elif name == "oracle_checks.lemma11_check":
            reps = kwargs["reps"] if "reps" in kwargs else args[1]
            self.extra["oracle_checks.lemma11_check.draws"] += reps * args[0].n

    def wrap(self, name, fn):
        name_id = self.name_id[name]
        observed = name in OBSERVED
        stack = self._stack
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        clock = time.perf_counter
        tracer = self
        degenerate = importlib.import_module("heteroselect.estimation").DegenerateVarianceError

        def traced(*args, **kwargs):
            if observed:
                tracer._observe(name, args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except degenerate:
                if name == "estimation.fit":
                    tracer.extra["estimation.fit.degenerate"] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()

        return traced

    def install(self) -> None:
        modules = _modules()
        originals = {}
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self.wrap(name, original))
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            originals[id(original)] = name
        missed = sorted(_unwrapped_sites(_modules(), originals))
        if missed:
            raise MissedBindingError(f"unwrapped references to traced functions: {missed}")

    def summary(self) -> dict:
        """Per layer: calls, total and self seconds, distinct inputs, and the computed counters."""
        count = len(self.span_name)
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(count):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
        return {
            "layers": {
                name: {
                    "calls": calls[name],
                    "total_s": total[name],
                    "self_s": self_s[name],
                    "unique": len(self.keys[name]),
                }
                for name in self.names
            },
            "counters": dict(self.extra),
        }
