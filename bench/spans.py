"""In-memory spans around calls into the package's modules.

The package's modules import each other's functions by name (for example
``estimators.lattice_array``), so a call is only seen if the wrapper sits
in the namespace that makes it.  :meth:`Tracer.install` therefore replaces
every public function of every layer in every module namespace that holds
it, plus the few private or bound callables that named layer metrics
need, and :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory as ``(id, parent, layer, name, start, end)``, in
process CPU seconds, and written out once, at the end of a run.  A
layer's self time is the sum of its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import math
import time
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = (
    "cli",
    "estimators",
    "simplex",
    "models",
    "montecarlo",
    "asymptotics",
    "bessel",
    "lattice_sums",
    "moments",
)

#: Weights below this share of the largest in their call count as wasted.
USEFUL_WEIGHT_SHARE = 1e-16

_MODEL_CALLABLES = (
    "density",
    "density_grad",
    "density_hessian",
    "cdf",
    "cdf_grad",
    "cdf_hessian",
    "cdf_third",
    "sampler",
)


class Tracer:
    """Records spans and counters while installed; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counters: Counter[str] = Counter()
        self.bin_keys: set[tuple[int, int]] = set()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._dataset_ids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(args, kwargs, result)`` runs once the span is closed."""
        if getattr(fn, "_bench_traced", False):
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                self.spans.append((span_id, parent, layer, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced._bench_traced = True
        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("bernstein_simplex")
        modules = {layer: importlib.import_module(f"bernstein_simplex.{layer}") for layer in LAYERS}
        estimators = modules["estimators"]

        hooks = {
            "histogram_counts": self._after_histogram,
            "sample": lambda a, k, r: self.counters.update({"samples_drawn": _arg(a, k, 1, "n")}),
            "lattice_array": self._after_lattice,
            "lattice_points": self._after_lattice,
            "log_multinomial_pmf": self._after_pmf,
            "bessel_i": lambda a, k, r: self.counters.update({"bessel_terms": r.terms_used}),
        }
        wrapped: dict[Callable, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr in ("dirichlet_model", "uniform_model", "build_model"):
                    # the model's own callables (sampler, density, ...) belong to models
                    wrapped[obj] = self._model_factory(layer, attr, obj)
                else:
                    wrapped[obj] = self.wrap(layer, attr, obj, hooks.get(attr))
        wrapped[estimators._validated_points] = self.wrap("estimators", "_validated_points", estimators._validated_points)

        for ns in [pkg, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(ns, attr, wrapped[obj])

        from_csv = estimators.Dataset.__dict__["from_csv"].__func__
        self._set(estimators.Dataset, "from_csv", classmethod(self.wrap("estimators", "Dataset.from_csv", from_csv)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _model_factory(self, layer: str, name: str, factory: Callable) -> Callable:
        def wrap_model(model):
            if getattr(model, "_bench_traced", False):
                return model
            fields = {
                f: self.wrap("models", f"{model.name}.{f}", getattr(model, f))
                for f in _MODEL_CALLABLES
                if getattr(model, f) is not None
            }
            traced_model = dataclasses.replace(model, **fields)
            object.__setattr__(traced_model, "_bench_traced", True)
            return traced_model

        inner = self.wrap(layer, name, factory)

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return wrap_model(inner(*args, **kwargs))

        make._bench_traced = True
        return make

    # -- counter hooks ------------------------------------------------------

    def _after_histogram(self, args, kwargs, result) -> None:
        data = _arg(args, kwargs, 0, "data")
        serial = vars(data).setdefault("_bench_serial", next(self._dataset_ids))
        self.bin_keys.add((serial, result.m))
        self.counters.update({"bin_passes": 1, "binned_obs": data.n})

    def _after_lattice(self, args, kwargs, result) -> None:
        self.counters.update({"lattice_points": len(result)})

    def _after_pmf(self, args, kwargs, result) -> None:
        top = float(result.max()) if len(result) else -math.inf
        useful = int((result >= top + math.log(USEFUL_WEIGHT_SHARE)).sum()) if top > -math.inf else 0
        self.counters.update({"pmf_rows": len(result), "pmf_useful": useful})

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer and per ``layer:function``.

        A span's self time is its duration minus the union of its
        children's intervals.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span_id, _, layer, name, start, end in self.spans:
            own = (end - start) - _covered(children.get(span_id, []))
            out[layer] += own
            out[f"{layer}:{name}"] += own
        return dict(out)

    def inclusive(self, names: set[str]) -> float:
        """Time inside spans named in ``names``, counting nested ones once."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span_id, parent, _, name, start, end in self.spans:
            if name not in names:
                continue
            while parent and by_id[parent][3] not in names:
                parent = by_id[parent][1]
            if not parent:
                total += end - start
        return total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[pos]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
