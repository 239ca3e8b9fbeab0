"""Out-of-package tracing for the traced benchmark run.

The tracer wraps functions of the ``binomfl`` layer modules from outside:
the package itself carries no instrumentation.  A wrapper is installed in
every module namespace that binds the function, so calls made through
``from .privacy import tight_epsilon_value`` and calls made through a
module object (``simmod.run_fsgd``) are both seen.

Two kinds of functions are wrapped:

* the *named* targets in :data:`TARGETS`, which the per-layer metrics are
  built from.  They are wrapped everywhere, including their own module, so
  intra-module calls such as ``solve_with_stats`` -> ``min_n_for_privacy``
  are seen too;
* every other public function of a layer module, wrapped only where another
  module can reach it (an importing module's namespace, or its own
  namespace when another module imports the whole module object).  These
  are layer boundaries; together with the named targets they make the
  per-layer self times add up to the op time.

No span is stored per call.  Every call is folded into an aggregate keyed by
(parent name, name) holding count, inclusive time and self time, where self
time is the call's duration minus the time its wrapped children took.  Only
the coarse calls in :data:`SPAN_NAMES` also keep one record each (start,
end, parent, op index), which is what the trace file holds.

Wrappers are installed only for the duration of a traced op; checks and
untraced ops run the package as it is.  A named target that no longer exists
is reported as missing, not a crash.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "binomfl"
LAYERS = ("privacy", "solver", "wireless", "sim", "tasks", "config", "cli")

def _eps_array_hook(args, kwargs, result):
    return {"elements": float(len(result))}


def _fsgd_hook(args, kwargs, result):
    return {"rounds": float(result.rounds)}


def _bias_hook(args, kwargs, result):
    return {"trials": float(result.trials)}


def _privatize_hook(args, kwargs, result):
    grads = args[0] if args else kwargs["grads"]
    return {"coords": float(grads.size)}


SOLVE_STATS_FIELDS = ("cells_total", "cells_feasible", "eps_evaluations", "max_evals_per_cell")


def _solve_hook(args, kwargs, result):
    stats = result[1]
    return {f: float(getattr(stats, f)) for f in SOLVE_STATS_FIELDS if hasattr(stats, f)}


@dataclass(frozen=True)
class Target:
    """A named function to wrap.

    ``attr`` "Class.method" wraps a method, and "*.method" wraps that method
    on every class of the module that defines it.  Kind "timed" pushes a
    frame; "count" only counts calls, so the callee's time stays in the
    caller's self time.  ``hook`` turns (args, kwargs, result) into work
    counters summed under ``<name>.<counter>``.
    """

    name: str
    module: str
    attr: str
    kind: str = "timed"
    hook: Callable | None = None


TARGETS = (
    Target("privacy.eps_scalar", "privacy", "tight_epsilon_value"),
    Target("privacy.eps_array", "privacy", "tight_epsilon_n_array", hook=_eps_array_hook),
    Target("solver.solve", "solver", "solve_with_stats", hook=_solve_hook),
    Target("solver.n_search", "solver", "min_n_for_privacy"),
    Target("solver.qbar", "solver", "qbar"),
    Target("solver.qbar.envelope", "solver", "qbar_envelope", kind="count"),
    Target("solver.oracle", "solver", "brute_force_solve"),
    Target("wireless.required_power", "wireless", "required_power"),
    Target("wireless.capacity_feasible", "wireless", "capacity_feasible"),
    Target("config.sample_gains", "wireless", "sample_gains"),
    Target("sim.fsgd", "sim", "run_fsgd", hook=_fsgd_hook),
    Target("sim.bias", "sim", "measure_bias", hook=_bias_hook),
    Target("sim.privatize", "sim", "_privatized_mean", hook=_privatize_hook),
    Target("tasks.gradients", "tasks", "*.device_gradients"),
    Target("tasks.loss", "tasks", "*.loss"),
    Target("tasks.build", "tasks", "*.__init__"),
    Target("config.load", "config", "RunConfig.from_yaml"),
    Target("config.build", "config", "RunConfig.build_system"),
    Target("config.build", "config", "RunConfig.build_context"),
    Target("config.build", "config", "RunConfig.build_solver"),
    Target("cli", "cli", "main"),
)

# calls that also keep one span record each
SPAN_NAMES = frozenset({
    "cli", "solver.solve", "solver.oracle", "solver.qbar", "sim.fsgd", "sim.bias",
    "config.load", "config.build", "tasks.build",
})


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class Agg:
    count: int = 0
    incl: float = 0.0
    self_: float = 0.0


@dataclass
class Tracer:
    """Frame stack, per-(parent, name) aggregates and coarse span records."""

    agg: dict = field(default_factory=dict)        # (parent, name) -> Agg
    counters: dict = field(default_factory=dict)   # "name.counter" -> float
    maxima: dict = field(default_factory=dict)     # "name.counter" -> float
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    op_index: int = -1

    def __post_init__(self):
        # a frame is [name, child_time]; the root stands for the op itself
        self.root = ["op", 0.0]
        self.stack = [self.root]
        self.op_time = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op_index = index

    def end_op(self, seconds: float) -> None:
        self.op_time += seconds

    def _wrap(self, fn, name: str, kind: str, hook):
        tracer = self
        stack = self.stack
        agg = self.agg
        perf = time.perf_counter
        keep_span = name in SPAN_NAMES

        if kind == "count":
            def counting(*args, **kwargs):
                key = (stack[-1][0], name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = Agg()
                rec.count += 1
                return fn(*args, **kwargs)
            counting.__wrapped__ = fn
            return counting

        def timed(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[1] += dt
                key = (parent[0], name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = Agg()
                rec.count += 1
                rec.incl += dt
                rec.self_ += dt - frame[1]
                if keep_span:
                    tracer.spans.append((tracer.op_index, name, parent[0],
                                         t0 - tracer._t0, dt, dt - frame[1]))
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    tracer.counters[full] = tracer.counters.get(full, 0.0) + value
                    tracer.maxima[full] = max(tracer.maxima.get(full, value), value)
            return result

        timed.__wrapped__ = fn
        return timed

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the named targets, then every other cross-module boundary."""
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.missing = []
        wrapped: set[int] = set()  # ids of the original functions already wrapped

        def patch(fn, wrapper, skip=None):
            for mod in mods.values():
                if mod is skip:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

        for t in TARGETS:
            mod = mods[t.module]
            if "." not in t.attr:
                fn = vars(mod).get(t.attr)
                if not inspect.isfunction(fn):
                    self.missing.append(t.name)
                    continue
                wrapped.add(id(fn))
                patch(fn, self._wrap(fn, t.name, t.kind, t.hook))
                continue
            owner, meth = t.attr.split(".", 1)
            if owner == "*":
                classes = [c for c in vars(mod).values() if inspect.isclass(c)
                           and c.__module__ == mod.__name__ and meth in c.__dict__]
            else:
                classes = [vars(mod)[owner]] if owner in vars(mod) else []
            if not classes:
                self.missing.append(t.name)
            for cls in classes:
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(raw.__func__, t.name, t.kind, t.hook)))
                else:
                    self._set(cls, meth, self._wrap(raw, t.name, t.kind, t.hook))

        # a module's own namespace is a boundary only when another layer
        # imports the whole module object (cli's ``simmod.run_fsgd``)
        as_object = {v for m in mods.values() for v in vars(m).values()
                     if isinstance(v, types.ModuleType) and v.__name__.startswith(PACKAGE + ".")}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and id(fn) not in wrapped):
                    wrapped.add(id(fn))
                    patch(fn, self._wrap(fn, f"{layer}.{attr}", "timed", None),
                          skip=None if mod in as_object else mod)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ----------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(a.count for (p, n), a in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def incl(self, name: str) -> float:
        # a recursive or nested call of the same name is already inside its
        # parent's inclusive time
        return sum(a.incl for (p, n), a in self.agg.items() if n == name and p != name)

    def self_time(self, name: str) -> float:
        return sum(a.self_ for (_, n), a in self.agg.items() if n == name)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (_, name), a in self.agg.items():
            out[layer_of(name)] += a.self_
        out["bench"] = self.op_time - self.root[1]
        return out
