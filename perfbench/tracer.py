"""
Span tracer for alcalc, installed from outside the package.

`Tracer.install()` replaces functions of the alcalc layer modules with
wrappers that count calls and time them on a shared span stack.  A span's
self time is its duration minus the time covered by the spans it opened,
so time spent in an unwrapped function is charged to the innermost
wrapped caller.  A layer's self time is the sum over the spans of the
functions defined in that layer's module.

What is wrapped, per layer module:
  * every public function defined in the module;
  * every public method (plain, static or class) of every class defined in
    the module;
  * the names in EXTRA, which are private or special but sit on a layer
    boundary or feed a metric;
minus the names in SKIP, tiny helpers called millions of times whose span
would cost more than their body (their time stays with the caller, which
is in the same layer).  Generators and `lru_cache`d functions are not
wrapped; their time counts toward the caller.

A module-level function is replaced in its defining module and in every
alcalc module that bound it with `from .x import y`.  Function-local
imports re-read the defining module, so they see the wrapper too.  Methods
are replaced on the class, which every module shares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "weyl",
    "serre",
    "gf",
    "series",
    "loopmat",
    "pval",
    "rmatrix",
    "mpoly",
    "chartsolve",
    "charts",
    "witness",
    "cli",
    "report",
)

EXTRA = {
    "gf": ("FElem.__add__", "FElem.__sub__", "FElem.__neg__", "FElem.__mul__", "FElem.__truediv__"),
    "pval": ("PVal.__add__", "PVal.__sub__", "PVal.__neg__", "PVal.__mul__", "PVal.__truediv__"),
    "mpoly": ("Poly.__add__", "Poly.__sub__", "Poly.__neg__", "Poly.__mul__"),
    "chartsolve": ("ChartSystem.__init__",),
    "cli": ("_special_pairs",),
}

SKIP = {
    "weyl": (
        "perm_identity",
        "perm_inv",
        "perm_act_vec",
        "perm_act_root",
        "pairing",
        "positive_roots",
        "negative_roots",
        "all_roots",
        "root_is_negative",
        "eta_weight",
        "aff_translation",
        "aff_omega_degree",
    ),
}


class Stat:
    """Counters of one wrapped function."""

    __slots__ = ("layer", "calls", "self_s", "incl_s", "active", "outer", "calls_inside")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.active = 0
        self.outer: Stat | None = None
        self.calls_inside = 0  # calls made while `outer` was running


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]
        self._undo: list = []

    # -- installation -----------------------------------------------------------
    def install(self, nested: dict[str, str] | None = None) -> None:
        """Wrap every traced function.  `nested` maps an inner function's
        key to an outer one's; calls of the inner function made while the
        outer one runs are counted apart."""
        modules = {layer: importlib.import_module(f"alcalc.{layer}") for layer in LAYERS}
        targets = [(layer, *t) for layer, mod in modules.items() for t in self._targets(layer, mod)]
        for layer, key, *_ in targets:
            self.stats[key] = Stat(layer)
        for inner, outer in (nested or {}).items():
            if inner in self.stats and outer in self.stats:
                self.stats[inner].outer = self.stats[outer]
        for _, key, owner, name, raw in targets:
            self._patch(owner, name, raw, self.stats[key], modules.values())

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    def _targets(self, layer, mod):
        skip = set(SKIP.get(layer, ()))
        extra = set(EXTRA.get(layer, ()))
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                if obj.__module__ != mod.__name__ or name in skip:
                    continue
                if (not name.startswith("_") or name in extra) and not inspect.isgeneratorfunction(obj):
                    yield f"{layer}.{name}", mod, name, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in list(vars(obj).items()):
                    qual = f"{name}.{attr}"
                    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if not inspect.isfunction(fn) or qual in skip or inspect.isgeneratorfunction(fn):
                        continue
                    if not attr.startswith("_") or qual in extra:
                        yield f"{layer}.{qual}", obj, attr, raw

    def _patch(self, owner, name, raw, stat, modules) -> None:
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, stat))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, stat))
        else:
            new = self._wrap(raw, stat)
        setattr(owner, name, new)
        self._undo.append((owner, name, raw))
        if inspect.ismodule(owner):
            for mod in modules:
                for alias, obj in list(vars(mod).items()):
                    if obj is raw and mod is not owner:
                        setattr(mod, alias, new)
                        self._undo.append((mod, alias, raw))

    def _wrap(self, fn, st: Stat):
        stack = self._stack
        clock = time.perf_counter
        outer = st.outer

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if outer is not None and outer.active:
                st.calls_inside += 1
            stack.append(0.0)
            st.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.active -= 1
                st.calls += 1
                st.self_s += dt - stack.pop()
                if not st.active:
                    st.incl_s += dt
                stack[-1] += dt

        return span

    # -- results -----------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for st in self.stats.values():
            out[st.layer] += st.self_s
        return out
