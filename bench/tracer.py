"""Per-layer tracing of geoperiods from outside the package.

A ``Tracer`` wraps the public functions of each module listed in
``LAYERS`` and records, per layer: calls, self time (time inside the
function minus time inside wrapped callees), inclusive time of the
outermost call, and work counters read from the arguments or the result.
Hot helpers that are only counted (``mobius_act``, ``GroupElement``
construction, ``eigen.evaluate``) get a counting wrapper with no clock.

A module that imported a function by name (``from .specfun import
bessel_k_imag``) holds its own reference, so every ``geoperiods`` module
global bound to the original object is replaced, not only the attribute
of the defining module.  ``verify.ALL_CHECKS`` holds the check functions
in tuples; those entries are replaced too.  ``uninstall`` restores every
reference it replaced.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

SPAN = "span"
COUNT = "count"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _restrict_samples(tracer, args, kwargs, result):
    # curve points evaluated inside ``restrict`` (every call goes through
    # ``eigen.evaluate``); points of sphere and torus curves are pairs
    if tracer.depth("periods.restrict") == 0:
        return {}
    phi, point = args[0], np.asarray(args[1])
    n = point.size if phi.surface == "modular" else point.size // 2
    return {"periods.restrict.samples": n}


# (layer, module, attribute path, kind, counter)
# A counter maps (tracer, args, kwargs, result) to {metric name: increment};
# names without a dot are taken relative to the layer.
LAYERS = [
    ("specfun.bessel_k_imag", "specfun", "bessel_k_imag", SPAN,
     lambda t, a, k, r: {"points": np.size(_arg(a, k, 1, "u"))}),
    ("specfun.log_gamma", "specfun", "log_gamma", SPAN,
     lambda t, a, k, r: {"points": np.size(_arg(a, k, 0, "z"))}),
    ("specfun.table_integral", "specfun", "table_integral", SPAN, None),
    ("quad.oscillatory_integral", "quad", "oscillatory_integral", SPAN,
     lambda t, a, k, r: {"nodes": r.evaluations}),
    ("quad.integrate_adaptive", "quad", "integrate_adaptive", SPAN,
     lambda t, a, k, r: {"evaluations": r.evaluations}),
    ("quad.periodic_fourier", "quad", "periodic_fourier", SPAN,
     lambda t, a, k, r: {"evaluations": r[2]}),
    ("modelrep.model_functional", "modelrep", "model_functional", SPAN, None),
    ("modelrep.density_b", "modelrep", "density_b", SPAN,
     lambda t, a, k, r: {"entries": len(r.n_values)}),
    ("modelrep.density_c", "modelrep", "density_c", SPAN,
     lambda t, a, k, r: {"entries": len(r.n_values)}),
    ("hypgeom.CircleOrbit.points", "hypgeom", "CircleOrbit.points", SPAN,
     lambda t, a, k, r: {"points": np.size(_arg(a, k, 1, "theta"))}),
    ("hypgeom.GroupElement", "hypgeom", "GroupElement.__init__", COUNT,
     lambda t, a, k, r: {"hypgeom.GroupElement.constructed": 1}),
    ("hypgeom.mobius_act", "hypgeom", "mobius_act", COUNT,
     lambda t, a, k, r: {"calls": 1}),
    # a return counts at the outermost call only: the parity fallback
    # hands the inner call's form back a second time
    ("eigen.hejhal_solve", "eigen", "hejhal_solve", SPAN,
     lambda t, a, k, r: {"returned": int(t.depth("eigen.hejhal_solve") == 0)}),
    ("eigen.pullback", "eigen", "pullback", SPAN, None),
    ("eigen.MaassForm.value", "eigen", "MaassForm.value", SPAN,
     lambda t, a, k, r: {"points": np.size(_arg(a, k, 1, "z"))}),
    ("eigen.save_form", "eigen", "save_form", SPAN, None),
    ("eigen.load_form", "eigen", "load_form", SPAN, None),
    ("eigen.evaluate", "eigen", "evaluate", COUNT, _restrict_samples),
    ("periods.restrict", "periods", "restrict", SPAN,
     lambda t, a, k, r: {"kept": len(r.samples)}),
    ("periods.periods", "periods", "periods", SPAN, None),
    ("periods.extract_coefficients", "periods", "extract_coefficients", SPAN,
     None),
    ("periods.period_table_to_csv", "periods", "period_table_to_csv", SPAN,
     lambda t, a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("periods.report_to_json", "periods", "report_to_json", SPAN, None),
]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    s: float = 0.0                # inclusive time of outermost calls
    depth: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Installs timing wrappers into the loaded ``geoperiods`` modules."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list[float]] = []   # child time of each open span
        self._undo: list = []

    # -- bookkeeping ----------------------------------------------------

    def _layer(self, name) -> LayerStats:
        if name not in self.stats:
            self.stats[name] = LayerStats()
        return self.stats[name]

    def depth(self, name) -> int:
        st = self.stats.get(name)
        return st.depth if st else 0

    def _count(self, layer, counter, args, kwargs, result):
        if counter is None:
            return
        for key, inc in counter(self, args, kwargs, result).items():
            name, _, metric = (key.rpartition(".") if "." in key
                               else (layer, "", key))
            st = self._layer(name)
            st.counters[metric] = st.counters.get(metric, 0) + inc

    def span(self, layer, fn, counter=None):
        st = self._layer(layer)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - frame[0]
                if st.depth == 0:
                    st.s += dt
                if stack:
                    stack[-1][0] += dt
            self._count(layer, counter, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, layer, fn, counter):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(layer, counter, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_globals(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geoperiods"
                                   or mod_name.startswith("geoperiods.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import importlib

        for layer, module, path, kind, counter in LAYERS:
            mod = importlib.import_module(f"geoperiods.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr)
            wrapper = (self.span(layer, original, counter) if kind == SPAN
                       else self.counted(layer, original, counter))
            if owner_name:           # a method: patch the class attribute
                self._set(owner, attr, wrapper)
            else:
                self._replace_globals(original, wrapper)
        verify = importlib.import_module("geoperiods.verify")
        checks = verify.ALL_CHECKS
        for i, (name, fn, needs_cache) in enumerate(list(checks)):
            wrapper = self.span(f"verify.{name}", fn)
            self._replace_globals(fn, wrapper)
            self._undo.append((checks, i, checks[i]))
            checks[i] = (name, wrapper, needs_cache)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, list):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Flat ``layer.metric -> value`` map, with derived ratios."""
        out = {}
        for layer, st in self.stats.items():
            if st.calls:
                out[f"{layer}.calls"] = st.calls
                out[f"{layer}.self_s"] = st.self_s
                out[f"{layer}.s"] = st.s
            for metric, value in st.counters.items():
                out[f"{layer}.{metric}"] = value
        bk = "specfun.bessel_k_imag"
        if out.get(f"{bk}.self_s"):
            out[f"{bk}.points_per_s"] = out[f"{bk}.points"] / out[f"{bk}.self_s"]
        hs = "eigen.hejhal_solve"
        if out.get(f"{hs}.calls"):
            out[f"{hs}.solved_ratio"] = (out.get(f"{hs}.returned", 0)
                                         / out[f"{hs}.calls"])
        rs = "periods.restrict"
        if out.get(f"{rs}.samples"):
            out[f"{rs}.kept_ratio"] = out.get(f"{rs}.kept", 0) / out[f"{rs}.samples"]
        return out
