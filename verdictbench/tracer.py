"""Layer spans for torusgauge, installed from outside the package.

``Tracer.install`` replaces the public functions of each traced module (and a
fixed list of methods) with wrappers that record one span per call: name,
start, end, parent span and job id, in preallocated arrays that are written
out when the traced process ends.  The layers are the package's modules.
``Scalar`` arithmetic is not wrapped (about a million calls per run: the
wrapper would cost more than the work); ``cos2pi``/``sin2pi`` get counters
only, to measure how often the float tier is taken.

Modules bind names such as ``integrate_simplex`` or ``translate`` at import
time, so every binding in every ``torusgauge`` module -- globals, dicts such
as the CLI's handler table, and class attributes such as ``__radd__`` -- is
replaced, and ``install`` fails if any original is left behind.

``layer_metrics`` turns a dump into the per-layer metrics; a layer's self time
is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "torusgauge"
TRACED_MODULES = ("cli", "expr", "forms", "polytrig", "magnetic", "gerbes",
                  "cohomology", "hilbert", "sampling")
# Methods wrapped besides each module's public functions; value = span name.
METHODS = {
    "polytrig": {
        "PolyTrig.__add__": "add",
        "PolyTrig.__mul__": "mul",
        "PolyTrig.scale": "scale",
        "PolyTrig.antiderivative": "antiderivative",
        "PolyTrig.substitute": "substitute",
        "PolyTrig.expand_phases": "expand_phases",
        "PolyTrig._pullback": "pullback",
        "PolyTrig.partial": "partial",
    },
    "forms": {
        "Form.d": "Form.d",
        "Form.translate": "Form.translate",
        "Form.pullback": "Form.pullback",
        "AffineSimplex.boundary": "AffineSimplex.boundary",
    },
    "magnetic": {
        "LineData.phi": "LineData.phi",
        "LineData.curvature": "LineData.curvature",
        "PathSymmetry.transport_exponent": "PathSymmetry.transport_exponent",
        "PathSymmetry.invariant_exponent": "PathSymmetry.invariant_exponent",
    },
    "gerbes": {
        "GerbeData.phi": "GerbeData.phi",
        "GerbeData.connection": "GerbeData.connection",
        "GerbeData.curvature": "curvature",
        "_integrate_unit_cube": "integrate_unit_cube",
    },
    "cohomology": {"GroupCochain.__call__": "GroupCochain.call"},
}
# polytrig spans reported one by one, as polytrig.<op>.calls and .s
POLYTRIG_OPS = ("mul", "add", "scale", "antiderivative", "substitute",
                "expand_phases", "translate", "pullback")
MAX_K = 3


class CoverageError(RuntimeError):
    pass


def _scalar_key(c):
    return tuple(sorted(c.pi.items())) if c.pi is not None else ("F", c.val, c.tol)


def _poly_key(f):
    return tuple(sorted((k, _scalar_key(c)) for k, c in f.terms.items()))


def _integral_key(omega, simplex):
    form = tuple(sorted((idx, _poly_key(f)) for idx, f in omega.comps.items()))
    return (omega.dim, omega.degree, form, simplex.top, simplex.edges,
            simplex.symbolic, simplex.sign)


def _is_float_tier(value):
    if hasattr(value, "terms"):
        return any(c.pi is None for c in value.terms.values())
    return value.pi is None


def _size(value):
    if hasattr(value, "terms"):
        return len(value.terms)
    return len(value.pi) if value.pi is not None else 1


class Tracer:
    """In-memory span recorder; spans are only taken while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack = [-1]
        self.counters = {"trig_evals": 0, "trig_miss": 0, "integrals": 0,
                         "integral_repeats": 0, "integral_float": 0,
                         "integral_terms_max": 0, "polytrig_terms_max": 0,
                         "cochain_evals": 0}
        self._seen = set()
        self._originals = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording ------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job_of.append(self.job)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.end[idx] = perf_counter()

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span; ``after(result)`` runs once it is closed."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(out)
            return out

        return traced

    def _polytrig_after(self, out):
        n = len(getattr(out, "terms", ()))
        if n > self.counters["polytrig_terms_max"]:
            self.counters["polytrig_terms_max"] = n

    def _wrap_integrate_simplex(self, fn):
        ids = {k: self.name_id(f"forms.integrate_simplex.k{k}") for k in range(MAX_K + 1)}
        observe = self.name_id("trace.observe")
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def traced(omega, simplex):
            if not tracer.enabled:
                return fn(omega, simplex)
            idx = tracer._open(ids.get(simplex.k, ids[MAX_K]))
            try:
                out = fn(omega, simplex)
            finally:
                tracer._close(idx)
            # bookkeeping runs in its own span so that no layer is charged
            idx = tracer._open(observe)
            key = _integral_key(omega, simplex)
            counters["integrals"] += 1
            if key in tracer._seen:
                counters["integral_repeats"] += 1
            else:
                tracer._seen.add(key)
            if _is_float_tier(out):
                counters["integral_float"] += 1
            counters["integral_terms_max"] = max(counters["integral_terms_max"], _size(out))
            tracer._close(idx)
            return out

        return traced

    def _count_trig(self, fn):
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def counted(t):
            out = fn(t)
            if tracer.enabled:
                counters["trig_evals"] += 1
                if out.pi is None:
                    counters["trig_miss"] += 1
            return out

        return counted

    def _wrap_cochain_init(self, init):
        eval_id = self.name_id("cohomology.eval")
        tracer = self

        @functools.wraps(init)
        def patched(cochain, degree, dim, evaluator):
            init(cochain, degree, dim, evaluator)

            def traced_eval(args):
                if not tracer.enabled:
                    return evaluator(args)
                tracer.counters["cochain_evals"] += 1
                idx = tracer._open(eval_id)
                try:
                    return evaluator(args)
                finally:
                    tracer._close(idx)

            cochain.evaluator = traced_eval

        return patched

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind it wherever the package holds it."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED_MODULES}
        scalar = importlib.import_module(f"{PACKAGE}.scalar")
        replace = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    if short == "forms" and attr == "integrate_simplex":
                        replace[fn] = self._wrap_integrate_simplex(fn)
                    elif short == "polytrig":
                        replace[fn] = self.wrap(fn, f"polytrig.{attr}", self._polytrig_after)
                    else:
                        replace[fn] = self.wrap(fn, f"{short}.{attr}")
            for path, span in METHODS.get(short, {}).items():
                owner, _, attr = path.rpartition(".")
                fn = getattr(getattr(mod, owner), attr) if owner else getattr(mod, attr)
                after = self._polytrig_after if short == "polytrig" else None
                replace[fn] = self.wrap(fn, f"{short}.{span}", after)
        for fn in (scalar.cos2pi, scalar.sin2pi):
            replace[fn] = self._count_trig(fn)
        cochain = modules["cohomology"].GroupCochain
        replace[cochain.__init__] = self._wrap_cochain_init(cochain.__init__)
        self._originals = replace
        for mod in self._package_modules():
            for _, value, put in _bindings(mod):
                if _hashable(value) and value in replace:
                    put(replace[value])
        self.check_coverage()

    @staticmethod
    def _package_modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def check_coverage(self):
        """Raise CoverageError if any package module still holds an original."""
        originals = self._originals
        left = []
        for mod in self._package_modules():
            for where, value, _ in _bindings(mod):
                if _hashable(value) and value in originals:
                    left.append(where)
        if left:
            raise CoverageError("unwrapped originals remain: " + ", ".join(left))

    # -- output --------------------------------------------------------------

    def dump(self, prefix):
        """Write the spans and counters: <prefix>.json plus one binary file per column."""
        for col in ("start", "end", "name", "parent", "job_of"):
            with open(f"{prefix}.{col}", "wb") as fh:
                getattr(self, col).tofile(fh)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "counters": self.counters}, fh)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _bindings(mod):
    """(label, value, setter) for module globals, module-level dict values and class attributes."""
    for attr, value in list(vars(mod).items()):
        yield f"{mod.__name__}.{attr}", value, functools.partial(setattr, mod, attr)
        if isinstance(value, dict):
            for key, item in list(value.items()):
                yield (f"{mod.__name__}.{attr}[{key!r}]", item,
                       functools.partial(value.__setitem__, key))
        if inspect.isclass(value) and value.__module__ == mod.__name__:
            for cattr, item in list(vars(value).items()):
                yield (f"{mod.__name__}.{attr}.{cattr}", item,
                       functools.partial(setattr, value, cattr))


# -- analysis ------------------------------------------------------------------


def load(prefix):
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    cols = {}
    for col, dtype in (("start", "d"), ("end", "d"), ("name", "i"), ("parent", "i"),
                       ("job_of", "i")):
        arr = array(dtype)
        with open(f"{prefix}.{col}", "rb") as fh:
            arr.fromfile(fh, meta["count"])
        cols[col] = np.frombuffer(arr, dtype=np.float64 if dtype == "d" else np.int32)
    return meta, cols


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(meta, cols):
    """Per-layer metrics, {name: (value, unit)}, from one traced run's dump."""
    names = meta["names"]
    counters = meta["counters"]
    dur = cols["end"] - cols["start"]
    parent = cols["parent"].astype(np.int64)
    name = cols["name"].astype(np.int64)
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    # spans nested in a span of the same name are not counted twice in time
    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        nested |= live & (name[np.where(live, anc, 0)] == name)
        anc = np.where(live, parent[np.where(live, anc, 0)], -1)

    layer_of = np.array([n.split(".")[0] for n in names] or [""], dtype=object)
    span_layer = layer_of[name] if len(name) else np.array([], dtype=object)

    def ids(pred):
        return np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int64)

    def mask(pred):
        return np.isin(name, ids(pred))

    def calls(pred):
        return int(mask(pred).sum())

    def seconds(pred):
        return float(dur[mask(pred) & ~nested].sum())

    def layer_self(layer):
        return float(self_time[span_layer == layer].sum()) if len(name) else 0.0

    def named(*targets):
        return lambda n: n in targets

    def in_layer(layer):
        return lambda n: n.startswith(layer + ".")

    out = {}
    for k in range(MAX_K + 1):
        out[f"forms.integrals.k{k}"] = (calls(named(f"forms.integrate_simplex.k{k}")), "count")
    for k in range(MAX_K + 1):
        out[f"forms.integrate_s.k{k}"] = (seconds(named(f"forms.integrate_simplex.k{k}")), "s")
    out["forms.path_integrals"] = (calls(named("forms.integrate_path")), "count")
    out["forms.self_s"] = (layer_self("forms"), "s")
    out["forms.terms_out_max"] = (counters["integral_terms_max"], "count")
    out["forms.repeat_share"] = (
        _share(counters["integral_repeats"], counters["integrals"]), "ratio")
    out["forms.tierF_result_share"] = (
        _share(counters["integral_float"], counters["integrals"]), "ratio")
    for op in POLYTRIG_OPS:
        out[f"polytrig.{op}.calls"] = (calls(named(f"polytrig.{op}")), "count")
        out[f"polytrig.{op}.s"] = (seconds(named(f"polytrig.{op}")), "s")
    out["polytrig.self_s"] = (layer_self("polytrig"), "s")
    out["polytrig.terms_max"] = (counters["polytrig_terms_max"], "count")
    out["scalar.trig_evals"] = (counters["trig_evals"], "count")
    out["scalar.trig_miss_share"] = (_share(counters["trig_miss"], counters["trig_evals"]), "ratio")
    out["gerbes.calls"] = (calls(in_layer("gerbes")), "count")
    out["gerbes.self_s"] = (layer_self("gerbes"), "s")
    out["gerbes.curvature.calls"] = (calls(named("gerbes.curvature")), "count")
    out["magnetic.calls"] = (calls(in_layer("magnetic")), "count")
    out["magnetic.self_s"] = (layer_self("magnetic"), "s")
    out["cohomology.evals"] = (counters["cochain_evals"], "count")
    out["cohomology.self_s"] = (layer_self("cohomology"), "s")
    out["hilbert.matrices"] = (calls(named("hilbert.translation_matrix", "hilbert.clock_shift",
                                           "hilbert.multiplication_operator")), "count")
    out["hilbert.self_s"] = (layer_self("hilbert"), "s")
    out["sampling.calls"] = (calls(in_layer("sampling")), "count")
    out["sampling.self_s"] = (layer_self("sampling"), "s")
    out["cli.jobs"] = (calls(named("cli.run")), "count")
    out["cli.self_s"] = (layer_self("cli"), "s")
    out["cli.load_scenario_s"] = (seconds(named("cli.load_scenario")), "s")
    out["expr.parse.calls"] = (calls(named("expr.parse_expr")), "count")
    out["expr.parse_s"] = (seconds(named("expr.parse_expr")), "s")
    return out
