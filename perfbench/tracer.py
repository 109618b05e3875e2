"""In-memory span tracer wrapped around conesum's public functions.

The tracer lives in the benchmark, not in the program: :meth:`Tracer.install`
replaces each traced function at every module attribute that binds it
(``from ... import`` copies the binding, so ``conesum.analysis.fem_spectrum``
and ``conesum.radial.fem.fem_spectrum`` are both wrapped) and, while a
``fem_spectrum`` span is open, times the scipy eigensolvers that
``conesum.radial.fem`` calls through their module attributes.

A span is ``(parent index, name, start, end, failed, nested)``; ``nested``
marks a span opened inside another span of the same name, so busy time is
not counted twice.  Spans stay in memory until :meth:`Tracer.dump`.  The hot
Bessel kernel ``jy_arrays`` is only counted, not spanned.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

FEM = "radial.fem.fem_spectrum"
PENCIL = "radial.fem.pencil"

# (defining module, function, span name)
SPANNED = (
    ("conesum.analysis", "assemble_spectrum", "analysis.assemble_spectrum"),
    ("conesum.analysis", "exact_form_spectrum", "analysis.exact_form_spectrum"),
    ("conesum.analysis", "mcgowan_report", "analysis.mcgowan_report"),
    ("conesum.analysis", "boundary_diagnostics", "analysis.boundary_diagnostics"),
    ("conesum.radial.problems", "degree_problems", "radial.problems.degree_problems"),
    ("conesum.radial.fem", "fem_spectrum", FEM),
    ("conesum.radial.transfer", "transfer_spectrum", "radial.transfer.transfer_spectrum"),
    ("conesum.radial.transfer", "secular_value", "radial.transfer.secular_value"),
    ("conesum.radial.transfer", "locate_roots_in_window", "radial.transfer.locate_roots_in_window"),
    ("conesum.radial.transfer", "confirm_even_root", "radial.transfer.confirm_even_root"),
    ("conesum.radial.firstorder", "first_order_kernel", "radial.firstorder.first_order_kernel"),
    ("conesum.cone_operator", "enumerate_blocks", "cone_operator.enumerate_blocks"),
    ("conesum.config", "load_config", "config.load_config"),
)
COUNTED = ("conesum.radial.bessel", "jy_arrays", "radial.bessel.jy_arrays")
# scipy eigensolvers as conesum.radial.fem reaches them: (module, function, dense?)
PENCILS = (("scipy.linalg", "eigh", True), ("scipy.sparse.linalg", "eigsh", False))
COUNTERS = (
    [f"{COUNTED[2]}.{k}" for k in ("calls", "points", "errors")]
    + [f"{PENCIL}.{k}" for k in ("dense_calls", "dofs", "nnz", "eigs_computed")]
    + [f"radial.problems.degree_problems.{k}" for k in ("channels", "coupled_channels")]
    + [f"{FEM}.eigs_returned"]
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter({name: 0 for name in COUNTERS})
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._open[name] > 0
        self.spans.append(None)
        self._stack.append(index)
        self._open[name] += 1
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[index] = (parent, name, start, end, failed, nested)

    def spanned(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _pencil(self, fn, dense):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open[FEM]:
                return fn(*args, **kwargs)
            result = self._call(PENCIL, fn, args, kwargs)
            a = args[0]
            b = args[1] if dense and len(args) > 1 else kwargs.get("b" if dense else "M")
            c = self.counters
            c[PENCIL + ".dense_calls"] += dense
            c[PENCIL + ".dofs"] += a.shape[0]
            c[PENCIL + ".nnz"] += sum(
                int(np.count_nonzero(m)) if dense else m.nnz for m in (a, b) if m is not None
            )
            vals = result[0] if isinstance(result, tuple) else result
            c[PENCIL + ".eigs_computed"] += len(vals)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(nu, x):
            counters[name + ".calls"] += 1
            counters[name + ".points"] += np.size(x)
            try:
                return fn(nu, x)
            except Exception:
                counters[name + ".errors"] += 1
                raise

        return wrapper

    def _on_problems(self, result):
        problems = result[0]
        self.counters["radial.problems.degree_problems.channels"] += len(problems)
        self.counters["radial.problems.degree_problems.coupled_channels"] += sum(p.size == 2 for p in problems)

    def _on_fem(self, result):
        self.counters[FEM + ".eigs_returned"] += len(result.entries)

    def _rebind(self, module_name, attr, make):
        """Replace ``module.attr`` wherever a conesum module binds that object."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "conesum" or mod_name.startswith("conesum.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    sites.append(f"{mod_name}.{key}")
        return sites

    def install(self):
        """Wrap every traced function; conesum.cli must already be imported."""
        import scipy.linalg  # noqa: F401  (the attribute paths conesum.radial.fem uses)
        import scipy.sparse.linalg  # noqa: F401

        hooks = {
            "radial.problems.degree_problems": self._on_problems,
            FEM: self._on_fem,
        }
        for module_name, attr, name in SPANNED:
            self.bindings[name] = self._rebind(
                module_name, attr, lambda fn, n=name: self.spanned(n, fn, hooks.get(n))
            )
        module_name, attr, name = COUNTED
        self.bindings[name] = self._rebind(module_name, attr, lambda fn: self._counted(name, fn))
        for module_name, attr, dense in PENCILS:
            module = sys.modules[module_name]
            setattr(module, attr, self._pencil(getattr(module, attr), dense))
            self.bindings.setdefault(PENCIL, []).append(f"{module_name}.{attr}")
        missing = [name for name, sites in self.bindings.items() if not sites]
        if missing:
            raise RuntimeError(f"traced functions not found in conesum: {missing}")

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "bindings": self.bindings}


def layer_metrics(dump: dict, names: list[str]) -> dict[str, float]:
    """Per-name calls, busy time, self time and errors, plus the raw counters.

    Busy time sums the spans not nested in a span of the same name; self time
    is a span's duration minus the durations of its direct children.
    """
    spans = [tuple(s) for s in dump["spans"]]
    child_time = [0.0] * len(spans)
    for parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in names:
        out[name + ".calls"] = 0
        out[name + ".busy_s"] = 0.0
        out[name + ".self_s"] = 0.0
        out[name + ".errors"] = 0
    for i, (parent, name, start, end, failed, nested) in enumerate(spans):
        if name not in names:
            continue
        out[name + ".calls"] += 1
        if not nested:
            out[name + ".busy_s"] += end - start
        out[name + ".self_s"] += end - start - child_time[i]
        out[name + ".errors"] += int(failed)
    for key, value in dump["counters"].items():
        out[key] = out.get(key, 0) + value
    return out
