"""Per-layer tracing of the qperiods package, applied from outside it.

The tracer wraps every public function and method of the layers named in
LAYERS (plus the few dunder methods in EXTRA_METHODS) and records, while
installed:

- a call count per wrapped name, and the derived work counters below;
- a span (name, start, end, parent) for every call that crosses from one
  layer into another.  Calls that stay inside the caller's layer are
  counted but open no span, so their time stays with the enclosing span
  of their own layer.

A layer's self time is the summed duration of its spans minus the time
their child spans cover.  Spans live in flat arrays and are written out
once, after the run.

Modules import names with ``from .exactlin import rref``, so a wrapper
replaces the function object in every ``qperiods.*`` namespace holding
it; methods are replaced on their class.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

LAYERS = ("exactlin", "quivalg", "periods", "yoga", "onemotive",
          "serialize", "cli")

# dunder methods traced besides the public ones, by class name
EXTRA_METHODS = {
    "Matrix": ("__init__", "__mul__"),
    "Subspace": ("__init__",),
}

PROBE_SPAN = "trace.probe"


def _entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max((_entry_bits(c) for c in x.coeffs), default=0)


# Probes derive work counters from a call's arguments and result.  They
# run after the call, with tracer.caller naming the wrapped caller.

def _probe_rref(t, args, result):
    m = args[0]
    t.add("exactlin.rref.cells", m.nrows * m.ncols)
    red, pivots = result

    def scan():
        bits = max((_entry_bits(x) for row in red.rows[:len(pivots)]
                    for x in row if x), default=0)
        t.counts["exactlin.rref.max_bits"] = max(
            t.counts.get("exactlin.rref.max_bits", 0), bits)

    # scanning the output costs as much as a small elimination; keep it
    # out of the caller's self time
    t.timed_probe(scan)


def _probe_matmul(t, args, result):
    a, b = args
    if isinstance(b, type(a)):
        t.add("exactlin.matmul.calls", 1)
        t.add("exactlin.matmul.mults", a.nrows * a.ncols * b.ncols)


def _probe_subspace_add(t, args, result):
    grew = result.dim > args[0].dim
    t.add("exactlin.subspace_add.grew", int(grew))
    if t.caller == "periods.depth_space":
        t.add("periods.depth.accepted", int(grew))


def _probe_spin(t, args, result):
    t.add("quivalg.spin.ambient_dim", args[1].dim)


def _probe_hom_space(t, args, result):
    m, n = args[0], args[1]
    t.add("quivalg.hom_space.unknowns",
          sum(a * b for a, b in zip(m.dims, n.dims)))


def _probe_end_algebra(t, args, result):
    t.last_end_dim = len(result[1])
    t.add("quivalg.end_algebra.dim", t.last_end_dim)


def _probe_endo_quotient(t, args, result):
    # endo_quotient asks end_algebra once, right before building
    t.add("periods.endo_quotient.commutators",
          args[0].dim ** 2 * t.last_end_dim)


def _probe_relation_from_submodule(t, args, result):
    if t.caller == "periods.depth_space":
        t.add("periods.depth.candidates", 1)


def _probe_realize(t, args, result):
    t.add("periods.realize.realized", int(result.status == "realized"))


def _probe_saturated(t, args, result):
    t.add("yoga.saturated_check.certified",
          int(result.status == "certified"))


def _probe_dump_json(t, args, result):
    t.add("serialize.out_bytes", len(result))


PROBES = {
    "exactlin.rref": _probe_rref,
    "exactlin.Matrix.__mul__": _probe_matmul,
    "exactlin.Subspace.add": _probe_subspace_add,
    "quivalg.SubmoduleHandle.spin": _probe_spin,
    "quivalg.hom_space": _probe_hom_space,
    "quivalg.end_algebra": _probe_end_algebra,
    "periods.endo_quotient": _probe_endo_quotient,
    "periods.relation_from_submodule": _probe_relation_from_submodule,
    "periods.realize_relation": _probe_realize,
    "yoga.saturated_check": _probe_saturated,
    "serialize.dump_json": _probe_dump_json,
}


class Tracer:
    """Wraps the package's layers; collects spans and counters per pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.caller: str | None = None
        self.last_end_dim = 0
        self.span_names: list[str] = [PROBE_SPAN]
        self.begin = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._open: list = []      # (layer, span index) of open spans
        self._frames: list = []    # names of all open wrapped calls
        self._patches: list = []   # (owner, attribute, original)
        self._wrappers: dict = {}  # wrapped name -> wrapper, made once

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer; remove()
        undoes it, and installing again reuses the same wrappers."""
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "qperiods" or name.startswith("qperiods.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"qperiods.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls):
        extra = EXTRA_METHODS.get(cls.__name__, ())
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(
                    self._wrap(key, layer, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(key, layer, member)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, key: str, layer: str, fn):
        if key not in self._wrappers:
            self._wrappers[key] = self._make_wrapper(key, layer, fn)
        return self._wrappers[key]

    def _make_wrapper(self, key: str, layer: str, fn):
        name_id = len(self.span_names)
        self.span_names.append(key)
        self.calls[key] = 0
        probe = PROBES.get(key)
        calls, spans, frames = self.calls, self._open, self._frames
        begin, end, parent, name = self.begin, self.end, self.parent, self.name
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            frames.append(key)
            try:
                top = spans[-1] if spans else None
                if top is not None and top[0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    idx = len(begin)
                    parent.append(top[1] if top is not None else -1)
                    name.append(name_id)
                    end.append(0.0)
                    spans.append((layer, idx))
                    begin.append(clock())
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        end[idx] = clock()
                        spans.pop()
            finally:
                frames.pop()
            if probe is not None:
                self.caller = frames[-1] if frames else None
                probe(self, args, result)
            return result

        return traced

    # -- recording --------------------------------------------------------------

    def add(self, counter: str, amount: int):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def timed_probe(self, work):
        """Run a probe's own work inside a span of the 'trace' layer."""
        top = self._open[-1] if self._open else None
        idx = len(self.begin)
        self.parent.append(top[1] if top is not None else -1)
        self.name.append(0)
        self.end.append(0.0)
        self.begin.append(time.perf_counter())
        work()
        self.end[idx] = time.perf_counter()

    def reset(self):
        """Forget every count and span recorded so far."""
        for key in self.calls:
            self.calls[key] = 0
        self.counts.clear()
        for arr in (self.begin, self.end, self.parent, self.name):
            del arr[:]

    def self_times(self) -> dict:
        """Seconds per layer: span durations minus their children's."""
        layer_of = [n.partition(".")[0] for n in self.span_names]
        cover = [0.0] * len(self.begin)
        out = {layer: 0.0 for layer in LAYERS}
        out["trace"] = 0.0
        begin, end, parent, name = self.begin, self.end, self.parent, self.name
        # children are recorded after their parent, so walking backwards
        # finishes every child before its parent
        for i in range(len(begin) - 1, -1, -1):
            dur = end[i] - begin[i]
            p = parent[i]
            if p >= 0:
                cover[p] += dur
            out[layer_of[name[i]]] += dur - cover[i]
        return out

    def write_spans(self, path: Path):
        """Gzipped TSV, one line per span of the last traced pass: index,
        parent index (-1 for none), name, start and end in seconds from
        the first span."""
        t0 = self.begin[0] if len(self.begin) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.begin)):
                fh.write(f"{i}\t{self.parent[i]}\t"
                         f"{self.span_names[self.name[i]]}\t"
                         f"{self.begin[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\n")


def layer_metrics(t: Tracer) -> dict:
    """The per-layer counters of one traced pass, by metric name."""
    n, c = t.calls, t.counts.get

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "exactlin.rref.calls": n["exactlin.rref"],
        "exactlin.rref.cells": c("exactlin.rref.cells", 0),
        "exactlin.rref.max_bits": c("exactlin.rref.max_bits", 0),
        "exactlin.subspace.calls": n["exactlin.Subspace.__init__"],
        "exactlin.subspace_add.calls": n["exactlin.Subspace.add"],
        "exactlin.subspace_add.grew_ratio": ratio(
            c("exactlin.subspace_add.grew", 0), n["exactlin.Subspace.add"]),
        "exactlin.matmul.calls": c("exactlin.matmul.calls", 0),
        "exactlin.matmul.mults": c("exactlin.matmul.mults", 0),
        "exactlin.matrix_new.calls": n["exactlin.Matrix.__init__"],
        "exactlin.k_linear_kernel.calls": n["exactlin.k_linear_kernel"],
        "quivalg.spin.calls": n["quivalg.SubmoduleHandle.spin"],
        "quivalg.spin.ambient_dim": c("quivalg.spin.ambient_dim", 0),
        "quivalg.hom_space.calls": n["quivalg.hom_space"],
        "quivalg.hom_space.unknowns": c("quivalg.hom_space.unknowns", 0),
        "quivalg.end_algebra.calls": n["quivalg.end_algebra"],
        "quivalg.end_algebra.dim": c("quivalg.end_algebra.dim", 0),
        "quivalg.module_iso.calls": n["quivalg.module_iso"],
        "periods.endo_quotient.commutators": c(
            "periods.endo_quotient.commutators", 0),
        "periods.depth.candidates": c("periods.depth.candidates", 0),
        "periods.depth.accept_ratio": ratio(
            c("periods.depth.accepted", 0),
            c("periods.depth.candidates", 0)),
        "periods.realize.calls": n["periods.realize_relation"],
        "periods.realize.realized_ratio": ratio(
            c("periods.realize.realized", 0), n["periods.realize_relation"]),
        "yoga.saturated_check.calls": n["yoga.saturated_check"],
        "yoga.saturated_check.certified_ratio": ratio(
            c("yoga.saturated_check.certified", 0),
            n["yoga.saturated_check"]),
        "yoga.slice_by_weight.calls": n["yoga.slice_by_weight"],
        "onemotive.hom_dim.calls": n["onemotive.hom_dim"],
        "serialize.out_bytes": c("serialize.out_bytes", 0),
    }
