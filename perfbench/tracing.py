"""Spans and counts around each latgauss layer, installed from outside src/.

Tracer.install replaces each traced function in every loaded latgauss
module that holds it, since callers look names up in their own module
(``latgauss.decoder.lattice_coefficients``, ``latgauss.gaussian.
enumerate_ball``, ...), and wraps traced methods on their class. remove()
puts every original back. Spans (name, start, end, parent, op id) are kept
in memory; counts are taken from arguments and return values at the same
boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

from latgauss.decoder import EXACT
from latgauss.enumeration import BudgetExceeded

# span name -> (module, function), replaced wherever a latgauss module holds it
FUNCTIONS = {
    "lattice.lattice_coefficients": ("latgauss.lattice", "lattice_coefficients"),
    "lattice.nearest_plane": ("latgauss.lattice", "nearest_plane"),
    "enumeration.enumerate_ball": ("latgauss.enumeration", "enumerate_ball"),
    "enumeration.closest_vector": ("latgauss.enumeration", "closest_vector"),
    "enumeration.hkz_reduce": ("latgauss.enumeration", "hkz_reduce"),
    "gaussian.smoothing_parameter": ("latgauss.gaussian", "smoothing_parameter"),
    "gaussian.sample_lattice_gaussian": ("latgauss.gaussian", "sample_lattice_gaussian"),
}

# span name -> (module, class, method), wrapped on the class
METHODS = {
    "lattice.basis_init": ("latgauss.lattice", "LatticeBasis", "__init__"),
    "advice.step_batch": ("latgauss.advice", "GaussianAdvice", "step_batch"),
    "advice.f_batch": ("latgauss.advice", "GaussianAdvice", "f_batch"),
    "decoder.fit": ("latgauss.decoder", "BddDecoder", "fit"),
    "decoder.decode": ("latgauss.decoder", "BddDecoder", "decode_batch"),
    "decoder.save": ("latgauss.decoder", "BddDecoder", "save"),
    "decoder.load": ("latgauss.decoder", "BddDecoder", "load"),
    "reductions.kannan.reduce": ("latgauss.reductions", "KannanReducer", "reduce"),
    "reductions.master.reduce": ("latgauss.reductions", "MasterReducer", "reduce"),
    "reductions.promise.reduce": ("latgauss.reductions", "PromiseReducer", "reduce"),
}

# solver factories in latgauss.reductions; the solvers they return are traced
FACTORIES = ("oracle_inner", "bdd_inner")
INNER = "reductions.inner"

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "advice.step_batch_s": "s",
    "advice.f_batch_s": "s",
    "advice.entries": "count",
    "advice.ns_per_entry": "ns",
    "decoder.decode_self_s": "s",
    "decoder.guard_trips": "count",
    "decoder.fit_s": "s",
    "decoder.fit_calls": "count",
    "decoder.save_s": "s",
    "decoder.load_s": "s",
    "decoder.file_bytes": "B",
    "lattice.lattice_coefficients_s": "s",
    "lattice.lattice_coefficients_calls": "count",
    "lattice.basis_init_s": "s",
    "lattice.basis_init_calls": "count",
    "lattice.nearest_plane_s": "s",
    "lattice.nearest_plane_calls": "count",
    "enumeration.enumerate_ball_s": "s",
    "enumeration.enumerate_ball_calls": "count",
    "enumeration.enumerate_ball_nodes": "count",
    "enumeration.enumerate_ball_points": "count",
    "enumeration.enumerate_ball_knodes_per_s": "1000/s",
    "enumeration.closest_vector_s": "s",
    "enumeration.closest_vector_calls": "count",
    "enumeration.hkz_reduce_s": "s",
    "enumeration.hkz_reduce_calls": "count",
    "gaussian.smoothing_parameter_s": "s",
    "gaussian.smoothing_parameter_calls": "count",
    "gaussian.sample_lattice_gaussian_s": "s",
    "gaussian.sample_lattice_gaussian_draws": "count",
    "gaussian.sample_lattice_gaussian_table_calls": "count",
    "gaussian.sample_lattice_gaussian_product_calls": "count",
    "reductions.kannan.reduce_s": "s",
    "reductions.master.reduce_s": "s",
    "reductions.promise.reduce_s": "s",
    "reductions.inner.calls": "count",
    "reductions.inner.none": "count",
    "reductions.inner.errors": "count",
    "reductions.inner_s": "s",
    "trace.overhead_frac": "1",
}


def _rows(ts):
    return np.atleast_2d(np.asarray(ts)).shape[0]


class Tracer:
    """Records spans and counts while its wrappers are installed; every
    patched module attribute and class method is put back by remove()."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.counts = {}
        self.inner_by_rank = {}  # projected rank -> [calls, none, errors]
        self._undo = []

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _count(self, name, args, result):
        """Counts read from one call's arguments and return value."""
        if name == "enumeration.enumerate_ball":
            self.bump("enumeration.enumerate_ball_nodes", result.nodes)
            self.bump("enumeration.enumerate_ball_points", len(result))
        elif name == "gaussian.sample_lattice_gaussian":
            self.bump("gaussian.sample_lattice_gaussian_draws", len(result))
            self.bump(f"gaussian.sample_lattice_gaussian_{result.method}_calls")
        elif name in ("advice.step_batch", "advice.f_batch"):
            self.bump("advice.entries", _rows(args[1]) * len(args[0]))
        elif name == "decoder.save":
            self.bump("decoder.file_bytes", os.path.getsize(args[1]))
        elif name == "decoder.decode":
            self.bump("decoder.guard_trips", sum(r.status != EXACT for r in result))

    def _span(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BudgetExceeded as exc:
            if name == "enumeration.enumerate_ball":
                self.bump("enumeration.enumerate_ball_nodes", exc.nodes)
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()
            self.bump(name + "_calls")
        self._count(name, args, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def _wrap_solver(self, solve):
        def traced(basis, target):
            row = self.inner_by_rank.setdefault(basis.rank, [0, 0, 0])
            row[0] += 1
            try:
                out = self._span(INNER, solve, (basis, target), {})
            except Exception:
                row[2] += 1
                raise
            if out is None:
                row[1] += 1
            return out
        return traced

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return self._wrap_solver(factory(*args, **kwargs))
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "latgauss" or k.startswith("latgauss."))]
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            traced = self._wrap(name, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._set(m, attr, traced)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))
        red = sys.modules["latgauss.reductions"]
        for attr in FACTORIES:
            self._set(red, attr, self._wrap_factory(red.__dict__[attr]))

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def busy(self, name):
        """Seconds inside spans of name, not counting spans nested in one."""
        total = 0.0
        for n, t0, t1, parent, _ in self.spans:
            if n != name:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [t1 - t0 for _, t0, t1, _, _ in self.spans]
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def layer_self(self, setup):
        """Self seconds summed per layer module, over the set-up spans
        (op id "setup") or over the spans of the calls."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            if (span[4] == "setup") == setup:
                layer = span[0].split(".")[0]
                out[layer] = out.get(layer, 0.0) + own
        return out

    def metrics(self, overhead_frac):
        """Every PER_LAYER metric: busy seconds for names ending in _s,
        recorded counts otherwise, and the derived ratios."""
        c = self.counts.get
        busy = self.busy
        decode_self = sum(own for span, own in zip(self.spans, self.self_times())
                          if span[0] == "decoder.decode")
        kernel = busy("advice.step_batch") + busy("advice.f_batch")
        entries = c("advice.entries", 0)
        enum_s = busy("enumeration.enumerate_ball")
        inner = [sum(r[i] for r in self.inner_by_rank.values()) for i in range(3)]
        values = {
            "advice.ns_per_entry": kernel / entries * 1e9 if entries else 0.0,
            "decoder.decode_self_s": decode_self,
            "enumeration.enumerate_ball_knodes_per_s":
                c("enumeration.enumerate_ball_nodes", 0) / enum_s / 1e3 if enum_s else 0.0,
            "reductions.inner.calls": inner[0],
            "reductions.inner.none": inner[1],
            "reductions.inner.errors": inner[2],
            "trace.overhead_frac": overhead_frac,
        }
        for key in PER_LAYER:
            if key not in values:
                values[key] = busy(key[:-2]) if key.endswith("_s") else c(key, 0)
        return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
