"""Spans around parwhit's public calls, installed from the benchmark's side.

Each wrapped call records one span (name, start, end, parent span, operation
id) in flat arrays kept in memory; `dump` writes them out once the run ends.
A wrapper replaces every binding of the original object in the loaded parwhit
modules, so a function is traced under every name a module imported it as
(scipy's `loggamma` is traced where parwhit modules call it as `_loggamma`).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np

#: span names, in the order their ids are assigned
SPAN_NAMES = (
    "mbquad.eval_mb", "mbquad.auto_contour",
    "residues.eval_residue_series", "residues.residue_term",
    "spectral.require_generic", "logcomplex.rescaled_sum", "gammafns.loggamma",
    "asympt.leading_asymptotic", "cli.main",
    "gz.check_brackets", "gz.check_build_EnN", "gz.verify_left_whittaker",
    "gz.verify_right_support_relations", "gz.apply",
)

#: counters kept alongside the spans
COUNTERS = ("mbquad.nodes", "residues.orders", "gammafns.loggamma.points",
            "gz.terms", "gz.shifted.calls", "cli.output.bytes")


class Tracer:
    def __init__(self):
        self.ids = {n: k for k, n in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn, after=None):
        sid = self.ids[name]
        stack, names, starts, ends, parents, ops = (
            self._stack, self.name, self.start, self.end, self.parent, self.op)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, counter, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, orig, wrapper):
        """Point every parwhit module attribute bound to orig at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "parwhit" or modname.startswith("parwhit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _rebind_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import scipy.special
        import parwhit.asympt
        import parwhit.cli
        import parwhit.gz.arrays
        import parwhit.gz.identity
        import parwhit.gz.operators
        import parwhit.gz.whittaker
        import parwhit.logcomplex
        import parwhit.mbquad
        import parwhit.residues
        import parwhit.spectral

        c = self.counters

        def nodes(args, kwargs, out):
            s, cfg = args[0], args[1]
            c["mbquad.nodes"] += math.comb(cfg.nodes_per_dim, s.m)

        def orders(args, kwargs, out):
            c["residues.orders"] += out.orders_summed

        def points(args, kwargs, out):
            c["gammafns.loggamma.points"] += int(np.size(args[0]))

        def terms(args, kwargs, out):
            c["gz.terms"] += len(args[0])

        for name, mod, attr, after in (
            ("mbquad.eval_mb", parwhit.mbquad, "eval_mb", nodes),
            ("mbquad.auto_contour", parwhit.mbquad, "auto_contour", None),
            ("residues.eval_residue_series", parwhit.residues, "eval_residue_series", orders),
            ("residues.residue_term", parwhit.residues, "residue_term", None),
            ("logcomplex.rescaled_sum", parwhit.logcomplex, "rescaled_sum", None),
            ("gammafns.loggamma", scipy.special, "loggamma", points),
            ("asympt.leading_asymptotic", parwhit.asympt, "leading_asymptotic", None),
            ("cli.main", parwhit.cli, "main", None),
            ("gz.check_brackets", parwhit.gz.identity, "check_brackets", None),
            ("gz.check_build_EnN", parwhit.gz.identity, "check_build_EnN", None),
            ("gz.verify_left_whittaker", parwhit.gz.whittaker, "verify_left_whittaker", None),
            ("gz.verify_right_support_relations", parwhit.gz.whittaker,
             "verify_right_support_relations", None),
        ):
            orig = getattr(mod, attr)
            self._rebind(orig, self._span(name, orig, after))

        sd = parwhit.spectral.SpectralData
        self._rebind_method(sd, "require_generic",
                            self._span("spectral.require_generic", sd.__dict__["require_generic"]))
        op = parwhit.gz.operators.DifferenceOperator
        self._rebind_method(op, "apply", self._span("gz.apply", op.__dict__["apply"], terms))
        ta = parwhit.gz.arrays.TriangularArray
        self._rebind_method(ta, "shifted", self._count("gz.shifted.calls", ta.__dict__["shifted"]))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results --------------------------------------------------------
    def self_times(self) -> dict:
        """{name: (total self time in s, number of spans)} over all recorded spans."""
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.uint16, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n) if n else dur
        self_t = dur - child
        out = {}
        for name, sid in self.ids.items():
            sel = names == sid
            out[name] = (float(self_t[sel].sum()), int(sel.sum()))
        return out

    def dump(self, path):
        n = len(self.name)
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.uint16, count=n),
            start=np.frombuffer(self.start, count=n), end=np.frombuffer(self.end, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.op, dtype=np.int32, count=n),
        )
