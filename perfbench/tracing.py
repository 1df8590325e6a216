"""Span tracing at the library's layer boundaries, from outside the library.

``Tracer.install()`` replaces each public function listed in ``LAYERS``
with a wrapper, in every loaded ``extsym`` module that holds it (the
defining module and each module that imported the name), and replaces the
two ``key`` methods on their classes.  A wrapper records one span per
call: name, start, end, parent span and item id.  Spans stay in compact
arrays in memory and are written out by ``Tracer.dump``.

Self time is the span's duration minus the time its child spans cover,
kept per function while the run goes.  A function listed here that the
library no longer has is reported as absent instead of failing.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Dict, List

# (metric name, module, attribute, class or None)
LAYERS = [
    ("linalg.rref", "linalg", "rref", None),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None),
    ("linalg.rank", "linalg", "rank", None),
    ("linalg.mat_mul", "linalg", "mat_mul", None),
    ("algebra.key", "algebra", "key", "AlgebraPresentation"),
    ("modules.key", "modules", "key", "RepModule"),
    ("modules.reduce_module", "modules", "reduce_module", None),
    ("modules.hom_basis", "modules", "hom_basis", None),
    ("modules.is_isomorphic", "modules", "is_isomorphic", None),
    ("modules.sub_quotient", "modules", "sub_quotient", None),
    ("ext.ext1_space", "ext", "ext1_space", None),
    ("ext.middle_term", "ext", "middle_term", None),
    ("ext.beta_map", "ext", "beta_map", None),
    ("ext.ext_symmetry_audit", "ext", "ext_symmetry_audit", None),
    ("counting.count_flags", "counting", "count_flags", None),
    ("counting.count_grassmannian", "counting", "count_grassmannian", None),
    ("counting.count_efg", "counting", "count_efg", None),
    ("counting.iter_submodules", "counting", "iter_submodules", None),
    ("counting.stratify_ext_classes", "counting", "stratify_ext_classes",
     None),
    ("counting.good_prime", "counting", "good_prime", None),
    ("euler.good_primes", "euler", "good_primes", None),
    ("euler.euler_of", "euler", "euler_of", None),
    ("euler.interpolate_euler", "euler", "interpolate_euler", None),
    ("delta.delta_signature", "delta", "delta_signature", None),
    ("delta.check_delta_multiplicativity", "delta",
     "check_delta_multiplicativity", None),
    ("verify.verify_formula2", "verify", "verify_formula2", None),
    ("verify.verify_formula1", "verify", "verify_formula1", None),
    ("fileio.load", "fileio", "load_algebra", None),
    ("fileio.load", "fileio", "load_module", None),
    ("fileio.load", "fileio", "load_catalog", None),
]

# spans opened by the benchmark itself rather than by a library wrapper
OWN_SPANS = ["cli.command"]

COUNTS = ["linalg.rref.small_calls", "counting.submodules",
          "counting.submodule_candidates", "counting.ext_lines",
          "counting.good_prime.accepted"]


def span_names() -> List[str]:
    out: List[str] = []
    for name, *_ in LAYERS:
        if name not in out:
            out.append(name)
    return out + OWN_SPANS


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _small_rref(counts, args, result):
    a = args[1]
    if a.nrows <= 5 and a.ncols <= 5:
        counts["linalg.rref.small_calls"] += 1


def _ext_lines(counts, args, result):
    counts["counting.ext_lines"] += sum(result.values())


def _accepted(counts, args, result):
    if result:
        counts["counting.good_prime.accepted"] += 1


def _submodule_candidates(counts, args):
    m, edims = args[0], args[1]
    total = 1
    for d, e in zip(m.dims, edims):
        total *= gaussian_binomial(d, e, m.field.p)
    counts["counting.submodule_candidates"] += total


EXTRA = {"linalg.rref": _small_rref,
         "counting.stratify_ext_classes": _ext_lines,
         "counting.good_prime": _accepted}


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.stack: list = []            # frames [span index, child time]
        self.item = [-1]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: Dict[str, int] = {c: 0 for c in COUNTS}
        self.absent: List[str] = []
        self.clock = time.perf_counter

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        idx = len(self.span_start)
        self.span_name.append(self.ids[name])
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_item.append(self.item[0])
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.span_start.append(self.clock())
        return frame

    def close(self, frame: list) -> None:
        t1 = self.clock()
        idx = frame[0]
        self.stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        fid = self.span_name[idx]
        self.self_s[fid] += dur - frame[1]
        self.calls[fid] += 1
        if self.stack:
            self.stack[-1][1] += dur

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        # open() and close() inlined: a traced sweep4 makes millions of calls
        fid = self.ids[name]
        extra = EXTRA.get(name)
        clock = self.clock
        stack, counts = self.stack, self.counts
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_item, item = self.span_parent, self.span_item, self.item
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(fid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_item.append(item[0])
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[idx] = t1
                dur = t1 - t0
                self_s[fid] += dur - frame[1]
                calls[fid] += 1
                if stack:
                    stack[-1][1] += dur
            if extra is not None:
                extra(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_submodules(self, name: str, fn):
        # The library drains this generator at once (sum or list) without
        # other traced calls in between, so one span covers the iteration.
        tracer = self

        def wrapper(*args, **kwargs):
            _submodule_candidates(tracer.counts, args)
            frame = tracer.open(name)
            try:
                for sub in fn(*args, **kwargs):
                    tracer.counts["counting.submodules"] += 1
                    yield sub
            finally:
                tracer.close(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed name wherever an extsym module holds it."""
        import importlib
        import sys

        import extsym  # noqa: F401  (loads every library module)
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "extsym"
                                        or n.startswith("extsym."))]
        for name, modname, attr, cls in LAYERS:
            where = ".".join(x for x in ("extsym", modname, cls, attr) if x)
            try:
                mod = importlib.import_module(f"extsym.{modname}")
            except ImportError:
                mod = None
            owner = getattr(mod, cls, None) if cls else mod
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{name} ({where})")
                continue
            if name == "counting.iter_submodules":
                wrapped = self._wrap_submodules(name, fn)
            else:
                wrapped = self._wrap(name, fn)
            if cls:
                setattr(owner, attr, wrapped)
                continue
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_s)),
                "counts": dict(self.counts),
                "absent": list(self.absent),
                "spans": len(self.span_start)}

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header, then the five columns raw."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = json.dumps({"names": self.names,
                             "spans": len(self.span_start),
                             "columns": ["name:H", "start:d", "end:d",
                                         "parent:i", "item:i"]})
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for col in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_item):
                col.tofile(fh)


def load_spans(path: str) -> dict:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = {}
        for spec in header["columns"]:
            key, code = spec.split(":")
            col = array(code)
            col.fromfile(fh, n)
            cols[key] = col
    cols["names"] = header["names"]
    return cols
