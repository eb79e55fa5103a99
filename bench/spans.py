"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records calls, self time (duration minus the time of traced children)
and inclusive time.  Every module global that refers to a traced function is
patched, so names imported with ``from .x import f`` are traced too.
``uninstall`` restores the originals.  The package itself is not changed.

The complex returned by the top-level ``build_complex`` of each job is read
for deterministic size counters: chain ranks, cells of the boundary d2, the
largest degree span of a boundary entry and the largest numerator or
denominator bit length among the boundary coefficients.
"""

from __future__ import annotations

import importlib
import time

PACKAGE = "twistalex"
MODULES = ("jobs", "presentations", "homology", "laurent", "scalars", "obstructions")

# (module, class, method, span name).  Module-level public functions are
# found by ``public_functions``; these are the methods that carry work.
METHODS = (
    ("presentations", "PhiMap", "word_image", "presentations.PhiMap.word_image"),
    ("presentations", "PhiMap", "element_image", "presentations.PhiMap.element_image"),
    ("presentations", "Word", "parse", "presentations.Word.parse"),
    ("laurent", "LaurentMatrix", "smith_normal_form", "laurent.smith_normal_form"),
    ("laurent", "LaurentMatrix", "determinant", "laurent.determinant"),
    ("laurent", "LaurentMatrix", "minors_gcd", "laurent.minors_gcd"),
    ("laurent", "LaurentMatrix", "specialize", "laurent.specialize"),
    ("scalars", "CycloNumber", "inverse", "scalars.CycloNumber.inverse"),
    ("scalars", "ScalarMatrix", "rank", "scalars.ScalarMatrix.rank"),
    ("scalars", "ScalarMatrix", "det", "scalars.ScalarMatrix.det"),
)

SIZE_COUNTERS = ("homology.c0", "homology.c1", "homology.c2", "homology.boundary2.cells",
                 "homology.max_span", "scalars.max_coeff_bits")


def public_functions():
    """(module, name, function) for each public function a traced module
    defines itself."""
    out = []
    for mod_name in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out.append((mod, name, obj))
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.sizes: list[dict] = []  # one entry per top-level complex
        self._stack: list[list] = []  # [name, child_s] per open span
        self._depth: dict[str, int] = {}
        self._undo: list = []

    def take(self) -> dict:
        """Return the span totals since the last take and start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, name, fn, sizes=False):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                depth[name] -= 1
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += elapsed - frame[1]
                if depth[name] == 0:
                    st[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if sizes and stack and stack[-1][0] == "jobs.run_job":
                self.sizes.append(complex_sizes(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        mods.append(importlib.import_module(PACKAGE))
        replace = {}
        for mod, name, fn in public_functions():
            span = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
            replace[id(fn)] = (fn, self._wrap(span, fn, sizes=(span == "homology.build_complex")))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            fn = vars(cls)[meth]
            if isinstance(fn, classmethod):
                wrapped = classmethod(self._wrap(span, fn.__func__))
            else:
                wrapped = self._wrap(span, fn)
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def complex_sizes(cx) -> dict:
    """Deterministic shape and size counters of a TwistedChainComplex."""
    max_span = 0
    max_bits = 0
    for matrix in (cx.boundary1, cx.boundary2):
        for row in matrix.entries:
            for poly in row:
                if poly.is_zero():
                    continue
                max_span = max(max_span, poly.span)
                for c in poly.coeffs:
                    max_bits = max(max_bits, c.den.bit_length(), *(abs(x).bit_length() for x in c.nums))
    return {
        "homology.c0": cx.rank0,
        "homology.c1": cx.rank1,
        "homology.c2": cx.rank2,
        "homology.boundary2.cells": cx.boundary2.rows * cx.boundary2.cols,
        "homology.max_span": max_span,
        "scalars.max_coeff_bits": max_bits,
    }
