"""Per-module spans recorded from outside the package.

``Tracer.install`` wraps every listed function and rebinds the wrapper in
every ``dmajor.*`` namespace that holds the original.  Rebinding everywhere
matters: ``from .linalg import expm`` copies the binding into ``reach`` and
``dissipation``, and ``phase1_feasible`` is bound in ``majorize``, so
patching only the defining module would miss those calls.  ``uninstall``
puts every original binding back.

Spans stay in memory as [name, start, end, parent, op, failed, extra] until
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# The functions whose calls the per-layer metrics count, by module of
# src/dmajor.
LISTED = {
    "linalg": ("expm", "hermitian_eig"),
    "_simplex": ("phase1_feasible",),
    "majorize": ("d_majorizes", "d_stochastic_transfer", "thermo_curve", "majorizes"),
    "polytope": ("vertices", "halfspace_bounds", "contains", "max_corner", "hausdorff"),
    "dissipation": ("flow", "propagator"),
    "reach": ("synthesize", "synthesize_from_ground", "_first_face_hit", "synthesize_local",
              "majorization_envelope", "reachable_sample", "simulate"),
    "channels": ("channel_between", "kraus_set", "is_cp", "is_tp", "choi"),
    "cnr": ("c_numerical_range_sample",),
    "cli": ("main",),
}


def _phase1_cells(args, kwargs, result) -> dict:
    m, n = args[0].shape
    return {"cells": m * (n + m + 1)}


def _vertex_counts(args, kwargs, result) -> dict:
    extra = {"n": len(args[0])}
    if result is not None:
        extra["kept"] = len(result)
    return extra


# extra span data taken from the arguments and the result
ANNOTATE = {"_simplex.phase1_feasible": _phase1_cells, "polytope.vertices": _vertex_counts}

NAME, START, END, PARENT, OP, FAILED, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if annotate is not None:
                    span[EXTRA] = annotate(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap the listed functions of every imported dmajor module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "dmajor" or key.startswith("dmajor."))]
        for module, names in LISTED.items():
            defining = sys.modules.get(f"dmajor.{module}")
            if defining is None:
                continue
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def rows(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "op": s[OP], "failed": s[FAILED], "extra": s[EXTRA]} for s in self.spans]
