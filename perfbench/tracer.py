"""Timing wrappers installed around convdef's public functions from outside the library.

A span's self time is its duration minus the durations of the spans it
encloses.  Each wrapper is patched into every convdef module namespace that
bound the original object (`rref` lives in `convdef.linalg` and `convdef`,
`takeuchi_invert` also in `convdef.cli` and `convdef.deformation`), and
`Tracer.restore` puts the originals back.  A function that no longer
exists is reported as absent instead of failing, so the same benchmark
keeps running after a refactor deletes or moves one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _calls(group):
    return lambda args, result: ((f"{group}.calls", 1),)


def _assemble(args, result):
    nnz = getattr(result, "nnz", None)
    if nnz is None:
        nnz = sum(1 for row in result.data for x in row if x)
    elif callable(nnz):
        nnz = nnz()
    return (
        ("cohomology.assemble.calls", 1),
        ("cohomology.assemble.entries", result.rows * result.cols),
        ("cohomology.assemble.nnz", nnz),
    )


def _rref(args, result):
    return ("linalg.rref.calls", 1), ("linalg.rref.cells", args[0].rows * args[0].cols)


def _matmul(args, result):
    a, b = args[0], args[1]
    return ("linalg.matmul.calls", 1), ("linalg.matmul.mults", a.rows * a.cols * b.cols)


def _kron(args, result):
    return ("linalg.kron.calls", 1), ("linalg.kron.cells", result.rows * result.cols)


def _render(args, result):
    return (("specfile.report_bytes", len(result.encode("utf-8"))),)


# Spans: (group, "module:qualname", counts).  Their self times are the layer metrics.
SPANS = [
    ("cli", "convdef.cli:main", None),
    ("specfile.parse", "convdef.specfile:parse_text", _calls("specfile.parse")),
    ("specfile.render", "convdef.specfile:render_report", _render),
    ("coalgebra.validate", "convdef.coalgebra:Coalgebra.validate", _calls("coalgebra.validate")),
    ("extension.build", "convdef.extension:build_extension", _calls("extension.build")),
    ("extension.build", "convdef.extension:graded_extension", _calls("extension.build")),
    ("cohomology.assemble", "convdef.cohomology:ComplexSpec.differential_matrix", _assemble),
    ("cohomology.cohomology", "convdef.cohomology:ComplexSpec.cohomology", None),
    ("linalg.rref", "convdef.linalg:rref", _rref),
    ("linalg.reduce", "convdef.linalg:Subspace.contains_vector", _calls("linalg.reduce")),
    ("linalg.matmul", "convdef.linalg:Matrix.__matmul__", _matmul),
    ("linalg.kron", "convdef.linalg:Matrix.kron", _kron),
    ("convolution.compose", "convdef.convolution:conv_compose", _calls("convolution.compose")),
    ("convolution.tensor", "convdef.convolution:conv_tensor", _calls("convolution.tensor")),
    ("convolution.invert", "convdef.convolution:takeuchi_invert", _calls("convolution.invert")),
    ("deformation.mc_solve", "convdef.deformation:mc_solve", _calls("deformation.mc_solve")),
    ("deformation.zeta", "convdef.deformation:obstruction_zeta", None),
]

# Counters: (group, "module:qualname", counts, inclusive).  They open no span, so
# their own time stays with the enclosing span; `inclusive` adds <group>.total_s.
COUNTERS = [
    ("cohomology.coface", "convdef.cohomology:ComplexSpec.coface", _calls("cohomology.coface"), False),
    ("cohomology.assoc", "convdef.cohomology:is_associative", _calls("cohomology.assoc"), True),
    ("deformation.materialize", "convdef.deformation:make_deformation", _calls("deformation.materialize"), False),
    ("deformation.kept", "convdef.deformation:classify",
     lambda args, result: (("deformation.kept", len(result.representatives)),), False),
    ("deformation.kept", "convdef.deformation:series_deform",
     lambda args, result: (("deformation.kept", len(result.branches)),), False),
    ("deformation.unit_check", "convdef.deformation:is_unit_of", _calls("deformation.unit_check"), False),
]


def _resolve(target: str):
    """(owner, attribute, original) for "module:name" or "module:Class.method"."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target} not found")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Span and count recorder; `install` patches the wrappers, `restore` removes them."""

    def __init__(self):
        self.absent: list[str] = []
        self.count_errors: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> dict:
        """Start a new accumulation period; returns the one that ended."""
        prev = getattr(self, "totals", None)
        self.totals: dict[str, float] = defaultdict(int)
        return dict(prev) if prev is not None else {}

    def install(self) -> None:
        for group, target, counts in SPANS:
            self._patch(target, lambda fn, g=group, c=counts: self._span(g, fn, c))
        for group, target, counts, inclusive in COUNTERS:
            self._patch(target, lambda fn, g=group, c=counts, i=inclusive: self._counter(g, fn, c, i))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target: str, make) -> None:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            if target not in self.absent:
                self.absent.append(target)
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "convdef" or name.startswith("convdef.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _count(self, counts, args, result) -> None:
        try:
            for name, inc in counts(args, result):
                self.totals[name] += inc
        except (AttributeError, TypeError, ValueError):
            self.count_errors.add(getattr(counts, "__name__", repr(counts)))

    def _span(self, group: str, fn, counts):
        stack, key = self._stack, f"{group}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.totals[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if counts is not None:
                self._count(counts, args, result)
            return result

        return wrapper

    def _counter(self, group: str, fn, counts, inclusive: bool):
        key = f"{group}.total_s"
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if inclusive and depth[0] == 0:
                    self.totals[key] += perf_counter() - t0
            self._count(counts, args, result)
            return result

        return wrapper


# The per-layer metrics, with their units.  Counts are exact per pass.
LAYER_METRICS = {
    "cli.self_s": "s",
    "specfile.parse.self_s": "s",
    "specfile.parse.calls": "count",
    "specfile.render.self_s": "s",
    "specfile.report_bytes": "bytes",
    "coalgebra.validate.self_s": "s",
    "coalgebra.validate.calls": "count",
    "extension.build.self_s": "s",
    "extension.build.calls": "count",
    "cohomology.assemble.self_s": "s",
    "cohomology.assemble.calls": "count",
    "cohomology.assemble.entries": "count",
    "cohomology.assemble.nnz": "count",
    "cohomology.coface.calls": "count",
    "cohomology.cohomology.self_s": "s",
    "cohomology.assoc.calls": "count",
    "cohomology.assoc.total_s": "s",
    "linalg.rref.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.reduce.self_s": "s",
    "linalg.reduce.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matmul.mults": "count",
    "linalg.kron.self_s": "s",
    "linalg.kron.calls": "count",
    "linalg.kron.cells": "count",
    "convolution.compose.self_s": "s",
    "convolution.compose.calls": "count",
    "convolution.tensor.self_s": "s",
    "convolution.tensor.calls": "count",
    "convolution.invert.self_s": "s",
    "convolution.invert.calls": "count",
    "deformation.mc_solve.self_s": "s",
    "deformation.mc_solve.calls": "count",
    "deformation.zeta.self_s": "s",
    "deformation.materialize.calls": "count",
    "deformation.kept_ratio": "ratio",
    "deformation.unit_check.calls": "count",
    "unattributed_s": "s",
    "trace.overhead": "ratio",
}
