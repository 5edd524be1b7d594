"""In-memory span tracing of pertkit's layers, wired from outside the package.

Each traced function is replaced, in every ``pertkit`` module that binds it,
by a wrapper that records one span: name, start, end, parent span and op id.
Patching every binding matters because ``engine`` and ``least_action`` import
names such as ``nested_commutator`` with ``from .graded import ...``, and
``graded`` calls ``nested_commutator`` recursively through its own global.

Spans live in flat typed arrays (40 bytes each) so an order-14 sweep, about
a million graded calls, stays small; they are written out when the run ends.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "io", "engine", "graded", "least_action", "oracle", "experiments", "models")

#: (layer, module, attribute path) of every traced function.  Names missing
#: from the package under test are skipped and listed in ``Tracer.missing``.
TARGETS = (
    ("cli", "pertkit.cli", "main"),
    ("cli", "pertkit.cli", "cmd_transform"),
    ("cli", "pertkit.cli", "cmd_rotate"),
    ("cli", "pertkit.cli", "cmd_oracle"),
    ("cli", "pertkit.cli", "cmd_experiment"),
    ("cli", "pertkit.cli", "_run_problem"),
    ("io", "pertkit.io", "load_problem"),
    ("io", "pertkit.io", "load_operator"),
    ("io", "pertkit.io", "load_result"),
    ("io", "pertkit.io", "result_document"),
    ("io", "pertkit.io", "operator_document"),
    ("io", "pertkit.io", "matrix_to_json"),
    ("io", "pertkit.io", "write_document"),
    ("engine", "pertkit.engine", "run_swt"),
    ("engine", "pertkit.engine", "run_fd"),
    ("engine", "pertkit.engine", "run_ace"),
    ("engine", "pertkit.engine", "solve_generator_order"),
    ("engine", "pertkit.engine", "rotate_operator"),
    ("least_action", "pertkit.least_action", "run_la"),
    ("least_action", "pertkit.least_action", "compute_la_generator"),
    ("least_action", "pertkit.least_action", "_LABuilder.epsilon_order"),
    ("least_action", "pertkit.least_action", "_LABuilder.w_order"),
    ("graded", "pertkit.graded", "nested_commutator"),
    ("graded", "pertkit.graded", "commutator"),
    ("graded", "pertkit.graded", "GradedOperator.__init__"),
    ("graded", "pertkit.graded", "GradedOperator.__matmul__"),
    ("graded", "pertkit.graded", "GradedOperator.__add__"),
    ("graded", "pertkit.graded", "GradedOperator.__mul__"),
    ("oracle", "pertkit.oracle", "exact_block_diagonalize"),
    ("oracle", "pertkit.oracle", "evaluate_at"),
    ("oracle", "pertkit.oracle", "spectral_distance"),
    ("oracle", "pertkit.oracle", "partial_sum_matrix"),
    ("experiments", "pertkit.experiments", "run_fig3_experiment"),
    ("experiments", "pertkit.experiments", "_instance_rows"),
    ("experiments", "pertkit.experiments", "eta_rows_to_csv"),
    ("models", "pertkit.models", "random_bd_hamiltonian"),
    ("models", "pertkit.models", "_random_bd"),
    ("models", "pertkit.models", "build_transmon_resonator"),
    ("models", "pertkit.models", "build_edsr"),
)


def span_name(layer: str, path: str) -> str:
    short = path.rsplit(".", 1)[-1].strip("_")
    return f"{layer}.{short}"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pertkit" or name.startswith("pertkit."))]


class Tracer:
    """Records spans of patched functions; single-threaded use only."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.ops = array("q")
        self.counters = {"dense_products": 0, "flop": 0, "bytes_written": 0}
        #: span index -> (cache hits, misses) reported by a transform's result
        self.diagnostics: dict[int, tuple[int, int]] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._op = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper of ``fn`` recording one span per call.

        ``before(args)`` and ``after(args, result, span)`` update counters
        inside the span.
        """
        nid = self._intern(name)
        starts, ends, parents, name_ids, ops = (
            self.starts, self.ends, self.parents, self.name_ids, self.ops)
        stack, op, clock = self._stack, self._op, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ends)
            parents.append(stack[-1])
            name_ids.append(nid)
            ops.append(op[0])
            ends.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, idx)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ----------------------------------------------------

    def _count_products(self, args):
        a, b = args[0], args[1]
        n = len(a.keys()) * len(b.keys())
        self.counters["dense_products"] += n
        self.counters["flop"] += 8 * a.dim ** 3 * n

    def _count_bytes(self, args, result, span):
        self.counters["bytes_written"] += os.path.getsize(args[0])

    def _record_diagnostics(self, args, result, span):
        diag = getattr(result, "diagnostics", None)
        if diag is not None and hasattr(diag, "cache_hits"):
            self.diagnostics[span] = (diag.cache_hits, diag.cache_misses)

    def install(self) -> None:
        """Patch every target wherever the package binds it."""
        hooks = {
            "graded.matmul": (self._count_products, None),
            "io.write_document": (None, self._count_bytes),
        }
        for name in ("engine.run_swt", "engine.run_fd", "engine.run_ace", "least_action.run_la"):
            hooks[name] = (None, self._record_diagnostics)
        modules = _package_modules()
        for layer, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            name = span_name(layer, path)
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(name, original, before, after)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Views of the span arrays, not copies; record no spans after this."""
        return {
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "name": np.frombuffer(self.name_ids, dtype=np.int64),
            "op": np.frombuffer(self.ops, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        sp = self.spans()
        np.savez(path, names=np.array(self.names), start=sp["start"], end=sp["end"],
                 parent=sp["parent"].astype(np.int32), name=sp["name"].astype(np.int16),
                 op=sp["op"].astype(np.int32))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (spans from several threads); the
    covered part is the length of the union of their intervals, clipped to
    the parent's.  Siblings that do not overlap, the single-threaded case,
    are summed directly; only parents with overlapping children are merged
    interval by interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.minimum(end[kids], end[p])
    same = np.r_[False, p[1:] == p[:-1]]
    overlapping = np.unique(p[same & (s < np.r_[-np.inf, e[:-1]])])
    simple = ~np.isin(p, overlapping)
    covered = np.bincount(p[simple], weights=np.maximum(e - s, 0.0)[simple], minlength=len(start))
    for q in overlapping.tolist():
        reach = start[q]
        for si, ei in zip(s[p == q].tolist(), e[p == q].tolist()):
            si = max(si, reach)
            if ei > si:
                covered[q] += ei - si
                reach = ei
    return (end - start) - covered


def outermost(parent, group) -> np.ndarray:
    """True for spans with no ancestor in the same group.

    Summing the durations of these spans counts recursive or nested calls
    of one group once.
    """
    parent = np.asarray(parent)
    group = np.asarray(group)
    out = np.ones(len(parent), dtype=bool)
    ancestor = parent.copy()
    live = np.flatnonzero(ancestor >= 0)
    while live.size:
        out[live[group[ancestor[live]] == group[live]]] = False
        ancestor[live] = parent[ancestor[live]]
        live = live[ancestor[live] >= 0]
    return out
