"""Small helpers that only the tests use: a model mask, a closed-form level, a graded
operator's time derivative, a table reduction, README's minimal problem, a problem whose generator is written sparse, a
matrix's JSON forms (sparse with binary or text values, and binary), a matrix with
binary values as its grid, and the command line run in its own process."""

from __future__ import annotations

import base64
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np

from pertkit.engine import Mask
from pertkit.experiments import EtaRow
from pertkit.graded import GradedOperator, GradedSum
from pertkit.models import TransmonParams


def edsr_parity_mask(n_max: int) -> Mask:
    """Mask every entry connecting opposite Fock parities (both spins).

    This is the block pattern a standard SWT of the full driven model
    eliminates: it separates even from odd oscillator excitation numbers and
    removes both the slanting-field coupling and the direct drive.
    """
    fock = np.tile(np.arange(n_max), 2)
    return Mask((fock[:, None] + fock[None, :]) % 2 == 1)


def transmon_energy(p: TransmonParams, n_t: int, n_r: int) -> float:
    """Bare level w_t n_t + w_r n_r + (alpha/2) n_t (n_t - 1)."""
    return p.omega_t * n_t + p.omega_r * n_r + 0.5 * p.alpha * n_t * (n_t - 1)


def time_derivative(op: GradedOperator) -> GradedOperator:
    """d/dt of a graded operator: each term times i k omega_d.

    Static content (k = 0) drops out.  The i*hbar factor of a time-dependent
    generator condition is the caller's.
    """
    derivative = GradedSum({(j, k): (1j * k * op.omega_d) * mat
                            for (j, k), mat in op.terms.items() if k != 0})
    return GradedOperator._adopt(op.dim, derivative, op.omega_d)


def median_eta_by_order(rows: list[EtaRow]) -> dict[int, float]:
    by_order: dict[int, list[float]] = {}
    for row in rows:
        by_order.setdefault(row.order, []).append(row.eta)
    return {n: median(values) for n, values in sorted(by_order.items())}


def readme_problem() -> dict:
    """The problem document that follows README's "A minimal problem file:"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("A minimal problem file:")
    return json.loads(re.compile(r"^```json\n(.*?)^```", re.S | re.M).search(readme, start).group(1))


def chain_problem(d: int = 8, coupling: float = 0.05) -> dict:
    """An fd problem: d levels E_i = i + 0.37 i^2 coupled at first order between
    neighbours.  Its order-1 generator holds 2(d - 1) nonzero pairs, its order-2
    one 2(d - 2), so at d = 8 both are written sparse (14 and 12 of 64); orders
    3 and 4 are dense."""
    levels = [[[float(i == j) * (i + 0.37 * i * i), 0] for j in range(d)] for i in range(d)]
    hops = [[[coupling * (abs(i - j) == 1), 0] for j in range(d)] for i in range(d)]
    return {"dim": d, "method": "fd", "max_order": 4,
            "terms": [{"order": 0, "matrix": levels}, {"order": 1, "matrix": hops}]}


def sparse_json(matrix: list) -> dict:
    """A JSON grid of [re, im] pairs in sparse form with text values, naming every
    pair with a part that is not +0.0 (a -0.0 part keeps its pair)."""
    pairs = [pair for row in matrix for pair in row]
    at = [i for i, pair in enumerate(pairs)
          if any(part != 0 or math.copysign(1.0, part) < 0 for part in pair)]
    return {"at": at, "values": [pairs[i] for i in at]}


def binary_json(matrix) -> dict:
    """A complex matrix, or a JSON grid of [re, im] pairs, in binary form: the
    base64 of its row-major little-endian complex128 values, every sign of zero kept."""
    values = np.asarray(matrix)
    if values.ndim == 3:  # a grid: its pairs are the parts of complex values
        values = np.ascontiguousarray(values, dtype="<f8").view("<c16")[..., 0]
    return {"c16": base64.b64encode(np.ascontiguousarray(values, dtype="<c16")).decode("ascii")}


def sparse_binary_json(matrix: list) -> dict:
    """A JSON grid of [re, im] pairs in the sparse form pertkit writes: the pairs
    that ``sparse_json`` names, their values in ``binary_json``'s bytes."""
    thin = sparse_json(matrix)
    return {"at": thin["at"], "c16": binary_json([thin["values"]])["c16"]}


def grid_json(matrix, dim: int):
    """A ``dim`` x ``dim`` JSON matrix whose values are binary, {"c16"} or {"at",
    "c16"}, as the grid of its [re, im] pairs, signs of zero kept; a matrix in any
    other form as it is."""
    if type(matrix) is not dict or "c16" not in matrix:
        return matrix
    values = np.frombuffer(base64.b64decode(matrix["c16"]), dtype="<c16")
    flat = np.zeros(dim * dim, dtype="<c16")
    flat[matrix.get("at", slice(None))] = values
    return [[[float(z.real), float(z.imag)] for z in flat[row:row + dim]]
            for row in range(0, flat.size, dim)]


def with_grids(doc: dict) -> dict:
    """A result document with each generator matrix whose values are binary
    written as its grid."""
    return {**doc, "generator": {n: {key: grid_json(mat, doc["dim"]) for key, mat in entry.items()}
                                 for n, entry in doc["generator"].items()}}


def run_cli(*argv) -> subprocess.CompletedProcess:
    """``python -m pertkit.cli`` with ``argv`` in a separate process, so that its
    exit status and everything it prints on stderr, warnings included, are seen."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "pertkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
