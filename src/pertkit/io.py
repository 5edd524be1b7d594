"""Problem/result documents and deterministic JSON serialization.

A problem file is a single JSON document: dimension, physical constants, the
graded terms (complex entries as [re, im] pairs), the method and its block
or mask description, and optional tolerance overrides.  Result documents
echo a hash of the problem bytes, then carry the per-order corrections and
generator matrices keyed by order ("j") and (order, harmonic) ("j,k").

All output floats are rendered with 17 significant digits so identical
inputs produce byte-identical documents.  Matrices travel as float arrays of
[re, im] pairs and are rendered one row per format call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .engine import DEFAULT_RES_TOL, Mask, TransformResult
from .graded import GradedOperator, ZERO_RTOL

METHODS = ("swt", "fd", "ace", "la")


class ProblemFormatError(ValueError):
    """The problem document is structurally malformed."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return f"{x:.17g}"


def _pairs_json(arr: np.ndarray) -> str:
    """A (rows, cols, 2) float array as nested lists, one format call per row."""
    if not np.isfinite(arr).all():
        raise ValueError("cannot serialize non-finite float")
    rows, cols, _ = arr.shape
    row_format = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
    lines = arr.reshape(rows, 2 * cols).tolist()
    return "[" + ",".join(row_format % tuple(row) for row in lines) + "]"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed 17-significant-digit floats.

    A float array of shape (rows, cols, 2), as ``matrix_to_json`` returns,
    renders exactly as the same nested lists of floats would.
    """
    if (isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
            and obj.ndim == 3 and obj.shape[2] == 2):
        return _pairs_json(obj)
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_to_json(mat: np.ndarray) -> np.ndarray:
    """A complex matrix as a (rows, cols, 2) float array of [re, im] pairs."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1)


def matrix_from_json(data, dim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (dim, dim, 2):
        raise ProblemFormatError(
            f"matrix must be {dim}x{dim} of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def problem_hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


@dataclass
class ProblemSpec:
    dim: int
    hbar: float
    omega_d: float | None
    method: str
    max_order: int
    terms: dict[tuple[int, int], np.ndarray]
    block_sizes: tuple[int, ...] | None = None
    mask_spec: Any = None
    tolerances: dict[str, float] = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ProblemSpec":
        try:
            dim = int(doc["dim"])
            method = str(doc["method"])
            max_order = int(doc["max_order"])
            raw_terms = doc["terms"]
        except (KeyError, TypeError, ValueError) as err:
            raise ProblemFormatError(f"missing or malformed required field: {err}") from err
        if method not in METHODS:
            raise ProblemFormatError(f"unknown method {method!r}; expected one of {METHODS}")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ProblemFormatError("terms must be a nonempty list")
        terms: dict[tuple[int, int], np.ndarray] = {}
        for entry in raw_terms:
            try:
                key = (int(entry["order"]), int(entry.get("harmonic", 0)))
                mat = matrix_from_json(entry["matrix"], dim)
            except (KeyError, TypeError, ValueError) as err:
                raise ProblemFormatError(f"malformed term entry: {err}") from err
            if key in terms:
                raise ProblemFormatError(f"duplicate term key {key}")
            terms[key] = mat
        hbar = float(doc.get("hbar", 1.0))
        omega_d = doc.get("omega_d")
        omega_d = None if omega_d is None else float(omega_d)
        block_sizes = doc.get("block_sizes")
        if block_sizes is not None:
            block_sizes = tuple(int(s) for s in block_sizes)
        tolerances = {str(k): float(v) for k, v in (doc.get("tolerances") or {}).items()}
        return ProblemSpec(
            dim=dim, hbar=hbar, omega_d=omega_d, method=method,
            max_order=max_order, terms=terms, block_sizes=block_sizes,
            mask_spec=doc.get("mask"), tolerances=tolerances,
        )

    def to_graded(self) -> GradedOperator:
        return GradedOperator(self.dim, self.terms, omega_d=self.omega_d)

    def build_mask(self) -> Mask:
        spec = self.mask_spec
        if spec is None:
            raise ProblemFormatError(f"method {self.method!r} requires a mask")
        if isinstance(spec, dict) and "block_sizes" in spec:
            return Mask.block_off_diagonal([int(s) for s in spec["block_sizes"]])
        if isinstance(spec, dict) and "entries" in spec:
            return Mask.from_pairs(self.dim, [(int(i), int(j)) for i, j in spec["entries"]])
        if isinstance(spec, list):
            return Mask(np.asarray(spec, dtype=bool))
        raise ProblemFormatError("mask must be a boolean matrix, {block_sizes} or {entries}")

    def resolved_tolerances(self, deg_override=None, res_override=None):
        deg = deg_override if deg_override is not None else self.tolerances.get("degeneracy")
        res = res_override if res_override is not None else self.tolerances.get(
            "resonance", DEFAULT_RES_TOL
        )
        return deg, res


def load_problem(path: str) -> tuple[ProblemSpec, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ProblemFormatError(f"invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    return ProblemSpec.from_dict(doc), problem_hash(raw)


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------


def _series_to_json(series: dict[int, GradedOperator]) -> dict:
    out: dict[str, dict] = {}
    for order, op in series.items():
        entry: dict[str, Any] = {}
        for (j, k), mat in sorted(op.items()):
            entry[f"{j},{k}"] = matrix_to_json(mat)
        out[str(order)] = entry
    return out


def _series_from_json(data: dict, dim: int, omega_d: float | None) -> dict[int, GradedOperator]:
    series: dict[int, GradedOperator] = {}
    for order_key, entry in data.items():
        terms = {}
        for jk, mat in entry.items():
            j_str, _, k_str = jk.partition(",")
            terms[(int(j_str), int(k_str))] = matrix_from_json(mat, dim)
        series[int(order_key)] = GradedOperator(dim, terms, omega_d=omega_d)
    return series


def result_document(result: TransformResult, spec_hash: str) -> dict:
    return {
        "problem_sha256": spec_hash,
        "method": result.method,
        "dim": result.dim,
        "max_order": result.max_order,
        "hbar": result.hbar,
        "omega_d": result.omega_d,
        "energies": [float(e) for e in result.frame.energies],
        "corrections": _series_to_json(result.corrections),
        "generator": _series_to_json(result.generator),
        "diagnostics": {
            "products": result.diagnostics.products,
            "resonances": [],
            "tolerances": {"zero": ZERO_RTOL},
            "timings": None,
        },
    }


@dataclass
class ResultView:
    """Just enough of a result document to rotate operators against it."""

    problem_sha256: str
    dim: int
    max_order: int
    hbar: float
    omega_d: float | None
    corrections: dict[int, GradedOperator]
    generator: dict[int, GradedOperator]


def load_result(path: str) -> ResultView:
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    try:
        dim = int(doc["dim"])
        omega_d = doc.get("omega_d")
        omega_d = None if omega_d is None else float(omega_d)
        return ResultView(
            problem_sha256=str(doc["problem_sha256"]),
            dim=dim,
            max_order=int(doc["max_order"]),
            hbar=float(doc["hbar"]),
            omega_d=omega_d,
            corrections=_series_from_json(doc["corrections"], dim, omega_d),
            generator=_series_from_json(doc["generator"], dim, omega_d),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ProblemFormatError(f"malformed result document: {err}") from err


# ---------------------------------------------------------------------------
# operator documents
# ---------------------------------------------------------------------------


def load_operator(path: str, dim: int, omega_d: float | None) -> GradedOperator:
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    if not isinstance(doc, dict) or "terms" not in doc:
        raise ProblemFormatError("operator document must carry a terms list")
    own_omega = doc.get("omega_d")
    own_omega = None if own_omega is None else float(own_omega)
    terms = {}
    for entry in doc["terms"]:
        try:
            key = (int(entry["order"]), int(entry.get("harmonic", 0)))
            terms[key] = matrix_from_json(entry["matrix"], dim)
        except (KeyError, TypeError, ValueError) as err:
            raise ProblemFormatError(f"malformed operator term: {err}") from err
    return GradedOperator(dim, terms, omega_d=own_omega if own_omega is not None else omega_d)


def operator_document(op: GradedOperator) -> dict:
    return {
        "dim": op.dim,
        "omega_d": op.omega_d,
        "terms": [
            {"order": j, "harmonic": k, "matrix": matrix_to_json(mat)}
            for (j, k), mat in sorted(op.items())
        ],
    }


def write_document(path: str, doc: dict) -> None:
    text = canonical_json(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
