"""Problem, result, operator and experiment documents; deterministic JSON.

Every input is a JSON object read by ``read_document`` and converted inside
``converting``; a failure of either raises ProblemFormatError.  Problems and
operators share one ``terms`` list of {order, harmonic = 0, matrix} entries,
each key at most once.  Result documents echo a hash of the problem bytes and
carry corrections and generator keyed by order ("j") and key ("j,k").

All output floats are rendered with 17 significant digits so identical
inputs produce byte-identical documents.  Matrices travel as float arrays of
[re, im] pairs and are rendered one row per format call.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

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


def read_document(path: str) -> tuple[dict, bytes]:
    """The JSON object stored at ``path`` and its raw bytes, or ProblemFormatError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as err:
        raise ProblemFormatError(f"cannot read a JSON document from {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path} must hold a JSON object")
    return doc, raw


@contextmanager
def converting(what: str):
    """A field of ``what`` that does not convert raises ProblemFormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ProblemFormatError(f"malformed {what}: {err}") from err


def _ints(values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise TypeError(f"expected a list of integers, got {values!r}")
    return tuple(int(v) for v in values)


def _terms_from_json(entries, dim: int) -> dict[tuple[int, int], np.ndarray]:
    """A ``terms`` list of {order, harmonic = 0, matrix} entries, each key once."""
    if not isinstance(entries, list):
        raise TypeError("terms must be a list of {order, harmonic, matrix} entries")
    terms: dict[tuple[int, int], np.ndarray] = {}
    for entry in entries:
        key = (int(entry["order"]), int(entry.get("harmonic", 0)))
        if key in terms:
            raise ValueError(f"duplicate term key {key}")
        terms[key] = matrix_from_json(entry["matrix"], dim)
    return terms


def _mask_spec_from_json(spec, dim: int):
    """The ace mask spec as a Mask constructor and its converted arguments;
    ``build_mask`` calls it, so its rule checks raise ValueError, not parse errors."""
    if spec is None:
        return None
    if isinstance(spec, dict) and "block_sizes" in spec:
        return Mask.block_off_diagonal, (_ints(spec["block_sizes"]),)
    if isinstance(spec, dict) and "entries" in spec:
        return Mask.from_pairs, (dim, tuple((int(i), int(j)) for i, j in spec["entries"]))
    if isinstance(spec, list):
        return Mask, (np.asarray(spec, dtype=bool),)
    raise TypeError("mask must be a boolean matrix, {block_sizes} or {entries}")


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
    mask_spec: tuple[Callable[..., Mask], tuple] | None = None
    tolerances: dict[str, float] = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ProblemSpec":
        with converting("problem document"):
            dim = int(doc["dim"])
            block_sizes = doc.get("block_sizes")
            spec = ProblemSpec(
                dim=dim, hbar=float(doc.get("hbar", 1.0)), method=str(doc["method"]),
                omega_d=None if doc.get("omega_d") is None else float(doc["omega_d"]),
                max_order=int(doc["max_order"]), terms=_terms_from_json(doc["terms"], dim),
                block_sizes=None if block_sizes is None else _ints(block_sizes),
                mask_spec=_mask_spec_from_json(doc.get("mask"), dim),
                tolerances={str(k): float(v) for k, v in (doc.get("tolerances") or {}).items()},
            )
        if spec.method not in METHODS:
            raise ProblemFormatError(f"unknown method {spec.method!r}; expected one of {METHODS}")
        if not spec.terms:
            raise ProblemFormatError("terms must be a nonempty list")
        return spec

    def to_graded(self) -> GradedOperator:
        return GradedOperator(self.dim, self.terms, omega_d=self.omega_d)

    def build_mask(self) -> Mask:
        if self.mask_spec is None:
            raise ProblemFormatError(f"method {self.method!r} requires a mask")
        build, args = self.mask_spec
        return build(*args)

    def resolved_tolerances(self, deg_override=None, res_override=None):
        deg = deg_override if deg_override is not None else self.tolerances.get("degeneracy")
        res = res_override if res_override is not None else self.tolerances.get(
            "resonance", DEFAULT_RES_TOL
        )
        return deg, res


def load_problem(path: str) -> tuple[ProblemSpec, str]:
    doc, raw = read_document(path)
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
    omega_d: float | None
    generator: dict[int, GradedOperator]


def load_result(path: str) -> ResultView:
    doc, _ = read_document(path)
    with converting("result document"):
        dim = int(doc["dim"])
        omega_d = None if doc.get("omega_d") is None else float(doc["omega_d"])
        return ResultView(
            problem_sha256=str(doc["problem_sha256"]),
            dim=dim,
            max_order=int(doc["max_order"]),
            omega_d=omega_d,
            generator=_series_from_json(doc["generator"], dim, omega_d),
        )


# ---------------------------------------------------------------------------
# operator documents
# ---------------------------------------------------------------------------


def load_operator(path: str, dim: int, omega_d: float | None) -> GradedOperator:
    """An operator document's terms; its own ``omega_d``, if any, wins."""
    doc, _ = read_document(path)
    with converting("operator document"):
        own_omega = None if doc.get("omega_d") is None else float(doc["omega_d"])
        terms = _terms_from_json(doc["terms"], dim)
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
