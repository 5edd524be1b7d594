"""Problem, result, operator and experiment documents; deterministic JSON.

Every input is a JSON object, each key given once, read by ``read_document``
and converted inside ``converting``; a failure of either raises
ProblemFormatError.  Every integer field goes through ``as_int`` and every
real field through ``as_float``; a problem document admits only
``PROBLEM_KEYS`` and ``TOLERANCE_KEYS``, an operator document only
``OPERATOR_KEYS`` and a result document only ``RESULT_KEYS``, its
generator holding the orders 1 .. max_order.  Problems and operators share one
``terms`` list of {order, harmonic = 0, matrix} entries, each key at most
once.  Result documents echo a hash of the problem bytes and carry
corrections and generator keyed by order ("n") and key ("j,k", with j = n),
each integer written as ``str`` writes it.

``read_document`` walks a well-formed top-level object itself and decodes
each member with its own hook, chosen by the member's key.  A member the
caller reads converts each matrix as the decoder closes the object that
holds it (the value of a "matrix" key, or of a "j,k" key in a result
series), while its [re, im] lists are still in the cache.  A value that
does not convert stays as decoded, for its reader to report.  A member the
caller names as unread (a result's "corrections", which ``rotate`` never
reads) is checked as JSON and for repeated keys, but not converted.  Any
other text is decoded again by ``json.loads``, whose verdict and messages
the reader keeps.

Decoding and conversion run with the cyclic garbage collector paused.
Decoded JSON is a tree of dicts, lists and scalars, and the conversion
builds arrays and specs from it, so neither holds a reference cycle:
reference counting frees all of it.  A collection pass, which CPython would
otherwise start every 700 new containers, would only walk and promote the
[re, im] lists, of which at most one object's matrices are alive at a time.

All output floats are rendered with 17 significant digits so identical
inputs produce byte-identical documents, except -0.0, which is written
"-0.0": ``json.loads`` reads the "-0" of ``%.17g`` as the int 0, and every
document pertkit writes reads back bit for bit.  Matrices travel as complex
arrays and are rendered as nested lists of [re, im] pairs.
``canonical_json`` walks a document once into a template with sorted keys,
where a zero matrix part is the literal "0" or "-0.0" and every other part
gets a placeholder after its sign; matrices of one shape are templated
together.  The template is then filled by one ``%`` with the magnitudes'
texts.  This keeps every byte, because for every finite nonzero double
``'%.17g' % x == ('-' if x < 0 else '') + '%.17g' % abs(x)``.  Each
distinct magnitude is formatted once, unless most of a document's are
distinct (``DISTINCT_SHARE``).  la corrections and generators are
hermitian and anti-hermitian bit for bit by construction (``least_action``
hands out their exact (anti-)hermitian parts), so about half their
magnitudes repeat.  swt, fd and ace results are so only where
their products happen to round symmetrically: with OpenBLAS, on random
static instances of d = 2 .. 16, only at d = 4, 8, 12 and 16, while driven
d = 5 complex fd results differ from their graded adjoints by up to about
1e-15 of a key's largest entry.  Where they are not, most of a document's
magnitudes are distinct and each float is formatted on its own, as in an
oracle document, whose U^dag and H_block are not (anti-)hermitian bit for
bit either.

Every output file, document or table, is written by ``write_output``.  An
existing file is overwritten in place (the same file, no rename) and then
cut to the new length; a target that is not a regular file, such as
/dev/null, is written but not cut.  The command line calls it only once a
command has succeeded, so a failing command writes nothing.  Nothing is
ever synced, and the write is not atomic: a kill during it leaves a
corrupt file, the new bytes followed by the old tail.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from json.decoder import WHITESPACE, scanstring
from typing import Any, Callable, TypeVar

import numpy as np

from .engine import DEFAULT_RES_TOL, Mask, TransformResult
from .errors import PertError
from .graded import GradedOperator, ZERO_RTOL
from .least_action import BlockStructure

METHODS = ("swt", "fd", "ace", "la")
PROBLEM_KEYS = ("dim", "hbar", "omega_d", "method", "max_order", "terms", "block_sizes",
                "mask", "tolerances")
TOLERANCE_KEYS = ("resonance",)
OPERATOR_KEYS = ("dim", "omega_d", "terms")
RESULT_KEYS = ("problem_sha256", "method", "dim", "max_order", "hbar", "omega_d", "energies",
               "corrections", "generator", "diagnostics")

T = TypeVar("T")


class ProblemFormatError(ValueError):
    """The problem document is structurally malformed."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _pair_tokens(placeholder: str) -> np.ndarray:
    """Each [re, im] pair with the separator after it, indexed by the state of
    re + 4 * the state of im + 16 * (0 inside a row, 1 at a row's end, 2 at
    the matrix's end).  A part's state is 0 for +0.0, written as the literal
    "0" that ``%.17g`` gives for it, 1 for a positive part, 2 for a negative
    one and 3 for -0.0, written as the literal "-0.0"; a live part's
    placeholder takes its magnitude."""
    parts = ("0", placeholder, "-" + placeholder, "-0.0")
    return np.array([f"[{re},{im}]{sep}" for sep in (",", "],[", "]]")
                     for im in parts for re in parts], dtype=object)


_TOKENS = {placeholder: _pair_tokens(placeholder) for placeholder in ("%s", "%.17g")}

#: Above this share of distinct magnitudes among a document's floats, each
#: float is formatted directly: looking the texts up costs more than it saves.
DISTINCT_SHARE = 0.75


def _literal(obj) -> str:
    """JSON text that goes into a template as is, its every "%" escaped."""
    return json.dumps(obj).replace("%", "%%")


def _magnitude_texts(values: np.ndarray) -> tuple[str, tuple]:
    """The placeholder for a document's live matrix parts and what fills them, in order.

    Only magnitudes fill a template, since the sign is part of it: for every
    finite nonzero double, ``%.17g`` of x is "-" if it is negative, followed
    by ``%.17g`` of |x|.  Each distinct magnitude is formatted once, with
    one ``%.17g`` call for all of them, unless most are distinct.  They are found by one argsort: ``np.unique`` costs twice
    the time and, on its first call, up to 1.3 MB more resident memory.
    """
    magnitudes = np.abs(values)
    order = np.argsort(magnitudes)
    ranked = magnitudes[order]
    first = np.ones(ranked.size, dtype=bool)  # each run of equal magnitudes starts anew
    first[1:] = ranked[1:] != ranked[:-1]
    distinct = ranked[first]
    if distinct.size >= DISTINCT_SHARE * values.size:
        return "%.17g", tuple(magnitudes.tolist())
    which = np.empty(values.size, dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    texts = (",".join(["%.17g"] * distinct.size) % tuple(distinct.tolist())).split(",")
    return "%s", tuple(np.array(texts, dtype=object)[which].tolist())


class _Template:
    """A document walked once into a template: its pieces of text, with a
    slot for every nonempty matrix, set once the whole document is walked.
    A scalar float is formatted where it stands; a document holds few.
    -0.0 is written "-0.0", as a matrix part is, and +0.0 "0".
    (A method, not a closure, walks it: a recursive closure would be a
    reference cycle holding the document's arrays.)"""

    def __init__(self, obj: Any):
        self.text: list = []  # the template's pieces; None at a slot
        self.floats: list = []  # the live parts of each matrix, in document order
        self.shapes: dict[tuple[int, ...], list[tuple[int, int, np.ndarray]]] = {}
        self._walk(obj)

    def _walk(self, obj) -> None:
        text = self.text
        if isinstance(obj, np.ndarray) and obj.dtype == np.complex128 and obj.ndim == 2:
            if obj.size:
                self.shapes.setdefault(obj.shape, []).append((len(text), len(self.floats), obj))
                text.append(None)
                self.floats.append(None)
            else:
                text.append("[" + ",".join(["[]"] * obj.shape[0]) + "]")
        elif obj is None or obj is True or obj is False or isinstance(obj, str):
            text.append(_literal(obj))
        elif isinstance(obj, (int, np.integer)):
            text.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            if not math.isfinite(obj):
                raise ValueError("cannot serialize non-finite float")
            negative_zero = obj == 0 and math.copysign(1.0, obj) < 0
            # digits, signs, "." and "e": nothing to escape
            text.append("-0.0" if negative_zero else "%.17g" % float(obj))
        elif isinstance(obj, dict):
            text.append("{")
            for i, (key, value) in enumerate(sorted(obj.items(), key=lambda kv: kv[0])):
                text.append(("," if i else "") + _literal(str(key)) + ":")
                self._walk(value)
            text.append("}")
        elif isinstance(obj, (list, tuple)):
            text.append("[")
            for i, value in enumerate(obj):
                if i:
                    text.append(",")
                self._walk(value)
            text.append("]")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    def _pair_states(self, group: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
        """The token index of every pair of a group of matrices of one shape.

        The matrices are stacked into one copy and read through its float
        view; each matrix's live parts, the ones not zero, fill its slot in
        ``floats``.
        """
        rows, cols = group[0][2].shape
        stacked = np.ascontiguousarray(np.stack([mat for _, _, mat in group]))
        arr = stacked.view(np.float64).reshape(len(group), rows, cols, 2)
        if not np.isfinite(arr).all():
            raise ValueError("cannot serialize non-finite float")
        live = arr != 0
        # one byte: indices stay below 48
        state = np.where(np.signbit(arr), np.uint8(3) - live, live.view(np.uint8))
        live = live.reshape(len(group), -1)
        ends = np.cumsum(np.count_nonzero(live, axis=1))[:-1]
        for (_, at_floats, _), parts in zip(group, np.split(arr.reshape(len(group), -1)[live], ends)):
            self.floats[at_floats] = parts
        where = np.zeros((rows, cols), dtype=np.uint8)
        where[:, -1], where[-1, -1] = 16, 32
        return (state[..., 0] + 4 * state[..., 1] + where).reshape(len(group), -1)

    def render(self) -> str:
        """The template's slots set, filled by one ``%``."""
        text, floats = self.text, self.floats
        states = [self._pair_states(group) for group in self.shapes.values()]
        placeholder, fill = _magnitude_texts(np.concatenate(floats) if floats else np.empty(0))
        for group, state in zip(self.shapes.values(), states):
            for (at_text, _, _), tokens in zip(group, _TOKENS[placeholder][state].tolist()):
                text[at_text] = "[[" + "".join(tokens)
        return "".join(text) % fill


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed 17-significant-digit floats.

    A 2-D complex128 array renders exactly as the nested lists of its
    [re, im] pairs would; any other array raises TypeError.  The document
    is walked once into a template with a placeholder for every live matrix
    part; matrices of one shape are templated together, and the template is
    filled by one ``%``.
    """
    return _Template(obj).render()


def matrix_from_json(data, dim: int) -> np.ndarray:
    """A ``dim`` x ``dim`` list of [re, im] pairs as a complex matrix.

    Every row must be a list of ``dim`` pairs and every part a JSON number,
    an int or a float: a string such as "0" or a boolean raises
    ProblemFormatError, where a float conversion would read them as 0.0 and
    1.0.  The pairs are split into their real and imaginary parts in one
    pass, which also requires each of them to hold exactly two items.  An
    array is one ``read_document`` already converted; only its shape is checked.
    """
    shape = f"matrix must be {dim}x{dim} of [re, im] pairs"
    if type(data) is np.ndarray:
        if data.shape != (dim, dim):
            raise ProblemFormatError(shape)
        return data
    if (type(data) is not list or len(data) != dim
            or set(map(type, data)) != {list} or set(map(len, data)) != {dim}):
        raise ProblemFormatError(shape)
    try:
        parts = list(zip(*chain.from_iterable(data), strict=True))
    except (TypeError, ValueError):  # a pair that is not a sequence, or two of unequal length
        raise ProblemFormatError(shape) from None
    if len(parts) != 2:
        raise ProblemFormatError(shape)
    if not set(map(type, parts[0])) | set(map(type, parts[1])) <= {int, float}:
        bad = next(v for v in chain(*parts) if type(v) not in (int, float))
        raise ProblemFormatError(f"a matrix entry must be a number, got {bad!r}")
    out = np.empty((dim, dim), dtype=complex)
    # assigned, not summed: re + 1j * im would turn a -0.0 part into +0.0
    out.real, out.imag = np.array(parts, dtype=float).reshape(2, dim, dim)
    return out


def problem_hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector; restore its previous state on every exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _keys_once(pairs: list[tuple[str, Any]]) -> dict:
    """A decoded object's pairs as a dict; a key given twice raises ValueError."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"a JSON object repeats a key among {sorted(obj)}")
    return obj


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A decoded object, its keys each given once and its matrices converted.

    The value of a "matrix" key, or of a key with a comma such as a series'
    "j,k", becomes a complex array if it is a square grid of [re, im] pairs.
    Any other value stays as decoded for its reader to report: an exception
    raised here would read as a document that does not decode.
    """
    obj = _keys_once(pairs)
    for key, value in pairs:
        if type(value) is list and (key == "matrix" or "," in key):
            try:
                obj[key] = matrix_from_json(value, len(value))
            except (ValueError, OverflowError):
                pass
    return obj


def _unread(pairs: list[tuple[str, Any]]) -> None:
    """An object of a member no reader reads: its keys checked, the object dropped."""
    _keys_once(pairs)


#: The scanner of a member that is read and of one that is not.
_SCANNERS = tuple(json.JSONDecoder(object_pairs_hook=hook).scan_once
                  for hook in (_unique_keys, _unread))
_space = WHITESPACE.match


def _top_level_object(s: str, unread: tuple[str, ...], read, skip) -> dict | None:
    """The top-level object of ``s``, each member decoded by ``skip`` if its key
    is in ``unread`` and by ``read`` if not; None at the first character that
    does not continue a well-formed object."""
    at = _space(s, 0).end()
    if not s.startswith("{", at):
        return None
    pairs, at = [], _space(s, at + 1).end()
    more = not s.startswith("}", at)  # decided before a key is read: {"a:-0"} is not {}
    while more:
        if not s.startswith('"', at):
            return None
        key, at = scanstring(s, at + 1)
        at = _space(s, at).end()
        if not s.startswith(":", at):
            return None
        value, at = (skip if key in unread else read)(s, _space(s, at + 1).end())
        pairs.append((key, value))
        at = _space(s, at).end()
        more = s.startswith(",", at)
        at = _space(s, at + more).end()
    if not s.startswith("}", at) or _space(s, at + 1).end() != len(s):
        return None
    return _unique_keys(pairs)


def _decode(raw: bytes, unread: tuple[str, ...]) -> Any:
    """``json.loads(raw, object_pairs_hook=_unique_keys)``, but a member of the
    top-level object whose key is in ``unread`` is decoded by ``_unread``.

    A well-formed top-level object is walked here, each member's scanner
    chosen by its key; wherever the walk or a scanner stops, ``json.loads``
    decodes the text again and gives the verdict.
    """
    s = raw.decode(json.detect_encoding(raw), "surrogatepass")
    try:
        doc = _top_level_object(s, unread, *_SCANNERS)
    except (ValueError, StopIteration, RecursionError):
        doc = None
    if doc is None:
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    return doc


def read_document(path: str, convert: Callable[[dict, bytes], T],
                  unread: tuple[str, ...] = ()) -> T:
    """``convert(doc, raw)`` for the JSON object ``doc`` stored at ``path``.

    ``raw`` is the file's bytes.  A file that cannot be read, or does not
    hold a JSON object whose keys are each given once, raises
    ProblemFormatError.  A member whose key is in ``unread`` is checked as
    JSON and for repeated keys, but its matrices are never converted; in
    every other member each matrix is converted as the decoder closes its
    object (``_decode``).  The collector stays paused until the decoded tree
    is dropped, so no pass ever walks it.
    """
    with collector_paused():
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            doc = _decode(raw, unread)
        except (OSError, ValueError, RecursionError) as err:
            raise ProblemFormatError(f"cannot read a JSON document from {path}: {err}") from err
        if not isinstance(doc, dict):
            raise ProblemFormatError(f"{path} must hold a JSON object")
        converted = convert(doc, raw)
        del doc
    return converted


@contextmanager
def converting(what: str):
    """A field of ``what`` that does not convert raises ProblemFormatError."""
    try:
        yield
    except KeyError as err:
        raise ProblemFormatError(f"malformed {what}: missing key {err}") from err
    except (TypeError, ValueError, AttributeError, OverflowError) as err:
        raise ProblemFormatError(f"malformed {what}: {err}") from err


def as_int(value) -> int:
    """An integer field: an integer, or a float with an integral value such as 2.0.

    Booleans, strings and non-integral numbers raise ProblemFormatError, where
    ``int`` would truncate 2.7 to 2 and read true as 1.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ProblemFormatError(f"expected an integer, got {value!r}")


def as_float(value) -> float:
    """A real field: an integer or a float.

    Booleans and strings raise ProblemFormatError, where ``float`` would read
    true as 1.0 and "0.5" as 0.5.  A NaN or infinite value converts but breaks
    the rule that every real field is finite, so it raises PertError.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ProblemFormatError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise PertError(f"expected a finite number, got {value!r}")
    return number


def _ints(values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise TypeError(f"expected a list of integers, got {values!r}")
    return tuple(as_int(v) for v in values)


def _mask_flag(value) -> bool:
    if value in (0, 1):  # true, false, 0 and 1 (or 0.0 and 1.0); no string equals them
        return bool(value)
    raise ProblemFormatError(f"a mask entry must be true, false, 0 or 1, got {value!r}")


def _reject_unknown(doc: dict, known: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ProblemFormatError(f"unknown {what} key {unknown[0]!r}; expected among {known}")


def _terms_from_json(entries, dim: int) -> dict[tuple[int, int], np.ndarray]:
    """A ``terms`` list of {order, harmonic = 0, matrix} entries, each key once."""
    if not isinstance(entries, list):
        raise TypeError("terms must be a list of {order, harmonic, matrix} entries")
    terms: dict[tuple[int, int], np.ndarray] = {}
    for entry in entries:
        key = (as_int(entry["order"]), as_int(entry.get("harmonic", 0)))
        if key in terms:
            raise ValueError(f"duplicate term key {key}")
        terms[key] = matrix_from_json(entry["matrix"], dim)
    return terms


def _mask_spec_from_json(spec, dim: int):
    """The ace mask spec as a Mask constructor and its converted arguments;
    ``ProblemSpec.structure`` calls it, so its rule checks raise ValueError, not parse errors."""
    if spec is None:
        return None
    if isinstance(spec, dict) and "block_sizes" in spec:
        return Mask.block_off_diagonal, (_ints(spec["block_sizes"]),)
    if isinstance(spec, dict) and "entries" in spec:
        return Mask.from_pairs, (dim, tuple((as_int(i), as_int(j)) for i, j in spec["entries"]))
    if isinstance(spec, list):
        return Mask, (np.array([[_mask_flag(x) for x in row] for row in spec], dtype=bool),)
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
        _reject_unknown(doc, PROBLEM_KEYS, "problem document")
        with converting("problem document"):
            dim = as_int(doc["dim"])
            block_sizes = doc.get("block_sizes")
            spec = ProblemSpec(
                dim=dim, hbar=as_float(doc.get("hbar", 1.0)), method=str(doc["method"]),
                omega_d=None if doc.get("omega_d") is None else as_float(doc["omega_d"]),
                max_order=as_int(doc["max_order"]), terms=_terms_from_json(doc["terms"], dim),
                block_sizes=None if block_sizes is None else _ints(block_sizes),
                mask_spec=_mask_spec_from_json(doc.get("mask"), dim),
                tolerances={str(k): as_float(v) for k, v in (doc.get("tolerances") or {}).items()},
            )
            _reject_unknown(spec.tolerances, TOLERANCE_KEYS, "tolerances")
        if spec.method not in METHODS:
            raise ProblemFormatError(f"unknown method {spec.method!r}; expected one of {METHODS}")
        if not spec.terms:
            raise ProblemFormatError("terms must be a nonempty list")
        return spec

    def to_graded(self) -> GradedOperator:
        return GradedOperator(self.dim, self.terms, omega_d=self.omega_d)

    def structure(self) -> Mask | BlockStructure:
        """What the document's method eliminates, in the form its routine takes.

        fd: every off-diagonal entry; ace: the document's mask; swt: every
        entry between two ``block_sizes`` blocks; la: those blocks.  A method
        whose structure the document lacks raises ProblemFormatError.
        """
        if self.method == "fd":
            return Mask.full_off_diagonal(self.dim)
        if self.method == "ace":
            if self.mask_spec is None:
                raise ProblemFormatError("the ace method requires a mask")
            build, args = self.mask_spec
            return build(*args)
        if self.block_sizes is None:
            raise ProblemFormatError(f"the {self.method} method requires block_sizes")
        if self.method == "la":
            return BlockStructure(self.block_sizes)
        return Mask.block_off_diagonal(self.block_sizes)

    def resolved_tolerance(self, override=None) -> float:
        """The resonance tolerance: ``override``, else the document's, else the default."""
        if override is not None:
            return override
        return self.tolerances.get("resonance", DEFAULT_RES_TOL)


def load_problem(path: str) -> tuple[ProblemSpec, str]:
    return read_document(path, lambda doc, raw: (ProblemSpec.from_dict(doc), problem_hash(raw)))


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------


def _series_to_json(series: dict[int, GradedOperator]) -> dict:
    return {str(order): {f"{j},{k}": mat for (j, k), mat in op.items()}
            for order, op in series.items()}


def _canonical_int(text: str) -> int:
    """An integer key written as ``str(int)`` writes it: no sign, zero or space to spare."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a canonical integer")
    return value


def _series_from_json(data: dict, dim: int, omega_d: float | None) -> dict[int, GradedOperator]:
    """A series keyed by order "n", each entry by "j,k" with j = n, as ``_series_to_json`` writes."""
    series: dict[int, GradedOperator] = {}
    for order_key, entry in data.items():
        order = _canonical_int(order_key)
        terms = {}
        for jk, mat in entry.items():
            j_str, _, k_str = jk.partition(",")
            j, k = _canonical_int(j_str), _canonical_int(k_str)
            if j != order:
                raise ValueError(f"key {jk!r} is filed under order {order}")
            terms[(j, k)] = matrix_from_json(mat, dim)
        series[order] = GradedOperator(dim, terms, omega_d=omega_d)
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
    """The result at ``path``; its corrections are checked as JSON but not converted."""
    return read_document(path, _result_view, unread=("corrections",))


def _result_view(doc: dict, raw: bytes) -> ResultView:
    _reject_unknown(doc, RESULT_KEYS, "result document")
    with converting("result document"):
        dim = as_int(doc["dim"])
        omega_d = None if doc.get("omega_d") is None else as_float(doc["omega_d"])
        digest = doc["problem_sha256"]
        if type(digest) is not str:
            raise TypeError(f"problem_sha256 must be a string, got {digest!r}")
        # the fields rotate does not use are checked where given
        if "method" in doc and doc["method"] not in METHODS:
            raise ValueError(f"unknown method {doc['method']!r}; expected one of {METHODS}")
        energies = doc.get("energies", [])
        if "energies" in doc and (type(energies) is not list or len(energies) != dim):
            raise TypeError(f"energies must be a list of {dim} numbers, got {energies!r}")
        for number in [doc.get("hbar", 1.0), *energies]:
            as_float(number)
        if type(doc.get("diagnostics", {})) is not dict:
            raise TypeError(f"diagnostics must be a JSON object, got {doc['diagnostics']!r}")
        view = ResultView(
            problem_sha256=digest,
            dim=dim,
            max_order=as_int(doc["max_order"]),
            omega_d=omega_d,
            generator=_series_from_json(doc["generator"], dim, omega_d),
        )
        # an order below 1 converts, and rotate refuses it as a precondition
        orders = sorted(n for n in view.generator if n >= 1)
        if orders != list(range(1, view.max_order + 1)):
            raise ValueError(f"the generator holds orders {orders}, not 1..{view.max_order}")
    return view


# ---------------------------------------------------------------------------
# operator documents
# ---------------------------------------------------------------------------


def load_operator(path: str, dim: int, omega_d: float | None) -> GradedOperator:
    """An operator document's terms; its own ``omega_d``, if any, wins.

    The document admits only ``OPERATOR_KEYS``, and its ``dim``, if given,
    must be ``dim``.
    """

    def convert(doc: dict, raw: bytes) -> GradedOperator:
        _reject_unknown(doc, OPERATOR_KEYS, "operator document")
        with converting("operator document"):
            if "dim" in doc and as_int(doc["dim"]) != dim:
                raise ValueError(f"dim {doc['dim']} does not match the result's {dim}")
            own_omega = None if doc.get("omega_d") is None else as_float(doc["omega_d"])
            terms = _terms_from_json(doc["terms"], dim)
        return GradedOperator(dim, terms, omega_d=own_omega if own_omega is not None else omega_d)

    return read_document(path, convert)


def operator_document(op: GradedOperator) -> dict:
    return {
        "dim": op.dim,
        "omega_d": op.omega_d,
        "terms": [
            {"order": j, "harmonic": k, "matrix": mat}
            for (j, k), mat in sorted(op.items())
        ],
    }


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def write_output(path: str, text: str) -> None:
    """Make ``text``, UTF-8 encoded, the whole content of ``path``.

    The file is opened without truncating it, so an existing one keeps its
    inode and mode, and its blocks are written over rather than freed and
    allocated again.  Once every byte is written, a regular file is cut to
    their length; any other target (/dev/null, a FIFO, a terminal) is not.
    A new file gets mode 0o666 under the umask, as ``open(path, "w")``
    gives.  Nothing is synced.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def write_document(path: str, doc: dict) -> None:
    """``doc`` as canonical JSON and a newline, written over ``path`` by ``write_output``."""
    write_output(path, canonical_json(doc) + "\n")
