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

A matrix is read in any of four forms, wherever one is read (problem and
operator terms, both series of a result): dense, ``dim`` rows of ``dim``
[re, im] pairs; binary, {"c16": standard base64 of the dim^2 values as
little-endian complex128, row-major}, which numpy decodes as
``np.frombuffer(base64.b64decode(m["c16"]), "<c16").reshape(dim, dim)``;
sparse, {"at": [row-major flat indices], "c16": base64 of the values at
those indices alone, in the same bytes}; or sparse with text values, {"at":
[...], "values": [[re, im], ...]}.  A sparse matrix is zero wherever no
index names a pair, and its indices are JSON integers, strictly ascending
within [0, dim^2), one for each value.  Only a result's generator, which
only ``rotate`` reads, is written in a form other than dense: each of its
matrices fewer than ``SPARSE_SHARE`` of whose pairs are nonzero, a pair
being zero only if both parts are +0.0, sparse, and every other one binary,
so none of its numbers is written as text.  Sparse with text values is no
longer written; results of the versions that wrote it still read.
Corrections, rotated operators, oracle documents and the ace demo are
written dense.  pertkit versions before a form refuse a result written in
it as malformed.  A matrix that would take more than ``MAX_MATRIX_BYTES``
is refused (PertError) before it is allocated or decoded, since a few
bytes of sparse document can declare any ``dim``.

``read_document`` decodes with ``json.loads``, whose verdict and messages
the reader keeps, and an object hook that checks each object's keys as it
closes.  The default hook, ``_unique_keys``, converts each dense matrix
there (the value of a "matrix" key, or of a "j,k" key in a result series),
while its [re, im] lists are still in the cache.  A value that does not
convert stays as decoded, for its reader to report, and so does a sparse or
binary matrix, which only its reader, knowing ``dim``, converts; rendered
again by ``canonical_json``, that decoded object gives its own bytes.
``load_result``'s hook, ``_result_hook``, drops every list under a "j,k"
key instead, so the corrections, which ``rotate`` never reads, are checked
as JSON but not converted.  A generator that holds a grid (the form of the
versions before sparse generators) sends the read to a second pass, which
converts each such list from that grid's place on.

Decoding and conversion run with the cyclic garbage collector paused.
Decoded JSON is a tree of dicts, lists and scalars, and the conversion
builds arrays and specs from it, so neither holds a reference cycle:
reference counting frees all of it.  A collection pass, which CPython would
otherwise start every 700 new containers, would only walk and promote the
[re, im] lists, of which at most one object's matrices are alive at a time.

All text output floats are rendered with 17 significant digits so
identical inputs produce byte-identical documents, except -0.0, which is
written "-0.0": ``json.loads`` reads the "-0" of ``%.17g`` as the int 0,
and every number pertkit writes as text reads back bit for bit.  Matrices
travel as complex arrays and are rendered as nested lists of [re, im]
pairs; a ``_Sparsable`` one is written sparse or binary from the same pair
states, its index list as one piece of text and its values as their bytes
in base64, none of its parts formatted.
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

import base64
import gc
import hashlib
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Any, Callable, NamedTuple, TypeVar

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
    placeholder takes its magnitude.  A pair's state is 0 only if both its
    parts are +0.0."""
    parts = ("0", placeholder, "-" + placeholder, "-0.0")
    return np.array([f"[{re},{im}]{sep}" for sep in (",", "],[", "]]")
                     for im in parts for re in parts], dtype=object)


_TOKENS = {placeholder: _pair_tokens(placeholder) for placeholder in ("%s", "%.17g")}

#: Above this share of distinct magnitudes among a document's floats, each
#: float is formatted directly: looking the texts up costs more than it saves.
DISTINCT_SHARE = 0.75
#: Below this share of nonzero pairs, a ``_Sparsable`` matrix is written sparse,
#: the base64 of its nonzero pairs' bytes; at or above it, of all its bytes.
SPARSE_SHARE = 0.25
#: The written form of a matrix: a grid of [re, im] pairs, sparse, or binary.
_GRID, _SPARSE, _BINARY = 0, 1, 2


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


class _Sparsable(NamedTuple):
    """A matrix written sparse, {"at": [row-major flat indices], "c16": base64
    of the little-endian complex128 values at those indices}, if fewer than
    ``SPARSE_SHARE`` of its pairs are nonzero, and binary, {"c16": base64 of
    all its row-major little-endian complex128 values}, otherwise."""

    mat: np.ndarray


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
        # per shape: each matrix's slot in text and in floats, and whether it is sparsable
        self.shapes: dict[tuple[int, int], list[tuple[int, int, np.ndarray, bool]]] = {}
        self._walk(obj)

    def _walk(self, obj) -> None:
        text = self.text
        sparsable = type(obj) is _Sparsable
        mat = obj.mat if sparsable else obj
        if isinstance(mat, np.ndarray) and mat.dtype == np.complex128 and mat.ndim == 2:
            if mat.size:
                self.shapes.setdefault(mat.shape, []).append(
                    (len(text), len(self.floats), mat, sparsable))
                text.append(None)
                self.floats.append(None)
            else:
                text.append("[" + ",".join(["[]"] * mat.shape[0]) + "]")
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

    def _pair_states(self, group: list[tuple[int, int, np.ndarray, bool]]
                     ) -> tuple[np.ndarray, list[int]]:
        """The state of every pair, row-major, of each matrix of a group of one
        shape that is written as a grid, and each such matrix's slot in ``text``.

        The matrices are stacked into one copy and read through its float
        view.  A sparsable matrix is sparse if fewer than ``SPARSE_SHARE`` of
        its pairs are nonzero and binary if not; either way its slot in
        ``text`` is set here, from the nonzero pairs' states and bytes, and
        none of its parts fills a placeholder.  Each grid matrix's live
        parts, the ones not zero, fill its slot in ``floats``.
        """
        stacked = np.ascontiguousarray(np.stack([mat for _, _, mat, _ in group]))
        arr = stacked.view(np.float64).reshape(len(group), -1, 2)
        if not np.isfinite(arr).all():
            raise ValueError("cannot serialize non-finite float")
        live = arr != 0
        # one byte: indices stay below 48
        state = np.where(np.signbit(arr), np.uint8(3) - live, live.view(np.uint8))
        pairs = state[..., 0] + 4 * state[..., 1]
        thin = np.count_nonzero(pairs, axis=1) < SPARSE_SHARE * pairs.shape[1]
        form = np.array([sparsable for *_, sparsable in group]) * np.where(thin, _SPARSE, _BINARY)
        grid = form == _GRID
        live = live.reshape(len(group), -1)
        live[~grid] = False  # a sparse or binary matrix's parts fill no placeholder
        ends = np.cumsum(np.count_nonzero(live, axis=1))[:-1]
        little = stacked.astype("<c16", copy=False).reshape(len(group), -1)
        # base64 holds no "%" and nothing JSON escapes
        for (at_text, at_floats, _, _), parts, kind, values, nonzero in zip(
                group, np.split(arr.reshape(len(group), -1)[live], ends), form.tolist(), little,
                pairs):
            self.floats[at_floats] = parts
            if kind == _SPARSE:
                at = np.flatnonzero(nonzero)
                # the indices are one piece of text, however many
                self.text[at_text] = ('{"at":' + json.dumps(at.tolist(), separators=(",", ":"))
                                      + ',"c16":"' + base64.b64encode(values[at]).decode("ascii")
                                      + '"}')
            elif kind == _BINARY:
                self.text[at_text] = '{"c16":"' + base64.b64encode(values).decode("ascii") + '"}'
        return pairs[grid], [at_text for (at_text, *_), kind in zip(group, grid) if kind]

    def render(self) -> str:
        """The template's slots set, filled by one ``%``.

        A sparse or binary matrix's slot is set by ``_pair_states``, and it
        adds nothing to the fill; a grid's slot takes the tokens of its pairs.
        """
        text, floats = self.text, self.floats
        grids = [self._pair_states(group) for group in self.shapes.values()]
        placeholder, fill = _magnitude_texts(np.concatenate(floats) if floats else np.empty(0))
        tokens = _TOKENS[placeholder]
        for shape, (state, slots) in zip(self.shapes, grids):
            where = np.zeros(shape, dtype=np.uint8)
            where[:, -1], where[-1, -1] = 16, 32
            for at_text, pieces in zip(slots, tokens[state + where.reshape(-1)].tolist()):
                text[at_text] = "[[" + "".join(pieces)
        return "".join(text) % fill


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed 17-significant-digit floats.

    A 2-D complex128 array renders exactly as the nested lists of its
    [re, im] pairs would; a nonempty ``_Sparsable`` one is written sparse or
    binary instead.  Any other array raises TypeError.  The document is
    walked once into a template with a placeholder for every live part of a
    matrix written as text; matrices of one shape are templated together, and the template is
    filled by one ``%``.
    """
    return _Template(obj).render()


#: The most bytes one ``dim`` x ``dim`` complex matrix of a read document, or
#: of the ace experiment, may take: 16 bytes a pair, so ``dim`` <= 8192.
MAX_MATRIX_BYTES = 1 << 30


def check_matrix_size(dim: int) -> None:
    """Raise PertError if a ``dim`` x ``dim`` complex matrix would take more
    than ``MAX_MATRIX_BYTES``; judged before any such matrix is allocated."""
    if 16 * dim * dim > MAX_MATRIX_BYTES:
        raise PertError(f"a {dim}x{dim} complex matrix takes {16 * dim * dim} bytes, "
                        f"more than the {MAX_MATRIX_BYTES} a matrix may take")


def _pairs(pairs, message: str) -> np.ndarray:
    """A sequence of [re, im] pairs as the (2, len(pairs)) array of its parts.

    The pairs are split into their real and imaginary parts in one pass,
    which also requires each of them to hold exactly two items; anything
    else raises ProblemFormatError with ``message``.  Every part must be a
    JSON number, an int or a float: a string such as "0" or a boolean
    raises ProblemFormatError, where a float conversion would read them as
    0.0 and 1.0.
    """
    try:
        parts = list(zip(*pairs, strict=True))
    except (TypeError, ValueError):  # a pair that is not a sequence, or two of unequal length
        raise ProblemFormatError(message) from None
    if len(parts) != 2:
        raise ProblemFormatError(message)
    if not set(map(type, parts[0])) | set(map(type, parts[1])) <= {int, float}:
        bad = next(v for v in chain(*parts) if type(v) not in (int, float))
        raise ProblemFormatError(f"a matrix entry must be a number, got {bad!r}")
    return np.array(parts, dtype=float)


def _sparse_index(at, dim: int) -> np.ndarray:
    """A sparse matrix's "at", row-major flat indices into a ``dim`` x ``dim``
    matrix: JSON integers, not booleans, strictly ascending within [0, dim^2);
    anything else raises ProblemFormatError."""
    if type(at) is not list or not set(map(type, at)) <= {int}:
        raise ProblemFormatError(f"a sparse matrix's 'at' must be a list of integers, got {at!r}")
    index = np.array(at, dtype=np.int64)
    if at and (index[0] < 0 or index[-1] >= dim * dim or not (index[1:] > index[:-1]).all()):
        raise ProblemFormatError(f"a sparse matrix's indices must ascend strictly "
                                 f"within [0, {dim * dim})")
    return index


def _c16(data: dict, what: str, count: int, values: str) -> np.ndarray:
    """The ``count`` complex values of ``what``'s "c16", the standard base64 of
    their little-endian complex128 bytes, ``values`` saying which they are.

    The value must be a string of base64 characters alone, no newline among
    them, that decodes to exactly 16 ``count`` bytes; anything else raises
    ProblemFormatError.
    """
    text = data["c16"]
    if type(text) is not str:
        raise ProblemFormatError(f"{what}'s 'c16' must be a base64 string, "
                                 f"got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a character beyond ASCII
        raise ProblemFormatError(f"{what}'s 'c16' is not base64: {err}") from None
    if len(raw) != 16 * count:
        raise ProblemFormatError(f"{what}'s 'c16' must hold {16 * count} bytes, {values}, "
                                 f"got {len(raw)}")
    return np.frombuffer(raw, dtype="<c16")


def _sparse_matrix(data: dict, dim: int) -> np.ndarray:
    """A sparse matrix, {"at": [row-major flat indices], "c16": base64 of the
    values at them} or {"at": [...], "values": [[re, im], ...]}, as a ``dim``
    x ``dim`` complex matrix, zero where no index names a pair.

    The indices are checked by ``_sparse_index``, and there must be one value
    for each (``_c16``, ``_pairs``); anything else raises ProblemFormatError.
    """
    index = _sparse_index(data["at"], dim)
    flat = np.zeros(dim * dim, dtype=complex)
    if "c16" in data:
        flat[index] = _c16(data, "a sparse matrix", index.size,
                           f"{index.size} complex128 values, one for each index")
        return flat.reshape(dim, dim)
    values = data["values"]
    if type(values) is not list or len(values) != index.size:
        raise ProblemFormatError(f"a sparse matrix's 'values' must be a list of {index.size} "
                                 "[re, im] pairs, one for each index")
    if index.size:
        # assigned, not summed: re + 1j * im would turn a -0.0 part into +0.0
        flat.real[index], flat.imag[index] = _pairs(values, "a sparse matrix's values must be "
                                                            "[re, im] pairs")
    return flat.reshape(dim, dim)


def _binary_matrix(data: dict, dim: int) -> np.ndarray:
    """A binary matrix, {"c16": base64 of its row-major little-endian complex128
    values}, as a ``dim`` x ``dim`` complex matrix (``_c16``)."""
    return _c16(data, "a binary matrix", dim * dim,
                f"{dim}x{dim} complex128 values").astype(complex).reshape(dim, dim)


def matrix_from_json(data, dim: int) -> np.ndarray:
    """A ``dim`` x ``dim`` complex matrix from its JSON form: a list of ``dim``
    rows of ``dim`` [re, im] pairs, one of the sparse objects of
    ``_sparse_matrix``, or the binary one, {"c16": base64 of its row-major
    little-endian complex128 values}, told apart by their keys.

    Every part of a grid, or of sparse text values, must be a JSON number
    (``_pairs``).  A matrix that would take more than ``MAX_MATRIX_BYTES``
    raises PertError before it is allocated or decoded.  An array is one
    ``read_document`` already converted; only its shape is checked.
    """
    shape = f"matrix must be {dim}x{dim} of [re, im] pairs"
    if type(data) is np.ndarray:
        if data.shape != (dim, dim):
            raise ProblemFormatError(shape)
        return data
    check_matrix_size(dim)
    if type(data) is dict and dim >= 1:
        if data.keys() == {"c16"}:
            return _binary_matrix(data, dim)
        if data.keys() == {"at", "c16"} or data.keys() == {"at", "values"}:
            return _sparse_matrix(data, dim)
        raise ProblemFormatError(f"a matrix object holds the keys 'at' and 'c16' (sparse), "
                                 f"'at' and 'values' (sparse) or 'c16' (binary) alone, "
                                 f"got {sorted(data)}")
    if (type(data) is not list or len(data) != dim
            or set(map(type, data)) != {list} or set(map(len, data)) != {dim}):
        raise ProblemFormatError(shape)
    out = np.empty((dim, dim), dtype=complex)
    # assigned, not summed: re + 1j * im would turn a -0.0 part into +0.0
    out.real, out.imag = _pairs(chain.from_iterable(data), shape).reshape(2, dim, dim)
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


def _grid(value):
    """``value`` as a complex array if it is a square grid of [re, im] pairs,
    and as decoded if not, for its reader to report: an exception raised here
    would read as a document that does not decode."""
    try:
        return matrix_from_json(value, len(value))
    except (ValueError, OverflowError):
        return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A decoded object, its keys each given once and its matrices converted:
    each list under a "matrix" key, or under a key with a comma such as a
    series' "j,k", by ``_grid``."""
    obj = _keys_once(pairs)
    for key, value in pairs:
        if type(value) is list and (key == "matrix" or "," in key):
            obj[key] = _grid(value)
    return obj


class _Dropped(int):
    """A list that ``_result_hook`` dropped: its place among the lists under a
    key with a comma, numbered in the order their objects close."""


class _GridDropped(Exception):
    """A result's generator holds a grid; its argument is the grid's place."""


def _result_hook(first_kept: float = math.inf) -> Callable[[list], dict]:
    """The object hook of a result read: each object's keys given once.

    Each list under a key with a comma (a series' "j,k") is dropped as its
    object closes and read as its place, a ``_Dropped``, so no correction
    grid is converted and at most one entry's lists are alive at a time.
    From the ``first_kept``-th on, each is converted by ``_grid`` instead.
    """
    places = count()

    def hook(pairs: list[tuple[str, Any]]) -> dict:
        obj = _keys_once(pairs)
        for key, value in pairs:
            if type(value) is list and "," in key:
                place = next(places)
                obj[key] = _Dropped(place) if place < first_kept else _grid(value)
        return obj

    return hook


def read_document(path: str, convert: Callable[[dict, bytes], T],
                  hook: Callable[[list], dict] = _unique_keys) -> T:
    """``convert(doc, raw)`` for the JSON object ``doc`` stored at ``path``.

    ``raw`` is the file's bytes, decoded by ``json.loads`` with ``hook`` as
    its object hook (``_unique_keys`` converts each matrix as the decoder
    closes its object).  A file that cannot be read, or does not hold a JSON
    object whose keys are each given once, raises ProblemFormatError; where
    ``json.loads`` refuses the text, with its message.  The collector stays
    paused until the decoded tree is dropped, so no collection ever walks it.
    """
    with collector_paused():
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw, object_pairs_hook=hook)
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


def _series_to_json(series: dict[int, GradedOperator], sparse: bool = False) -> dict:
    """A series keyed by order and "j,k"; with ``sparse``, each matrix ``_Sparsable``,
    written sparse or binary."""
    form = _Sparsable if sparse else (lambda mat: mat)
    return {str(order): {f"{j},{k}": form(mat) for (j, k), mat in op.items()}
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
            if type(mat) is _Dropped:
                raise _GridDropped(mat)
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
        "generator": _series_to_json(result.generator, sparse=True),
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
    """The result at ``path``; its corrections are checked as JSON but not converted.

    A result whose generator holds a grid, as the versions before sparse
    generators wrote, is read again, each list from that grid's place on
    converted (``_result_hook``); a pass is released before the next starts.
    """
    first_kept = math.inf
    while True:
        try:
            return read_document(path, _result_view, _result_hook(first_kept))
        except _GridDropped as grid:  # each pass's place is below the last: the loop ends
            first_kept = grid.args[0]


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
