"""Fast matrix serialization against the element-by-element renderer,
document reads with the cyclic collector paused and with json.loads's
verdict, and result reads that drop the corrections' grids as decoded."""

import base64
import dataclasses
import gc
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    binary_json, chain_problem, grid_json, readme_problem, sparse_binary_json, sparse_json,
    with_grids,
)
import pertkit.cli as cli
import pertkit.io
from pertkit.cli import main
from pertkit.engine import rotate_operator, run_fd, run_swt
from pertkit.errors import PertError
from pertkit.graded import GradedOperator
from pertkit.io import (
    SPARSE_SHARE, ProblemFormatError, ProblemSpec, _result_view, _series_from_json,
    _series_to_json, _Sparsable, canonical_json, load_operator, load_problem, load_result,
    matrix_from_json, operator_document, read_document, result_document, write_document,
)
from pertkit.models import (
    EDSRParams, TransmonParams, build_edsr, build_transmon_resonator, kron, pauli,
)


def reference_canonical_json(obj):
    """The former renderer: recursive dispatch, one float at a time; -0.0 is "-0.0"."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        return "-0.0" if obj == 0 and np.signbit(obj) else f"{float(obj):.17g}"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        body = ",".join(
            f"{json.dumps(str(k))}:{reference_canonical_json(v)}" for k, v in items
        )
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def sparsable_lists(mat):
    """A ``_Sparsable`` matrix as the JSON it is written as: its sparse object,
    its values binary, if fewer than ``SPARSE_SHARE`` of its pairs are nonzero,
    its binary object if not, and its grid if it is empty."""
    dense = reference_matrix_to_json(mat)
    thin = sparse_binary_json(dense)
    if not mat.size:
        return dense
    return thin if len(thin["at"]) < SPARSE_SHARE * mat.size else binary_json(mat)


def as_lists(obj):
    """A document with every matrix as the nested lists of its [re, im] pairs, or
    a sparsable one as ``sparsable_lists`` writes it: sparse or binary."""
    if type(obj) is _Sparsable:
        return sparsable_lists(obj.mat)
    if isinstance(obj, np.ndarray):
        return reference_matrix_to_json(obj)
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    return obj


AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1e-300, 0.1, 1 / 3, -2 / 3,
           1.0, -7.0, 2.0 ** 53, 123456789.0, 1e16, np.pi, -np.e, 2.5e-17]


def awkward_matrix(d, seed):
    rng = np.random.default_rng(seed)
    re = rng.choice(AWKWARD, size=(d, d))
    im = rng.choice(AWKWARD, size=(d, d))
    return re + 1j * im


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_matrix_rendering_matches_reference(d):
    for seed in range(5):
        mat = awkward_matrix(d, seed)
        fast = canonical_json(mat)
        assert fast == reference_canonical_json(reference_matrix_to_json(mat))


def test_signed_zero_and_subnormal_render_as_before():
    mat = np.array([[complex(-0.0, 5e-324), complex(1e300, -1e-300)],
                    [complex(0.1, 1 / 3), complex(3.0, -0.0)]])
    text = canonical_json(mat)
    assert text == reference_canonical_json(reference_matrix_to_json(mat))
    assert text.startswith("[[[-0.0,4.9406564584124654e-324],[1.0000000000000001e+300,")
    assert "[3,-0.0]" in text


def test_documents_match_reference():
    rng = np.random.default_rng(3)
    off = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    off = 0.05 * (off + off.conj().T)
    off -= np.diag(np.diag(off))
    h = GradedOperator(4, {(0, 0): np.diag([0.0, 1.0, 2.5, 4.0]), (1, 0): off})
    result = run_fd(h, max_order=4)
    for doc in (result_document(result, "0" * 64), operator_document(h)):
        assert canonical_json(doc) == reference_canonical_json(as_lists(doc))


#: Keys and strings that hold "%", "%s", "%%" and "%d", which a template must escape.
PERCENT_TEXT = st.text(alphabet="%sd,a", max_size=4)
#: Parts drawn from few magnitudes, so that they repeat across matrices and scalars.
MAGNITUDE_POOLS = st.lists(st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False,
                           allow_infinity=False)), min_size=1, max_size=6)


@st.composite
def renderable_documents(draw):
    """Documents like the ones pertkit writes: hermitian, anti-hermitian and
    generic complex matrices of several shapes, some sparsable, thin (most of
    their pairs zeroed) or not, among scalars and strings."""
    pool = draw(MAGNITUDE_POOLS)

    def signed(shape):
        values = draw(st.lists(st.sampled_from(pool), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        signs = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        return np.array([-v if neg else v for v, neg in zip(values, signs)]).reshape(shape)

    def matrix():
        kind = draw(st.sampled_from(["hermitian", "anti-hermitian", "generic"]))
        if kind == "generic":
            shape = draw(st.sampled_from([(1, 1), (2, 3), (3, 3), (4, 1), (0, 2), (2, 0)]))
        else:
            shape = (draw(st.integers(1, 4)),) * 2
        mat = np.empty(shape, dtype=complex)
        mat.real, mat.imag = signed(shape), signed(shape)
        if kind != "generic":  # mirrored bit for bit, as the engine's outputs are
            lower, diag = np.tril_indices(shape[0], -1), np.diag_indices(shape[0])
            mat[lower] = (1 if kind == "hermitian" else -1) * mat.T[lower].conj()
            (mat.imag if kind == "hermitian" else mat.real)[diag] = 0.0
        return mat

    def value(depth):
        kind = draw(st.sampled_from(["matrix", "matrices", "sparsable", "floats", "float", "text",
                                     "int", "constant"] + ["nested"] * (depth < 2)))
        if kind == "matrix":
            return matrix()
        if kind == "sparsable":
            mat = matrix()
            if draw(st.booleans()):  # thin
                kept = draw(st.lists(st.sampled_from([True] + [False] * 4), min_size=mat.size,
                                     max_size=mat.size))
                mat[~np.array(kept, dtype=bool).reshape(mat.shape)] = 0.0
            return _Sparsable(mat)
        if kind == "matrices":
            return [matrix() for _ in range(draw(st.integers(1, 3)))]
        if kind == "floats":
            return signed((draw(st.integers(0, 4)),)).tolist()
        if kind == "float":
            return float(signed((1,))[0])
        if kind == "text":
            return draw(PERCENT_TEXT)
        if kind == "int":
            return draw(st.integers())
        if kind == "constant":
            return draw(st.sampled_from([None, True, False]))
        return {key: value(depth + 1) for key in draw(st.lists(PERCENT_TEXT, max_size=4))}

    return {key: value(0) for key in draw(st.lists(PERCENT_TEXT, min_size=2, max_size=5))}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(renderable_documents())
def test_rendered_documents_match_reference(doc):
    assert canonical_json(doc) == reference_canonical_json(as_lists(doc))


def parts(re, im):
    """A complex matrix whose real and imaginary parts are taken as given, signs included."""
    mat = np.zeros(np.shape(re), dtype=complex)
    mat.real, mat.imag = re, im
    return mat


def zero_heavy_matrices():
    rng = np.random.default_rng(7)
    values = rng.choice(AWKWARD, size=(6, 6))
    blocks = np.zeros((6, 6))
    blocks[:2, :2], blocks[2:, 2:] = values[:2, :2], values[2:, 2:]
    row = values.copy()
    row[3] = 0.0
    zeros = np.zeros((6, 6))
    return {
        "diagonal": parts(np.diag(values[0]), np.diag(values[1])),
        "block-diagonal": parts(blocks, -blocks.T),
        "all-zero": parts(zeros, zeros),
        "all-negative-zero": parts(-zeros, -zeros),
        "mixed-zero-signs": parts(np.where(values > 0, 0.0, -0.0), np.where(values < 0, 0.0, -0.0)),
        "zero-row": parts(row, row.T),
        "purely-real": parts(values, zeros),
        "purely-imaginary": parts(zeros, values),
    }


@pytest.mark.parametrize("name", sorted(zero_heavy_matrices()))
def test_zero_heavy_matrix_rendering_matches_reference(name):
    mat = zero_heavy_matrices()[name]
    assert canonical_json(mat) == reference_canonical_json(reference_matrix_to_json(mat))


@pytest.mark.parametrize("shape", [(2, 5), (5, 1), (1, 7), (3, 0), (0, 3)])
def test_non_square_rendering_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    mat = parts(rng.choice(AWKWARD, size=shape), rng.choice(AWKWARD, size=shape))
    assert canonical_json(mat) == reference_canonical_json(reference_matrix_to_json(mat))


def test_sparse_d64_rendering_matches_reference():
    rng = np.random.default_rng(64)
    mat = parts(rng.normal(size=(64, 64)), rng.choice(AWKWARD, size=(64, 64)))
    mat[rng.random((64, 64)) < 0.95] = 0.0
    mat[rng.random((64, 64)) < 0.01] = complex(-0.0, 0.0)
    text = canonical_json({"m": mat})
    assert text == reference_canonical_json({"m": reference_matrix_to_json(mat)})


def strided_views():
    mat = awkward_matrix(5, 11)
    mat[2, 2] = complex(-0.0, 0.25)  # in every view below
    return {"transpose": mat.T, "adjoint": mat.conj().T, "column-slice": mat[:, ::2],
            "row-slice": mat[::2], "negative-stride": mat[::-1, ::-1]}


@pytest.mark.parametrize("name", sorted(strided_views()))
def test_non_contiguous_matrix_renders_as_its_pairs(name):
    view = strided_views()[name]
    assert not view.flags.c_contiguous
    text = canonical_json(view)
    assert text == reference_canonical_json(reference_matrix_to_json(view))
    assert "[-0.0,0.25]" in text or "[-0.0,-0.25]" in text


@pytest.mark.parametrize("arr", [
    np.zeros((2, 2, 2)),
    np.eye(2),
    np.zeros(3, dtype=complex),
    np.zeros((1, 2, 2), dtype=complex),
    np.zeros((2, 2), dtype=np.complex64),
], ids=["stacked-pairs", "real-matrix", "complex-vector", "complex-3d", "complex64"])
def test_other_arrays_are_not_serialized(arr):
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        canonical_json({"m": arr})


def cli_documents(tmp_path):
    """Every kind of document the CLI writes: transform (all four methods),
    a driven rotation, the oracle and the ace demo."""
    rng = np.random.default_rng(5)
    off = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    off = 0.05 * (off + off.conj().T)
    off[:2, :2] = off[2:, 2:] = 0.0
    static = {"dim": 4, "max_order": 3, "block_sizes": [2, 2], "terms": [
        {"order": 0, "matrix": reference_matrix_to_json(np.diag([0.0, 0.3, 2.0, 2.6]))},
        {"order": 1, "matrix": reference_matrix_to_json(off)}]}
    outputs = []
    for method in ("swt", "fd", "ace", "la"):
        problem = tmp_path / f"{method}.json"
        extra = {"mask": {"block_sizes": [2, 2]}} if method == "ace" else {}
        problem.write_text(json.dumps({**static, "method": method, **extra}))
        out = tmp_path / f"{method}.out.json"
        assert main(["transform", str(problem), "--out", str(out)]) == 0
        outputs.append(out)
    oracle = tmp_path / "oracle.out.json"
    assert main(["oracle", str(tmp_path / "la.json"), "--lam", "0.5", "--out", str(oracle)]) == 0

    drive = 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
    driven = tmp_path / "driven.json"
    driven.write_text(json.dumps({
        "dim": 2, "method": "swt", "max_order": 2, "omega_d": 0.3, "block_sizes": [1, 1],
        "terms": [{"order": 0, "matrix": reference_matrix_to_json(np.diag([0.0, 1.0]))},
                  {"order": 1, "harmonic": 1, "matrix": reference_matrix_to_json(drive)},
                  {"order": 1, "harmonic": -1, "matrix": reference_matrix_to_json(drive)}]}))
    result = tmp_path / "driven.out.json"
    assert main(["transform", str(driven), "--out", str(result)]) == 0
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"terms": [
        {"order": 0, "matrix": reference_matrix_to_json(np.diag([1.0, -1.0]))}]}))
    rotated = tmp_path / "rotated.out.json"
    assert main(["rotate", str(driven), str(result), str(operator), "--order", "2",
                 "--out", str(rotated)]) == 0

    spec = tmp_path / "ace-spec.json"
    spec.write_text(json.dumps({"kind": "ace", "dim": 6, "seed": 3, "max_order": 2}))
    demo = tmp_path / "demo.out.json"
    assert main(["experiment", str(spec), "--out", str(demo)]) == 0
    return outputs + [oracle, result, rotated, demo]


def test_cli_documents_match_reference(tmp_path):
    for path in cli_documents(tmp_path):
        written = path.read_bytes()
        doc = json.loads(written)
        assert (reference_canonical_json(doc) + "\n").encode() == written, path.name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_matrix_raises(bad, part):
    mat = np.zeros((3, 3), dtype=complex)
    if part == "real":
        mat[1, 2] = complex(bad, 0.0)
    else:
        mat[2, 0] = complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"m": mat})


# ---------------------------------------------------------------------------
# reads with the cyclic collector paused
# ---------------------------------------------------------------------------


TWO_LEVEL = {"order": 0, "matrix": reference_matrix_to_json(np.diag([0.0, 1.0]))}
GENERATOR = reference_matrix_to_json(0.1 * np.array([[0, -1], [1, 0]]))
PROBLEM = {"dim": 2, "method": "fd", "max_order": 1, "terms": [TWO_LEVEL]}
RESULT = {"problem_sha256": "0" * 64, "dim": 2, "max_order": 1, "omega_d": None,
          "generator": {"1": {"1,0": GENERATOR}}}
OPERATOR = {"terms": [TWO_LEVEL]}
LOADERS = {"problem": load_problem, "result": load_result,
           "operator": lambda path: load_operator(path, 2, None)}

#: Per loader: a document it reads, one that does not convert (exit 2) and
#: one whose converted value breaks a rule (exit 3).
READS = [
    ("problem", PROBLEM, None),
    ("problem", {**PROBLEM, "dim": "2"}, ProblemFormatError),
    ("problem", {**PROBLEM, "hbar": float("nan")}, PertError),
    ("result", RESULT, None),
    ("result", {**RESULT, "generator": {"1": {"01,0": GENERATOR}}}, ProblemFormatError),
    ("result", {**RESULT, "omega_d": float("inf")}, PertError),
    ("operator", OPERATOR, None),
    ("operator", {"terms": 5}, ProblemFormatError),
    ("operator", {**OPERATOR, "omega_d": float("nan")}, PertError),
]
READ_IDS = [f"{loader}-{'ok' if error is None else error.__name__}"
            for loader, _, error in READS]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector's state before a read, restored after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("loader, doc, error", READS, ids=READ_IDS)
def test_every_read_restores_the_collector_state(tmp_path, collector, loader, doc, error):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if error is None:
        LOADERS[loader](str(path))
    else:
        with pytest.raises(error):
            LOADERS[loader](str(path))
    assert gc.isenabled() == collector


@pytest.mark.parametrize("text", [b"[1]", b"{", b'{"a": 1, "a": 2}'],
                         ids=["not-an-object", "invalid", "repeated-key"])
def test_a_document_that_does_not_decode_restores_the_collector_state(tmp_path, collector,
                                                                      text):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    with pytest.raises(ProblemFormatError):
        read_document(str(path), lambda doc, raw: doc)
    with pytest.raises(ProblemFormatError):
        read_document(str(tmp_path / "missing.json"), lambda doc, raw: doc)
    assert gc.isenabled() == collector


def test_the_collector_is_paused_through_the_conversion(tmp_path, collector):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(PROBLEM), encoding="utf-8")

    def fail(doc, raw):
        raise KeyError("dim")

    assert read_document(str(path), lambda doc, raw: gc.isenabled()) is False
    with pytest.raises(KeyError):
        read_document(str(path), fail)
    assert gc.isenabled() == collector


@pytest.mark.parametrize("spec, code", [
    ({"kind": "fig3", "count": 1, "max_order": 2}, 0),
    ({"kind": "fig3", "coupling": "strong"}, 2),
    ({"kind": "fig3", "coupling": float("nan")}, 3),
    ({"kind": "cubic"}, 2),
], ids=["ok", "malformed", "not-finite", "unknown-kind"])
def test_experiment_runs_with_the_collector_in_its_prior_state(tmp_path, monkeypatch, collector,
                                                               spec, code):
    # only the spec read is paused: the run's skipped instances raise, and
    # their tracebacks form cycles the collector must be free to reclaim
    seen = []

    def run(spec, max_order=8):
        seen.append(gc.isenabled())
        return [], []

    monkeypatch.setattr(cli, "run_fig3_experiment", run)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["experiment", str(path), "--out", str(tmp_path / "eta.csv")]) == code
    assert seen == ([collector] if code == 0 else [])
    assert gc.isenabled() == collector


def test_a_d64_result_read_leaves_no_cyclic_garbage(tmp_path):
    # the premise of the pause: a read creates nothing only the collector frees
    h = build_transmon_resonator(TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05))
    result = run_fd(h, max_order=4)
    path = tmp_path / "result.json"
    write_document(str(path), result_document(result, "0" * 64))
    was_enabled = gc.isenabled()
    gc.disable()  # no automatic pass may reclaim cycles between the two counts
    try:
        gc.collect()
        view = load_result(str(path))
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert view.dim == 64 and sorted(view.generator) == [1, 2, 3, 4]
    assert unreachable == 0


def _bits(mat):
    """A matrix's bytes: equal only if every part is the same double, sign of zero included."""
    return np.ascontiguousarray(mat).tobytes()


def _assert_same_bits(read, written):
    assert read.keys() == written.keys()
    for key, mat in read.items():
        assert _bits(mat) == _bits(written.terms[key]), key


@pytest.mark.parametrize("model", ["transmon", "edsr"])
def test_real_model_documents_read_back_bit_for_bit(tmp_path, model):
    # a real problem runs in real arithmetic, which leaves no -0.0 imaginary
    # parts; the corrections are read back by json.loads alone
    if model == "transmon":
        h = build_transmon_resonator(TransmonParams(
            omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05, n_t_max=4, n_r_max=4))
        result = run_fd(h, max_order=4)
        op = GradedOperator(h.dim, {(0, 0): kron(np.diag(np.arange(4.0)), np.eye(4))})
    else:
        params = EDSRParams(omega=1.0, omega_z=0.6, omega_d=0.45, b_sl=0.02, e0=0.015, n_max=6)
        h_blocks, v, drive = build_edsr(params)
        result = run_swt(h_blocks, v + drive, [6, 6], max_order=4)
        op = GradedOperator(h_blocks.dim, {(0, 0): kron(pauli()[1], np.eye(6))})
    rotated = rotate_operator(op, result.generator, 4)
    result_path, rotated_path = tmp_path / "result.json", tmp_path / "rotated.json"
    write_document(str(result_path), result_document(result, "0" * 64))
    write_document(str(rotated_path), operator_document(rotated))

    raw = result_path.read_bytes()
    read = {"corrections": _series_from_json(json.loads(raw)["corrections"], result.dim,
                                             result.omega_d),
            "generator": load_result(str(result_path)).generator}
    for part, series in read.items():
        written = getattr(result, part)
        assert series.keys() == written.keys()
        for n, entry in series.items():
            _assert_same_bits(entry, written[n])
    again = result_document(dataclasses.replace(result, **read), "0" * 64)
    assert (canonical_json(again) + "\n").encode() == raw

    loaded = load_operator(str(rotated_path), rotated.dim, rotated.omega_d)
    _assert_same_bits(loaded, rotated)
    assert (canonical_json(operator_document(loaded)) + "\n").encode() == rotated_path.read_bytes()


# ---------------------------------------------------------------------------
# documents read back to their own bytes; matrices converted as decoded
# ---------------------------------------------------------------------------


#: A bare "-0" number, which json.loads reads as the int 0.
BARE_NEGATIVE_ZERO = re.compile(rb"-0[^.0-9eE]")
#: A "-0.0" number, as a matrix part or a list item: not -0.05 or -0.001.
NEGATIVE_ZERO = re.compile(rb"-0\.0[,\]]")


@pytest.fixture(scope="module")
def written_documents(tmp_path_factory) -> dict:
    """Every kind of document pertkit writes, by name: results of README's
    minimal problem under each method and of its 0.1 sigma_y variant (whose
    complex arithmetic writes -0.0 parts) under fd and swt, a driven result,
    a rotated operator, an oracle document and the ace demo."""
    tmp = tmp_path_factory.mktemp("written")
    minimal = readme_problem()
    static = {key: value for key, value in minimal.items() if key != "block_sizes"}
    sigma_y = {**minimal, "max_order": 4, "terms": [
        minimal["terms"][0],
        {"order": 1, "harmonic": 0, "matrix": [[[0, 0], [0, -0.1]], [[0, 0.1], [0, 0]]]}]}
    drive = reference_matrix_to_json(0.1 * pauli()[1])
    driven = {**minimal, "omega_d": 0.3, "terms": minimal["terms"][:1] + [
        {"order": 1, "harmonic": k, "matrix": drive} for k in (1, -1)]}
    problems = {
        "swt": minimal, "fd": {**static, "method": "fd"},
        "ace": {**static, "method": "ace", "mask": {"block_sizes": [1, 1]}},
        "la": {**static, "method": "la", "block_sizes": [1, 1]},
        "sigma-y-fd": {**sigma_y, "method": "fd"}, "sigma-y-swt": sigma_y, "driven": driven,
    }
    paths = {}
    for name, doc in problems.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = tmp / f"{name}.out.json"
        assert main(["transform", str(tmp / f"{name}.json"), "--out", str(paths[name])]) == 0
    operator = tmp / "op.json"
    operator.write_text(json.dumps({"terms": [{"order": 0, "matrix": drive}]}), encoding="utf-8")
    paths["rotated"] = tmp / "rotated.out.json"
    assert main(["rotate", str(tmp / "sigma-y-fd.json"), str(paths["sigma-y-fd"]), str(operator),
                 "--order", "4", "--out", str(paths["rotated"])]) == 0
    paths["oracle"] = tmp / "oracle.out.json"
    assert main(["oracle", str(tmp / "swt.json"), "--out", str(paths["oracle"])]) == 0
    spec = tmp / "ace-spec.json"
    spec.write_text(json.dumps({"kind": "ace", "dim": 6, "seed": 3, "max_order": 2}))
    paths["ace-demo"] = tmp / "demo.out.json"
    assert main(["experiment", str(spec), "--out", str(paths["ace-demo"])]) == 0
    (tmp / "chain.json").write_text(json.dumps(chain_problem()), encoding="utf-8")
    paths["chain"] = tmp / "chain.out.json"
    assert main(["transform", str(tmp / "chain.json"), "--out", str(paths["chain"])]) == 0
    number = tmp / "number.json"
    number.write_text(json.dumps({"terms": [
        {"order": 0, "matrix": reference_matrix_to_json(np.diag(np.arange(8.0)))}]}))
    paths["chain-rotated"] = tmp / "chain-rotated.out.json"
    assert main(["rotate", str(tmp / "chain.json"), str(paths["chain"]), str(number),
                 "--order", "4", "--out", str(paths["chain-rotated"])]) == 0
    return paths


WRITTEN = ["swt", "fd", "ace", "la", "sigma-y-fd", "sigma-y-swt", "driven", "rotated", "oracle",
           "ace-demo", "chain", "chain-rotated"]


@pytest.mark.parametrize("name", WRITTEN)
def test_every_written_document_reads_back_to_its_own_bytes(written_documents, name):
    # -0.0 is written "-0.0": a bare "-0" would read back as the int 0
    path = written_documents[name]
    raw = path.read_bytes()
    assert not BARE_NEGATIVE_ZERO.search(raw)
    if name.startswith("sigma-y"):  # its -0.0 parts sit in binary generator matrices
        doc = json.loads(raw)
        grids = [grid_json(mat, doc["dim"]) for entry in doc["generator"].values()
                 for mat in entry.values()]
        assert NEGATIVE_ZERO.search(json.dumps(grids).encode())
    assert (canonical_json(read_document(str(path), lambda doc, raw: doc)) + "\n").encode() == raw


def test_a_negative_zero_integer_field_reads_as_zero(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**PROBLEM, "terms": [{**TWO_LEVEL, "order": -0.0}]})
                    .replace("-0.0", "-0"), encoding="utf-8")
    assert BARE_NEGATIVE_ZERO.search(path.read_bytes())
    spec, _ = load_problem(str(path))
    assert list(spec.terms) == [(0, 0)] and type(next(iter(spec.terms))[0]) is int


@pytest.mark.parametrize("command, holds", [
    (["oracle", "--lam", "-0"], b'"lambda":-0.0'),
    (["transform"], b'"energies":[-0.0,1]'),
], ids=["oracle-lambda", "result-energies"])
def test_a_negative_zero_scalar_reads_back_to_its_own_bytes(tmp_path, command, holds):
    # a -0.0 lambda or energy written "-0" would read back as the int 0
    problem, out = tmp_path / "problem.json", tmp_path / "out.json"
    problem.write_text(json.dumps({**readme_problem(), "terms": [
        {"order": 0, "matrix": [[[-0.0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"order": 1, "matrix": [[[0, 0], [0.1, 0]], [[0.1, 0], [0, 0]]]}]}), encoding="utf-8")
    assert main([command[0], str(problem), *command[1:], "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert holds in raw
    assert (canonical_json(read_document(str(out), lambda doc, raw: doc)) + "\n").encode() == raw


def test_a_matrix_part_keeps_the_sign_of_zero_it_is_written_with(tmp_path):
    # a bare "-0" is JSON's integer 0, as in every JSON reader
    path = tmp_path / "problem.json"
    text = json.dumps({**PROBLEM, "terms": [{**TWO_LEVEL, "matrix": [
        [[-0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]})
    for written, sign in (("-0", False), ("-0.0", True)):
        path.write_text(text.replace("-0.0", written), encoding="utf-8")
        part = load_problem(str(path))[0].terms[(0, 0)][0, 0].real
        assert part == 0 and np.signbit(part) == sign, written


def test_a_sigma_y_generator_reads_back_with_every_sign_of_zero(tmp_path):
    h = GradedOperator(2, {(0, 0): np.diag([0.0, 1.0]), (1, 0): 0.1 * pauli()[2]})
    result = run_fd(h, max_order=4)
    path = tmp_path / "result.json"
    write_document(str(path), result_document(result, "0" * 64))
    read = load_result(str(path)).generator
    assert read.keys() == result.generator.keys()
    for n, entry in read.items():
        _assert_same_bits(entry, result.generator[n])
    parts = np.concatenate([np.concatenate([mat.real.ravel(), mat.imag.ravel()])
                            for op in result.generator.values() for mat in op.terms.values()])
    assert np.signbit(parts[parts == 0]).any()  # the generator holds -0.0 parts


def test_a_result_read_holds_one_entry_of_decoded_lists_at_a_time(tmp_path):
    # Eight real banded d = 48 matrices, as in the model documents, where most
    # parts are the literal 0 and the [re, im] lists, not the text, dominate
    # decoding.  Decoded whole, every matrix's lists are alive at once.
    rng = np.random.default_rng(2)

    def banded():
        mat = np.diag(rng.normal(size=48)) + np.diag(rng.normal(size=47), 1)
        return (mat + mat.T).astype(complex)

    def series():
        return {str(n): {f"{n},0": banded()} for n in range(1, 5)}

    path = tmp_path / "result.json"
    write_document(str(path), {
        "problem_sha256": "0" * 64, "method": "fd", "dim": 48, "max_order": 4, "hbar": 1.0,
        "omega_d": None, "energies": [0.0] * 48, "corrections": series(), "generator": series(),
        "diagnostics": {"products": 0, "resonances": [], "tolerances": {"zero": 1e-14},
                        "timings": None}})

    def peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak(lambda: json.loads(path.read_bytes()))
    converted = peak(lambda: load_result(str(path)))
    assert converted < whole / 2, (converted, whole)


# ---------------------------------------------------------------------------
# json.loads's verdict; a result's corrections dropped as decoded
# ---------------------------------------------------------------------------


#: Texts json.loads refuses: a trailing comma, a missing colon or comma, a key
#: that is not a string, a missing value, extra data, an unclosed object,
#: nothing at all, and a key that is not followed by its value.
DECODE_FAULTS = [b'{"a":1,}', b'{"a" 1}', b'{"a":1 "b":2}', b'{1:2}', b'{"a":}', b'{"a":1} x',
                 b'{', b'', b' \n', b'{"a:-0"}', b'{"a"}']
#: Texts that decode but hold no result or problem, or no object, one of them
#: after a UTF-8 byte order mark, which json.loads skips in bytes.
UNREADABLE = [b"{}", b" { } ", b"[1]",
              b'\xef\xbb\xbf{"corrections": {"0": {"0,0": [[[1, -0]]]}}, "dim": 1}',
              b'\xef\xbb\xbf{"a":1,}']


@pytest.mark.parametrize("raw", DECODE_FAULTS + UNREADABLE)
def test_a_read_is_refused_with_the_message_of_json_loads(tmp_path, raw):
    # a text json.loads refuses gives its message; one that decodes, the
    # reader's verdict on the document json.loads gives
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    for load, convert in ((load_result, lambda doc: _result_view(doc, raw)),
                          (load_problem, ProblemSpec.from_dict)):
        try:
            doc = json.loads(raw)
        except ValueError as err:
            want = f"cannot read a JSON document from {path}: {err}"
        else:
            if isinstance(doc, dict):
                with pytest.raises(ProblemFormatError) as refused:
                    convert(doc)
                want = str(refused.value)
            else:
                want = f"{path} must hold a JSON object"
        with pytest.raises(ProblemFormatError) as got:
            load(str(path))
        assert str(got.value) == want, raw


def test_a_result_read_converts_the_generator_alone(tmp_path, monkeypatch):
    # rotate reads only the generator; the corrections' grids are dropped as
    # decoded.  A grid is converted as it is decoded, a sparse or binary
    # matrix by its reader, each once: README's minimal fd result has a binary
    # generator, the chain's is sparse at orders 1 and 2, and each is read as
    # written and with its binary matrices written as grids, which takes a
    # second pass.
    problem, result = tmp_path / "problem.json", tmp_path / "result.json"
    minimal = {key: value for key, value in readme_problem().items() if key != "block_sizes"}
    conversions = []

    def counted(data, dim):
        if type(data) is not np.ndarray:
            conversions.append(type(data).__name__)
        return matrix_from_json(data, dim)

    forms = set()
    for source, grids in itertools.product(({**minimal, "method": "fd"}, chain_problem()),
                                           (False, True)):
        problem.write_text(json.dumps(source), encoding="utf-8")
        assert main(["transform", str(problem), "--max-order", "4", "--out", str(result)]) == 0
        doc = json.loads(result.read_bytes())
        if grids:
            doc = with_grids(doc)
            result.write_text(json.dumps(doc), encoding="utf-8")
        conversions.clear()
        with monkeypatch.context() as patched:
            patched.setattr(pertkit.io, "matrix_from_json", counted)
            view = load_result(str(result))
        assert sorted(view.generator) == [1, 2, 3, 4]
        assert sum(map(len, doc["corrections"].values())) > 0
        written = [mat for entry in doc["generator"].values() for mat in entry.values()]
        assert sorted(conversions) == sorted(type(mat).__name__ for mat in written)
        forms.update("grid" if type(mat) is list else ",".join(sorted(mat)) for mat in written)
    assert forms == {"grid", "at,c16", "c16"}


def counted_passes(monkeypatch) -> list:
    """The paths of every ``read_document`` call from now on, one per pass."""
    passes = []

    def counted(path, *args):
        passes.append(path)
        return read_document(path, *args)

    monkeypatch.setattr(pertkit.io, "read_document", counted)
    return passes


def test_a_generator_with_one_grid_reads_like_its_binary_copy(written_documents, tmp_path,
                                                              monkeypatch):
    # the chain's generator orders 1 and 2 are sparse, 3 and 4 binary; with
    # order 3 written as a grid the read takes a second pass, which converts
    # each list from that grid's place on: with the generator written before
    # the corrections, theirs too
    path = written_documents["chain"]
    doc = json.loads(path.read_bytes())
    doc["generator"]["3"]["3,0"] = grid_json(doc["generator"]["3"]["3,0"], 8)
    passes = counted_passes(monkeypatch)
    want = load_result(str(path))
    assert len(passes) == 1
    mixed = tmp_path / "mixed.json"
    for edited in (doc, {"generator": doc["generator"], **doc}):
        mixed.write_text(json.dumps(edited), encoding="utf-8")
        passes.clear()
        got = load_result(str(mixed))
        assert len(passes) == 2
        assert dataclasses.replace(got, generator=None) == dataclasses.replace(want, generator=None)
        assert got.generator.keys() == want.generator.keys()
        for n, entry in got.generator.items():
            _assert_same_bits(entry, want.generator[n])


def test_a_result_rewritten_between_passes_reads_as_rewritten(written_documents, tmp_path,
                                                              monkeypatch):
    # a grid's place counts the lists before it, the corrections' grids among
    # them; rewritten with one correction binary, the document's generator
    # grid sits one place lower, so the second pass finds it dropped and a
    # third converts from there
    doc = json.loads(written_documents["chain"].read_bytes())
    result = tmp_path / "result.json"

    def with_grid(corrections):
        return {**doc, "corrections": corrections,
                "generator": {**doc["generator"], "4": {
                    key: grid_json(mat, 8) for key, mat in doc["generator"]["4"].items()}}}

    result.write_text(json.dumps(with_grid(doc["corrections"])), encoding="utf-8")
    passes = counted_passes(monkeypatch)
    read = pertkit.io.read_document

    def rewriting(path, *args):
        if len(passes) == 1:
            result.write_text(json.dumps(with_grid({**doc["corrections"], "0": {
                key: binary_json(mat) for key, mat in doc["corrections"]["0"].items()}})),
                encoding="utf-8")
        return read(path, *args)

    monkeypatch.setattr(pertkit.io, "read_document", rewriting)
    view = load_result(str(result))
    assert len(passes) == 3
    want = load_result(str(written_documents["chain"])).generator
    for n, entry in view.generator.items():
        _assert_same_bits(entry, want[n])


def test_binary_corrections_rotate_like_grids_and_are_never_converted(written_documents,
                                                                       tmp_path, monkeypatch):
    path = written_documents["chain"]
    doc = json.loads(path.read_bytes())
    assert all(type(mat) is list for entry in doc["corrections"].values()
               for mat in entry.values())
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps({**doc, "corrections": {
        n: {key: binary_json(mat) for key, mat in entry.items()}
        for n, entry in doc["corrections"].items()}}), encoding="utf-8")
    number = tmp_path / "number.json"
    number.write_text(json.dumps({"terms": [
        {"order": 0, "matrix": reference_matrix_to_json(np.diag(np.arange(8.0)))}]}))
    rotated = tmp_path / "rotated.json"
    assert main(["rotate", str(path.with_name("chain.json")), str(binary), str(number),
                 "--order", "4", "--out", str(rotated)]) == 0
    assert rotated.read_bytes() == written_documents["chain-rotated"].read_bytes()

    converted = []

    def counted(data, dim):
        converted.append(json.dumps(data, sort_keys=True))
        return matrix_from_json(data, dim)

    monkeypatch.setattr(pertkit.io, "matrix_from_json", counted)
    load_result(str(binary))
    generator = [json.dumps(mat, sort_keys=True) for entry in doc["generator"].values()
                 for mat in entry.values()]
    assert sorted(converted) == sorted(generator)


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(zero_heavy_matrices()))
def test_a_sparsable_matrix_renders_as_its_sparse_object_when_thin(name):
    mat = zero_heavy_matrices()[name]
    want, dense = sparsable_lists(mat), reference_matrix_to_json(mat)
    text = canonical_json({"m": _Sparsable(mat), "n": [_Sparsable(mat), mat]})
    assert text == reference_canonical_json({"m": want, "n": [want, dense]})
    assert _bits(matrix_from_json(json.loads(text)["m"], 6)) == _bits(mat)


def test_a_matrix_is_written_sparse_below_a_quarter_of_nonzero_pairs():
    # 3 of 16 pairs nonzero, a (-0.0, +0.0) pair among them, goes sparse; 4 go binary
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 1], mat[2, 3], mat[3, 0] = 0.5, complex(-0.0, 0.0), 2j
    assert SPARSE_SHARE == 0.25
    values = base64.b64encode(np.array([0.5, complex(-0.0, 0.0), 2j], dtype="<c16")).decode()
    assert canonical_json(_Sparsable(mat)) == '{"at":[1,11,12],"c16":"' + values + '"}'
    assert _bits(matrix_from_json(json.loads(canonical_json(_Sparsable(mat))), 4)) == _bits(mat)
    assert canonical_json(written_form(mat, sparse=True)) == canonical_json(_Sparsable(mat))
    assert canonical_json(written_form(mat, sparse=False)) == canonical_json(mat)
    mat[1, 1] = complex(0.0, -0.0)
    binary = canonical_json(_Sparsable(mat))
    assert binary == '{"c16":"' + base64.b64encode(mat.astype("<c16")).decode() + '"}'
    assert binary == canonical_json(binary_json(mat))
    assert _bits(matrix_from_json(json.loads(binary), 4)) == _bits(mat)


def written_form(mat, sparse):
    """The form ``mat`` takes in a series written by ``_series_to_json``."""
    return _series_to_json({1: GradedOperator(4, {(1, 0): mat})}, sparse=sparse)["1"]["1,0"]


def test_a_sparse_generator_reads_back_bit_for_bit(written_documents):
    # the chain's generator orders 1 and 2 are sparse, 3 and 4 binary (a -0.0
    # part in a sparse matrix: test_a_matrix_is_written_sparse_below_a_quarter_of_nonzero_pairs)
    path = written_documents["chain"]
    doc = json.loads(path.read_bytes())
    forms = {n: sorted(entry[f"{n},0"]) for n, entry in doc["generator"].items()}
    assert forms == {"1": ["at", "c16"], "2": ["at", "c16"], "3": ["c16"], "4": ["c16"]}
    assert [len(doc["generator"][n][f"{n},0"]["at"]) for n in "12"] == [14, 12]
    spec, digest = load_problem(str(path.with_name("chain.json")))
    result = run_fd(spec.to_graded(), max_order=4)
    read = load_result(str(path)).generator
    assert read.keys() == result.generator.keys()
    for n, entry in read.items():
        _assert_same_bits(entry, result.generator[n])
    assert (canonical_json(result_document(result, digest)) + "\n").encode() == path.read_bytes()


def sparse_terms(doc):
    """A problem or operator document with every term matrix in sparse form."""
    return {**doc, "terms": [{**term, "matrix": sparse_json(term["matrix"])}
                             for term in doc["terms"]]}


def test_sparse_problem_and_operator_give_their_dense_twins_bytes(tmp_path):
    # the same matrices written sparse: the same result, but for the hash of
    # the problem's bytes, and the same rotated operator
    hop = 0.5 * (np.eye(8, k=1) + np.eye(8, k=-1))
    number = {"terms": [{"order": 0, "matrix": reference_matrix_to_json(np.diag(np.arange(8.0)))},
                        {"order": 1, "matrix": reference_matrix_to_json(hop)}]}
    outputs = {}
    for form, edit in (("dense", lambda doc: doc), ("sparse", sparse_terms)):
        problem, operator = tmp_path / f"{form}.json", tmp_path / f"{form}-op.json"
        result, rotated = tmp_path / f"{form}-result.json", tmp_path / f"{form}-rotated.json"
        problem.write_text(json.dumps(edit(chain_problem())), encoding="utf-8")
        operator.write_text(json.dumps(edit(number)), encoding="utf-8")
        assert main(["transform", str(problem), "--out", str(result)]) == 0
        assert main(["rotate", str(problem), str(result), str(operator), "--order", "4",
                     "--out", str(rotated)]) == 0
        digest = load_result(str(result)).problem_sha256
        outputs[form] = (result.read_text().replace(digest, "HASH"), rotated.read_bytes())
    assert '"at": [' in (tmp_path / "sparse.json").read_text()
    assert '"at": [' in (tmp_path / "sparse-op.json").read_text()
    assert outputs["sparse"] == outputs["dense"]


@pytest.mark.parametrize("data, message", [
    ({"at": [3, 1], "values": [[1, 0], [1, 0]]}, "indices must ascend strictly within [0, 4)"),
    ({"at": [1, 1], "values": [[1, 0], [1, 0]]}, "indices must ascend strictly within [0, 4)"),
    ({"at": [-1], "values": [[1, 0]]}, "indices must ascend strictly within [0, 4)"),
    ({"at": [4], "values": [[1, 0]]}, "indices must ascend strictly within [0, 4)"),
    ({"at": [True], "values": [[1, 0]]}, "'at' must be a list of integers, got [True]"),
    ({"at": [1.0], "values": [[1, 0]]}, "'at' must be a list of integers, got [1.0]"),
    ({"at": 1, "values": [[1, 0]]}, "'at' must be a list of integers, got 1"),
    ({"at": [1, 2], "values": [[1, 0]]}, "'values' must be a list of 2 [re, im] pairs"),
    ({"at": [], "values": [[1, 0]]}, "'values' must be a list of 0 [re, im] pairs"),
    ({"at": [1]}, "holds the keys 'at' and 'c16' (sparse), 'at' and 'values' (sparse) or 'c16' "
                  "(binary) alone, got ['at']"),
    ({"at": [1], "values": [[1, 0]], "dim": 2}, "alone, got ['at', 'dim', 'values']"),
    ({"at": [1], "values": [["1", 0]]}, "a matrix entry must be a number, got '1'"),
    ({"at": [1], "values": [[1, None]]}, "a matrix entry must be a number, got None"),
    ({"at": [1], "values": [[1, 0, 0]]}, "values must be [re, im] pairs"),
    ({"at": [1], "values": [1]}, "values must be [re, im] pairs"),
], ids=["descending", "repeated", "negative", "past-the-end", "boolean", "float", "not-a-list",
        "fewer-values", "more-values", "missing-key", "extra-key", "string-part", "null-part",
        "pair-of-three", "number-value"])
def test_a_malformed_sparse_matrix_is_refused(data, message):
    with pytest.raises(ProblemFormatError) as refused:
        matrix_from_json(data, 2)
    assert message in str(refused.value)


def test_an_empty_sparse_matrix_is_zero():
    for empty in ({"at": [], "values": []}, {"at": [], "c16": ""}):
        zero = matrix_from_json(empty, 3)
        assert _bits(zero) == _bits(np.zeros((3, 3), dtype=complex))
    assert canonical_json(_Sparsable(zero)) == '{"at":[],"c16":""}'


# ---------------------------------------------------------------------------
# the size of a matrix judged before it is allocated
# ---------------------------------------------------------------------------


def test_a_matrix_above_the_size_limit_is_refused_before_it_is_allocated(tmp_path, monkeypatch):
    # a few bytes of a sparse document can declare any dim
    monkeypatch.setattr(pertkit.io, "MAX_MATRIX_BYTES", 16 * 3 * 3)
    dense = reference_matrix_to_json(np.eye(4))
    path = tmp_path / "operator.json"
    for matrix in (dense, sparse_json(dense), sparse_binary_json(dense)):
        path.write_text(json.dumps({"terms": [{"order": 0, "matrix": matrix}]}), encoding="utf-8")
        with pytest.raises(PertError, match="a 4x4 complex matrix takes 256 bytes, more than "
                                            "the 144 a matrix may take"):
            load_operator(str(path), 4, None)
    assert matrix_from_json(reference_matrix_to_json(np.eye(3)), 3).shape == (3, 3)
    assert matrix_from_json({"at": [0], "values": [[1, 0]]}, 3).shape == (3, 3)


def test_a_binary_matrix_above_the_size_limit_is_refused_before_it_is_decoded(tmp_path,
                                                                              monkeypatch):
    def decode(*args, **kwargs):
        raise AssertionError("the matrix was decoded")

    monkeypatch.setattr(pertkit.io, "MAX_MATRIX_BYTES", 16 * 3 * 3)
    path = tmp_path / "operator.json"
    for matrix in (binary_json(np.eye(4)), sparse_binary_json(reference_matrix_to_json(np.eye(4)))):
        path.write_text(json.dumps({"terms": [{"order": 0, "matrix": matrix}]}), encoding="utf-8")
        with monkeypatch.context() as patched:
            patched.setattr(pertkit.io.base64, "b64decode", decode)
            with pytest.raises(PertError, match="a 4x4 complex matrix takes 256 bytes, more than "
                                                "the 144 a matrix may take"):
                load_operator(str(path), 4, None)
    assert _bits(matrix_from_json(binary_json(np.eye(3)), 3)) == _bits(np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# binary matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("data, message", [
    ({}, "holds the keys 'at' and 'c16' (sparse), 'at' and 'values' (sparse) or 'c16' (binary) "
         "alone, got []"),
    ({"c16": "A" * 88, "x": 1}, "or 'c16' (binary) alone, got ['c16', 'x']"),
    ({"c16": 5}, "a binary matrix's 'c16' must be a base64 string, got int"),
    ({"c16": b"A" * 88}, "a binary matrix's 'c16' must be a base64 string, got bytes"),
    ({"c16": "A" * 44 + "\n" + "A" * 44}, "'c16' is not base64: Only base64 data is allowed"),
    ({"c16": "A" * 87 + "_"}, "'c16' is not base64: Only base64 data is allowed"),
    ({"c16": "A" * 86}, "'c16' is not base64: Incorrect padding"),
    ({"c16": "A" * 64}, "'c16' must hold 64 bytes, 2x2 complex128 values, got 48"),
    ({"c16": "A" * 108}, "'c16' must hold 64 bytes, 2x2 complex128 values, got 81"),
], ids=["no-key", "extra-key", "number", "bytes", "newline", "url-safe", "unpadded", "short",
        "long"])
def test_a_malformed_binary_matrix_is_refused(data, message):
    with pytest.raises(ProblemFormatError) as refused:
        matrix_from_json(data, 2)
    assert message in str(refused.value)


def test_rotating_against_binary_or_grid_generator_gives_the_same_bytes(written_documents,
                                                                        tmp_path):
    # the chain's generator orders 1 and 2 are sparse and 3 and 4 binary,
    # README's fd generator is binary; each is given as grids, and the chain's
    # sparse orders in the text form results were once written in
    path = written_documents["chain"]
    doc = json.loads(path.read_bytes())
    text_values = {**doc, "generator": {n: {key: sparse_json(grid_json(mat, 8)) if "at" in mat
                                            else mat for key, mat in entry.items()}
                                        for n, entry in doc["generator"].items()}}
    number = tmp_path / "number.json"
    number.write_text(json.dumps({"terms": [
        {"order": 0, "matrix": reference_matrix_to_json(np.diag(np.arange(8.0)))}]}))
    rotated = tmp_path / "rotated.json"
    for name, edited in (("grids", with_grids(doc)), ("text-values", text_values)):
        source = tmp_path / f"chain-{name}.json"
        source.write_text(json.dumps(edited), encoding="utf-8")
        assert main(["rotate", str(path.with_name("chain.json")), str(source), str(number),
                     "--order", "4", "--out", str(rotated)]) == 0
        assert rotated.read_bytes() == written_documents["chain-rotated"].read_bytes(), name
    grids = tmp_path / "chain-grids.json"
    assert b'"c16"' in path.read_bytes() and b'"c16"' not in grids.read_bytes()
    assert b'"values"' in (tmp_path / "chain-text-values.json").read_bytes()

    grids = tmp_path / "fd-grids.json"
    grids.write_text(json.dumps(with_grids(json.loads(written_documents["fd"].read_bytes()))),
                     encoding="utf-8")
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"terms": [
        {"order": 0, "matrix": reference_matrix_to_json(0.3 * pauli()[2])}]}))
    outputs = []
    for result in (written_documents["fd"], grids):
        assert main(["rotate", str(written_documents["fd"].with_name("fd.json")), str(result),
                     str(operator), "--order", "2", "--out", str(rotated)]) == 0
        outputs.append(rotated.read_bytes())
    assert outputs[0] == outputs[1]


@st.composite
def generated_problems(draw):
    """Its kind and a problem document: random complex levels and couplings,
    static (fd, swt or la, on two blocks) or driven at harmonics +-1 (fd or
    swt), or the static coupling sigma_y x 1 + 1 x sigma_x of four levels."""
    kind = draw(st.sampled_from(["static", "driven", "sigma"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = 4 if kind == "sigma" else draw(st.integers(2, 5))
    levels = np.arange(d) + rng.uniform(0.0, 0.3, d)  # gaps of 0.7 to 1.3

    def complex_matrix():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    if kind == "sigma":
        coupling = kron(pauli()[2], np.eye(2)) + kron(np.eye(2), pauli()[1])
    else:
        coupling = complex_matrix()
        coupling += coupling.conj().T
    terms = [{"order": 0, "matrix": reference_matrix_to_json(np.diag(levels))},
             {"order": 1, "matrix": reference_matrix_to_json(0.03 * coupling)}]
    doc = {"dim": d, "max_order": draw(st.integers(2, 4)), "terms": terms}
    methods = ["fd", "swt"] + ["la"] * (kind != "driven")
    doc["method"] = draw(st.sampled_from(methods))
    if doc["method"] != "fd":
        cut = draw(st.integers(1, d - 1))
        doc["block_sizes"] = [cut, d - cut]
    if kind == "driven":
        drive = 0.02 * complex_matrix()
        doc["omega_d"] = 0.37
        terms += [{"order": 1, "harmonic": 1, "matrix": reference_matrix_to_json(drive)},
                  {"order": 1, "harmonic": -1,
                   "matrix": reference_matrix_to_json(drive.conj().T)}]
    return kind, doc


def test_generated_problems_read_back_to_their_own_bytes(tmp_path):
    # every document written reads back to its bytes, and every generator
    # matrix to its bits, sparse or binary as written or rewritten as a grid;
    # a matrix is sparse if, and only if, fewer than 1/4 of its pairs are nonzero
    problem, result, grids = (tmp_path / name for name in ("p.json", "r.json", "g.json"))
    operator, rotated = tmp_path / "op.json", tmp_path / "rotated.json"
    forms, kinds = set(), set()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(generated_problems())
    def check(case):
        kind, doc = case
        kinds.add((kind, doc["method"]))
        problem.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["transform", str(problem), "--out", str(result)]) == 0
        written = json.loads(result.read_bytes())
        grids.write_text(json.dumps(with_grids(written)), encoding="utf-8")
        spec, _ = load_problem(str(problem))
        want = cli._run_problem(spec, spec.resolved_tolerance()).generator
        for path in (result, grids):
            read = load_result(str(path)).generator
            assert read.keys() == want.keys()
            for n, entry in read.items():
                _assert_same_bits(entry, want[n])
        for n, entry in written["generator"].items():
            for key, mat in entry.items():
                nonzero = sparse_json(reference_matrix_to_json(want[int(n)].terms[
                    tuple(map(int, key.split(",")))]))["at"]
                form = ",".join(sorted(mat))
                assert form == ("at,c16" if len(nonzero) < SPARSE_SHARE * doc["dim"] ** 2
                                else "c16"), (n, key, form)
                assert mat.get("at", nonzero) == nonzero
                forms.add(form)
        operator.write_text(json.dumps({"omega_d": doc.get("omega_d"), "terms": doc["terms"][:2]}),
                            encoding="utf-8")
        assert main(["rotate", str(problem), str(result), str(operator), "--order",
                     str(doc["max_order"]), "--out", str(rotated)]) == 0
        for path in (result, rotated):
            raw = path.read_bytes()
            assert (canonical_json(read_document(str(path), lambda doc, raw: doc)) + "\n"
                    ).encode() == raw

    check()
    assert forms == {"at,c16", "c16"}
    assert {kind for kind, _ in kinds} == {"static", "driven", "sigma"}
    assert {method for _, method in kinds} == {"fd", "swt", "la"}
