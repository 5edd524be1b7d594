"""Fast matrix serialization against the element-by-element renderer,
document reads with the cyclic collector paused, and reads that decode each
top-level member with its own hook."""

import dataclasses
import gc
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import readme_problem
import pertkit.cli as cli
import pertkit.io
from pertkit.cli import main
from pertkit.engine import rotate_operator, run_fd, run_swt
from pertkit.errors import PertError
from pertkit.graded import GradedOperator
from pertkit.io import (
    ProblemFormatError, _series_from_json, _unique_keys, canonical_json, load_operator,
    load_problem, load_result, matrix_from_json, operator_document, read_document,
    result_document, write_document,
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


def as_lists(obj):
    """A document with every matrix as the nested lists of its [re, im] pairs."""
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
    generic complex matrices of several shapes, among scalars and strings."""
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
        kind = draw(st.sampled_from(["matrix", "matrices", "floats", "float", "text", "int",
                                     "constant"] + ["nested"] * (depth < 2)))
        if kind == "matrix":
            return matrix()
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
    return paths


WRITTEN = ["swt", "fd", "ace", "la", "sigma-y-fd", "sigma-y-swt", "driven", "rotated", "oracle",
           "ace-demo"]


@pytest.mark.parametrize("name", WRITTEN)
def test_every_written_document_reads_back_to_its_own_bytes(written_documents, name):
    # -0.0 is written "-0.0": a bare "-0" would read back as the int 0
    path = written_documents[name]
    raw = path.read_bytes()
    assert not BARE_NEGATIVE_ZERO.search(raw)
    if name.startswith("sigma-y"):
        assert NEGATIVE_ZERO.search(raw)
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
# each top-level member decoded with its own hook
# ---------------------------------------------------------------------------


#: The bytes a mutation inserts or writes over another.
MUTATION_BYTES = b'{}[],:"0-eE. \n1a\\'


def _same(a, b) -> bool:
    """Equal documents, every matrix and float compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and _bits(a) == _bits(b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return _bits(np.float64(a)) == _bits(np.float64(b))
    return a == b


@st.composite
def mutated_bytes(draw, documents):
    """One of ``documents`` with up to three bytes truncated at, deleted, inserted or replaced."""
    raw = bytearray(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["truncate", "delete", "insert", "replace"]))
        at = draw(st.integers(0, max(len(raw) - 1, 0)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        if kind == "truncate":
            del raw[at:]
        elif kind == "delete":
            del raw[at:at + 1]
        elif kind == "insert":
            raw.insert(at, byte)
        elif raw:
            raw[at] = byte
    return bytes(raw)


#: Texts a walk of the top-level object stops at: a trailing comma, a missing
#: colon or comma, a key that is not a string, a missing value, extra data, an
#: unclosed object, nothing at all, and a key that is not followed by its value.
WALK_FAULTS = [b'{"a":1,}', b'{"a" 1}', b'{"a":1 "b":2}', b'{1:2}', b'{"a":}', b'{"a":1} x',
               b'{', b'', b' \n', b'{"a:-0"}', b'{"a"}']


def test_a_read_gives_the_verdict_of_json_loads(written_documents, tmp_path):
    # a well-formed top-level object is walked member by member, any other
    # text decoded by json.loads: the verdict, the error messages and, where
    # it decodes, the document are json.loads's; every document is checked
    # as it is, then mutated
    path = tmp_path / "doc.json"
    documents = [written_documents["fd"].read_bytes(), json.dumps(readme_problem()).encode(),
                 written_documents["rotated"].read_bytes(), b"{}", b" { } ", b"[1]",
                 b'\xef\xbb\xbf{"corrections": {"0": {"0,0": [[[1, -0]]]}}, "dim": 1}',
                 *WALK_FAULTS]

    def read(unread):
        try:
            return read_document(str(path), lambda doc, raw: doc, unread=unread)
        except ProblemFormatError as err:
            return err

    def check(raw):
        path.write_bytes(raw)
        try:
            want = json.loads(raw, object_pairs_hook=_unique_keys)
        except ValueError as err:
            want = ProblemFormatError(f"cannot read a JSON document from {path}: {err}")
        if not isinstance(want, (dict, ProblemFormatError)):
            want = ProblemFormatError(f"{path} must hold a JSON object")
        for unread in ((), ("corrections",)):
            got = read(unread)
            if isinstance(want, ProblemFormatError):
                assert isinstance(got, ProblemFormatError) and str(got) == str(want), (raw, got)
            else:
                assert isinstance(got, dict) and got.keys() == want.keys(), (raw, got)
                assert _same({key: value for key, value in got.items() if key not in unread},
                             {key: value for key, value in want.items() if key not in unread})

    for raw in documents:
        check(raw)
    settings(derandomize=True, database=None, deadline=None, max_examples=200)(
        given(raw=mutated_bytes(documents))(check))()


def test_a_well_formed_document_never_reaches_json_loads(written_documents, tmp_path,
                                                        monkeypatch):
    # json.loads decodes only what the walk stops at; a walk that stopped on
    # a well-formed object would give the same document, only slower
    path = tmp_path / "doc.json"
    texts = [b"{}"]
    for name in WRITTEN:
        raw = written_documents[name].read_bytes()
        texts += [raw, json.dumps(json.loads(raw), indent=2).encode(), b"\xef\xbb\xbf" + raw,
                  b" \n" + raw + b" \n"]
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(pertkit.io.json, "loads", counted)
    for raw in texts:
        path.write_bytes(raw)
        for unread in ((), ("corrections",)):
            assert isinstance(read_document(str(path), lambda doc, raw: doc, unread=unread), dict)
    assert calls == []
    path.write_bytes(texts[1][:-10])
    with pytest.raises(ProblemFormatError, match="cannot read a JSON document"):
        read_document(str(path), lambda doc, raw: doc, unread=("corrections",))
    assert len(calls) == 1


def test_a_result_read_converts_the_generator_alone(tmp_path, monkeypatch):
    # rotate reads only the generator; the corrections were converted as
    # well, and dropped
    problem, result = tmp_path / "problem.json", tmp_path / "result.json"
    minimal = {key: value for key, value in readme_problem().items() if key != "block_sizes"}
    problem.write_text(json.dumps({**minimal, "method": "fd"}), encoding="utf-8")
    assert main(["transform", str(problem), "--max-order", "4", "--out", str(result)]) == 0
    doc = json.loads(result.read_bytes())
    conversions = []

    def counted(data, dim):
        if type(data) is list:
            conversions.append(dim)
        return matrix_from_json(data, dim)

    monkeypatch.setattr(pertkit.io, "matrix_from_json", counted)
    view = load_result(str(result))
    assert sorted(view.generator) == [1, 2, 3, 4]
    assert sum(map(len, doc["corrections"].values())) > 0
    assert len(conversions) == sum(map(len, doc["generator"].values()))
