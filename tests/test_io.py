"""Fast matrix serialization against the element-by-element renderer."""

import json

import numpy as np
import pytest

from pertkit.cli import main
from pertkit.engine import run_fd
from pertkit.graded import GradedOperator
from pertkit.io import canonical_json, matrix_to_json, operator_document, result_document


def reference_canonical_json(obj):
    """The former renderer: recursive dispatch, one float at a time."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        return f"{float(obj):.17g}"
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
        fast = canonical_json(matrix_to_json(mat))
        assert fast == reference_canonical_json(reference_matrix_to_json(mat))


def test_signed_zero_and_subnormal_render_as_before():
    mat = np.array([[complex(-0.0, 5e-324), complex(1e300, -1e-300)],
                    [complex(0.1, 1 / 3), complex(3.0, -0.0)]])
    text = canonical_json(matrix_to_json(mat))
    assert text == reference_canonical_json(reference_matrix_to_json(mat))
    assert text.startswith("[[[-0,4.9406564584124654e-324],[1.0000000000000001e+300,")
    assert "[3,-0]" in text


def test_documents_match_reference():
    rng = np.random.default_rng(3)
    off = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    off = 0.05 * (off + off.conj().T)
    off -= np.diag(np.diag(off))
    h = GradedOperator(4, {(0, 0): np.diag([0.0, 1.0, 2.5, 4.0]), (1, 0): off})
    result = run_fd(h, max_order=4)

    def as_lists(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, dict):
            return {k: as_lists(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [as_lists(v) for v in obj]
        return obj

    for doc in (result_document(result, "0" * 64), operator_document(h)):
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
    assert canonical_json(matrix_to_json(mat)) == reference_canonical_json(
        reference_matrix_to_json(mat))


@pytest.mark.parametrize("shape", [(2, 5), (5, 1), (1, 7), (3, 0), (0, 3)])
def test_non_square_rendering_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    mat = parts(rng.choice(AWKWARD, size=shape), rng.choice(AWKWARD, size=shape))
    arr = matrix_to_json(mat)
    assert arr.shape == shape + (2,)
    assert canonical_json(arr) == reference_canonical_json(reference_matrix_to_json(mat))


def test_sparse_d64_rendering_matches_reference():
    rng = np.random.default_rng(64)
    mat = parts(rng.normal(size=(64, 64)), rng.choice(AWKWARD, size=(64, 64)))
    mat[rng.random((64, 64)) < 0.95] = 0.0
    mat[rng.random((64, 64)) < 0.01] = complex(-0.0, 0.0)
    text = canonical_json({"m": matrix_to_json(mat)})
    assert text == reference_canonical_json({"m": reference_matrix_to_json(mat)})


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
    # parse_int=float keeps the sign of a "-0" part; an integer field such as
    # "dim" renders the same from 2.0 as from 2
    for path in cli_documents(tmp_path):
        written = path.read_bytes()
        doc = json.loads(written, parse_int=float)
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
        canonical_json({"m": matrix_to_json(mat)})
