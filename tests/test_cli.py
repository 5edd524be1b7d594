import json

import numpy as np
import pytest

from pertkit.cli import main
from pertkit.io import canonical_json, load_problem, matrix_from_json


def mat_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture
def two_level_problem(tmp_path):
    doc = {
        "dim": 2,
        "hbar": 1.0,
        "method": "swt",
        "max_order": 2,
        "block_sizes": [1, 1],
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([0.0, 1.0]))},
            {"order": 1, "harmonic": 0, "matrix": mat_json(0.1 * np.array([[0, 1], [1, 0]]))},
        ],
    }
    path = tmp_path / "problem.json"
    write_json(path, doc)
    return path


def test_transform_two_level_document(two_level_problem, tmp_path):
    out = tmp_path / "result.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    corr2 = matrix_from_json(doc["corrections"]["2"]["2,0"], 2)
    np.testing.assert_allclose(corr2, np.diag([-0.01, 0.01]), atol=1e-14)
    assert doc["method"] == "swt"
    assert len(doc["problem_sha256"]) == 64


def test_transform_byte_identical_runs(two_level_problem, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["transform", str(two_level_problem), "--out", str(out1)]) == 0
    assert main(["transform", str(two_level_problem), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_transform_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["transform", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_transform_missing_field(tmp_path):
    path = tmp_path / "incomplete.json"
    write_json(path, {"dim": 2, "method": "fd"})
    assert main(["transform", str(path), "--out", str(tmp_path / "o.json")]) == 2


def test_fd_degeneracy_exit_code(tmp_path, capsys):
    mat = np.zeros((3, 3))
    mat[0, 1] = mat[1, 0] = 0.1
    doc = {
        "dim": 3,
        "method": "fd",
        "max_order": 2,
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([1.0, 1.0, 3.0]))},
            {"order": 1, "harmonic": 0, "matrix": mat_json(mat)},
        ],
    }
    path = tmp_path / "degenerate.json"
    write_json(path, doc)
    assert main(["transform", str(path), "--out", str(tmp_path / "o.json")]) == 4
    err = capsys.readouterr().err
    assert "0" in err and "1" in err  # names the offending pair


def test_nondiagonal_order0_precondition_exit_code(tmp_path):
    doc = {
        "dim": 2,
        "method": "fd",
        "max_order": 2,
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.array([[0.0, 0.3], [0.3, 1.0]]))},
        ],
    }
    path = tmp_path / "nondiag.json"
    write_json(path, doc)
    assert main(["transform", str(path), "--out", str(tmp_path / "o.json")]) == 3


def test_non_hermitian_input_exit_code(tmp_path):
    doc = {
        "dim": 2,
        "method": "fd",
        "max_order": 2,
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([0.0, 1.0]))},
            {"order": 1, "harmonic": 0, "matrix": mat_json(np.array([[0.0, 0.1], [0.3, 0.0]]))},
        ],
    }
    path = tmp_path / "skew.json"
    write_json(path, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(path), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_offset_does_not_hide_non_hermitian_input(tmp_path, offset):
    # 1% non-hermitian couplings: the check judges each key on its own size
    doc = {
        "dim": 2,
        "method": "fd",
        "max_order": 2,
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([offset, offset + 1.0]))},
            {"order": 1, "harmonic": 0,
             "matrix": mat_json(np.array([[0.0, 1e-3], [1e-3 + 1e-5, 0.0]]))},
        ],
    }
    path = tmp_path / "skew.json"
    write_json(path, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(path), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_input_exit_code(tmp_path, capsys, value, order):
    # json.loads accepts the NaN and Infinity literals; the entry must not
    # vanish as if it were zero
    terms = {0: np.diag([0.0, 1.0]), 1: 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])}
    terms[order] = terms[order] + np.array([[0.0, value], [value, 0.0]])
    doc = {
        "dim": 2,
        "method": "fd",
        "max_order": 2,
        "terms": [{"order": j, "harmonic": 0, "matrix": mat_json(m)} for j, m in terms.items()],
    }
    path = tmp_path / "nonfinite.json"
    write_json(path, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("hbar", [0.0, -1.0])
def test_nonpositive_hbar_exit_code(two_level_problem, tmp_path, hbar):
    doc = json.loads(two_level_problem.read_text())
    doc["hbar"] = hbar
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("hbar", "x"), ("hbar", [1]), ("omega_d", [1]), ("block_sizes", 5),
    ("block_sizes", "11"), ("tolerances", [1]), ("tolerances", {"resonance": "x"}),
    ("terms", 5), ("terms", [{"order": 0, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, 7]),
], ids=["hbar-string", "hbar-list", "omega-list", "blocks-number", "blocks-string",
        "tolerances-list", "tolerance-string", "terms-number", "term-number"])
def test_problem_field_that_does_not_convert_exit_code(two_level_problem, tmp_path, field, value):
    # a field that does not convert is a parse error, whatever the field; a
    # list-valued hbar used to end in a traceback and a string hbar in exit 3
    doc = json.loads(two_level_problem.read_text())
    doc[field] = value
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    assert not out.exists()


def ace_problem(tmp_path, mask):
    coupling = 0.1 * (np.ones((3, 3)) - np.eye(3))
    doc = {
        "dim": 3,
        "method": "ace",
        "max_order": 2,
        "mask": mask,
        "terms": [
            {"order": 0, "matrix": mat_json(np.diag([0.0, 1.0, 2.5]))},
            {"order": 1, "matrix": mat_json(coupling)},
        ],
    }
    path = tmp_path / "ace.json"
    write_json(path, doc)
    return path


@pytest.mark.parametrize("mask, code", [
    ({"entries": [[0, 1]]}, 0),
    ({"entries": [[0, -1]]}, 3),
    ({"entries": [[0, 7]]}, 3),
    ({"entries": [[0, 1, 2]]}, 2),
    ({"entries": [["a", 1]]}, 2),
    ({"entries": 5}, 2),
    ({"block_sizes": 5}, 2),
    ({"block_sizes": [0, 3]}, 3),
    ([[False, True, False], [False, False, False], [False, False, False]], 3),
], ids=["pair", "negative-index", "index-too-large", "triple", "string-index",
        "entries-number", "sizes-number", "size-zero", "asymmetric"])
def test_ace_mask_exit_code(tmp_path, mask, code):
    # a mask spec that does not convert is a parse error (2), a converted mask
    # that breaks a rule a precondition failure (3); a negative index used to
    # wrap around and eliminate entry (0, 2), a too-large one to end in a
    # traceback
    out = tmp_path / "o.json"
    assert main(["transform", str(ace_problem(tmp_path, mask)), "--out", str(out)]) == code
    assert out.exists() == (code == 0)


def test_rotate_identity_and_hash_check(two_level_problem, tmp_path):
    result = tmp_path / "result.json"
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    op_path = tmp_path / "op.json"
    write_json(
        op_path,
        {"terms": [{"order": 0, "harmonic": 0, "matrix": mat_json(np.eye(2))}]},
    )
    rotated = tmp_path / "rotated.json"
    code = main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "2", "--out", str(rotated),
    ])
    assert code == 0
    doc = json.loads(rotated.read_text())
    assert len(doc["terms"]) == 1
    np.testing.assert_allclose(
        matrix_from_json(doc["terms"][0]["matrix"], 2), np.eye(2), atol=1e-14
    )

    # order 0 leaves an order-0 operator unchanged
    rotated0 = tmp_path / "rotated0.json"
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "0", "--out", str(rotated0),
    ]) == 0
    doc0 = json.loads(rotated0.read_text())
    np.testing.assert_allclose(
        matrix_from_json(doc0["terms"][0]["matrix"], 2), np.eye(2), atol=1e-14
    )

    # a different problem file must be refused
    other = tmp_path / "other.json"
    other.write_text(two_level_problem.read_text().replace("0.1", "0.2"))
    assert main([
        "rotate", str(other), str(result), str(op_path),
        "--order", "2", "--out", str(tmp_path / "x.json"),
    ]) == 3


def test_rotate_order_beyond_solved(two_level_problem, tmp_path):
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    op_path = tmp_path / "op.json"
    write_json(
        op_path,
        {"terms": [{"order": 0, "harmonic": 0, "matrix": mat_json(np.eye(2))}]},
    )
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "3", "--out", str(tmp_path / "x.json"),
    ]) == 3


def test_rotate_negative_order_exit_code(two_level_problem, tmp_path):
    # a negative order used to write O^(0) alone and exit 0
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    op_path = tmp_path / "op.json"
    write_json(
        op_path,
        {"terms": [{"order": 0, "harmonic": 0, "matrix": mat_json(np.eye(2))}]},
    )
    out = tmp_path / "x.json"
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "-2", "--out", str(out),
    ]) == 3
    assert not out.exists()


@pytest.mark.parametrize("generator", [[1], {"1": 5}, {"1": {"1": [[[0, 0]]]}}],
                         ids=["list", "number-entry", "bad-key"])
def test_rotate_malformed_result_exit_code(two_level_problem, tmp_path, generator):
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    doc = json.loads(result.read_text())
    doc["generator"] = generator
    write_json(result, doc)
    op_path = tmp_path / "op.json"
    write_json(op_path, {"terms": [{"order": 0, "matrix": mat_json(np.eye(2))}]})
    out = tmp_path / "x.json"
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "1", "--out", str(out),
    ]) == 2
    assert not out.exists()


@pytest.mark.parametrize("operator", [
    {"terms": 5},
    {"terms": [{"order": 0, "matrix": mat_json(np.eye(2))},
               {"order": 0, "harmonic": 0, "matrix": mat_json(2 * np.eye(2))}]},
    {"terms": [], "omega_d": [1]},
    [],
], ids=["terms-number", "duplicate-key", "omega-list", "not-an-object"])
def test_rotate_malformed_operator_exit_code(two_level_problem, tmp_path, operator):
    # a duplicate (order, harmonic) key used to keep the last entry and exit 0
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    op_path = tmp_path / "op.json"
    write_json(op_path, operator)
    out = tmp_path / "x.json"
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "2", "--out", str(out),
    ]) == 2
    assert not out.exists()


def test_oracle_on_block_diagonal_input(tmp_path):
    doc = {
        "dim": 2,
        "method": "la",
        "max_order": 2,
        "block_sizes": [1, 1],
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([0.0, 2.0]))},
        ],
    }
    path = tmp_path / "problem.json"
    write_json(path, doc)
    out = tmp_path / "oracle.json"
    assert main(["oracle", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    np.testing.assert_allclose(
        matrix_from_json(result["u_dagger"], 2), np.eye(2), atol=1e-10
    )


def test_experiment_fig3_byte_identical(tmp_path):
    spec = {
        "kind": "fig3",
        "count": 4,
        "dim_min": 6,
        "dim_max": 8,
        "blocks_min": 2,
        "blocks_max": 3,
        "coupling": 0.05,
        "seed": 13,
        "max_order": 4,
    }
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, spec)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", str(spec_path), "--out", str(out1)]) == 0
    assert main(["experiment", str(spec_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "instance,n,lambda,eta,seed"
    assert len(lines) == 1 + 4 * 4


@pytest.mark.parametrize("doc, extra", [
    ({"kind": "fig3", "count": 2, "max_order": 2}, ["--instances", "0"]),
    ({"kind": "fig3", "count": 2, "max_order": 2, "dim_min": 6, "dim_max": 6,
      "blocks_min": 4, "blocks_max": 4}, []),
    ({"kind": "fig3", "count": 3, "coupling": float("nan")}, []),
    ({"kind": "fig3", "count": 3, "coupling": float("inf")}, []),
    ({"kind": "fig3", "count": 3, "coupling": 0.0}, []),
    ({"kind": "fig3", "count": 3, "coupling": -0.05}, []),
    ({"kind": "fig3", "count": 2, "max_order": 0}, []),
], ids=["zero-instances", "too-many-blocks", "nan-coupling", "inf-coupling",
        "zero-coupling", "negative-coupling", "order-zero"])
def test_experiment_unsatisfiable_spec_exit_code(tmp_path, doc, extra):
    # an ensemble the spec cannot honour is a precondition failure, not a run
    # of some other ensemble (a NaN coupling used to exit 0 with an empty
    # table, every instance skipped as non-finite)
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, doc)
    out = tmp_path / "eta.csv"
    assert main(["experiment", str(spec_path), "--out", str(out)] + extra) == 3
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    [1],
    {"kind": "fig3", "count": [1]},
    {"kind": "fig3", "coupling": "strong"},
    {"kind": "ace", "dim": [3]},
], ids=["not-an-object", "count-list", "coupling-string", "ace-dim-list"])
def test_experiment_malformed_spec_exit_code(tmp_path, doc):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, doc)
    out = tmp_path / "out"
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_experiment_invalid_json_exit_code(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b"\xff{")
    assert main(["experiment", str(spec_path), "--out", str(tmp_path / "out")]) == 2


def test_experiment_ace_demo_masked_zero(tmp_path):
    spec = {"kind": "ace", "dim": 10, "seed": 11, "max_order": 3}
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, spec)
    out = tmp_path / "demo.json"
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    after = matrix_from_json(doc["after"], 10)
    mask = np.asarray(doc["mask"], dtype=bool)
    assert np.abs(after[mask]).max() == 0.0


def test_result_document_round_trips(two_level_problem, tmp_path):
    from pertkit.io import load_result

    out = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(out)])
    view = load_result(str(out))
    assert view.max_order == 2
    assert view.generator[1].is_anti_hermitian_graded()
    # serialize the reloaded series again: identical bytes
    from pertkit.io import _series_to_json, canonical_json as cj

    first = json.loads(out.read_text())["generator"]
    again = _series_to_json(view.generator)
    assert cj(first) == cj(again)


def test_oracle_ill_conditioned_exit_code(tmp_path, monkeypatch):
    import pertkit.cli as cli_mod
    from pertkit.errors import IllConditionedBlocks

    doc = {
        "dim": 2,
        "method": "la",
        "max_order": 1,
        "block_sizes": [1, 1],
        "terms": [
            {"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([0.0, 1.0]))},
        ],
    }
    path = tmp_path / "p.json"
    write_json(path, doc)

    def explode(*args, **kwargs):
        raise IllConditionedBlocks(1e-12, 1e-8)

    monkeypatch.setattr(cli_mod, "exact_block_diagonalize", explode)
    assert main(["oracle", str(path), "--out", str(tmp_path / "o.json")]) == 5


def test_canonical_json_formats_17_digits():
    text = canonical_json({"x": 0.1, "n": 3, "flag": True, "s": "a"})
    assert text == '{"flag":true,"n":3,"s":"a","x":0.10000000000000001}'


def test_problem_loader_round_trip(two_level_problem):
    spec, digest = load_problem(str(two_level_problem))
    assert spec.dim == 2
    assert spec.method == "swt"
    assert (1, 0) in spec.terms
    assert len(digest) == 64
