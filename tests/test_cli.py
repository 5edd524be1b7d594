import base64
import contextlib
import io as text_io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    binary_json, chain_problem, grid_json, readme_problem, run_cli, sparse_binary_json, sparse_json,
    with_grids,
)
import pertkit.io as io_module
from pertkit.cli import build_parser, main
from pertkit.io import (
    METHODS, RESULT_KEYS, ProblemFormatError, ProblemSpec, canonical_json, load_problem,
    matrix_from_json,
)


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


FAR_ORDER = 10**9
FAR_TERM = {"order": FAR_ORDER, "harmonic": 0, "matrix": mat_json(0.3 * np.eye(2))}


@pytest.mark.parametrize("method", ["swt", "fd", "la"])
def test_term_far_above_max_order_changes_nothing(two_level_problem, tmp_path, method):
    # a series stack is sized by its order: one for a base order of 10^9
    # would ask for 10^9 levels, although no order above max_order is read
    doc = json.loads(two_level_problem.read_text())
    doc["method"] = method
    write_json(two_level_problem, doc)
    near = tmp_path / "near.json"
    assert main(["transform", str(two_level_problem), "--out", str(near)]) == 0
    doc["terms"].append(FAR_TERM)
    far_problem = tmp_path / "far-problem.json"
    write_json(far_problem, doc)
    far = tmp_path / "far.json"
    assert main(["transform", str(far_problem), "--out", str(far)]) == 0
    near_doc, far_doc = json.loads(near.read_text()), json.loads(far.read_text())
    for part in ("corrections", "generator"):
        assert far_doc[part] == near_doc[part]


def test_rotate_operator_term_far_above_the_order_changes_nothing(two_level_problem, tmp_path):
    result = tmp_path / "result.json"
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    rotated = {}
    for name, extra in [("near", []), ("far", [FAR_TERM])]:
        op_path = tmp_path / f"{name}-op.json"
        terms = [{"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([1.0, -1.0]))}]
        write_json(op_path, {"terms": terms + extra})
        out = tmp_path / f"{name}-rotated.json"
        assert main(["rotate", str(two_level_problem), str(result), str(op_path),
                     "--order", "2", "--out", str(out)]) == 0
        rotated[name] = json.loads(out.read_text())["terms"]
    assert rotated["far"] == rotated["near"]


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


@pytest.mark.parametrize("command", ["rotate", "transform", "experiment"])
def test_path_that_is_a_directory_exit_code(two_level_problem, tmp_path, capsys, command):
    # each open raised IsADirectoryError, which ended in a traceback (exit 1)
    spec = tmp_path / "spec.json"
    write_json(spec, {"kind": "fig3", "count": 1, "max_order": 2, "dim_min": 4, "dim_max": 4})
    argv = {
        "rotate": ["rotate", str(tmp_path), "r.json", "op.json", "--order", "1",
                   "--out", str(tmp_path / "o.json")],
        "transform": ["transform", str(two_level_problem), "--out", str(tmp_path)],
        "experiment": ["experiment", str(spec), "--out", str(tmp_path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_long_offending_value_gives_one_bounded_error_line(two_level_problem, tmp_path, capsys):
    # the message quotes the value; a 1,000,000-character one made a
    # 1,000,063-byte stderr line
    doc = json.loads(two_level_problem.read_text())
    doc["block_sizes"] = ["x" * 1_000_000, 1]
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unusable_out_is_rejected_before_any_work(tmp_path, monkeypatch, capsys, where):
    # the experiment used to run to the end before its output failed to open
    def must_not_run(**kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("pertkit.cli.run_fig3_experiment", must_not_run)
    spec = tmp_path / "spec.json"
    write_json(spec, {"kind": "fig3", "count": 50, "seed": 7, "max_order": 8})
    out = tmp_path if where == "directory" else tmp_path / "missing" / "t.csv"
    before = sorted(tmp_path.iterdir())
    assert main(["experiment", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_failed_run_leaves_an_existing_output_untouched(tmp_path):
    spec = tmp_path / "spec.json"
    write_json(spec, {"kind": "fig3", "count": 2, "max_order": 0})
    problem = tmp_path / "degenerate.json"  # a coupling between degenerate levels: resonant
    doc = two_level_doc("fd")
    doc["terms"][0]["matrix"] = mat_json(np.eye(2))
    write_json(problem, doc)
    for argv, code in ((["experiment", str(spec)], 3), (["transform", str(problem)], 4)):
        out = tmp_path / "earlier.out"
        out.write_text("earlier output\n", encoding="utf-8")
        assert main(argv + ["--out", str(out)]) == code
        assert out.read_text(encoding="utf-8") == "earlier output\n"


def test_an_empty_out_is_rejected_before_any_work(tmp_path, capsys):
    # "" passed the check, so a problem with a coupled degenerate pair ran
    # and exited 4; a missing directory already exited 2 before any work
    problem = tmp_path / "degenerate.json"
    doc = two_level_doc("fd")
    doc["terms"][0]["matrix"] = mat_json(np.eye(2))
    write_json(problem, doc)
    before = sorted(tmp_path.iterdir())
    assert main(["transform", str(problem), "--out", ""]) == 2
    assert one_error_line(capsys) == "error: [Errno 2] the output path is empty: ''\n"
    assert sorted(tmp_path.iterdir()) == before


def readme_fd_problem(tmp_path) -> Path:
    """README's minimal problem file, its method switched to fd (which reads no block sizes)."""
    doc = {key: value for key, value in readme_problem().items() if key != "block_sizes"}
    path = tmp_path / "minimal-problem-fd.json"
    write_json(path, {**doc, "method": "fd"})
    return path


def test_output_written_over_a_longer_one_equals_a_fresh_write(tmp_path):
    # the file is overwritten in place, so without its final truncate the
    # order-171 document's tail would follow the new one
    problem = readme_fd_problem(tmp_path)
    out, fresh = tmp_path / "result.json", tmp_path / "fresh.json"
    assert main(["transform", str(problem), "--max-order", "171", "--out", str(out)]) == 0
    longer = out.stat().st_size
    assert main(["transform", str(problem), "--out", str(out)]) == 0
    assert main(["transform", str(problem), "--out", str(fresh)]) == 0
    assert fresh.stat().st_size < longer
    assert out.read_bytes() == fresh.read_bytes()


def test_overwritten_output_keeps_its_inode_and_mode(two_level_problem, tmp_path):
    out = tmp_path / "result.json"
    out.write_text("earlier output\n", encoding="utf-8")
    out.chmod(0o604)
    before = out.stat()
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_size > before.st_size


def test_new_output_gets_mode_0o666_under_the_umask(two_level_problem, tmp_path):
    out = tmp_path / "result.json"
    umask = os.umask(0o022)
    try:
        assert main(["transform", str(two_level_problem), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


@pytest.mark.parametrize("command", ["transform", "experiment"])
def test_output_to_the_null_device(two_level_problem, tmp_path, command):
    # a target that is not a regular file is written but not truncated:
    # ftruncate on /dev/null raises
    spec = tmp_path / "spec.json"
    write_json(spec, {"kind": "fig3", "count": 2, "max_order": 3})
    argv = {"transform": ["transform", str(two_level_problem)],
            "experiment": ["experiment", str(spec)]}[command]
    assert main(argv + ["--out", os.devnull]) == 0


def test_document_nested_too_deep_exit_code(tmp_path, capsys):
    # json.loads raises RecursionError here, which ended in a traceback (exit 1)
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 2, "terms": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["transform", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "cannot read a JSON document" in capsys.readouterr().err


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


def one_error_line(capsys) -> str:
    """stderr of a failed command: one ``error:`` line and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def two_level_doc(method, block_sizes=(1, 1)):
    """A two-level problem of ``method``, with the structure that method reads."""
    doc = {
        "dim": 2,
        "method": method,
        "max_order": 2,
        "terms": [
            {"order": 0, "matrix": mat_json(np.diag([0.0, 1.0]))},
            {"order": 1, "matrix": mat_json(0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))},
        ],
    }
    if method in ("swt", "la"):
        doc["block_sizes"] = list(block_sizes)
    if method == "ace":
        doc["mask"] = {"block_sizes": list(block_sizes)}
    return doc


def _driven_order_0(doc):
    doc["omega_d"] = 0.5
    coupling = mat_json(0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    doc["terms"] += [{"order": 0, "harmonic": k, "matrix": coupling} for k in (1, -1)]


#: (failure, methods that meet it at the shared boundary, edit, message)
SHARED_FAILURES = [
    ("blocks-too-large", ("swt", "ace", "la"), None,
     "the mask covers 3 levels, the operator 2"),
    ("non-hermitian", ("swt", "fd", "ace", "la"),
     lambda doc: doc["terms"][1].update(matrix=mat_json([[0.0, 0.1], [0.3, 0.0]])),
     "the Hamiltonian is not hermitian-graded"),
    ("order-0-off-diagonal", ("swt", "fd", "ace", "la"),
     lambda doc: doc["terms"][0].update(matrix=mat_json([[0.0, 0.3], [0.3, 1.0]])),
     "the order-0 part must be supplied diagonal"),
    ("driven-order-0", ("swt", "fd", "ace"), _driven_order_0,
     "the unperturbed part must be static"),
]


@pytest.mark.parametrize("method, edit, message", [
    (method, edit, message) for _, methods, edit, message in SHARED_FAILURES for method in methods
], ids=[f"{method}-{name}" for name, methods, _, _ in SHARED_FAILURES for method in methods])
def test_every_method_fails_with_the_shared_boundary_message(tmp_path, capsys, method, edit,
                                                             message):
    # swt split H into in-block and off-block parts before the shared checks:
    # blocks too large ended in numpy's broadcast error, and the others blamed
    # "the perturbation", a name the document never uses
    doc = two_level_doc(method, block_sizes=(2, 1) if edit is None else (1, 1))
    if edit is not None:
        edit(doc)
    path = tmp_path / "problem.json"
    write_json(path, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert one_error_line(capsys).startswith(f"error: {message}")


def _without(key):
    return lambda doc: doc.pop(key)


def _terms(*orders):
    def edit(doc):
        doc["terms"] = [{"order": n, "matrix": mat_json(np.diag([0.0, 1.0]))} for n in orders]
    return edit


@pytest.mark.parametrize("method, edit, flags, code, message", [
    ("swt", _without("block_sizes"), [], 2, "the swt method requires block_sizes"),
    ("la", _without("block_sizes"), [], 2, "the la method requires block_sizes"),
    ("ace", _without("mask"), [], 2, "the ace method requires a mask"),
    ("ace", lambda doc: doc.update(mask="checkerboard"), [], 2, "malformed problem document"),
    ("fd", lambda doc: doc.update(method="sw"), [], 2, "unknown method 'sw'"),
    ("fd", _terms(), [], 2, "terms must be a nonempty list"),
    ("fd", _terms(1), [], 3, "an order-0 term is required"),
    ("fd", _terms(0, -1), [], 3, "perturbative order must be >= 0"),
    ("fd", None, ["--max-order", "-1"], 3, "max_order must be >= 0"),
    ("la", lambda doc: doc.update(block_sizes=[0, 2]), [], 3, "block sizes must be positive"),
    ("la", lambda doc: doc.update(block_sizes=[]), [], 3, "block sizes must be positive"),
], ids=["swt-no-blocks", "la-no-blocks", "ace-no-mask", "string-mask", "unknown-method",
        "empty-terms", "no-order-0", "negative-order", "negative-max-order", "la-zero-block",
        "la-no-block"])
def test_problem_boundary_exit_code(tmp_path, capsys, method, edit, flags, code, message):
    doc = two_level_doc(method)
    if edit is not None:
        edit(doc)
    path = tmp_path / "problem.json"
    write_json(path, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(path), "--out", str(out)] + flags) == code
    assert not out.exists()
    assert message in one_error_line(capsys)


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
    ("hbar", "0.5"), ("omega_d", True), ("tolerances", {"resonance": True}), ("hbar", 10 ** 400),
    ("terms", [{"order": 0, "matrix": [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]}]),
], ids=["hbar-string", "hbar-list", "omega-list", "blocks-number", "blocks-string",
        "tolerances-list", "tolerance-string", "terms-number", "term-number",
        "hbar-numeric-string", "omega-bool", "tolerance-bool", "hbar-huge-int", "entry-huge-int"])
def test_problem_field_that_does_not_convert_exit_code(two_level_problem, tmp_path, field, value):
    # a field that does not convert is a parse error, whatever the field; a
    # list-valued hbar used to end in a traceback and a string hbar in exit 3;
    # "0.5" and true used to be read as 0.5 and 1.0, and an integer too large
    # for a float ended in a traceback
    doc = json.loads(two_level_problem.read_text())
    doc[field] = value
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("hbar", float("nan")), ("omega_d", float("inf")),
    ("tolerances", {"resonance": float("nan")}),
], ids=["hbar-nan", "omega-inf", "resonance-nan"])
def test_problem_real_field_that_is_not_finite_exit_code(two_level_problem, tmp_path, capsys,
                                                         field, value):
    # json.loads reads NaN and Infinity; a NaN resonance tolerance used to
    # pass every denominator check and the run exited 0
    doc = json.loads(two_level_problem.read_text())
    doc[field] = value
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 3
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("dim", 2.5), ("max_order", 2.7), ("max_order", True), ("max_order", "2"),
    ("block_sizes", [1.9, 1]), ("block_sizes", [True, 1]),
], ids=["dim-fraction", "order-fraction", "order-bool", "order-string", "size-fraction",
        "size-bool"])
def test_problem_integer_field_that_is_not_an_integer_exit_code(two_level_problem, tmp_path,
                                                                field, value):
    # int() used to truncate 2.7 to 2 and read true as 1, and the run exited 0
    doc = json.loads(two_level_problem.read_text())
    doc[field] = value
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("order", 1.5), ("harmonic", 0.5), ("order", "1")])
def test_term_key_that_is_not_an_integer_exit_code(two_level_problem, tmp_path, key, value):
    # a term of order 1.5 used to load as order 1
    doc = json.loads(two_level_problem.read_text())
    doc["terms"][1][key] = value
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    assert not out.exists()


def test_integral_floats_are_integers(two_level_problem, tmp_path):
    doc = json.loads(two_level_problem.read_text())
    doc.update(dim=2.0, max_order=2.0, block_sizes=[1.0, 1.0])
    doc["terms"][1]["order"] = 1.0
    write_json(two_level_problem, doc)
    spec = ProblemSpec.from_dict(doc)
    assert (spec.dim, spec.max_order, spec.block_sizes) == (2, 2, (1, 1))
    assert all(type(j) is int and type(k) is int for j, k in spec.terms)
    assert main(["transform", str(two_level_problem), "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("field, value, key", [
    ("tolerances", {"resonnance": 1e-3}, "resonnance"), ("comment", "two levels", "comment"),
    ("tolerances", {"degeneracy": 1e-9}, "degeneracy"),
], ids=["tolerance-key", "top-level-key", "degeneracy-key"])
def test_problem_unknown_key_exit_code(two_level_problem, tmp_path, capsys, field, value, key):
    # an unknown key, such as a misspelt tolerance, used to be silently ignored
    doc = json.loads(two_level_problem.read_text())
    doc[field] = value
    write_json(two_level_problem, doc)
    with pytest.raises(ProblemFormatError, match=f"unknown .* key '{key}'"):
        ProblemSpec.from_dict(doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


def test_problem_known_tolerance_keys_are_read(two_level_problem):
    doc = json.loads(two_level_problem.read_text())
    doc["tolerances"] = {"resonance": 1e-5}
    assert ProblemSpec.from_dict(doc).resolved_tolerance() == 1e-5


@pytest.mark.parametrize("field, value", [("dim", 2.5), ("max_order", 2.5), ("max_order", "2")],
                         ids=["dim-fraction", "order-fraction", "order-string"])
def test_rotate_result_header_that_is_not_an_integer_exit_code(two_level_problem, tmp_path,
                                                               field, value):
    # the header's integers used to be truncated, and the rotation exited 0
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    doc = json.loads(result.read_text())
    doc[field] = value
    write_json(result, doc)
    op_path = tmp_path / "op.json"
    write_json(op_path, {"terms": [{"order": 0, "matrix": mat_json(np.eye(2))}]})
    out = tmp_path / "x.json"
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "1", "--out", str(out),
    ]) == 2
    assert not out.exists()


def test_main_runs_repeatedly_in_one_process(two_level_problem, tmp_path):
    # the parser is built once per process: one call's flags must not reach
    # the next, and a call argparse rejects must not break the calls after it
    assert build_parser() is build_parser()
    first, second = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["transform", str(two_level_problem), "--max-order", "1",
                 "--out", str(first)]) == 0
    assert main(["transform", str(two_level_problem), "--out", str(second)]) == 0
    assert json.loads(first.read_text())["max_order"] == 1
    assert json.loads(second.read_text())["max_order"] == 2
    with pytest.raises(SystemExit) as rejected:
        main(["transform", str(two_level_problem), "--max-order", "x", "--out", str(first)])
    assert rejected.value.code == 2
    third = tmp_path / "o3.json"
    assert main(["transform", str(two_level_problem), "--out", str(third)]) == 0
    assert third.read_bytes() == second.read_bytes()


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
    ({"entries": [[0, 1.5]]}, 2),
    ({"entries": [[0, True]]}, 2),
    ({"block_sizes": [1, 2.5]}, 2),
    ([["", "x", ""], ["x", "", ""], ["", "", ""]], 2),
    ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 0),
    ([[False, True, False], [True, False, False], [False, False, False]], 0),
], ids=["pair", "negative-index", "index-too-large", "triple", "string-index",
        "entries-number", "sizes-number", "size-zero", "asymmetric", "fraction-index",
        "bool-index", "fraction-size", "string-flags", "flag-two", "flags-01", "flags-bool"])
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


@pytest.mark.parametrize("generator", [
    [1], {"1": 5}, {"1": {"1": [[[0, 0]]]}},
    {"1": {"1,0": {"at": [1, 2], "values": [[0, 0.1]]}}, "2": {}},
    {"1": {"1,0": {"at": [2, 1], "values": [[0, 0.1], [0, -0.1]]}}, "2": {}},
], ids=["list", "number-entry", "bad-key", "sparse-fewer-values", "sparse-descending"])
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


SIGMA_X = mat_json(np.array([[0.0, 1.0], [1.0, 0.0]]))
EYE_TERM = {"order": 0, "matrix": mat_json(np.eye(2))}


@pytest.mark.parametrize("operator, code, message", [
    ({"omega_d": -1, "terms": [{"order": 0, "harmonic": k, "matrix": SIGMA_X} for k in (1, -1)]},
     3, "omega_d must be finite and positive, got -1.0"),
    ({"bogus": True, "terms": [EYE_TERM]}, 2, "unknown operator document key 'bogus'"),
    ({"dim": 7, "terms": [EYE_TERM]}, 2, "dim 7 does not match the result's 2"),
], ids=["negative-omega-with-harmonics", "unknown-key", "dim-mismatch"])
def test_rotate_operator_boundary_exit_code(two_level_problem, tmp_path, capsys, operator, code,
                                            message):
    # each of these used to rotate and exit 0
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    op_path = tmp_path / "op.json"
    write_json(op_path, operator)
    out = tmp_path / "x.json"
    capsys.readouterr()
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "2", "--out", str(out),
    ]) == code
    assert message in one_error_line(capsys)
    assert not out.exists()


def test_a_term_with_an_unknown_key_exit_code(two_level_problem, tmp_path, capsys):
    # a misspelt "harmonic" used to read a drive term as harmonic 0, so the
    # driven problem ran static and exited 0; an operator term likewise
    message = ("error: malformed problem document: unknown term key 'harmonc'; "
               "expected among ('order', 'harmonic', 'matrix')")
    doc = {**two_level_doc("fd"), "omega_d": 0.3}
    doc["terms"][1]["harmonc"] = 1
    misspelt, out = tmp_path / "misspelt.json", tmp_path / "o.json"
    write_json(misspelt, doc)
    capsys.readouterr()
    assert main(["transform", str(misspelt), "--out", str(out)]) == 2
    assert one_error_line(capsys) == message + "\n"
    assert not out.exists()

    result, op_path = tmp_path / "result.json", tmp_path / "op.json"
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    write_json(op_path, {"terms": [{**EYE_TERM, "harmonc": 0}]})
    capsys.readouterr()
    assert main(["rotate", str(two_level_problem), str(result), str(op_path),
                 "--order", "2", "--out", str(out)]) == 2
    assert one_error_line(capsys) == message.replace("problem", "operator") + "\n"
    assert not out.exists()


@pytest.mark.parametrize("mask", [
    {"entries": [[0, 1]], "blocksizes": [1, 2]},
    {"block_sizes": [1, 2], "entries": []},
], ids=["misspelt-second-key", "both-keys"])
def test_a_mask_object_with_a_second_key_exit_code(tmp_path, capsys, mask):
    # each used to read one of its keys and pass over the other, and exit 0
    out = tmp_path / "o.json"
    assert main(["transform", str(ace_problem(tmp_path, mask)), "--out", str(out)]) == 2
    assert not out.exists()
    assert (f"a mask object holds one key, 'block_sizes' or 'entries', got {sorted(mask)}"
            in one_error_line(capsys))


@pytest.mark.parametrize("edit, message", [
    ({"bogus": True}, "unknown result document key 'bogus'"),
    ({"max_order": 1}, "the generator holds orders [1, 2], not 1..1"),
], ids=["unknown-key", "max-order-below-the-generator"])
def test_rotate_refuses_a_result_document_pertkit_did_not_write(two_level_problem, tmp_path,
                                                                capsys, edit, message):
    # each of these used to rotate and exit 0
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    doc = json.loads(result.read_text())
    assert doc["max_order"] == 2 and set(RESULT_KEYS) == set(doc)
    write_json(result, {**doc, **edit})
    op_path = tmp_path / "op.json"
    write_json(op_path, {"terms": [EYE_TERM]})
    out = tmp_path / "x.json"
    capsys.readouterr()
    assert main([
        "rotate", str(two_level_problem), str(result), str(op_path),
        "--order", "1", "--out", str(out),
    ]) == 2
    assert message in one_error_line(capsys)
    assert not out.exists()


NOT_A_STRING = "malformed result document: problem_sha256 must be a string, got "


@pytest.mark.parametrize("retype, code, message", [
    (lambda digest: None, 2, NOT_A_STRING + "None"),
    (lambda digest: 5, 2, NOT_A_STRING + "5"),
    (lambda digest: [digest], 2, NOT_A_STRING + "['"),
    (lambda digest: "0" * 64, 3, "produced from a different problem file (hash 000000000000..."),
], ids=["null", "number", "list", "other-hash"])
def test_rotate_result_whose_hash_is_not_a_string_exit_code(tmp_path, capsys, retype, code,
                                                            message):
    # str() read null as "None", so rotate reported a different problem file (exit 3)
    problem, result = readme_fd_problem(tmp_path), tmp_path / "result.json"
    assert main(["transform", str(problem), "--max-order", "3", "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    write_json(result, {**doc, "problem_sha256": retype(doc["problem_sha256"])})
    op_path, out = tmp_path / "op.json", tmp_path / "x.json"
    write_json(op_path, {"terms": [EYE_TERM]})
    capsys.readouterr()
    assert main(_rotate_argv(problem, result, op_path, out)) == code
    assert message in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("hbar", "x", "expected a number, got 'x'"),
    ("hbar", [1], "expected a number, got [1]"),
    ("method", 5, "unknown method 5"),
    ("method", "nope", "unknown method 'nope'"),
    ("energies", "x", "energies must be a list of 2 numbers, got 'x'"),
    ("energies", [0.0], "energies must be a list of 2 numbers, got [0.0]"),
    ("energies", ["a", "b"], "expected a number, got 'a'"),
    ("diagnostics", [1], "diagnostics must be a JSON object, got [1]"),
    ("diagnostics", "x", "diagnostics must be a JSON object, got 'x'"),
], ids=["hbar-string", "hbar-list", "method-number", "method-unknown", "energies-string",
        "energies-short", "energies-strings", "diagnostics-list", "diagnostics-string"])
def test_rotate_result_header_field_that_does_not_convert_exit_code(tmp_path, capsys, field,
                                                                    value, message):
    # rotate did not read these fields, so each such result rotated and exited 0
    problem, result = readme_fd_problem(tmp_path), tmp_path / "result.json"
    assert main(["transform", str(problem), "--out", str(result)]) == 0
    write_json(result, {**json.loads(result.read_text()), field: value})
    op_path, out = tmp_path / "op.json", tmp_path / "x.json"
    write_json(op_path, {"terms": [EYE_TERM]})
    capsys.readouterr()
    assert main(_rotate_argv(problem, result, op_path, out)) == 2
    assert "malformed result document: " + message in one_error_line(capsys)
    assert not out.exists()


def test_rotated_operator_document_rotates_again(two_level_problem, tmp_path):
    # what operator_document writes (dim, omega_d, terms) is an operator document
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    op_path, once, twice = tmp_path / "op.json", tmp_path / "once.json", tmp_path / "twice.json"
    write_json(op_path, {"dim": 2, "omega_d": None, "terms": [EYE_TERM]})
    for source, out in ((op_path, once), (once, twice)):
        assert main(["rotate", str(two_level_problem), str(result), str(source),
                     "--order", "2", "--out", str(out)]) == 0
    assert set(json.loads(twice.read_text())) == {"dim", "omega_d", "terms"}


def test_rotate_generator_at_order_0_exit_code(two_level_problem, tmp_path, capsys):
    # it used to be dropped: the output matched the same document without it;
    # the order-0 entry is given dense, then sparse
    result = tmp_path / "result.json"
    main(["transform", str(two_level_problem), "--out", str(result)])
    op_path = tmp_path / "op.json"
    write_json(op_path, {"terms": [EYE_TERM]})
    out = tmp_path / "x.json"
    generator = mat_json(0.3j * np.array([[0.0, 1.0], [1.0, 0.0]]))
    for matrix in (generator, sparse_json(generator)):
        doc = json.loads(result.read_text())
        doc["generator"]["0"] = {"0,0": matrix}
        write_json(result, doc)
        capsys.readouterr()
        assert main([
            "rotate", str(two_level_problem), str(result), str(op_path),
            "--order", "2", "--out", str(out),
        ]) == 3
        assert "a generator's orders start at 1, got order 0" in one_error_line(capsys)
        assert not out.exists()


def test_transform_beyond_order_170(tmp_path):
    # 1.0 / 171! overflowed: exit 1 with a traceback
    problem, out = tmp_path / "fd.json", tmp_path / "out.json"
    write_json(problem, two_level_doc("fd"))
    assert main(["transform", str(problem), "--out", str(out), "--max-order", "171"]) == 0
    doc = json.loads(out.read_text())
    assert doc["max_order"] == 171 and sorted(map(int, doc["corrections"])) == list(range(172))


def _with_entry(matrix, value):
    """A JSON matrix with the real part of its first pair replaced: entry (0, 0)
    of a grid of [re, im] pairs, the first value of a sparse matrix."""
    out = json.loads(json.dumps(matrix))
    (out["values"] if type(out) is dict else out[0])[0][0] = value
    return out


def _rotate_argv(problem, result, operator, out):
    return ["rotate", str(problem), str(result), str(operator), "--order", "1", "--out", str(out)]


def _run_with_edited_document(tmp_path, problem, document, edit):
    """Exit code of ``document`` (problem: transform; operator or result: rotate)
    with ``edit`` applied to its JSON, and whether an output was written."""
    out = tmp_path / "x.json"
    if document == "problem":
        doc = json.loads(problem.read_text())
        edit(doc)
        write_json(problem, doc)
        return main(["transform", str(problem), "--out", str(out)]), out.exists()
    result, op_path = tmp_path / "result.json", tmp_path / "op.json"
    assert main(["transform", str(problem), "--out", str(result)]) == 0
    op = {"terms": [{"order": 0, "matrix": mat_json(np.eye(2))}]}
    if document == "operator":
        edit(op)
    else:
        doc = json.loads(result.read_text())
        edit(doc)
        write_json(result, doc)
    write_json(op_path, op)
    return main(_rotate_argv(problem, result, op_path, out)), out.exists()


def _edit_matrix(document, change):
    """An edit of ``document``'s first matrix: a problem or operator term's, or
    the result's order-1 generator entry, written binary, given to ``change``
    as its grid."""
    def edit(doc):
        if document == "result":
            doc["generator"]["1"]["1,0"] = change(grid_json(doc["generator"]["1"]["1,0"], 2))
        else:
            doc["terms"][0]["matrix"] = change(doc["terms"][0]["matrix"])
    return edit


@pytest.mark.parametrize("value", ["0", True, False, None, {"re": 0}],
                         ids=["numeric-string", "true", "false", "null", "object"])
@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_matrix_entry_that_is_not_a_number_exit_code(two_level_problem, tmp_path, capsys,
                                                      document, value):
    # a float conversion read "0" and false as 0.0 and true as 1.0, so the
    # run went on (exit 0, or 4 once true made the levels degenerate)
    code, written = _run_with_edited_document(
        tmp_path, two_level_problem, document,
        _edit_matrix(document, lambda matrix: _with_entry(matrix, value)))
    assert (code, written) == (2, False)
    assert one_error_line(capsys) == (
        f"error: malformed {document} document: a matrix entry must be a number, got {value!r}\n")


@pytest.mark.parametrize("value", ["0", True, None, {"re": 0}],
                         ids=["numeric-string", "true", "null", "object"])
@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_sparse_matrix_value_that_is_not_a_number_exit_code(two_level_problem, tmp_path, capsys,
                                                             document, value):
    code, written = _run_with_edited_document(
        tmp_path, two_level_problem, document,
        _edit_matrix(document, lambda matrix: _with_entry(sparse_json(matrix), value)))
    assert (code, written) == (2, False)
    assert one_error_line(capsys) == (
        f"error: malformed {document} document: a matrix entry must be a number, got {value!r}\n")


#: Each way a sparse matrix of README's two-level problem (d^2 = 4) is refused.
SPARSE_BREAKS = {
    "descending": lambda m: {"at": m["at"] + [m["at"][-1] - 1], "values": m["values"] + [[0, 0]]},
    "repeated": lambda m: {"at": m["at"] + m["at"][-1:], "values": m["values"] + [[0, 0]]},
    "negative": lambda m: {"at": [-1] + m["at"], "values": [[0, 0]] + m["values"]},
    "past-the-end": lambda m: {"at": m["at"] + [4], "values": m["values"] + [[0, 0]]},
    "boolean": lambda m: {**m, "at": [True] + m["at"][1:]},
    "float": lambda m: {**m, "at": [float(m["at"][0])] + m["at"][1:]},
    "fewer-values": lambda m: {**m, "values": m["values"][:-1]},
    "more-values": lambda m: {**m, "values": m["values"] + [[0, 0]]},
    "missing-key": lambda m: {"at": m["at"]},
    "extra-key": lambda m: {**m, "dim": 2},
    "string-part": lambda m: {**m, "values": [["0", 0]] + m["values"][1:]},
}


@pytest.mark.parametrize("name", sorted(SPARSE_BREAKS))
@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_malformed_sparse_matrix_exit_code(two_level_problem, tmp_path, capsys, document, name):
    code, written = _run_with_edited_document(
        tmp_path, two_level_problem, document,
        _edit_matrix(document, lambda matrix: SPARSE_BREAKS[name](sparse_json(matrix))))
    assert (code, written) == (2, False)
    assert one_error_line(capsys).startswith(f"error: malformed {document} document: ")


def _with_bytes(matrix, edit):
    """A matrix with binary values whose decoded bytes ``edit`` changed."""
    return {**matrix, "c16": base64.b64encode(edit(base64.b64decode(matrix["c16"]))).decode()}


#: Each way a binary matrix of README's two-level problem (4 values, 64 bytes, 88
#: base64 characters) is refused, and what the error line says.
BINARY_BREAKS = {
    "no-key": (lambda m: {}, "or 'c16' (binary) alone, got []"),
    "extra-key": (lambda m: {**m, "x": 1}, "or 'c16' (binary) alone, got ['c16', 'x']"),
    "number": (lambda m: {"c16": 5}, "'c16' must be a base64 string, got int"),
    "list": (lambda m: {"c16": [m["c16"]]}, "'c16' must be a base64 string, got list"),
    "null": (lambda m: {"c16": None}, "'c16' must be a base64 string, got NoneType"),
    "newline": (lambda m: {"c16": m["c16"][:76] + "\n" + m["c16"][76:]},
                "'c16' is not base64: Only base64 data is allowed"),
    "asterisk": (lambda m: {"c16": "*" + m["c16"][1:]},
                 "'c16' is not base64: Only base64 data is allowed"),
    "url-safe": (lambda m: {"c16": "-" + m["c16"][1:]},
                 "'c16' is not base64: Only base64 data is allowed"),
    "non-ascii": (lambda m: {"c16": "\u00e9" + m["c16"][1:]},
                  "'c16' is not base64: string argument should contain only ASCII characters"),
    "unpadded": (lambda m: {"c16": m["c16"].rstrip("=")}, "'c16' is not base64: Incorrect padding"),
    "short": (lambda m: _with_bytes(m, lambda raw: raw[:-16]),
              "'c16' must hold 64 bytes, 2x2 complex128 values, got 48"),
    "long": (lambda m: _with_bytes(m, lambda raw: raw + bytes(16)),
             "'c16' must hold 64 bytes, 2x2 complex128 values, got 80"),
}

#: The forms a generator matrix is given in: as its grid, sparse with text or
#: binary values, or binary.
FORMS = {"grid": lambda matrix: matrix, "sparse": sparse_json, "sparse-binary": sparse_binary_json,
         "binary": binary_json}


@pytest.mark.parametrize("name", sorted(BINARY_BREAKS))
@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_malformed_binary_matrix_exit_code(two_level_problem, tmp_path, capsys, document, name):
    broken, message = BINARY_BREAKS[name]
    code, written = _run_with_edited_document(
        tmp_path, two_level_problem, document,
        _edit_matrix(document, lambda matrix: broken(binary_json(matrix))))
    assert (code, written) == (2, False)
    line = one_error_line(capsys)
    assert line.startswith(f"error: malformed {document} document: ") and message in line, line


def _one_more(matrix, at):
    """A sparse matrix with binary values that names one more pair, at ``at``, a zero one."""
    return _with_bytes({**matrix, "at": at}, lambda raw: raw + bytes(16))


#: Each way a sparse matrix with binary values of README's two-level problem (d^2 = 4)
#: is refused, and what the error line says.
SPARSE_BINARY_BREAKS = {
    "fewer-values": (lambda m: _with_bytes(m, lambda raw: raw[:-16]),
                     "complex128 values, one for each index, got"),
    "more-values": (lambda m: _with_bytes(m, lambda raw: raw + bytes(16)),
                    "complex128 values, one for each index, got"),
    "fewer-indices": (lambda m: {**m, "at": m["at"][:-1]},
                      "complex128 values, one for each index, got"),
    "part-of-a-value": (lambda m: _with_bytes(m, lambda raw: raw[:-8]),
                        "complex128 values, one for each index, got"),
    "descending": (lambda m: _one_more(m, m["at"] + [m["at"][-1] - 1]),
                   "a sparse matrix's indices must ascend strictly within [0, 4)"),
    "repeated": (lambda m: _one_more(m, m["at"] + m["at"][-1:]),
                 "a sparse matrix's indices must ascend strictly within [0, 4)"),
    "negative": (lambda m: _one_more(m, [-1] + m["at"]),
                 "a sparse matrix's indices must ascend strictly within [0, 4)"),
    "past-the-end": (lambda m: _one_more(m, m["at"] + [4]),
                     "a sparse matrix's indices must ascend strictly within [0, 4)"),
    "boolean": (lambda m: {**m, "at": [True] + m["at"][1:]},
                "a sparse matrix's 'at' must be a list of integers, got [True"),
    "float": (lambda m: {**m, "at": [float(m["at"][0])] + m["at"][1:]},
              "a sparse matrix's 'at' must be a list of integers, got ["),
    "asterisk": (lambda m: {**m, "c16": "*" + m["c16"][1:]},
                 "a sparse matrix's 'c16' is not base64: Only base64 data is allowed"),
    "newline": (lambda m: {**m, "c16": m["c16"][:12] + "\n" + m["c16"][12:]},
                "a sparse matrix's 'c16' is not base64: Only base64 data is allowed"),
    "number": (lambda m: {**m, "c16": 5}, "a sparse matrix's 'c16' must be a base64 string, got int"),
    "values-beside-c16": (lambda m: {**m, "values": []}, "alone, got ['at', 'c16', 'values']"),
}


@pytest.mark.parametrize("name", sorted(SPARSE_BINARY_BREAKS))
@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_malformed_sparse_binary_matrix_exit_code(two_level_problem, tmp_path, capsys, document,
                                                  name):
    broken, message = SPARSE_BINARY_BREAKS[name]
    code, written = _run_with_edited_document(
        tmp_path, two_level_problem, document,
        _edit_matrix(document, lambda matrix: broken(sparse_binary_json(matrix))))
    assert (code, written) == (2, False)
    line = one_error_line(capsys)
    assert line.startswith(f"error: malformed {document} document: ") and message in line, line


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_generator_exit_code_in_every_form(two_level_problem, tmp_path, capsys, value):
    # json.loads reads NaN and Infinity; a binary matrix can hold the same doubles
    lines = set()
    for form in FORMS.values():
        def edit(generator):
            grid = generator["1"]["1,0"]
            grid[0][1][1] = value
            generator["1"]["1,0"] = form(grid)

        capsys.readouterr()
        assert rotate_with_generator(two_level_problem, tmp_path, edit) == 3
        lines.add(one_error_line(capsys))
    assert lines == {"error: non-finite content at order 1, harmonic 0: the input is not "
                     "finite or the series overflowed\n"}


@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_sparse_matrix_reads_as_its_dense_twin(two_level_problem, tmp_path, document):
    # the same output, but for the hash of the problem's bytes, in every form
    outputs, text = [], two_level_problem.read_text()
    for form in FORMS.values():
        two_level_problem.write_text(text)  # an edited problem is written over it
        code, written = _run_with_edited_document(tmp_path, two_level_problem, document,
                                                  _edit_matrix(document, form))
        assert (code, written) == (0, True)
        doc = json.loads((tmp_path / "x.json").read_bytes())
        doc.pop("problem_sha256", None)
        outputs.append(canonical_json(doc))
        (tmp_path / "x.json").unlink()
    assert outputs == outputs[:1] * len(FORMS)


@pytest.mark.parametrize("matrix", [
    [[[0, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[0, 0, 0], [0]], [[0, 0], [1, 0]]],
    [[[0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
    [[[0, 0], [0, 0]], "ab"],
    [[[0, 0], 5], [[0, 0], [1, 0]]],
    [[["0", 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]],
], ids=["pair-of-three", "three-and-one", "long-row", "string-row", "number-pair", "string-part",
        "pairs-of-three"])
def test_matrix_that_is_not_a_grid_of_pairs_exit_code(two_level_problem, tmp_path, capsys,
                                                      matrix):
    # a pair of three and one of one hold four parts together, as two pairs do
    doc = json.loads(two_level_problem.read_text())
    doc["terms"][0]["matrix"] = matrix
    write_json(two_level_problem, doc)
    out = tmp_path / "o.json"
    assert main(["transform", str(two_level_problem), "--out", str(out)]) == 2
    assert not out.exists()
    one_error_line(capsys)


#: (case, how the matrix is broken, the message it gave before matrices were
#: converted during decoding)
MALFORMED_MATRICES = [
    ("ragged-row", lambda m: [m[0][:1], m[1]], "matrix must be 2x2 of [re, im] pairs"),
    ("pair-of-three", lambda m: [[m[0][0] + [0], m[0][1]], m[1]],
     "matrix must be 2x2 of [re, im] pairs"),
    ("wrong-dim", lambda m: mat_json(np.eye(3)), "matrix must be 2x2 of [re, im] pairs"),
    ("overflowing-integer", lambda m: _with_entry(m, 10 ** 400), "int too large to convert to float"),
]


@pytest.mark.parametrize("change, message", [case[1:] for case in MALFORMED_MATRICES],
                         ids=[case[0] for case in MALFORMED_MATRICES])
@pytest.mark.parametrize("document", ["problem", "operator", "result"])
def test_malformed_matrix_is_reported_by_its_reader(two_level_problem, tmp_path, capsys, document,
                                                    change, message):
    # the decoder converts each matrix as its object closes; one that does not
    # convert stays as decoded, and its reader reports it as before
    code, written = _run_with_edited_document(tmp_path, two_level_problem, document,
                                              _edit_matrix(document, change))
    assert (code, written) == (2, False)
    assert one_error_line(capsys) == f"error: malformed {document} document: {message}\n"


@pytest.mark.parametrize("method, key, message", [
    ("swt", "block_sizes", "expected an integer, got [[1.0, 0.0], [0.0, 0.0]]"),
    ("ace", "mask", "a mask entry must be true, false, 0 or 1, got [1.0, 0.0]"),
], ids=["block-sizes", "mask"])
def test_matrix_shaped_structure_is_not_converted(tmp_path, capsys, method, key, message):
    # only "matrix" and "j,k" values are converted during decoding
    doc = two_level_doc(method)
    doc[key] = mat_json(np.eye(2))
    path = tmp_path / "problem.json"
    write_json(path, doc)
    assert main(["transform", str(path), "--out", str(tmp_path / "o.json")]) == 2
    assert one_error_line(capsys) == f"error: malformed problem document: {message}\n"


def test_result_with_a_malformed_correction_still_rotates(two_level_problem, tmp_path):
    # rotate reads only the generator; a correction that does not convert
    # stays as decoded and is never read
    result, op_path = tmp_path / "result.json", tmp_path / "op.json"
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    write_json(op_path, {"terms": [{"order": 0, "matrix": mat_json(np.diag([1.0, -1.0]))}]})
    intact, broken = tmp_path / "intact.json", tmp_path / "broken.json"
    assert main(_rotate_argv(two_level_problem, result, op_path, intact)) == 0
    doc = json.loads(result.read_text())
    doc["corrections"]["2"]["2,0"] = _with_entry(doc["corrections"]["2"]["2,0"], "0")
    write_json(result, doc)
    assert main(_rotate_argv(two_level_problem, result, op_path, broken)) == 0
    assert broken.read_bytes() == intact.read_bytes()


def _corrections_text(text: str, change) -> str:
    """A result document's text with its corrections member's text changed."""
    corrections = json.dumps(json.loads(text)["corrections"])
    assert text.count(corrections) == 1
    return text.replace(corrections, change(corrections))


@pytest.mark.parametrize("change", [
    lambda corr: corr.replace("{", '{"0": {}, ', 1),
    lambda corr: corr.replace('"2,0"', '"2,0": 1, "2,0"', 1),
    lambda corr: corr[:len(corr) // 2],
    lambda corr: corr[:-1],
], ids=["repeated-order", "repeated-entry", "half", "unclosed"])
def test_result_whose_corrections_do_not_decode_exit_code(two_level_problem, tmp_path, capsys,
                                                          change):
    # the corrections are not converted, but they are still decoded
    result, op_path, out = tmp_path / "result.json", tmp_path / "op.json", tmp_path / "x.json"
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    result.write_text(_corrections_text(json.dumps(json.loads(result.read_text())), change),
                      encoding="utf-8")
    write_json(op_path, {"terms": [EYE_TERM]})
    capsys.readouterr()
    assert main(_rotate_argv(two_level_problem, result, op_path, out)) == 2
    assert "cannot read a JSON document" in one_error_line(capsys)
    assert not out.exists()


def _drop_matrix(doc):
    del doc["terms"][0]["matrix"]


@pytest.mark.parametrize("document, edit, key", [
    ("problem", _drop_matrix, "matrix"),
    ("operator", _drop_matrix, "matrix"),
    ("result", lambda doc: doc.pop("generator"), "generator"),
], ids=["problem", "operator", "result"])
def test_missing_key_is_reported_as_missing(two_level_problem, tmp_path, capsys, document, edit,
                                            key):
    # the bare text of the KeyError read "malformed problem document: 'matrix'"
    code, written = _run_with_edited_document(tmp_path, two_level_problem, document, edit)
    assert (code, written) == (2, False)
    assert one_error_line(capsys) == f"error: malformed {document} document: missing key {key!r}\n"


def test_matrix_from_json_reads_each_part_with_its_zero_sign():
    # re + 1j * im turned -0.0 parts into +0.0, so a written generator read
    # back with other bits
    for matrix in ([[[-0.0, 0], [0.5, -0.0]], [[0, -0.0], [-1, 2]]],
                   [[[-0.0, -0.0], [2 ** 53 + 1, 1e-300]], [[-0.0, 0.0], [5e-324, -7]]]):
        arr = np.asarray(matrix, dtype=float)
        got = matrix_from_json(json.loads(json.dumps(matrix)), 2)
        for part, want in ((got.real, arr[..., 0]), (got.imag, arr[..., 1])):
            np.testing.assert_array_equal(part, want)
            assert np.array_equal(np.signbit(part), np.signbit(want))


def test_a_matrix_above_the_size_limit_exit_code(tmp_path, capsys, monkeypatch):
    # a few bytes of a sparse document can declare any dim, and an ace dim in
    # the tens of thousands ended in a MemoryError traceback (exit 1); the
    # limit is lowered to d = 7 here, so that nothing large is allocated
    result, op_path, out = tmp_path / "result.json", tmp_path / "op.json", tmp_path / "x.json"
    problems = {name: tmp_path / f"{name}.json" for name in FORMS}
    for name, form in FORMS.items():
        write_json(problems[name], {**chain_problem(), "terms": [
            {**term, "matrix": form(term["matrix"])} for term in chain_problem()["terms"]]})
    write_json(op_path, {"terms": [{"order": 0, "matrix": mat_json(np.eye(8))}]})
    dense = problems["grid"]
    assert main(["transform", str(dense), "--out", str(result)]) == 0
    ace = tmp_path / "ace.json"
    monkeypatch.setattr(io_module, "MAX_MATRIX_BYTES", 16 * 7 * 7)
    message = "error: a 8x8 complex matrix takes 1024 bytes, more than the 784 a matrix may take\n"
    for argv in ([["transform", str(path)] for path in problems.values()]
                 + [["rotate", str(dense), str(result), str(op_path), "--order", "1"],
                    ["experiment", str(ace)]]):
        write_json(ace, {"kind": "ace", "dim": 8, "max_order": 1})
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 3
        assert one_error_line(capsys) == message
        assert not out.exists()
    write_json(ace, {"kind": "ace", "dim": 7, "max_order": 1})
    assert main(["experiment", str(ace), "--out", str(out)]) == 0


def test_a_dim_above_8192_exit_code_before_allocation(two_level_problem, tmp_path, capsys):
    # at the real limit: a sparse matrix of one value declares d = 8193, whose
    # 16 d^2 bytes exceed 2^30; nothing near that size may be allocated, which
    # tracemalloc, seeing numpy's allocations, would show
    one = {"at": [0], "c16": binary_json(np.ones((1, 1)))["c16"]}
    problem, result = tmp_path / "big.json", tmp_path / "result.json"
    write_json(problem, {**json.loads(two_level_problem.read_text()), "dim": 8193,
                         "terms": [{"order": 0, "matrix": one}]})
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    del doc["energies"]  # checked against dim before the generator
    write_json(result, {**doc, "dim": 8193,
                        "generator": {n: {key: one for key in entry}
                                      for n, entry in doc["generator"].items()}})
    op_path, out = tmp_path / "op.json", tmp_path / "x.json"
    write_json(op_path, {"terms": [EYE_TERM]})
    message = ("error: a 8193x8193 complex matrix takes 1074003984 bytes, more than the "
               "1073741824 a matrix may take\n")
    for argv in (["transform", str(problem)],
                 ["rotate", str(two_level_problem), str(result), str(op_path), "--order", "1"]):
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1 << 24, (argv, code, peak)
        assert one_error_line(capsys) == message
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


@pytest.mark.parametrize("blocks", ["1,x", "1.5,1", "1,", "true,1"])
def test_oracle_blocks_that_are_not_integers_exit_code(tmp_path, capsys, blocks):
    # --blocks used to be parsed with a bare int(), so "1,x" exited 3
    doc = {"dim": 2, "method": "la", "max_order": 2,
           "terms": [{"order": 0, "matrix": mat_json(np.diag([0.0, 2.0]))}]}
    path = tmp_path / "problem.json"
    write_json(path, doc)
    out = tmp_path / "oracle.json"
    assert main(["oracle", str(path), "--blocks", blocks, "--out", str(out)]) == 2
    assert not out.exists()
    assert "malformed --blocks" in capsys.readouterr().err


@pytest.mark.parametrize("block_sizes", [[1, 1], None], ids=["problem-blocks", "no-problem-blocks"])
@pytest.mark.parametrize("blocks", ["", " "], ids=["empty", "blank"])
def test_oracle_empty_blocks_exit_code(tmp_path, capsys, block_sizes, blocks):
    # an empty --blocks fell back to the problem's block_sizes and exited 0, and
    # without them was reported as missing, while a blank one exited 2
    doc = {"dim": 2, "method": "la", "max_order": 2,
           "terms": [{"order": 0, "matrix": mat_json(np.diag([0.0, 2.0]))}]}
    if block_sizes is not None:
        doc["block_sizes"] = block_sizes
    path = tmp_path / "problem.json"
    write_json(path, doc)
    out = tmp_path / "oracle.json"
    out.write_bytes(b"an earlier document\n")
    assert main(["oracle", str(path), "--blocks", blocks, "--out", str(out)]) == 2
    assert out.read_bytes() == b"an earlier document\n"
    assert "malformed --blocks" in one_error_line(capsys)


@pytest.mark.parametrize("blocks, code, message", [
    (None, 2, "oracle needs --blocks or block_sizes"),
    ("1,2", 3, "block sizes must sum to the matrix dimension"),
], ids=["no-blocks", "blocks-too-large"])
def test_oracle_without_usable_blocks_exit_code(tmp_path, capsys, blocks, code, message):
    path = tmp_path / "problem.json"
    write_json(path, two_level_doc("fd"))
    out = tmp_path / "oracle.json"
    flags = [] if blocks is None else ["--blocks", blocks]
    assert main(["oracle", str(path), "--out", str(out)] + flags) == code
    assert not out.exists()
    assert message in one_error_line(capsys)


def oracle_doc():
    """Three levels, level 1 isolated, with an order-2 term whose weight lambda^2 can overflow."""
    coupling = np.zeros((3, 3))
    coupling[0, 2] = coupling[2, 0] = 0.1
    return {"dim": 3, "method": "la", "max_order": 2, "block_sizes": [2, 1],
            "terms": [{"order": 0, "harmonic": 0, "matrix": mat_json(np.diag([0.0, 1.0, 2.5]))},
                      {"order": 1, "harmonic": 0, "matrix": mat_json(coupling)},
                      {"order": 2, "harmonic": 0, "matrix": mat_json(0.02 * np.eye(3))}]}


@st.composite
def mutated_oracle_docs(draw):
    """oracle_doc as it is, or with a non-finite literal, a non-Hermitian coupling, a
    dropped or retyped field, or a driven term."""
    doc = oracle_doc()
    terms = doc["terms"]
    kind = draw(st.sampled_from(["valid", "non-finite", "skew", "drop", "retype", "driven"]))
    if kind == "non-finite":
        entry = terms[draw(st.integers(0, 2))]["matrix"][draw(st.integers(0, 2))][draw(st.integers(0, 2))]
        entry[draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "skew":
        terms[1]["matrix"][2][0][0] += draw(st.sampled_from([1e-10, 1e-6, 0.5]))
        shift = draw(st.sampled_from([0.0, 1e3, 1e8]))
        for i in range(3):
            terms[0]["matrix"][i][i][0] += shift
    elif kind in ("drop", "retype"):
        target = draw(st.sampled_from([doc] + terms))
        key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(["x", True, None, [1], {"a": 1}, 2.5, -1]))
    elif kind == "driven":
        doc["omega_d"] = 0.7
        drive = np.zeros((3, 3))
        drive[0, 1] = 0.05
        terms += [{"order": 1, "harmonic": 1, "matrix": mat_json(drive)},
                  {"order": 1, "harmonic": -1, "matrix": mat_json(drive.T)}]
    return doc


def test_oracle_fails_only_with_a_documented_exit_and_one_error_line(tmp_path):
    # an --out that exists is left as it was by every failure; "--flag=value"
    # keeps argparse from reading a negative value as a flag
    problem, out = tmp_path / "problem.json", tmp_path / "oracle.json"
    before = b"an earlier document\n"

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(doc=mutated_oracle_docs(),
           blocks=st.sampled_from([None, "2,1", "1,2", "3", "1,1,1", "0,3", "1,x", "-1,4"]),
           lam=st.one_of(st.none(), st.sampled_from([0.5, -2.0, 1e150, 1e160, -1e200]),
                         st.floats(-1e200, 1e200)),
           time=st.one_of(st.none(), st.sampled_from([0.3, 1e300]), st.floats(-1e6, 1e6)))
    def check(doc, blocks, lam, time):
        problem.write_text(json.dumps(doc), encoding="utf-8")
        out.write_bytes(before)
        argv = ["oracle", str(problem), "--out", str(out)]
        argv += [f"--{flag}={value!s}" for flag, value in
                 (("blocks", blocks), ("lam", lam), ("time", time)) if value is not None]
        stderr = text_io.StringIO()
        # a warning would reach a terminal's stderr, so here it raises
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3, 5), (code, argv)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert out.read_bytes() == before

    check()


#: The result header fields rotate reads, each with a test of the JSON values it
#: converts from; the first three are required, the others checked where given.
READ_HEADER = {
    "problem_sha256": lambda value: type(value) is str,
    "dim": lambda value: type(value) is int,
    "max_order": lambda value: type(value) is int,
    "method": lambda value: value in METHODS,
    "hbar": lambda value: type(value) in (int, float),
    "omega_d": lambda value: type(value) in (type(None), int, float),
    "energies": lambda value: (type(value) is list and len(value) == 2
                               and all(type(e) in (int, float) for e in value)),
    "diagnostics": lambda value: type(value) is dict,
}


#: Where a key of a result's text is given twice: at the top level, in the
#: corrections and the generator, and in a generator entry.
REPEATED_KEYS = [('{', '"dim": 2, '), ('"corrections": {', '"0": {}, '),
                 ('"generator": {', '"1": {}, '), ('"1": {"1,0": ', '0, "1,0": ')]


def _first_pairs(draw, matrix) -> list:
    """A drawn row of a JSON grid, or a sparse matrix's values: a list of [re, im] pairs."""
    return matrix["values"] if type(matrix) is dict else matrix[draw(st.integers(0, 1))]


@st.composite
def mutated_results(draw, text):
    """README's minimal fd result, ``text``, its generator written in one of
    ``FORMS``, as it is or with one field, order, key, matrix or member broken, and
    whether the change must exit 2: a required header field dropped, a header field
    retyped or nested to a value it does not convert from, a generator order dropped
    or a key not canonical, a sparse or binary generator matrix broken, a key
    repeated or the corrections truncated."""
    doc = with_grids(json.loads(text))
    form = FORMS[draw(st.sampled_from(sorted(FORMS)))]
    for entry in doc["generator"].values():
        entry.update((key, form(matrix)) for key, matrix in entry.items())
    kind = draw(st.sampled_from(["valid", "drop", "retype", "nest", "non-finite", "drop-order",
                                 "rekey", "break-sparse", "break-sparse-binary", "break-binary",
                                 "truncate", "repeat"]))
    malformed = kind in ("drop-order", "rekey", "break-sparse", "break-sparse-binary",
                         "break-binary", "truncate", "repeat")
    if kind in ("drop", "retype", "nest"):
        field = draw(st.sampled_from(sorted(set(doc) - {"corrections", "generator"})))
        if kind == "drop":
            del doc[field]
            malformed = field in list(READ_HEADER)[:3]
        else:
            if kind == "retype":
                doc[field] = draw(st.sampled_from(["x", True, None, [1], {"a": 1}, 2.5, -1]))
            else:
                doc[field] = draw(st.sampled_from([[doc[field]], {"a": doc[field]}]))
            malformed = field in READ_HEADER and not READ_HEADER[field](doc[field])
    elif kind == "non-finite":
        series = doc[draw(st.sampled_from(["generator", "corrections"]))]
        # any matrix but an empty sparse one
        entry, key = draw(st.sampled_from([(entry, key) for entry in series.values()
                                           for key, m in entry.items()
                                           if type(m) is list or m.get("values", True)]))
        binary = type(entry[key]) is dict and "c16" in entry[key]
        matrix = grid_json(entry[key], 2)
        pairs = _first_pairs(draw, matrix)
        pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = \
            draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        entry[key] = binary_json(matrix) if binary else matrix
    elif kind == "break-sparse":
        entry = doc["generator"]["1"]
        matrix = grid_json(entry["1,0"], 2)
        matrix = matrix if type(matrix) is dict else sparse_json(matrix)
        entry["1,0"] = SPARSE_BREAKS[draw(st.sampled_from(sorted(SPARSE_BREAKS)))](matrix)
    elif kind == "break-sparse-binary":
        entry = doc["generator"]["1"]
        broken, _ = SPARSE_BINARY_BREAKS[draw(st.sampled_from(sorted(SPARSE_BINARY_BREAKS)))]
        entry["1,0"] = broken(sparse_binary_json(mat_json(matrix_from_json(entry["1,0"], 2))))
    elif kind == "break-binary":
        entry = doc["generator"]["1"]
        broken, _ = BINARY_BREAKS[draw(st.sampled_from(sorted(BINARY_BREAKS)))]
        entry["1,0"] = broken(binary_json(matrix_from_json(entry["1,0"], 2)))
    elif kind == "drop-order":
        del doc["generator"][draw(st.sampled_from(sorted(doc["generator"])))]
    elif kind == "rekey":
        generator = doc["generator"]
        if draw(st.booleans()):
            generator["01"] = generator.pop("1")
        else:
            generator["1"]["1,0 "] = generator["1"].pop("1,0")
    text = json.dumps(doc)
    if kind == "truncate":
        corrections = json.dumps(doc["corrections"])
        text = text.replace(corrections, corrections[:draw(st.integers(1, len(corrections) - 1))])
    elif kind == "repeat":
        where, key = draw(st.sampled_from(REPEATED_KEYS))
        assert where in text
        text = text.replace(where, where + key, 1)
    return text, malformed


def test_rotate_fails_only_with_a_documented_exit_and_one_error_line(tmp_path):
    # an --out that exists is left as it was by every failure
    problem, result = readme_fd_problem(tmp_path), tmp_path / "result.json"
    assert main(["transform", str(problem), "--max-order", "3", "--out", str(result)]) == 0
    text = result.read_text(encoding="utf-8")
    op_path, out = tmp_path / "op.json", tmp_path / "rotated.json"
    before = b"an earlier document\n"

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=mutated_results(text), order=st.integers(-1, 4),
           dim=st.sampled_from([None, 2, 3]), sparse=st.booleans())
    def check(case, order, dim, sparse):
        mutated, malformed = case
        result.write_text(mutated, encoding="utf-8")
        term = {**EYE_TERM, "matrix": sparse_json(EYE_TERM["matrix"])} if sparse else EYE_TERM
        write_json(op_path, {"terms": [term], **({} if dim is None else {"dim": dim})})
        out.write_bytes(before)
        argv = ["rotate", str(problem), str(result), str(op_path), f"--order={order}",
                "--out", str(out)]
        stderr = text_io.StringIO()
        # a warning would reach a terminal's stderr, so here it raises
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3), (code, argv, mutated)
        if malformed:
            assert code == 2, (stderr.getvalue(), mutated)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert out.read_bytes() == before

    check()


#: The fields of README's minimal problem and of its terms, each with a test of the
#: JSON values it converts from, and whether a document may leave it out.
PROBLEM_FIELDS = {
    "dim": (lambda value: type(value) is int, False),
    "hbar": (lambda value: type(value) in (int, float), True),
    "method": (lambda value: value in METHODS, False),
    "max_order": (lambda value: type(value) is int, False),
    "block_sizes": (lambda value: type(value) is list and all(type(n) is int for n in value),
                    False),
    "terms": (lambda value: type(value) is list and all(type(term) is dict for term in value),
              False),
    "order": (lambda value: type(value) is int, False),
    "harmonic": (lambda value: type(value) is int, True),
    "matrix": (lambda value: np.shape(value) == (2, 2, 2), False),
}

#: Masks and block sizes that do not fit README's two-level problem.
MISFITS = [("block_sizes", [1]), ("block_sizes", [1, 2]), ("block_sizes", [3]),
           ("block_sizes", [0, 2]), ("mask", [[True, False, True]] * 3), ("mask", [[True]]),
           ("mask", {"block_sizes": [1, 2]}), ("mask", {"entries": [[0, 2]]})]


@st.composite
def mutated_problems(draw):
    """README's minimal problem, its matrices written in one of ``FORMS``, as it is
    or with one field dropped, retyped or nested, a NaN or infinite part in a
    matrix, a sparse or binary matrix broken, or a mask or block sizes that do not
    fit; and the exit the change must give, if any: 2 for a required field dropped,
    any field given a value it does not convert from or a broken sparse or binary
    matrix, 3 for a non-finite part or a misfit."""
    doc = readme_problem()
    terms = doc["terms"]
    form = FORMS[draw(st.sampled_from(sorted(FORMS)))]
    for term in terms:
        term["matrix"] = form(term["matrix"])
    kind = draw(st.sampled_from(["valid", "drop", "retype", "nest", "non-finite", "misfit",
                                 "break-sparse", "break-sparse-binary", "break-binary"]))
    code = {"non-finite": 3, "misfit": 3, "break-sparse": 2, "break-sparse-binary": 2,
            "break-binary": 2}.get(kind)
    if kind in ("drop", "retype", "nest"):
        target = draw(st.sampled_from([doc] + terms))
        field = draw(st.sampled_from(sorted(target)))
        converts, optional = PROBLEM_FIELDS[field]
        if kind == "drop":
            del target[field]
            code = None if optional else 2
        else:
            if kind == "retype":
                target[field] = draw(st.sampled_from(["x", True, None, [1], {"a": 1}, 2.5, -1]))
            else:
                target[field] = draw(st.sampled_from([[target[field]], {"a": target[field]}]))
            code = None if converts(target[field]) else 2
    elif kind == "non-finite":
        term = terms[draw(st.integers(0, 1))]
        binary = type(term["matrix"]) is dict and "c16" in term["matrix"]
        matrix = grid_json(term["matrix"], 2)
        pairs = _first_pairs(draw, matrix)
        pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = \
            draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        term["matrix"] = binary_json(matrix) if binary else matrix
    elif kind == "break-sparse":
        term = terms[draw(st.integers(0, 1))]
        matrix = grid_json(term["matrix"], 2)
        matrix = matrix if type(matrix) is dict else sparse_json(matrix)
        term["matrix"] = SPARSE_BREAKS[draw(st.sampled_from(sorted(SPARSE_BREAKS)))](matrix)
    elif kind == "break-sparse-binary":
        term = terms[draw(st.integers(0, 1))]
        broken, _ = SPARSE_BINARY_BREAKS[draw(st.sampled_from(sorted(SPARSE_BINARY_BREAKS)))]
        term["matrix"] = broken(sparse_binary_json(mat_json(matrix_from_json(term["matrix"], 2))))
    elif kind == "break-binary":
        term = terms[draw(st.integers(0, 1))]
        broken, _ = BINARY_BREAKS[draw(st.sampled_from(sorted(BINARY_BREAKS)))]
        term["matrix"] = broken(binary_json(matrix_from_json(term["matrix"], 2)))
    elif kind == "misfit":
        key, value = draw(st.sampled_from(MISFITS))
        if key == "mask":
            doc["method"] = "ace"
            del doc["block_sizes"]
        doc[key] = value
    return doc, code


def test_transform_fails_only_with_a_documented_exit_and_one_error_line(tmp_path):
    # an --out that exists is left as it was by every failure; "--flag=value"
    # keeps argparse from reading a negative value as a flag
    problem, out = tmp_path / "problem.json", tmp_path / "result.json"
    before = b"an earlier document\n"

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=mutated_problems(), max_order=st.one_of(st.none(), st.integers(-1, 5)),
           tol=st.sampled_from([None, 0.0, -1.0, 1e-9, math.inf]))
    def check(case, max_order, tol):
        doc, want = case
        problem.write_text(json.dumps(doc), encoding="utf-8")
        out.write_bytes(before)
        argv = ["transform", str(problem), "--out", str(out)]
        argv += [f"--{flag}={value!s}" for flag, value in
                 (("max-order", max_order), ("tol-resonance", tol)) if value is not None]
        stderr = text_io.StringIO()
        # a warning would reach a terminal's stderr, so here it raises
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3, 4), (code, argv, doc)
        if want is not None:
            assert code == want, (stderr.getvalue(), doc)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert out.read_bytes() == before

    check()


def _integral(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _real(value) -> bool:
    return type(value) in (int, float)


#: A small spec of each experiment kind: at most 8 levels, 3 instances and order 4.
SMALL_SPECS = (
    {"kind": "fig3", "count": 2, "dim_min": 4, "dim_max": 8, "blocks_min": 2, "blocks_max": 3,
     "coupling": 0.05, "seed": 3, "max_order": 4},
    {"kind": "ace", "dim": 6, "seed": 3, "max_order": 3, "coupling": 0.05},
)

#: Each spec field with a test of the JSON values it converts from; "kind"
#: converts only to the spec's own kind.
SPEC_FIELDS = {"count": _integral, "dim_min": _integral, "dim_max": _integral,
               "blocks_min": _integral, "blocks_max": _integral, "dim": _integral,
               "seed": _integral, "max_order": _integral, "coupling": _real}


@st.composite
def mutated_specs(draw):
    """A small fig3 or ace spec as it is or with one field dropped, retyped or nested,
    a NaN or Infinity literal in a field, a count below 1 or a coupling from 1e150 to
    1.7e308; ``--seed`` and ``--instances`` values; and the exit the change must give,
    if any: 2 for a field given a value it does not convert from, 3 for a count or
    coupling that breaks a rule."""
    doc = dict(draw(st.sampled_from(SMALL_SPECS)))
    own = doc["kind"]
    seed = draw(st.one_of(st.none(), st.integers(-1, 3)))
    instances = draw(st.one_of(st.none(), st.integers(-1, 3)))
    kind = draw(st.sampled_from(["valid", "drop", "retype", "nest", "non-finite", "count",
                                 "coupling"]))
    code = None
    if kind in ("drop", "retype", "nest", "non-finite"):
        field = draw(st.sampled_from(sorted(doc)))
        converts = SPEC_FIELDS.get(field, lambda value: value == own)
        if kind == "drop":
            del doc[field]
            # a spec without a kind is read as fig3, which takes no "dim"
            code = 2 if field == "kind" and own == "ace" else None
        else:
            if kind == "retype":
                doc[field] = draw(st.sampled_from(["x", True, None, [1], {"a": 1}, 2.5, -1]))
            elif kind == "nest":
                doc[field] = draw(st.sampled_from([[doc[field]], {"a": doc[field]}]))
            else:
                doc[field] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            code = None if converts(doc[field]) else 2
            if kind == "non-finite" and field == "coupling":
                code = 3
    elif kind == "count" and own == "fig3":
        doc["count"] = draw(st.sampled_from([0, -1]))
        code = 3 if instances is None else None
    elif kind == "coupling":
        # 1.3e154 squares to a float, but its cross-block couplings overflow
        doc["coupling"] = draw(st.sampled_from([1e150, 1.3e154, 1e300, 1.7e308]))
        code = 3 if own == "fig3" and doc["coupling"] >= 1e300 else None
    extra = [f"--{flag}={value}" for flag, value in (("seed", seed), ("instances", instances))
             if value is not None]
    return doc, extra, code


def test_experiment_fails_only_with_a_documented_exit_and_one_error_line(tmp_path):
    # an --out that exists is left as it was by every failure; a run that
    # succeeds reports only the instances it skipped
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    before = b"an earlier document\n"

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=mutated_specs())
    def check(case):
        doc, extra, want = case
        spec.write_text(json.dumps(doc), encoding="utf-8")
        out.write_bytes(before)
        argv = ["experiment", str(spec), "--out", str(out), *extra]
        stderr = text_io.StringIO()
        # a warning would reach a terminal's stderr, so here it raises
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4, 5), (code, argv, doc)
        if want is not None:
            assert code == want, (err, argv, doc)
        if code == 0:
            assert all(line.startswith("skipped instance ") for line in err.splitlines()), err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert out.read_bytes() == before

    check()


def _diverging_problem(method: str) -> dict:
    """Three levels coupled at 1e200: every series overflows at its second order."""
    coupling = 1e200 * (np.ones((3, 3)) - np.eye(3))
    return {"dim": 3, "method": method, "max_order": 4,
            **({"block_sizes": [2, 1]} if method == "la" else {}),
            "terms": [{"order": 0, "matrix": mat_json(np.diag([0.0, 1.0, 2.5]))},
                      {"order": 1, "matrix": mat_json(coupling)}]}


@pytest.mark.parametrize("command, doc, code", [
    ("transform", _diverging_problem("fd"), 3),
    ("transform", _diverging_problem("la"), 3),
    ("experiment", {"kind": "ace", "coupling": 1e200}, 3),
    ("experiment", {"kind": "fig3", "count": 2, "coupling": 1e150}, 0),
    # the couplings drawn overflow: the instances are skipped, the demo fails
    ("experiment", {"kind": "fig3", "count": 2, "coupling": 1.3e154}, 0),
    ("experiment", {"kind": "ace", "coupling": 1.7e308}, 3),
], ids=["fd", "la", "ace", "fig3", "fig3-drawn", "ace-drawn"])
def test_an_overflowing_series_prints_no_warning(tmp_path, command, doc, code):
    # a separate process, so that a numpy warning would reach its stderr: the
    # overflow is reported once, as an error or as skipped instances
    path = tmp_path / "input.json"
    write_json(path, doc)
    proc = run_cli(command, str(path), "--out", str(tmp_path / "out"))
    lines = proc.stderr.splitlines()
    assert proc.returncode == code, proc.stderr
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: non-finite content"), lines
    else:
        assert len(lines) == 2 and all(line.startswith("skipped instance ") for line in lines), lines


def test_cli_commands_never_import_scipy(tmp_path):
    # the package depends on numpy alone; scipy is a test-only dependency
    problem = tmp_path / "problem.json"
    write_json(problem, {
        "dim": 3, "method": "la", "max_order": 2, "block_sizes": [1, 2],
        "terms": [{"order": 0, "matrix": mat_json(np.diag([0.0, 1.0, 1.5]))},
                  {"order": 1, "matrix": mat_json(0.1 * (np.ones((3, 3)) - np.eye(3)))}]})
    spec = tmp_path / "spec.json"
    write_json(spec, {"kind": "fig3", "count": 1, "max_order": 2, "dim_min": 4, "dim_max": 4})
    probe = ("import runpy, sys\n"
             "sys.argv = ['pertkit'] + sys.argv[1:]\n"
             "try:\n"
             "    runpy.run_module('pertkit.cli', run_name='__main__')\n"
             "except SystemExit as stop:\n"
             "    print(stop.code, 'scipy' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    for argv in (["transform", str(problem), "--out", str(tmp_path / "r.json")],
                 ["oracle", str(problem), "--out", str(tmp_path / "o.json")],
                 ["experiment", str(spec), "--out", str(tmp_path / "eta.csv")]):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "False"], (argv[0], proc.stdout, proc.stderr)


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
    ({"kind": "fig3", "count": 2, "max_order": 2, "blocks_min": 1}, []),
    ({"kind": "fig3", "count": 2, "max_order": 2, "coupling": 1e300}, []),
], ids=["zero-instances", "too-many-blocks", "nan-coupling", "inf-coupling",
        "zero-coupling", "negative-coupling", "order-zero", "one-block", "huge-coupling"])
def test_experiment_unsatisfiable_spec_exit_code(tmp_path, capsys, doc, extra):
    # an ensemble the spec cannot honour is a precondition failure, not a run
    # of some other ensemble (a NaN coupling used to exit 0 with an empty
    # table, every instance skipped as non-finite)
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, doc)
    out = tmp_path / "eta.csv"
    assert main(["experiment", str(spec_path), "--out", str(out)] + extra) == 3
    assert not out.exists()
    one_error_line(capsys)


@pytest.mark.parametrize("max_order", [0, -1])
def test_a_fig3_spec_below_order_1_names_max_order(tmp_path, capsys, max_order):
    # the message used to name the scan orders, which a spec does not hold
    spec_path, out = tmp_path / "spec.json", tmp_path / "eta.csv"
    write_json(spec_path, {"kind": "fig3", "count": 2, "max_order": max_order})
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 3
    assert not out.exists()
    assert one_error_line(capsys) == f"error: max_order must be at least 1, got {max_order}\n"


def test_experiment_skips_an_instance_that_fails_a_precondition(tmp_path, capsys, monkeypatch):
    from pertkit import experiments
    from pertkit.errors import ResonantDenominator

    rows_of = experiments._instance_rows

    def resonant_at_1(spec, index, max_order):
        if index == 1:
            raise ResonantDenominator(0, 1, 0, 0.0, 2)
        return rows_of(spec, index, max_order)

    monkeypatch.setattr(experiments, "_instance_rows", resonant_at_1)
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, {"kind": "fig3", "count": 3, "max_order": 2})
    out = tmp_path / "eta.csv"
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 0
    instances = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert instances == ["0", "0", "2", "2"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("skipped instance 1: ResonantDenominator: ")


@pytest.mark.parametrize("doc", [
    [1],
    {"kind": "fig3", "count": [1]},
    {"kind": "fig3", "coupling": "strong"},
    {"kind": "ace", "dim": [3]},
    {"kind": "fig3", "count": 2.5, "max_order": 2},
    {"kind": "fig3", "count": 2, "max_order": 2.5},
    {"kind": "ace", "dim": 4.5},
    {"kind": "ace", "seed": True},
    {"kind": "fig3", "coupling": True},
    {"kind": "ace", "coupling": "0.1"},
], ids=["not-an-object", "count-list", "coupling-string", "ace-dim-list", "count-fraction",
        "order-fraction", "ace-dim-fraction", "ace-seed-bool", "coupling-bool",
        "ace-coupling-numeric-string"])
def test_experiment_malformed_spec_exit_code(tmp_path, doc):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, doc)
    out = tmp_path / "out"
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("doc, typo", [
    ({"kind": "fig3", "count": 2, "dim_min": 6, "dim_max": 7, "blocks_min": 2, "blocks_max": 3,
      "coupling": 0.05, "seed": 7, "max_order": 3}, "couplng"),
    ({"kind": "ace", "dim": 6, "seed": 3, "max_order": 2, "coupling": 0.05}, "max_ordr"),
], ids=["fig3", "ace"])
def test_experiment_unknown_key_exit_code(tmp_path, capsys, doc, typo):
    # a misspelt key is refused, not passed over in favour of its default
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "out"
    write_json(spec_path, doc)
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    write_json(spec_path, {**doc, typo: 0.5})
    assert main(["experiment", str(spec_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(typo) in one_error_line(capsys)


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
    again = _series_to_json(view.generator, sparse=True)
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


def resonant_ace_problem(tmp_path, tolerances=None):
    # the masked pair (0, 1) sits 1e-12 apart: resonant at the default tolerance
    doc = {
        "dim": 3,
        "method": "ace",
        "max_order": 2,
        "mask": {"entries": [[0, 1]]},
        "terms": [
            {"order": 0, "matrix": mat_json(np.diag([0.0, 1e-12, 1.0]))},
            {"order": 1, "matrix": mat_json(0.1 * (np.ones((3, 3)) - np.eye(3)))},
        ],
    }
    if tolerances is not None:
        doc["tolerances"] = tolerances
    path = tmp_path / "resonant.json"
    write_json(path, doc)
    return path


def test_resonant_ace_problem_exits_with_the_resonance_code(tmp_path):
    out = tmp_path / "o.json"
    assert main(["transform", str(resonant_ace_problem(tmp_path)), "--out", str(out)]) == 4
    assert main(["transform", str(resonant_ace_problem(tmp_path)), "--tol-resonance", "1e-13",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("flags, tolerances", [
    (["--tol-resonance", "nan"], None),
    (["--tol-resonance", "-1"], None),
    (["--tol-resonance", "0"], None),
    (["--tol-resonance", "inf"], None),
    ([], {"resonance": -1}),
    ([], {"resonance": 0}),
], ids=["flag-nan", "flag-negative", "flag-zero", "flag-inf", "document-negative",
        "document-zero"])
def test_resonance_tolerance_that_is_not_finite_and_positive_exit_code(tmp_path, capsys, flags,
                                                                      tolerances):
    # each used to turn the resonance check off: the resonant problem exited 0
    out = tmp_path / "o.json"
    path = resonant_ace_problem(tmp_path, tolerances)
    assert main(["transform", str(path), "--out", str(out)] + flags) == 3
    assert not out.exists()
    assert "res_tol must be finite and positive" in capsys.readouterr().err


def test_degeneracy_tolerance_flag_is_gone(two_level_problem, tmp_path):
    # the resonance tolerance is the only one: it judges degenerate levels too
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as rejected:
        main(["transform", str(two_level_problem), "--out", str(out),
              "--tol-degeneracy", "1e-9"])
    assert rejected.value.code == 2
    assert not out.exists()


def test_method_flag_is_gone(two_level_problem, tmp_path):
    # the problem document's method is the only one
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as rejected:
        main(["transform", str(two_level_problem), "--method", "fd", "--out", str(out)])
    assert rejected.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--lam", "inf"], ["--lam", "nan"], ["--lam=-inf"], ["--time", "nan"], ["--time", "inf"],
], ids=["lam-inf", "lam-nan", "lam-minus-inf", "time-nan", "time-inf"])
def test_oracle_lambda_and_time_that_are_not_finite_exit_code(two_level_problem, tmp_path,
                                                              flags):
    # --lam inf used to print a RuntimeWarning before exiting 3, and a NaN
    # --time on a static problem exited 0
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", str(two_level_problem), "--out", str(out)] + flags) == 3
    assert not out.exists()


def rotate_with_generator(problem, tmp_path, edit, order="2", form="grid"):
    """Exit code of a rotation against a result whose generator ``edit`` changed,
    after each of its matrices was written in ``form``."""
    result = tmp_path / "result.json"
    assert main(["transform", str(problem), "--out", str(result)]) == 0
    doc = with_grids(json.loads(result.read_text()))
    for entry in doc["generator"].values():
        entry.update((key, FORMS[form](matrix)) for key, matrix in entry.items())
    edit(doc["generator"])
    write_json(result, doc)
    op_path = tmp_path / "op.json"
    write_json(op_path, {"terms": [{"order": 0, "matrix": mat_json(np.diag([0.0, 1.0]))}]})
    out = tmp_path / "x.json"
    code = main(["rotate", str(problem), str(result), str(op_path),
                 "--order", order, "--out", str(out)])
    assert out.exists() == (code == 0)
    return code


def _rekey(entry, old, new):
    entry[new] = entry.pop(old)


@pytest.mark.parametrize("edit", [
    lambda g: _rekey(g["1"], "1,0", "2,0"),
    lambda g: _rekey(g["1"], "1,0", "1_0,0"),
    lambda g: g["1"].update({"01,0": g["1"]["1,0"]}),
    lambda g: _rekey(g["1"], "1,0", "1,+0"),
    lambda g: _rekey(g["1"], "1,0", " 1,0"),
    lambda g: _rekey(g, "1", "01"),
    lambda g: _rekey(g, "2", "2_"),
], ids=["order-mismatch", "underscore", "two-spellings", "plus-sign", "space",
        "order-leading-zero", "order-underscore"])
def test_rotate_result_generator_key_that_is_not_canonical_exit_code(two_level_problem, tmp_path,
                                                                     edit):
    # each used to rotate and exit 0: "2,0" filed under order 1 was used as
    # order 1, "1_0,0" read as order 10, and "01,0" overwrote "1,0"
    for form in FORMS:
        assert rotate_with_generator(two_level_problem, tmp_path, edit, form=form) == 2


def test_rotate_result_with_a_repeated_json_key_exit_code(two_level_problem, tmp_path):
    # json.loads keeps the last of two equal keys; the document is malformed
    def repeat(generator):
        generator["1"]["1,0"] = "REPEAT"

    result = tmp_path / "result.json"
    assert main(["transform", str(two_level_problem), "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    first = json.dumps(doc["generator"]["1"]["1,0"])
    repeat(doc["generator"])
    text = json.dumps(doc).replace('"1,0": "REPEAT"', f'"1,0": {first}, "1,0": {first}')
    # and a key of a sparse or a binary matrix given twice
    grid = grid_json(json.loads(first), 2)
    thin, packed = sparse_json(grid), sparse_binary_json(grid)
    twice = json.dumps(thin).replace('"values"', f'"at": {thin["at"]}, "values"')
    packed_twice = json.dumps(packed).replace('"c16"', f'"at": {packed["at"]}, "c16"')
    binary = first.replace("{", "{" + first[1:-1] + ", ")
    op_path = tmp_path / "op.json"
    write_json(op_path, {"terms": [{"order": 0, "matrix": mat_json(np.eye(2))}]})
    for repeated in (text, *(json.dumps(doc).replace('"REPEAT"', matrix)
                             for matrix in (twice, packed_twice, binary))):
        result.write_text(repeated, encoding="utf-8")
        assert main(["rotate", str(two_level_problem), str(result), str(op_path),
                     "--order", "1", "--out", str(tmp_path / "x.json")]) == 2


def test_rotate_result_with_canonical_keys_runs(two_level_problem, tmp_path):
    for form in FORMS:
        assert rotate_with_generator(two_level_problem, tmp_path, lambda g: None, form=form) == 0


def test_rotate_generator_that_is_not_anti_hermitian_exit_code(two_level_problem, tmp_path,
                                                               capsys):
    # a generator entry edited to 5.0 used to rotate by a non-unitary exp(S);
    # entry (0, 1) is a sparse matrix's first value
    def edit(generator):
        matrix = generator["1"]["1,0"]
        if type(matrix) is dict and "c16" in matrix:
            grid = grid_json(matrix, 2)
            grid[0][1][0] = 5.0
            generator["1"]["1,0"] = binary_json(grid)
        else:
            (matrix["values"][0] if type(matrix) is dict else matrix[0][1])[0] = 5.0

    for form in FORMS:
        assert rotate_with_generator(two_level_problem, tmp_path, edit, form=form) == 3
        assert "anti-hermitian" in capsys.readouterr().err
