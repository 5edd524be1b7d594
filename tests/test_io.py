"""Fast matrix serialization against the element-by-element renderer."""

import json

import numpy as np
import pytest

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
