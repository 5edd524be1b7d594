"""The (order, nestedness) recursions against the composition-indexed oracle."""

import numpy as np
import pytest

from composition_reference import (
    reference_la,
    reference_la_generator,
    reference_rotate,
    reference_transform,
)
from la_reference import compute_la_generator
from pertkit.engine import Mask, rotate_operator, run_ace, run_fd, run_swt
from pertkit.graded import GradedOperator
from pertkit.least_action import BlockStructure, run_la

MAX_ORDER = 6


def instance(seed, d=5, driven=False):
    rng = np.random.default_rng(seed)
    diag = np.sort(rng.uniform(0.0, d, size=d)) + 0.3 * np.arange(d)
    off = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    off = 0.05 * (off + off.conj().T) / 2
    off -= np.diag(np.diag(off))
    second = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    second = 0.02 * (second + second.conj().T) / 2
    terms = {(0, 0): np.diag(diag), (1, 0): off, (2, 0): second}
    omega_d = None
    if driven:
        drive = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        drive = 0.04 * drive
        terms[(1, 1)] = drive
        terms[(1, -1)] = drive.conj().T
        # above the level spread, so no harmonic is near resonance and the
        # terms stay O(1): the comparison then measures the algorithm, not
        # the round-off a small denominator amplifies in both evaluators
        omega_d = 1.7 * d
    return GradedOperator(d, terms, omega_d=omega_d)


def assert_series_match(got, want, scale, orders=range(MAX_ORDER + 1)):
    for n in orders:
        keys = set(got[n].keys()) | set(want[n].keys())
        for key in keys:
            diff = np.abs(got[n].term(*key) - want[n].term(*key)).max()
            assert diff <= 1e-14 * scale, (n, key, diff / scale)


def assert_masked_exactly_zero(corrections, mask):
    for n, corr in corrections.items():
        for key, mat in corr.items():
            assert not mat[mask.eliminate].any(), (n, key)


def parity_mask(d):
    idx = np.arange(d)
    return Mask((idx[:, None] + idx[None, :]) % 2 == 1)


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("method", ["swt", "fd", "ace"])
def test_engine_matches_reference(method, driven):
    h = instance(11, driven=driven)
    d = h.dim
    if method == "swt":
        mask = Mask.block_off_diagonal([2, 3])
        result = run_swt(h.where(mask.keep), h.where(mask.eliminate), [2, 3], MAX_ORDER)
    elif method == "fd":
        mask = Mask.full_off_diagonal(d)
        result = run_fd(h, MAX_ORDER)
    else:
        mask = parity_mask(d)
        result = run_ace(h, mask, MAX_ORDER)
    corrections, generator = reference_transform(h, mask, MAX_ORDER)
    scale = np.abs(h.term(0, 0)).max()
    assert_series_match(result.corrections, corrections, scale)
    assert_series_match(result.generator, generator, scale, orders=range(1, MAX_ORDER + 1))
    assert_masked_exactly_zero(result.corrections, mask)


@pytest.mark.parametrize("sizes", [(2, 3), (1, 2, 2)])
def test_la_matches_reference(sizes):
    h = instance(12)
    blocks = BlockStructure(sizes)
    result = run_la(h, blocks, MAX_ORDER)
    corrections, generator = reference_la(h, blocks, MAX_ORDER)
    scale = np.abs(h.term(0, 0)).max()
    assert_series_match(result.corrections, corrections, scale)
    assert_series_match(result.generator, generator, scale, orders=range(1, MAX_ORDER + 1))


def test_la_intermediate_series_match_reference():
    h = instance(13)
    blocks = BlockStructure((2, 1, 2))
    z = run_fd(h, MAX_ORDER).generator
    got = compute_la_generator(z, blocks, MAX_ORDER)
    want = reference_la_generator(z, blocks, MAX_ORDER, h.dim)
    scale = np.abs(h.term(0, 0)).max()
    assert_series_match(got.epsilon, want["epsilon"], scale, orders=range(2, MAX_ORDER + 1))
    for name in ("W", "U", "S"):
        assert_series_match(getattr(got, name), want[name], scale, orders=range(1, MAX_ORDER + 1))


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_rotate_operator_matches_reference(driven):
    h = instance(14, driven=driven)
    result = run_fd(h, MAX_ORDER)
    rng = np.random.default_rng(15)
    op = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
    operator = GradedOperator(
        h.dim, {(0, 0): op + op.conj().T, (1, 0): 0.1 * op @ op.conj().T}, omega_d=h.omega_d
    )
    got = rotate_operator(operator, result.generator, MAX_ORDER)
    want = reference_rotate(operator, result.generator, MAX_ORDER)
    scale = np.abs(operator.term(0, 0)).max()
    for key in set(got.keys()) | set(want.keys()):
        diff = np.abs(got.term(*key) - want.term(*key)).max()
        assert diff <= 1e-14 * scale, (key, diff / scale)
