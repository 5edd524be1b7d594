import numpy as np
import pytest

from helpers import median_eta_by_order
from pertkit.experiments import (
    EnsembleSpec,
    _instance_rows,
    ace_demo,
    checkerboard_mask,
    eta_rows_to_csv,
    run_fig3_experiment,
    sample_instance,
)
from pertkit.engine import Mask
from pertkit.errors import PertError
from pertkit.least_action import run_la
from pertkit.oracle import evaluate_at, exact_block_diagonalize, partial_sum_matrix, spectral_distance


def small_spec(count=6, seed=21):
    return EnsembleSpec(
        count=count, dim_min=6, dim_max=9, blocks_min=2, blocks_max=3,
        coupling=0.05, seed=seed,
    )


def test_sample_instance_deterministic():
    spec = small_spec()
    h1, b1 = sample_instance(spec, 3)
    h2, b2 = sample_instance(spec, 3)
    assert b1.sizes == b2.sizes
    for key in h1.keys():
        np.testing.assert_array_equal(h1.term(*key), h2.term(*key))


@pytest.mark.parametrize("n_blocks", [2, 3, 4])
def test_one_vector_draw_equals_one_scalar_draw_per_level(n_blocks):
    # sample_instance draws its extra levels in one call; the fig3 ensemble
    # stays the same only while that call consumes the generator as m
    # scalar draws do and returns the same values
    for seed in range(200):
        for m in range(11):
            vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = vector.integers(n_blocks, size=m)
            assert drawn.tolist() == [int(scalar.integers(n_blocks)) for _ in range(m)]
            assert vector.bit_generator.state == scalar.bit_generator.state


def test_spec_rejects_more_blocks_than_its_smallest_dimension_holds():
    # d = 6 holds at most three blocks of two levels; a four-block minimum
    # used to draw d = 8 instances, outside the declared dimension range
    with pytest.raises(ValueError, match="blocks"):
        EnsembleSpec(dim_min=6, dim_max=6, blocks_min=4, blocks_max=4)


def test_spec_at_the_block_limit_draws_within_its_ranges():
    spec = EnsembleSpec(count=4, dim_min=6, dim_max=6, blocks_min=3, blocks_max=3, seed=5)
    for index in range(spec.count):
        h, blocks = sample_instance(spec, index)
        assert h.dim == 6
        assert blocks.sizes == (2, 2, 2)


# cross-block couplings are drawn at the square, which 1e300 overflows
@pytest.mark.parametrize("coupling", [float("nan"), float("inf"), 0.0, -0.05, 1e300])
def test_spec_rejects_a_coupling_that_is_not_finite_and_positive(coupling):
    with pytest.raises(ValueError, match="coupling"):
        EnsembleSpec(coupling=coupling)


def test_instance_builds_its_block_mask_once(monkeypatch):
    # the draw, the least-action recursion and the oracle share one mask
    built = []
    init = Mask.__init__

    def counting(self, eliminate):
        built.append(1)
        init(self, eliminate)

    monkeypatch.setattr(Mask, "__init__", counting)
    rows = _instance_rows(EnsembleSpec(count=1, seed=7), 0, 8)
    assert len(rows) == 8
    assert len(built) == 1


def test_sample_instances_differ():
    spec = small_spec()
    h1, _ = sample_instance(spec, 0)
    h2, _ = sample_instance(spec, 1)
    assert not np.array_equal(np.diag(h1.term(0, 0)), np.diag(h2.term(0, 0)))


def test_fig3_median_trend_and_plateau():
    rows, skipped = run_fig3_experiment(small_spec(), max_order=5)
    assert not skipped
    medians = median_eta_by_order(rows)
    values = [medians[n] for n in range(1, 6)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    # order-1 in-block / order-2 cross-block hierarchy: orders 1..3 identical
    assert abs(medians[1] - medians[2]) <= 0.05 * medians[1]
    assert abs(medians[1] - medians[3]) <= 0.05 * medians[1]
    assert medians[5] < medians[1]


def test_csv_shape():
    rows, _ = run_fig3_experiment(small_spec(count=2), max_order=3)
    csv = eta_rows_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "instance,n,lambda,eta,seed"
    assert len(lines) == 1 + 2 * 3


def test_ace_demo_masked_entries_exactly_zero():
    demo = ace_demo(d=10, seed=11, max_order=3)
    after = demo["after"]
    mask = demo["mask"]
    assert np.abs(after[mask]).max() == 0.0
    off_unmasked = ~mask & ~np.eye(10, dtype=bool)
    assert np.abs(after[off_unmasked]).max() > 1e-3
    assert np.abs(demo["before"][mask]).max() > 0


def test_checkerboard_mask_pattern():
    mask = checkerboard_mask(4).eliminate
    assert mask[0, 1] and mask[1, 2] and not mask[0, 2]
    assert not mask.diagonal().any()


def test_instance_rows_equal_the_spectral_distance_of_each_partial_sum():
    # one norm of the exact block Hamiltonian and a running partial sum give
    # the same bits as spectral_distance on partial_sum_matrix at every order
    spec = EnsembleSpec(count=12, seed=7)
    checked = 0
    for index in range(spec.count):
        try:
            rows = _instance_rows(spec, index, 8)
        except PertError:
            continue
        h, blocks = sample_instance(spec, index)
        result = run_la(h, blocks, 8)
        _, h_exact = exact_block_diagonalize(evaluate_at(h, 1.0), blocks)
        want = [spectral_distance(h_exact, partial_sum_matrix(result, n, 1.0)) for n in range(1, 9)]
        assert [row.eta for row in rows] == want, index
        assert [row.order for row in rows] == list(range(1, 9))
        checked += 1
    assert checked >= 10
