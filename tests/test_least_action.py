import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composition_reference import positive_compositions, product_over_composition
from la_reference import _convolve, compute_epsilon, compute_la_generator, pruned_la_orders
from pertkit.engine import (
    DEFAULT_RES_TOL,
    EigenFrame,
    EliminationTable,
    Mask,
    rotate_operator,
    run_fd,
    run_swt,
)
from pertkit.errors import NonFiniteContent, ResonantDenominator
from pertkit.graded import GradedOperator, GradedSum, zero_operator
from pertkit.least_action import BlockStructure, _la_orders, run_la
from pertkit.models import random_bd_hamiltonian
from pertkit.oracle import (
    convergence_scan,
    evaluate_at,
    exact_block_diagonalize,
    partial_sum_matrix,
    spectral_distance,
)

RNG = np.random.default_rng(909)


def random_antihermitian(d, rng=RNG):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m - m.conj().T) / 2


def graded(d, order, mat):
    return GradedOperator(d, {(order, 0): mat})


# ---------------------------------------------------------------------------
# block projection and composition products
# ---------------------------------------------------------------------------


def test_block_project_single_block_is_identity_map():
    g = graded(3, 1, RNG.normal(size=(3, 3)))
    out = g.where(BlockStructure((3,)).in_block())
    np.testing.assert_allclose(out.term(1, 0), g.term(1, 0))


def test_block_project_unit_blocks_is_diagonal_projection():
    mat = RNG.normal(size=(4, 4))
    out = graded(4, 1, mat).where(BlockStructure((1, 1, 1, 1)).in_block())
    np.testing.assert_allclose(out.term(1, 0), np.diag(np.diag(mat)))


def test_block_project_pattern():
    ones = np.ones((3, 3))
    out = graded(3, 1, ones).where(BlockStructure((2, 1)).in_block())
    expected = ones.copy()
    for i, j in [(0, 2), (1, 2), (2, 0), (2, 1)]:
        expected[i, j] = 0.0
    np.testing.assert_allclose(out.term(1, 0), expected)


def test_product_single_part():
    z1 = graded(2, 1, random_antihermitian(2))
    out = product_over_composition({1: z1}, (1,))
    np.testing.assert_allclose(out.term(1, 0), z1.term(1, 0))


def test_product_pauli_square_is_identity():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    out = product_over_composition({1: graded(2, 1, sx)}, (1, 1))
    assert set(out.keys()) == {(2, 0)}
    np.testing.assert_allclose(out.term(2, 0), np.eye(2))


def test_product_order_sensitivity_is_commutator():
    z1 = random_antihermitian(3)
    z2 = random_antihermitian(3)
    series = {1: graded(3, 1, z1), 2: graded(3, 2, z2)}
    fwd = product_over_composition(series, (1, 2))
    rev = product_over_composition(series, (2, 1))
    np.testing.assert_allclose(
        (fwd - rev).term(3, 0), z1 @ z2 - z2 @ z1, atol=1e-14
    )


def test_product_missing_order_collapses_to_zero():
    out = product_over_composition({1: graded(2, 1, np.eye(2))}, (1, 3))
    assert out.is_zero


# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------


def test_epsilon_second_order_closed_form():
    blocks = BlockStructure((2, 2))
    z1 = graded(4, 1, random_antihermitian(4))
    eps = compute_epsilon(2, {1: z1}, blocks)
    bz = z1.where(blocks.in_block())
    expected = (z1 @ z1).where(blocks.in_block()) - bz @ bz
    np.testing.assert_allclose(eps.term(2, 0), expected.term(2, 0), atol=1e-14)


def test_epsilon_vanishes_for_block_diagonal_z():
    blocks = BlockStructure((2, 2))
    m = random_antihermitian(4)
    m_bd = np.where(blocks.in_block(), m, 0.0)
    eps = compute_epsilon(2, {1: graded(4, 1, m_bd)}, blocks)
    assert eps.is_zero or eps.max_abs() < 1e-14


def test_epsilon_hermitian_for_antihermitian_z():
    blocks = BlockStructure((2, 2))
    z = {
        1: graded(4, 1, random_antihermitian(4)),
        2: graded(4, 2, random_antihermitian(4)),
        3: graded(4, 3, random_antihermitian(4)),
    }
    for i in (2, 3, 4):
        assert compute_epsilon(i, z, blocks).is_hermitian_graded(1e-12)


# ---------------------------------------------------------------------------
# the generator recursion
# ---------------------------------------------------------------------------


def test_first_order_generator_is_block_off_diagonal_part():
    blocks = BlockStructure((2, 1))
    z1_mat = random_antihermitian(3)
    series = compute_la_generator({1: graded(3, 1, z1_mat)}, blocks, max_order=1)
    expected = np.where(blocks.in_block(), 0.0, z1_mat)
    np.testing.assert_allclose(series.S[1].term(1, 0), expected, atol=1e-14)


def test_zero_z_gives_zero_s():
    blocks = BlockStructure((2, 2))
    series = compute_la_generator({}, blocks, max_order=3, dim=4)
    for j in range(1, 4):
        assert series.S[j].is_zero
        assert series.U[j].is_zero


def test_unit_blocks_reduce_to_fd_at_first_order():
    blocks = BlockStructure((1, 1, 1))
    z1_mat = random_antihermitian(3)
    z1_mat -= np.diag(np.diag(z1_mat))  # FD generators carry no diagonal
    series = compute_la_generator({1: graded(3, 1, z1_mat)}, blocks, max_order=1)
    np.testing.assert_allclose(series.S[1].term(1, 0), z1_mat, atol=1e-14)


def test_generator_antihermitian_to_high_order():
    blocks = BlockStructure((2, 3))
    rng = np.random.default_rng(4242)
    z = {
        j: graded(5, j, 0.1 * random_antihermitian(5, rng)) for j in range(1, 7)
    }
    series = compute_la_generator(z, blocks, max_order=6)
    for j in range(1, 7):
        assert series.S[j].is_anti_hermitian_graded(1e-12), f"order {j}"
        assert series.epsilon.get(j, zero_operator(5)).is_hermitian_graded(1e-12) or j < 2


def test_epsilon_terms_are_block_diagonal():
    blocks = BlockStructure((2, 2))
    rng = np.random.default_rng(77)
    z = {j: graded(4, j, random_antihermitian(4, rng)) for j in range(1, 5)}
    series = compute_la_generator(z, blocks, max_order=4)
    cross = ~blocks.in_block()
    for i, eps in series.epsilon.items():
        for _, mat in eps.items():
            assert np.abs(mat[cross]).max() < 1e-13 * max(eps.max_abs(), 1.0)


def test_exponential_consistency_of_u_series():
    # exp(sum_j S^(j)) reassembled per order must reproduce the U series
    blocks = BlockStructure((2, 2))
    rng = np.random.default_rng(888)
    z = {j: graded(4, j, 0.2 * random_antihermitian(4, rng)) for j in range(1, 6)}
    series = compute_la_generator(z, blocks, max_order=5)
    for j in range(1, 6):
        total = zero_operator(4)
        for comp in positive_compositions(j):
            prod = product_over_composition(series.S, comp)
            total = total + prod * (1.0 / math.factorial(len(comp)))
        diff = total - series.U[j]
        assert diff.max_abs() < 1e-12 * max(series.U[j].max_abs(), 1.0), f"order {j}"


# ---------------------------------------------------------------------------
# run_la
# ---------------------------------------------------------------------------


def bd_instance(rng, sizes=(2, 2), scale=1e-2):
    d = sum(sizes)
    blocks = BlockStructure(sizes)
    diag = np.sort(rng.uniform(0.0, d, size=d)) + 0.2 * np.arange(d)
    inb = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    inb = (inb + inb.conj().T) / 2
    inb -= np.diag(np.diag(inb))
    keep = blocks.in_block()
    h = GradedOperator(
        d,
        {
            (0, 0): np.diag(diag),
            (1, 0): scale * np.where(keep, inb, 0.0),
            (2, 0): scale * np.where(keep, 0.0, inb),
        },
    )
    return h, blocks


def test_la_single_block_is_identity_transformation():
    rng = np.random.default_rng(31337)
    h, _ = bd_instance(rng, sizes=(4,))
    result = run_la(h, BlockStructure((4,)), max_order=3)
    for n in range(1, 4):
        assert result.generator[n].is_zero
    np.testing.assert_allclose(
        result.corrections[1].term(1, 0), h.term(1, 0), atol=1e-15
    )


def test_la_eliminates_cross_block_and_converges():
    rng = np.random.default_rng(555)
    h, blocks = bd_instance(rng, sizes=(2, 2), scale=1e-2)
    result = run_la(h, blocks, max_order=5)
    cross = ~blocks.in_block()
    for n in range(1, 6):
        for _, mat in result.corrections[n].items():
            assert np.abs(mat[cross]).max() < 1e-12

    exact = evaluate_at(h, 1.0)
    _, h_exact = exact_block_diagonalize(exact, blocks)

    def eta(n):
        approx = sum(
            result.corrections[m].term(m, 0) for m in range(0, n + 1)
            if m in result.corrections
        )
        return spectral_distance(h_exact, approx)

    etas = [eta(n) for n in range(1, 6)]
    assert etas[1] <= etas[0] + 1e-15
    assert etas[3] < 0.1 * etas[0]
    assert etas[4] <= etas[3] * 1.01


def test_la_residual_order_scaling_under_lambda_halving():
    rng = np.random.default_rng(7201)
    h, blocks = bd_instance(rng, sizes=(2, 2), scale=5e-2)
    n = 4
    result = run_la(h, blocks, max_order=n)

    def residual(lam):
        exact = evaluate_at(h, lam)
        _, h_exact = exact_block_diagonalize(exact, blocks)
        approx = sum(
            (lam ** m) * result.corrections[m].term(m, 0)
            for m in range(0, n + 1)
            if m in result.corrections
        )
        return spectral_distance(h_exact, approx)

    ratio = residual(0.6) / residual(0.3)
    assert 0.7 * 2 ** (n + 1) < ratio < 1.4 * 2 ** (n + 1)


def test_la_agrees_with_swt_through_second_order_on_off_block_v():
    rng = np.random.default_rng(99)
    d, sizes = 4, (2, 2)
    blocks = BlockStructure(sizes)
    diag = np.diag([0.0, 0.8, 3.0, 4.1])
    v_mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v_mat = (v_mat + v_mat.conj().T) / 2
    v_mat = 0.05 * np.where(blocks.in_block(), 0.0, v_mat)
    h_swt = GradedOperator(d, {(0, 0): diag})
    v = GradedOperator(d, {(1, 0): v_mat})
    h_la = GradedOperator(d, {(0, 0): diag, (1, 0): v_mat})
    swt = run_swt(h_swt, v, sizes, max_order=2)
    la = run_la(h_la, blocks, max_order=2)
    for n in (1, 2):
        diff = swt.corrections[n] - la.corrections[n]
        assert diff.max_abs() < 1e-12, f"order {n}"


def test_la_hierarchy_plateau_is_exact():
    # in-block couplings at order 1, cross-block at order 2: orders 2 and 3
    # contribute nothing, so eta(1) = eta(2) = eta(3)
    rng = np.random.default_rng(2024)
    h, blocks = bd_instance(rng, sizes=(3, 2), scale=3e-2)
    result = run_la(h, blocks, max_order=4)
    assert result.corrections[2].max_abs() < 1e-14
    assert result.corrections[3].max_abs() < 1e-14
    assert result.corrections[4].max_abs() > 0


def test_la_rejects_time_dependence():
    h = GradedOperator(
        2, {(0, 0): np.diag([0.0, 1.0]), (1, 1): np.eye(2)}, omega_d=1.0
    )
    with pytest.raises(ValueError, match="static"):
        run_la(h, BlockStructure((1, 1)), max_order=2)


def block_instance(sizes, coupling, seed):
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    levels = np.cumsum(rng.uniform(0.5, 1.5, size=d))
    rng.shuffle(levels)
    off = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    off = coupling * (off + off.conj().T) / 2
    off -= np.diag(np.diag(off))
    return GradedOperator(d, {(0, 0): np.diag(levels), (1, 0): off}), levels


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    sizes=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 4)]),
    coupling=st.floats(1e-3, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_block_swt_equals_la_through_order_8(sizes, coupling, seed):
    # for two blocks Schrieffer-Wolff is the direct rotation, which is the
    # least-action one, so the series agree order by order
    h, levels = block_instance(sizes, coupling, seed)
    mask = Mask.block_off_diagonal(sizes)
    swt = run_swt(h.where(mask.keep), h.where(mask.eliminate), sizes, max_order=8)
    la = run_la(h, BlockStructure(sizes), max_order=8)
    scale = levels.max()
    for n in range(1, 9):
        assert (swt.corrections[n] - la.corrections[n]).max_abs() <= 1e-14 * scale, n
        assert (swt.generator[n] - la.generator[n]).max_abs() <= 1e-14 * scale, n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    sizes=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 4)]),
    coupling=st.floats(1e-3, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_block_least_action_recursion_equals_swt_through_order_8(sizes, coupling, seed):
    # the least-action recursion through full diagonalization (the oracle)
    # gives the direct rotation for two blocks, i.e. the SW series
    h, levels = block_instance(sizes, coupling, seed)
    mask = Mask.block_off_diagonal(sizes)
    swt = run_swt(h.where(mask.keep), h.where(mask.eliminate), sizes, max_order=8)
    la = compute_la_generator(run_fd(h, max_order=8).generator, BlockStructure(sizes), 8, h.dim)
    rotated = rotate_operator(h, la.S, 8)
    scale = levels.max()
    for n in range(1, 9):
        diff = np.abs(rotated.term(n, 0) - swt.corrections[n].term(n, 0)).max()
        assert diff <= 1e-14 * scale, n
        assert (swt.generator[n] - la.S[n]).max_abs() <= 1e-14 * scale, n


def test_two_block_la_accepts_degenerate_levels_inside_a_block():
    # the degenerate pair (0, 1) is coupled inside block 1; only cross-block
    # denominators enter least action, while full diagonalization divides by 0
    d = 4
    off = np.zeros((d, d), dtype=complex)
    off[0, 1] = off[1, 0] = 0.03
    off[0, 2] = off[2, 0] = 0.05
    off[1, 3], off[3, 1] = 0.02 - 0.01j, 0.02 + 0.01j
    h = GradedOperator(d, {(0, 0): np.diag([0.0, 0.0, 2.0, 3.1]), (1, 0): off})
    with pytest.raises(ResonantDenominator):
        run_fd(h, max_order=4)
    la = run_la(h, [2, 2], max_order=6)
    mask = Mask.block_off_diagonal([2, 2])
    swt = run_swt(h.where(mask.keep), h.where(mask.eliminate), [2, 2], max_order=6)
    assert la.method == "la"
    for n in range(1, 7):
        assert set(la.corrections[n].keys()) == set(swt.corrections[n].keys())
        assert (la.corrections[n] - swt.corrections[n]).max_abs() <= 1e-14 * 3.1, n
        assert not np.any(la.corrections[n].term(n, 0)[mask.eliminate])
    exact = exact_block_diagonalize(evaluate_at(h, 1.0), BlockStructure((2, 2)))[1]
    partial = sum(la.corrections[n].term(n, 0) for n in range(7))
    assert spectral_distance(exact, partial) < 1e-8


def _degenerate_cross_block_pair(coupled: bool) -> GradedOperator:
    # levels 1 and 2 are degenerate and sit in different blocks of (2, 2);
    # order 1 couples only (0, 3), order 2 couples (1, 2) when asked
    v1 = np.zeros((4, 4), dtype=complex)
    v1[0, 3] = v1[3, 0] = 0.1
    terms = {(0, 0): np.diag([0.0, 1.0, 1.0, 3.0]), (1, 0): v1}
    if coupled:
        v2 = np.zeros((4, 4), dtype=complex)
        v2[1, 2] = v2[2, 1] = 0.05
        terms[(2, 0)] = v2
    return GradedOperator(4, terms)


def test_la_reports_a_resonant_cross_block_pair_as_fd_and_swt_do():
    # one elimination table judges every routine's denominators
    h = _degenerate_cross_block_pair(coupled=True)
    mask = Mask.block_off_diagonal([2, 2])
    runs = {
        "la": lambda: run_la(h, [2, 2], max_order=3),
        "fd": lambda: run_fd(h, max_order=3),
        "swt": lambda: run_swt(h.where(mask.keep), h.where(mask.eliminate), [2, 2], max_order=3),
    }
    for name, run in runs.items():
        with pytest.raises(ResonantDenominator) as err:
            run()
        got = err.value
        assert (got.i, got.j, got.harmonic, got.order, got.denominator) == (1, 2, 0, 2, 0.0), name


def test_la_solves_when_the_resonant_pair_carries_no_target():
    # the degenerate cross-block pair is never coupled, so its target stays
    # exactly zero and is never divided by
    h = _degenerate_cross_block_pair(coupled=False)
    la = run_la(h, [2, 2], max_order=6)
    swt_mask = Mask.block_off_diagonal([2, 2])
    swt = run_swt(h.where(swt_mask.keep), h.where(swt_mask.eliminate), [2, 2], max_order=6)
    for n in range(1, 7):
        assert (la.corrections[n] - swt.corrections[n]).max_abs() <= 1e-15, n
        assert not la.generator[n].term(n, 0)[[1, 2], [2, 1]].any(), n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    sizes=st.sampled_from([(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2),
                           (1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 1, 2)]),
    coupling=st.floats(1e-3, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_la_equals_reference_recursion_for_three_and_four_blocks(sizes, coupling, seed):
    # the direct recursion against the fd -> epsilon -> (1+eps)^(-1/2) oracle
    # and the rotation of the input by its generator
    h, levels = block_instance(sizes, coupling, seed)
    blocks = BlockStructure(sizes)
    la = run_la(h, blocks, max_order=8)
    ref = compute_la_generator(run_fd(h, max_order=8).generator, blocks, 8, h.dim)
    rotated = rotate_operator(h, ref.S, 8)
    scale = levels.max()
    for n in range(1, 9):
        diff = np.abs(rotated.term(n, 0) - la.corrections[n].term(n, 0)).max()
        assert diff <= 1e-14 * scale, n
        assert (la.generator[n] - ref.S[n]).max_abs() <= 1e-14 * scale, n


def test_three_block_la_accepts_degenerate_levels_inside_a_block():
    # levels 0 and 1 are degenerate and coupled inside block 1: full
    # diagonalization divides by 0 there, least action never does
    rng = np.random.default_rng(6)
    off = 0.02 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    off = off + off.conj().T
    off -= np.diag(np.diag(off))
    h = GradedOperator(6, {(0, 0): np.diag([0.0, 0.0, 2.0, 3.1, 5.0, 6.3]), (1, 0): off})
    blocks = BlockStructure((2, 2, 2))
    with pytest.raises(ResonantDenominator):
        run_fd(h, max_order=4)
    la = run_la(h, blocks, max_order=10)
    cross = ~blocks.in_block()
    for n in range(1, 11):
        assert not np.any(la.corrections[n].term(n, 0)[cross])
        assert la.generator[n].is_anti_hermitian_graded(1e-12)
    exact = exact_block_diagonalize(evaluate_at(h, 1.0), blocks)[1]
    partial = la.corrections[0].term(0, 0).copy()
    etas = []
    for n in range(1, 11):
        partial += la.corrections[n].term(n, 0)
        etas.append(spectral_distance(exact, partial))
    assert etas[1] < 1e-4
    assert etas[-1] < 1e-13
    assert etas[-1] < 1e-8 * etas[1]


@pytest.mark.parametrize("sizes, seed, order, products", [
    ((4, 4, 4), 101, 8, 64),
    ((4, 4, 4), 101, 14, 317),
    ((4, 4, 4), 102, 10, 122),
    ((6, 6), 3, 8, 64),
])
def test_la_product_counts(sizes, seed, order, products):
    # the recursion's three convolutions per order plus the logarithm's powers
    result = run_la(random_bd_hamiltonian(sizes, seed), sizes, order)
    assert result.diagnostics.products == products


def test_an_all_zero_target_solves_to_zeros_on_a_resonant_pair():
    # levels 1 and 2 are degenerate across the blocks of (2, 2): a zero target
    # is never divided by, so the order's V is zero and nothing is raised
    table = EliminationTable(EigenFrame.from_energies(np.array([0.0, 1.0, 1.0, 3.0])),
                             Mask.block_off_diagonal([2, 2]), 1.0, None, DEFAULT_RES_TOL)
    solved = table.solve(3, 0, np.zeros((4, 4), dtype=complex))
    assert solved.shape == (4, 4) and not solved.any()


def _bits(mat):
    return None if mat is None else np.ascontiguousarray(mat).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    # two one-level blocks couple only across, where W cancels (the case below)
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(lambda s: 3 <= sum(s) <= 14),
    dense=st.booleans(),
    order=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_la_recursion_equals_the_pruned_reference_bit_for_bit(sizes, dense, order, seed):
    # judging only the kept matrices changes no bit while no intermediate
    # cancels to round-off: fig3's instances and dense order-1 couplings.
    # The package hands out each correction's hermitian part.
    h = block_instance(sizes, 0.05, seed)[0] if dense else random_bd_hamiltonian(sizes, seed)
    _, corrections, u, products = _la_orders(h, sizes, order)
    _, ref_corrections, ref_u, ref_products = pruned_la_orders(h, sizes, order)
    assert products == ref_products
    hermitian = {n: None if ref is None else (ref + ref.conj().T) / 2
                 for n, ref in ref_corrections.items()}
    assert [_bits(corrections[n]) for n in range(order + 1)] == \
        [_bits(hermitian[n]) for n in range(order + 1)]
    assert {n: _bits(mat) for n, mat in u.items()} == {n: _bits(mat) for n, mat in ref_u.items()}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    # d = 4, 8, 12 and 3, 5, 7, 10, 13
    sizes=st.sampled_from([(2, 2), (1, 2), (2, 3), (3, 3, 2), (2, 2, 3), (4, 4, 4),
                           (2, 2, 2, 2), (1, 2, 3, 4), (3, 4, 4, 2)]),
    order=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_la_results_are_exactly_hermitian(sizes, order, seed):
    # corrections equal their adjoints and generator orders minus theirs, by
    # value; the scan reads the same corrections as run_la
    h = random_bd_hamiltonian(sizes, seed)
    result = run_la(h, sizes, order)
    for n in range(order + 1):
        for mat in result.corrections[n].terms.values():
            assert np.array_equal(mat, mat.conj().T), n
    for n in range(1, order + 1):
        for mat in result.generator[n].terms.values():
            assert np.array_equal(mat, -mat.conj().T), n
    exact = exact_block_diagonalize(evaluate_at(h, 1.0), BlockStructure(sizes))[1]
    assert convergence_scan(h, "la", range(1, order + 1), [1.0], sizes) == \
        [(n, 1.0, spectral_distance(exact, partial_sum_matrix(result, n, 1.0)))
         for n in range(1, order + 1)]


def test_an_overflowing_hermitian_part_raises():
    # a diagonal entry's hermitian part is (E + E) / 2, and E + E overflows
    h = GradedOperator(2, {(0, 0): np.diag([0.0, 1.5e308])})
    with pytest.raises(NonFiniteContent, match="order 0"):
        _la_orders(h, (1, 1), 2)
    with pytest.raises(NonFiniteContent, match="order 0"):
        run_la(h, (1, 1), 2)


def test_la_keeps_a_cancelled_w_within_round_off_of_the_pruned_reference():
    # two blocks coupled only across: the generator holds odd orders only, so
    # W^(n) = -1/2 sum U'^(k)^dag U'^(n-k) cancels at odd n.  The reference
    # prunes it, the package keeps the round-off; both stay within 1e-14.
    sizes, order = (2, 3), 10
    h, levels = block_instance(sizes, 0.08, 4242)
    cross = ~BlockStructure(sizes).in_block()
    h = GradedOperator(5, {(0, 0): h.term(0, 0), (1, 0): np.where(cross, h.term(1, 0), 0.0)})
    _, corrections, u, _ = _la_orders(h, sizes, order)
    _, ref_corrections, ref_u, _ = pruned_la_orders(h, sizes, order)
    w3 = ref_u[1].conj().T @ ref_u[2], ref_u[2].conj().T @ ref_u[1]
    assert np.abs(w3[0] + w3[1]).max() <= 1e-14 * max(np.abs(w3[0]).max(), np.abs(w3[1]).max())
    scale = 1e-14 * levels.max()
    zero = np.zeros((5, 5))
    for n in range(1, order + 1):
        for got, ref in ((corrections[n], ref_corrections[n]), (u.get(n), ref_u.get(n))):
            got, ref = zero if got is None else got, zero if ref is None else ref
            assert np.abs(got - ref).max() <= scale, n


def test_convolution_prunes_against_its_largest_product():
    # a^(1) b^(3) is 1e-20 and a^(2) b^(2) + a^(3) b^(1) cancels to 1e-15 of
    # either: the order-4 key is negligible next to the largest product
    rng = np.random.default_rng(11)
    d = 3
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    delta = 1e-15 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    eye = np.eye(d, dtype=complex)

    def series(mats):
        return {n: GradedSum({(n, 0): m}) for n, m in mats.items()}

    a = series({1: 1e-20 * eye, 2: x, 3: eye})
    b = series({1: -x + delta, 2: eye, 3: eye})
    total, count = _convolve(a, b, 4)
    total.finish()
    assert count == 3
    assert not total.terms
