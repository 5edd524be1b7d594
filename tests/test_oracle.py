import itertools

import numpy as np
import pytest

from pertkit.engine import Mask, run_fd
from pertkit.errors import IllConditionedBlocks, PertError
from pertkit.graded import GradedOperator
from pertkit.least_action import BlockStructure, _la_orders, run_la
from pertkit.models import (
    EDSRParams, TransmonParams, build_edsr, build_transmon_resonator, random_bd_hamiltonian,
)
from pertkit import oracle
from pertkit.oracle import (
    SWAP_GAIN_FLOOR,
    convergence_scan,
    evaluate_at,
    exact_block_diagonalize,
    ordered_eigensystem,
    partial_sum_matrix,
    spectral_distance,
    _block_diagonalize,
    _certified_optimal,
    _inverse_sqrt_psd,
    _swap_ascent,
)

RNG = np.random.default_rng(63)


def random_hermitian(d, rng=RNG):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# evaluate_at
# ---------------------------------------------------------------------------


def test_evaluate_lambda_zero_keeps_order0():
    h0 = np.diag([1.0, 2.0])
    g = GradedOperator(2, {(0, 0): h0, (1, 0): random_hermitian(2)})
    np.testing.assert_allclose(evaluate_at(g, 0.0), h0)


def test_evaluate_lambda_one_static_sums_orders():
    a, b = random_hermitian(3), random_hermitian(3)
    g = GradedOperator(3, {(0, 0): a, (2, 0): b})
    np.testing.assert_allclose(evaluate_at(g, 1.0), a + b)


def test_evaluate_hermitian_graded_gives_hermitian_matrix():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = GradedOperator(
        3,
        {(0, 0): random_hermitian(3, rng), (1, 1): m, (1, -1): m.conj().T},
        omega_d=0.9,
    )
    out = evaluate_at(g, 0.7, t=1.3)
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_evaluate_requires_time_for_harmonics():
    g = GradedOperator(2, {(1, 1): np.eye(2)}, omega_d=1.0)
    with pytest.raises(ValueError, match="time"):
        evaluate_at(g, 1.0)


@pytest.mark.parametrize("lam, t", [(np.inf, None), (np.nan, None), (1.0, np.nan),
                                    (1.0, -np.inf)])
def test_evaluate_requires_finite_lambda_and_time(lam, t):
    # t is checked even where no harmonic reads it
    g = GradedOperator(2, {(0, 0): np.diag([0.0, 1.0]), (1, 0): np.eye(2)})
    with pytest.raises(PertError, match="finite"):
        evaluate_at(g, lam, t=t)


@pytest.mark.parametrize("lam", [1e160, -1e160, 1e150])
def test_evaluate_overflow_is_a_precondition_error(lam):
    # 1e160 ** 2 overflows a Python float (it used to raise OverflowError);
    # 1e150 ** 2 times 1e10 overflows numpy's product, which only warned
    g = GradedOperator(2, {(0, 0): np.diag([0.0, 1.0]), (2, 0): 1e10 * np.eye(2)})
    with pytest.raises(PertError, match="overflow"):
        evaluate_at(g, lam)


# ---------------------------------------------------------------------------
# exact_block_diagonalize
# ---------------------------------------------------------------------------


def test_block_diagonal_input_is_fixed_point():
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = random_hermitian(2)
    h[2:, 2:] = random_hermitian(2) + 5 * np.eye(2)
    u_dagger, h_block = exact_block_diagonalize(h, [2, 2])
    np.testing.assert_allclose(u_dagger, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(h_block, h, atol=1e-10)


def test_unit_blocks_reproduce_eigenvalues():
    h = random_hermitian(4) + np.diag([0.0, 3.0, 6.0, 9.0])
    _, h_block = exact_block_diagonalize(h, [1, 1, 1, 1])
    off = h_block - np.diag(np.diag(h_block))
    assert np.abs(off).max() < 1e-10
    np.testing.assert_allclose(
        np.sort(np.diag(h_block).real), np.linalg.eigvalsh(h), atol=1e-10
    )


def test_two_level_closed_form():
    g = 0.1
    h = np.array([[0.0, g], [g, 1.0]])
    _, h_block = exact_block_diagonalize(h, [1, 1])
    root = np.sqrt(1 + 4 * g ** 2)
    np.testing.assert_allclose(
        np.diag(h_block).real, [(1 - root) / 2, (1 + root) / 2], atol=1e-12
    )
    assert abs(h_block[0, 0] - (-0.009901951359278449)) < 1e-12


def test_unitarity_and_block_structure_random():
    rng = np.random.default_rng(8)
    for _ in range(5):
        h = np.diag(np.sort(rng.uniform(0, 6, size=6))) + 0.1 * random_hermitian(6, rng)
        blocks = BlockStructure((2, 3, 1))
        u_dagger, h_block = exact_block_diagonalize(h, blocks)
        u = u_dagger.conj().T
        assert np.abs(u @ u_dagger - np.eye(6)).max() < 1e-10
        cross = ~blocks.in_block()
        assert np.abs(h_block[cross]).max() < 1e-10 * np.abs(h_block).max()


def _transmon_d64():
    p = TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05, n_t_max=8, n_r_max=8)
    return evaluate_at(build_transmon_resonator(p), 1.0), [8] * 8


def _edsr_d40():
    p = EDSRParams(omega=1.0, omega_z=0.6, omega_d=0.45, b_sl=0.02, e0=0.015, n_max=20)
    h_b, v, drive = build_edsr(p)
    return evaluate_at(h_b + v + drive, 1.0, 0.3), [20, 20]


@pytest.mark.parametrize("model", [_transmon_d64, _edsr_d40], ids=["transmon-d64", "edsr-d40"])
def test_block_diagonal_to_round_off_of_the_spectral_norm(model):
    # the cross-block entries of U H U^dag are not zeroed: each is round-off,
    # below 1e-15 of ||H||_2 on both models (1e-14 pinned)
    h, sizes = model()
    _, h_block = exact_block_diagonalize(h, sizes)
    cross = ~BlockStructure(tuple(sizes)).in_block()
    assert np.abs(h_block[cross]).max() <= 1e-14 * np.linalg.norm(h, 2)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        exact_block_diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]), [1, 1])


@pytest.mark.parametrize("mat", [
    1e-20 * np.array([[0.0, 1.0], [2.0, 0.0]]),
    np.array([[0.0, np.nan], [np.nan, 1.0]]),
    np.array([[0.0, np.inf], [np.inf, 1.0]]),
    np.ones((2, 3)),
], ids=["tiny-non-hermitian", "nan", "inf", "non-square"])
def test_rejects_non_hermitian_or_non_finite_at_any_scale(mat):
    # hermiticity is judged against the largest entry, with no absolute
    # floor: eigh would silently read one triangle of the tiny matrix, and a
    # NaN matrix used to come back as a NaN result
    with pytest.raises(ValueError):
        exact_block_diagonalize(mat, [1, 1])


def test_hermitian_verdict_ignores_a_shift_of_h():
    # judged against max|H - c 1| (c the mean diagonal): a skew of 1e-10 on
    # couplings of 0.1 is rejected at any shift and scale; judged against
    # max|H| it passed at a shift of 1e3, and eigh read one triangle
    skew = np.array([[0.0, 0.1], [0.1 + 1e-10, 1.0]])
    for mat in (skew, skew + 1e3 * np.eye(2), 1e-6 * skew):
        with pytest.raises(ValueError, match="Hermitian"):
            exact_block_diagonalize(mat, [1, 1])
    hermitian = np.array([[0.0, 0.1 + 0.2j], [0.1 - 0.2j, 1.0]]) + 1e8 * np.eye(2)
    exact_block_diagonalize(hermitian, [1, 1])
    ordered_eigensystem(hermitian)


def test_inverse_sqrt_guards_conditioning():
    nearly_singular = np.diag([1.0, 1e-12])
    with pytest.raises(IllConditionedBlocks):
        _inverse_sqrt_psd(nearly_singular)


def test_inverse_sqrt_value():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    inv_sqrt = _inverse_sqrt_psd(m)
    np.testing.assert_allclose(inv_sqrt @ m @ inv_sqrt, np.eye(2), atol=1e-12)


def degenerate_two_sectors(rng):
    """d = 16, levels 2k and 2k + 1 in two sectors that carry one 8-level H.

    Every level is exactly degenerate with its partner in the other sector.
    """
    h8 = np.diag(np.arange(8.0) + rng.uniform(-0.2, 0.2, size=8)) + 0.02 * random_hermitian(8, rng)
    return np.kron(h8, np.eye(2))


def test_sectors_are_solved_apart_on_levels_degenerate_across_them():
    # blocks (3, 4, 4, 5) split the degenerate pairs (2, 3), (6, 7) and
    # (10, 11); the whole-matrix eigensystem mixes the two sectors there
    # (||U - 1||_2 from 0.047 to 0.40 on these ten), each sector alone does
    # not (at most 0.054)
    rng = np.random.default_rng(1616)
    blocks = BlockStructure((3, 4, 4, 5))
    parity = np.arange(16) % 2
    between = parity[:, None] != parity[None, :]
    for _ in range(10):
        h = degenerate_two_sectors(rng)
        u_dagger, h_block = exact_block_diagonalize(h, blocks)
        assert not u_dagger[between].any() and not h_block[between].any()
        assert np.linalg.norm(u_dagger - np.eye(16), 2) < 0.1
        assert np.abs(u_dagger.conj().T @ u_dagger - np.eye(16)).max() < 1e-12
        assert np.abs(h_block[~blocks.in_block()]).max() < 1e-14 * np.linalg.norm(h, 2)
        np.testing.assert_allclose(np.linalg.eigvalsh(h_block), np.linalg.eigvalsh(h), atol=1e-12)


def test_parity_sectors_of_the_transmon_match_the_whole_matrix_solve():
    # in-sector entries agree with the eigensystem of the whole matrix to
    # round-off; between the parity sectors they are exactly 0
    p = TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05, n_t_max=4, n_r_max=4)
    h = evaluate_at(build_transmon_resonator(p), 1.0)
    blocks = BlockStructure((4,) * 4)
    parity = (np.arange(4)[:, None] + np.arange(4)[None, :]).ravel() % 2
    within = parity[:, None] == parity[None, :]
    assert oracle._sectors(h)[0].tolist() == np.flatnonzero(parity == 0).tolist()
    u_dagger, h_block = exact_block_diagonalize(h, blocks)
    whole_u, whole_h = _block_diagonalize(h, blocks.in_block(), blocks.sizes)
    norm = np.linalg.norm(h, 2)
    assert np.abs(u_dagger - whole_u)[within].max() < 1e-12
    assert np.abs(h_block - whole_h)[within].max() < 1e-12 * norm
    assert not u_dagger[~within].any() and not h_block[~within].any()


def dfs_sectors(mat):
    """Sectors by a depth-first search over neighbour lists: the reference."""
    d = mat.shape[0]
    linked = mat != 0
    linked |= linked.T
    neighbours = [[] for _ in range(d)]
    for i, j in zip(*(index.tolist() for index in np.nonzero(linked))):
        neighbours[i].append(j)
    sector = [-1] * d
    count = 0
    for start in range(d):
        if sector[start] < 0:
            sector[start] = count
            stack = [start]
            while stack:
                for j in neighbours[stack.pop()]:
                    if sector[j] < 0:
                        sector[j] = count
                        stack.append(j)
            count += 1
    label = np.array(sector)
    return [np.flatnonzero(label == s).tolist() for s in range(count)]


def test_sectors_equal_the_depth_first_search():
    # symmetric, one-sided and permuted patterns, each with some levels cut
    # off from all others; sectors come in the order of their lowest level
    rng = np.random.default_rng(2026)
    kinds = set()
    for trial in range(2400):
        d = int(rng.integers(1, 30))
        pattern = rng.random((d, d)) < rng.uniform(0.0, 0.3)
        kind = trial % 4
        if kind == 0:
            pattern |= pattern.T
        elif kind == 1:
            pattern = np.triu(pattern, 1) if trial % 8 == 1 else np.tril(pattern, -1)
        elif kind == 2:
            # a chain of blocks, relabelled by a random permutation
            cuts = np.sort(rng.choice(np.arange(1, d + 1), min(d, 3), replace=False))
            block = np.searchsorted(cuts, np.arange(d), side="right")
            pattern = (block[:, None] == block[None, :]) & (np.abs(np.subtract.outer(
                np.arange(d), np.arange(d))) == 1)
            perm = rng.permutation(d)
            pattern = pattern[np.ix_(perm, perm)]
        isolated = rng.random(d) < 0.2
        pattern[isolated, :] = pattern[:, isolated] = False
        kinds.add((kind, bool(isolated.any())))
        mat = np.where(pattern, rng.normal(size=(d, d)) + 1j, 0.0)
        mat[np.diag_indices(d)] = rng.normal(size=d) * (rng.random(d) < 0.5)
        assert [s.tolist() for s in oracle._sectors(mat)] == dfs_sectors(mat), (trial, d)
    assert len(kinds) == 8


def test_a_two_sector_solve_builds_no_mask_per_sector(monkeypatch):
    # each sector reads its cell of the caller's one block mask
    p = TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05, n_t_max=4, n_r_max=4)
    h = evaluate_at(build_transmon_resonator(p), 1.0)
    blocks = BlockStructure((4,) * 4)
    assert len(oracle._sectors(h)) == 2
    built = []
    init = Mask.__init__
    monkeypatch.setattr(Mask, "__init__", lambda self, eliminate: built.append(init(self, eliminate)))
    exact_block_diagonalize(h, blocks)
    assert built == []


def test_a_diagonal_matrix_is_its_own_one_level_sectors():
    h = np.diag([0.5, -1.0, 2.0, 0.0])
    u_dagger, h_block = exact_block_diagonalize(h, [1, 3])
    np.testing.assert_array_equal(u_dagger, np.eye(4))
    np.testing.assert_array_equal(h_block, h)


def test_one_ill_conditioned_sector_is_enough_to_raise(monkeypatch):
    # sectors {0, 2} (weakly coupled across the blocks) and {1, 3} (strongly
    # mixed): with the floor raised between their smallest B(X^dag) B(X)
    # eigenvalues, the mixed sector alone fails and so does the whole problem
    h = np.zeros((4, 4))
    h[[0, 1, 2, 3], [0, 1, 2, 3]] = [0.0, 1.0, 1.0, 1.2]
    h[0, 2] = h[2, 0] = 0.01
    h[1, 3] = h[3, 1] = 1.0
    exact_block_diagonalize(h, [2, 2])
    monkeypatch.setattr(oracle, "CONDITION_FLOOR", 0.9)
    exact_block_diagonalize(h[np.ix_([0, 2], [0, 2])], [1, 1])
    with pytest.raises(IllConditionedBlocks):
        exact_block_diagonalize(h[np.ix_([1, 3], [1, 3])], [1, 1])
    with pytest.raises(IllConditionedBlocks):
        exact_block_diagonalize(h, [2, 2])


def test_eigen_ordering_is_shift_invariant():
    rng = np.random.default_rng(99)
    h = np.diag([0.0, 1.0, 2.0, 3.5]) + 0.2 * random_hermitian(4, rng)
    base = ordered_eigensystem(h)
    shifted = ordered_eigensystem(h + 7.3 * np.eye(4))
    np.testing.assert_allclose(base.X, shifted.X, atol=1e-10)
    np.testing.assert_allclose(
        base.eigenvalues + 7.3, shifted.eigenvalues, atol=1e-10
    )


def test_least_action_unitary_is_closest_to_identity():
    # the oracle U must beat (i) the exact SWT-style block-off-diagonal
    # generator unitary, up to its series truncation error, and (ii) any
    # block-local redressing of itself, strictly
    from pertkit.engine import run_swt

    rng = np.random.default_rng(1234)
    for _ in range(5):
        blocks = BlockStructure((2, 2))
        diag = np.diag(np.sort(rng.uniform(0, 4, size=4)) + 0.3 * np.arange(4))
        v_mat = 0.05 * random_hermitian(4, rng)
        v_mat = np.where(blocks.in_block(), 0.0, v_mat)
        h_mat = diag + v_mat
        u_dagger, _ = exact_block_diagonalize(h_mat, blocks)
        u_oracle = u_dagger.conj().T
        dist_oracle = np.linalg.norm(u_oracle - np.eye(4))

        h_op = GradedOperator(4, {(0, 0): diag})
        v_op = GradedOperator(4, {(1, 0): v_mat})
        swt = run_swt(h_op, v_op, blocks.sizes, max_order=8)
        s_total = sum(swt.generator[n].term(n, 0) for n in range(1, 9))
        w, vecs = np.linalg.eigh(-1j * (-s_total))
        u_swt = (vecs * np.exp(1j * w)) @ vecs.conj().T
        dist_swt = np.linalg.norm(u_swt - np.eye(4))
        assert dist_oracle <= dist_swt + 1e-9
        # two-block case: both conditions single out the same unitary
        assert abs(dist_oracle - dist_swt) < 1e-9

        for _ in range(3):
            gen = 0.3 * random_hermitian(2, rng)
            w2, v2 = np.linalg.eigh(gen)
            local = (v2 * np.exp(1j * w2)) @ v2.conj().T
            redress = np.eye(4, dtype=complex)
            redress[:2, :2] = local
            assert dist_oracle < np.linalg.norm(redress @ u_oracle - np.eye(4))


def _block_objective(vecs, labels, assign):
    """sum_b ||X_bb||_* with eigenvector e (column e of vecs) placed in block assign[e]."""
    return sum(np.linalg.svd(vecs[np.ix_(labels == b, assign == b)], compute_uv=False).sum()
               for b in range(labels.max() + 1))


def test_assignment_is_the_least_action_one_against_brute_force():
    # every assignment of eigenvectors to blocks, d <= 7: the oracle's must be
    # the global maximum of sum_b ||X_bb||_* whenever the certificate
    # L + s1 + s2 < 2 holds, never below greedy, and no cross-block swap may
    # raise it; couplings up to 3x the spacing make the certificate fail
    rng = np.random.default_rng(2024)
    certified = uncertified = climbed = 0
    for _ in range(120):
        d = int(rng.integers(3, 8))
        cuts = np.sort(rng.choice(np.arange(1, d), int(rng.integers(1, min(4, d))), replace=False))
        sizes = tuple(int(n) for n in np.diff(np.r_[0, cuts, d]))
        coupling = float(np.exp(rng.uniform(np.log(0.03), np.log(3.0))))
        h = np.diag(np.sort(rng.uniform(0, d, size=d))) + coupling * random_hermitian(d, rng)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        _, vecs = np.linalg.eigh(h)

        greedy = labels[np.abs(ordered_eigensystem(h).X @ vecs).argmax(axis=0)]
        loss = 1 - np.array([np.sum(np.abs(vecs[labels == greedy[e], e]) ** 2) for e in range(d)])
        tops = np.sort(np.sqrt(np.clip(loss, 0, None)))[-2:]

        u = exact_block_diagonalize(h, sizes)[0].conj().T
        chosen = np.array([np.linalg.norm(u[labels == b] @ vecs, axis=0) ** 2
                           for b in range(len(sizes))]).argmax(axis=0)
        value = _block_objective(vecs, labels, chosen)
        assert abs(np.trace(u).real - value) < 1e-9
        assert value >= _block_objective(vecs, labels, greedy) - 1e-9
        for i in range(d):
            for j in range(i + 1, d):
                swapped = chosen.copy()
                swapped[[i, j]] = chosen[[j, i]]
                assert _block_objective(vecs, labels, swapped) <= value + 1e-9
        if loss.sum() + tops.sum() < 2:
            certified += 1
            best = max(_block_objective(vecs, labels, np.array(a))
                       for a in set(itertools.permutations(labels)))
            assert value >= best - 1e-9
        else:
            uncertified += 1
            climbed += value > _block_objective(vecs, labels, greedy) + 1e-9
    assert certified > 30 and uncertified > 30 and climbed > 3, (certified, uncertified, climbed)


def swap_ascent_loop(x, blocks):
    """The ascent as a double loop with two SVDs per trial swap: the reference."""
    def nuclear_norm(mat):
        return float(np.linalg.svd(mat, compute_uv=False).sum())

    x = x.copy()
    ends = np.cumsum(blocks.sizes)
    spans = [slice(end - size, end) for size, end in zip(blocks.sizes, ends)]
    label = np.repeat(np.arange(len(spans)), blocks.sizes)
    norms = [nuclear_norm(x[s, s]) for s in spans]
    improved = True
    while improved:
        improved = False
        for i in range(x.shape[0]):
            a = label[i]
            for j in range(ends[a], x.shape[0]):
                b = label[j]
                x[[i, j]] = x[[j, i]]
                trial = [nuclear_norm(x[spans[c], spans[c]]) for c in (a, b)]
                if sum(trial) > norms[a] + norms[b] + SWAP_GAIN_FLOOR:
                    norms[a], norms[b] = trial
                    improved = True
                else:
                    x[[i, j]] = x[[j, i]]
    return x


def uncertified_frames():
    """(X, blocks) pairs whose greedy assignment the certificate does not prove optimal."""
    for g in (0.5, 1.5):
        p = TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=g)
        with pytest.warns(UserWarning):  # the coupling is far from dispersive
            h = build_transmon_resonator(p)
        yield ordered_eigensystem(evaluate_at(h, 1.0)).X, BlockStructure((p.n_r_max,) * p.n_t_max)
    rng = np.random.default_rng(99)
    while True:
        d = int(rng.integers(4, 13))
        cuts = np.sort(rng.choice(np.arange(1, d), int(rng.integers(1, min(5, d))), replace=False))
        blocks = BlockStructure(tuple(int(n) for n in np.diff(np.r_[0, cuts, d])))
        h = np.diag(np.sort(rng.uniform(0, d, size=d))) + rng.uniform(0.5, 3.0) * random_hermitian(d, rng)
        x = ordered_eigensystem(h).X
        if not _certified_optimal(x, blocks.in_block()):
            yield x, blocks


def test_swap_ascent_takes_the_swaps_of_the_loop():
    # batching a row's candidate swaps per partner block scores each trial
    # with the same SVD and keeps the first improving swap, so the final
    # assignment is the loop's, bit for bit
    frames = uncertified_frames()
    moved = 0
    for _ in range(42):
        x, blocks = next(frames)
        want = swap_ascent_loop(x, blocks)
        np.testing.assert_array_equal(_swap_ascent(x, blocks.sizes), want)
        moved += not np.array_equal(want, x)
    assert moved >= 15, moved


# ---------------------------------------------------------------------------
# spectral distance and scans
# ---------------------------------------------------------------------------


def test_spectral_distance_identical():
    a = random_hermitian(3)
    assert spectral_distance(a, a) == 0.0


def test_spectral_distance_against_zero():
    assert spectral_distance(np.diag([3.0, -4.0]), np.zeros((2, 2))) == 1.0


def test_spectral_distance_simple_value():
    assert abs(spectral_distance(np.diag([2.0, 0.0]), np.diag([2.0, 0.5])) - 0.25) < 1e-15


def test_spectral_distance_zero_reference_rejected():
    with pytest.raises(ValueError, match="zero"):
        spectral_distance(np.zeros((2, 2)), np.eye(2))


def scan_instance():
    rng = np.random.default_rng(404)
    d = 4
    blocks = BlockStructure((2, 2))
    diag = np.diag([0.0, 1.0, 2.6, 3.9])
    coupling = 0.08 * random_hermitian(d, rng)
    coupling -= np.diag(np.diag(coupling))
    h = GradedOperator(d, {(0, 0): diag, (1, 0): coupling})
    return h, blocks


def two_sector_scan_instance():
    """Levels {0, 2} and {1, 3}, coupled across the blocks (2, 2) only within each."""
    rng = np.random.default_rng(405)
    coupling = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 2), (1, 3)):
        coupling[i, j] = 0.1 * (rng.normal() + 1j * rng.normal())
        coupling[j, i] = np.conj(coupling[i, j])
    h = GradedOperator(4, {(0, 0): np.diag([0.0, 1.0, 2.6, 3.9]), (1, 0): coupling})
    return h, BlockStructure((2, 2))


def test_scan_eta_decreases_with_lambda():
    h, blocks = scan_instance()
    rows = convergence_scan(h, "la", orders=[3], lambdas=[1.0, 0.5, 0.25, 0.125], blocks=blocks)
    etas = [eta for _, _, eta in rows]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_scan_eta_nonincreasing_with_order():
    h, blocks = scan_instance()
    rows = convergence_scan(h, "la", orders=[1, 2, 3, 4, 5], lambdas=[0.5], blocks=blocks)
    etas = [eta for _, _, eta in rows]
    assert all(a >= b - 1e-15 for a, b in zip(etas, etas[1:]))


def test_scan_lambda_halving_ratio():
    h, blocks = scan_instance()
    for n in (2, 3):
        rows = convergence_scan(h, "la", orders=[n], lambdas=[0.4, 0.2], blocks=blocks)
        ratio = rows[0][2] / rows[1][2]
        assert 0.7 * 2 ** (n + 1) < ratio < 1.4 * 2 ** (n + 1), (n, ratio)


def test_scan_fd_mode_uses_diagonal_oracle():
    h, _ = scan_instance()
    rows = convergence_scan(h, "fd", orders=[2, 4], lambdas=[0.5])
    assert rows[0][2] > rows[1][2]
    assert rows[1][2] < 1e-6


@pytest.mark.parametrize("method", ["la", "fd"])
def test_scan_rows_equal_the_spectral_distance_of_each_partial_sum(method):
    # the running partial sum and the batched norm give the bits of
    # spectral_distance on partial_sum_matrix, at lambda != 1 too
    # on one matrix of one sector and one that the oracle solves per sector;
    # the fd scan is the la scan on unit blocks
    orders, lambdas = [0, 1, 3, 4, 6], [1.0, 0.5, 0.3, 0.25]
    for h, blocks in (scan_instance(), two_sector_scan_instance()):
        oracle_blocks = blocks if method == "la" else (1,) * h.dim
        result = run_la(h, oracle_blocks, 6)
        want = []
        for lam in lambdas:
            _, h_exact = exact_block_diagonalize(evaluate_at(h, lam), oracle_blocks)
            want += [(n, lam, spectral_distance(h_exact, partial_sum_matrix(result, n, lam)))
                     for n in orders]
        assert convergence_scan(h, method, orders, lambdas, blocks) == want


@pytest.mark.parametrize("field", ["real", "complex"])
def test_unit_block_la_corrections_equal_the_fd_corrections(field):
    # what lets the fd scan read la's corrections in place of run_fd's
    h = random_bd_hamiltonian((4, 4, 4), 5)
    if field == "real":
        h = GradedOperator(h.dim, {key: mat.real for key, mat in h.items()})
    la = _la_orders(h, BlockStructure((1,) * h.dim), 14)[1]
    fd = run_fd(h, 14).corrections
    assert sorted(la) == sorted(fd) == list(range(15))
    for n, corr in fd.items():
        assert (la[n] is None) == corr.is_zero, n
        if la[n] is not None:
            want = corr.term(n, 0)
            assert np.abs(la[n] - want).max() <= 1e-14 * np.abs(want).max(), n


def test_scan_whose_partial_sums_overflow_is_a_precondition_error():
    # lambda ** 8 = 1e320 used to raise OverflowError from the partial sums
    h, _ = scan_instance()
    with pytest.raises(PertError, match="overflow"):
        convergence_scan(h, "fd", [2, 8], [1e40])


def test_partial_sum_beyond_the_solved_order_is_rejected():
    # it used to return the sum through the solved order without a word
    h, _ = scan_instance()
    result = run_fd(h, 4)
    np.testing.assert_array_equal(partial_sum_matrix(result, 4, 0.5),
                                  evaluate_at(result.effective_hamiltonian(), 0.5))
    with pytest.raises(ValueError, match="exceeds solved order"):
        partial_sum_matrix(result, 5, 0.5)


@pytest.mark.parametrize("order", [-1, -5])
def test_partial_sum_below_order_zero_is_rejected(order):
    # a negative order names no partial sum
    h, _ = scan_instance()
    with pytest.raises(ValueError, match="must be >= 0"):
        partial_sum_matrix(run_fd(h, 4), order, 0.5)


def driven_fd_result():
    drive = 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    h = GradedOperator(2, {(0, 0): np.diag([0.0, 1.0]), (1, 1): drive, (1, -1): drive},
                       omega_d=0.3)
    return run_fd(h, 1)


def vanishing_at_one():
    """H(lambda) = (1 - lambda) diag(1, 2), the zero matrix at lambda = 1."""
    return GradedOperator(2, {(0, 0): np.diag([1.0, 2.0]), (1, 0): -np.diag([1.0, 2.0])})


@pytest.mark.parametrize("call, match", [
    (lambda: spectral_distance(np.eye(2), np.eye(3)), "shape mismatch"),
    (lambda: partial_sum_matrix(driven_fd_result(), 1, 0.5), "static results only"),
    (lambda: convergence_scan(scan_instance()[0], "la", [1], [0.5]), "block structure"),
    (lambda: convergence_scan(scan_instance()[0], "swt", [1], [0.5]), "unknown scan method"),
    (lambda: convergence_scan(vanishing_at_one(), "fd", [1], [1.0]), "zero spectral norm"),
], ids=["shape-mismatch", "driven-partial-sum", "la-scan-without-blocks",
        "unknown-scan-method", "scan-zero-reference"])
def test_oracle_rejects_unusable_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_scan_reads_blocks_given_as_a_list():
    h, blocks = scan_instance()
    assert (convergence_scan(h, "la", [1, 3], [0.5], list(blocks.sizes))
            == convergence_scan(h, "la", [1, 3], [0.5], blocks))


@pytest.mark.parametrize("orders", [[], [-1, 2]])
def test_scan_rejects_missing_or_negative_orders(orders):
    h, blocks = scan_instance()
    with pytest.raises(ValueError, match="orders"):
        convergence_scan(h, "la", orders, [0.5], blocks)
