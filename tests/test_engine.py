import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertkit.engine import (
    EigenFrame,
    Mask,
    rotate_operator,
    run_ace,
    run_fd,
    run_swt,
    solve_generator_order,
)
from pertkit.errors import DegenerateSpectrum, PertError, ResonantDenominator
from pertkit.graded import GradedOperator, commutator, identity_operator, zero_operator
from pertkit.io import result_document
from pertkit.least_action import run_la
from pertkit.models import random_bd_hamiltonian


def sigma_x():
    return np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def expm_antihermitian(a):
    """exp(a) for anti-Hermitian a via the Hermitian eigenproblem of -i*a."""
    herm = -1j * a
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(1j * w)) @ v.conj().T


def collapse(g, lam, t=0.0):
    total = np.zeros((g.dim, g.dim), dtype=complex)
    for (j, k), mat in g.items():
        phase = np.exp(1j * k * (g.omega_d or 0.0) * t) if k else 1.0
        total = total + (lam ** j) * phase * mat
    return total


# ---------------------------------------------------------------------------
# solve_generator_order
# ---------------------------------------------------------------------------


def test_solve_two_level_static():
    frame = EigenFrame.from_energies(np.array([0.0, 1.0]))
    mask = Mask.full_off_diagonal(2)
    target = GradedOperator(2, {(1, 0): 0.1 * sigma_x()})
    s = solve_generator_order(target, frame, mask, hbar=1.0)
    np.testing.assert_allclose(s.term(1, 0), np.array([[0, 0.1], [-0.1, 0]]), atol=1e-15)
    assert s.is_anti_hermitian_graded()


def test_solve_zero_target_gives_zero():
    frame = EigenFrame.from_energies(np.array([0.0, 1.0, 2.0]))
    mask = Mask.full_off_diagonal(3)
    s = solve_generator_order(zero_operator(3), frame, mask)
    assert s.is_zero


def test_solve_exact_drive_resonance_raises():
    frame = EigenFrame.from_energies(np.array([0.0, 1.0]))
    mask = Mask.from_pairs(2, [(0, 1)])
    target = GradedOperator(2, {(1, 1): 0.05 * sigma_x()}, omega_d=1.0)
    with pytest.raises(ResonantDenominator) as err:
        solve_generator_order(target, frame, mask, hbar=1.0, omega_d=1.0)
    assert err.value.harmonic == 1


def test_solve_degenerate_masked_zero_target_is_fine():
    # degenerate pair is masked but carries no coupling: S entry stays 0
    frame = EigenFrame.from_energies(np.array([0.0, 0.0, 1.0]))
    mask = Mask.full_off_diagonal(3)
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 2] = mat[2, 0] = 0.1
    target = GradedOperator(3, {(1, 0): mat})
    s = solve_generator_order(target, frame, mask)
    assert s.term(1, 0)[0, 1] == 0
    assert abs(s.term(1, 0)[0, 2] - 0.1) < 1e-15


# ---------------------------------------------------------------------------
# run_swt
# ---------------------------------------------------------------------------


def two_level_inputs(delta=1.0, g=0.1):
    h = GradedOperator(2, {(0, 0): np.diag([0.0, delta])})
    v = GradedOperator(2, {(1, 0): g * sigma_x()})
    return h, v


def test_swt_two_level_second_order():
    h, v = two_level_inputs()
    result = run_swt(h, v, [1, 1], max_order=2)
    np.testing.assert_allclose(
        result.corrections[2].term(2, 0), np.diag([-0.01, 0.01]), atol=1e-14
    )


def test_swt_two_level_matches_exact_eigenvalues_order_by_order():
    delta, g = 1.0, 0.1
    h, v = two_level_inputs(delta, g)
    result = run_swt(h, v, [1, 1], max_order=6)
    # exact eigenvalues (Delta -+ sqrt(Delta^2 + 4 g^2)) / 2, expanded in g
    summed = np.zeros(2)
    series = {
        0: np.array([0.0, delta]),
        2: np.array([-(g ** 2) / delta, g ** 2 / delta]),
        4: np.array([g ** 4 / delta ** 3, -(g ** 4) / delta ** 3]),
        6: np.array([-2 * g ** 6 / delta ** 5, 2 * g ** 6 / delta ** 5]),
    }
    for n in range(0, 7):
        corr = result.corrections.get(n)
        got = np.diag(corr.term(n, 0)).real if corr is not None else np.zeros(2)
        expected = series.get(n, np.zeros(2))
        np.testing.assert_allclose(got, expected, atol=1e-12)
        summed += got
    root = np.sqrt(delta ** 2 + 4 * g ** 2)
    exact = np.array([(delta - root) / 2, (delta + root) / 2])
    assert np.abs(summed - exact).max() < 10 * g ** 8 / delta ** 7


def test_swt_zero_perturbation():
    h, _ = two_level_inputs()
    result = run_swt(h, zero_operator(2), [1, 1], max_order=4)
    for n in range(1, 5):
        assert result.corrections[n].is_zero
        assert result.generator[n].is_zero


def test_swt_rejects_off_block_h():
    h = GradedOperator(2, {(0, 0): np.diag([0.0, 1.0]), (1, 0): sigma_x()})
    with pytest.raises(PertError, match="blocks"):
        run_swt(h, zero_operator(2), [1, 1], max_order=2)


def test_swt_retains_in_block_v_content():
    h = GradedOperator(2, {(0, 0): np.diag([0.0, 1.0])})
    v = GradedOperator(2, {(1, 0): np.diag([0.3, -0.2]) + 0.1 * sigma_x()})
    result = run_swt(h, v, [1, 1], max_order=1)
    np.testing.assert_allclose(
        result.corrections[1].term(1, 0), np.diag([0.3, -0.2]), atol=1e-15
    )


# ---------------------------------------------------------------------------
# run_fd
# ---------------------------------------------------------------------------


def test_fd_already_diagonal_is_identity_transformation():
    h = GradedOperator(3, {(0, 0): np.diag([0.0, 1.0, 2.5]), (1, 0): np.diag([0.1, -0.3, 0.2])})
    result = run_fd(h, max_order=3)
    assert result.generator[1].is_zero
    np.testing.assert_allclose(result.corrections[1].term(1, 0), np.diag([0.1, -0.3, 0.2]))
    assert result.corrections[2].is_zero


def test_fd_matches_dense_eigensolver_to_fifth_order():
    rng = np.random.default_rng(11)
    d = 3
    scale = 1e-2
    coupling = random_hermitian(d, rng)
    coupling -= np.diag(np.diag(coupling))
    h0 = np.diag([0.0, 1.1, 2.3])
    h = GradedOperator(d, {(0, 0): h0, (1, 0): scale * coupling})
    result = run_fd(h, max_order=4)

    def residual(lam):
        pert = sum(
            (lam ** n) * np.diag(result.corrections[n].term(n, 0)).real
            for n in range(0, 5)
            if n in result.corrections
        )
        exact = np.sort(np.linalg.eigvalsh(h0 + lam * scale * coupling))
        return np.abs(np.sort(pert) - exact).max()

    r1, r2 = residual(1.0), residual(0.5)
    assert r1 < 1e-8  # residual is O(coupling^5) ~ 1e-10 with margin
    ratio = r1 / r2
    assert 0.6 * 2 ** 5 < ratio < 1.6 * 2 ** 5


def test_fd_degenerate_coupled_levels_raise():
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 1] = mat[1, 0] = 0.1
    h = GradedOperator(3, {(0, 0): np.diag([0.5, 0.5, 2.0]), (1, 0): mat})
    with pytest.raises(DegenerateSpectrum) as err:
        run_fd(h, max_order=2)
    assert {err.value.i, err.value.j} == {0, 1}


def test_fd_degenerate_uncoupled_levels_pass():
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 2] = mat[2, 0] = 0.1
    h = GradedOperator(3, {(0, 0): np.diag([0.5, 0.5, 2.0]), (1, 0): mat})
    result = run_fd(h, max_order=2)
    assert result.corrections[2].term(2, 0)[0, 0] != 0


# ---------------------------------------------------------------------------
# run_ace
# ---------------------------------------------------------------------------


def test_ace_empty_mask_is_identity_transformation():
    rng = np.random.default_rng(5)
    off = random_hermitian(4, rng)
    off -= np.diag(np.diag(off))
    h = GradedOperator(4, {(0, 0): np.diag([0.0, 1.0, 2.2, 3.1]), (1, 0): off})
    result = run_ace(h, Mask(np.zeros((4, 4), dtype=bool)), max_order=3)
    for n in range(1, 4):
        assert result.generator[n].is_zero
    np.testing.assert_allclose(result.corrections[1].term(1, 0), off)
    assert result.corrections[2].is_zero


def test_ace_checkerboard_eliminates_masked_retains_unmasked():
    rng = np.random.default_rng(17)
    d = 8
    diag = np.sort(rng.uniform(0.0, d, size=d))
    off = random_hermitian(d, rng)
    off -= np.diag(np.diag(off))
    off *= 0.05
    h = GradedOperator(d, {(0, 0): np.diag(diag), (1, 0): off})
    idx = np.arange(d)
    mask = Mask((idx[:, None] + idx[None, :]) % 2 == 1)
    result = run_ace(h, mask, max_order=3)
    eliminated = mask.eliminate
    for n in range(1, 4):
        for _, mat in result.corrections[n].items():
            assert np.abs(mat[eliminated]).max() < 1e-12
    kept = ~eliminated & ~np.eye(d, dtype=bool)
    first = result.corrections[1].term(1, 0)
    assert np.abs(first[kept]).max() > 1e-3


def test_ace_rejects_bad_masks():
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        Mask(asym)
    diag = np.eye(2, dtype=bool)
    with pytest.raises(ValueError, match="diagonal"):
        Mask(diag)


# ---------------------------------------------------------------------------
# rotate_operator
# ---------------------------------------------------------------------------


def test_rotate_identity_is_identity():
    h, v = two_level_inputs()
    result = run_swt(h, v, [1, 1], max_order=3)
    rotated = rotate_operator(identity_operator(2), result.generator, up_to_order=3)
    assert set(rotated.keys()) == {(0, 0)}
    np.testing.assert_allclose(rotated.term(0, 0), np.eye(2))


def test_rotate_hamiltonian_reproduces_corrections():
    rng = np.random.default_rng(23)
    d = 4
    h0 = np.diag(np.sort(rng.uniform(0, 4, size=d)))
    off = random_hermitian(d, rng) * 0.05
    off -= np.diag(np.diag(off))
    h = GradedOperator(d, {(0, 0): h0, (1, 0): off})
    result = run_fd(h, max_order=4)
    rotated = rotate_operator(h, result.generator, up_to_order=4)
    reference = result.effective_hamiltonian(4)
    for key in set(rotated.keys()) | set(reference.keys()):
        assert np.abs(rotated.term(*key) - reference.term(*key)).max() < 1e-12


def test_rotate_rejects_order_beyond_solved():
    h, v = two_level_inputs()
    result = run_swt(h, v, [1, 1], max_order=2)
    with pytest.raises(ValueError, match="exceeds"):
        rotate_operator(identity_operator(2), result.generator, up_to_order=3)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def driven_instance(seed, d=4):
    rng = np.random.default_rng(seed)
    diag = np.sort(rng.uniform(0.0, d, size=d)) + 0.1 * np.arange(d)
    static = 0.05 * random_hermitian(d, rng)
    static -= np.diag(np.diag(static))
    drive = 0.04 * random_hermitian(d, rng)
    omega_d = 0.37  # incommensurate with typical spacings
    h = GradedOperator(
        d,
        {(0, 0): np.diag(diag), (1, 0): static, (1, 1): drive, (1, -1): drive.conj().T},
        omega_d=omega_d,
    )
    return h


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_antihermitian_and_corrections_hermitian(seed):
    h = driven_instance(seed)
    result = run_fd(h, max_order=4)
    for n in range(1, 5):
        assert result.generator[n].is_anti_hermitian_graded(1e-12)
        assert result.corrections[n].is_hermitian_graded(1e-12)


@pytest.mark.parametrize("seed", [4, 5])
def test_first_order_condition_static_and_driven(seed):
    h = driven_instance(seed)
    result = run_fd(h, max_order=2)
    s1 = result.generator[1]
    h0 = GradedOperator(h.dim, {(0, 0): h.term(0, 0)}, omega_d=h.omega_d)
    target = result.mask.project(h.order_part(1))
    residual = commutator(h0, s1) + target - s1.time_derivative() * (1j * result.hbar)
    scale = max(target.max_abs(), 1.0)
    assert residual.max_abs() < 1e-14 * scale


@pytest.mark.parametrize("n_max", [2, 3])
def test_unitary_residual_scaling(n_max):
    rng = np.random.default_rng(31)
    d = 4
    h0 = np.diag([0.0, 1.0, 2.1, 3.3])
    off = 0.1 * random_hermitian(d, rng)
    off -= np.diag(np.diag(off))
    h = GradedOperator(d, {(0, 0): h0, (1, 0): off})
    result = run_fd(h, max_order=n_max)

    def residual(lam):
        s_total = sum(
            (lam ** n) * result.generator[n].term(n, 0) for n in range(1, n_max + 1)
        )
        u = expm_antihermitian(-s_total)
        h_lam = h0 + lam * off
        h_eff = sum(
            (lam ** n) * result.corrections[n].term(n, 0)
            for n in range(0, n_max + 1)
            if n in result.corrections
        )
        return np.linalg.norm(u @ h_lam @ u.conj().T - h_eff, 2)

    lam = 0.25
    ratio = residual(lam) / residual(lam / 2)
    assert 0.8 * 2 ** (n_max + 1) < ratio < 1.2 * 2 ** (n_max + 1)


@pytest.mark.parametrize("n_max", [2, 3])
def test_time_dependent_frame_identity(n_max):
    # exact oracle for the driven assembly: the transformed Hamiltonian must
    # satisfy H_eff = U H U^dag + i*hbar (dU/dt) U^dag with U = exp(-S(t)),
    # to O(lambda^(N+1)); the Frechet derivative of expm gives dU/dt exactly
    from scipy.linalg import expm, expm_frechet

    h = driven_instance(59)
    d, omega_d, hbar = h.dim, h.omega_d, 1.0
    result = run_fd(h, max_order=n_max, hbar=hbar)

    def collapse(op, lam, t):
        out = np.zeros((d, d), dtype=complex)
        for (j, k), mat in op.items():
            out += (lam ** j) * np.exp(1j * k * omega_d * t) * mat
        return out

    def residual(lam, t=0.61):
        s = np.zeros((d, d), dtype=complex)
        ds = np.zeros((d, d), dtype=complex)
        for n in range(1, n_max + 1):
            for (j, k), mat in result.generator[n].items():
                weight = (lam ** j) * np.exp(1j * k * omega_d * t)
                s += weight * mat
                ds += weight * (1j * k * omega_d) * mat
        u = expm(-s)
        du = expm_frechet(-s, -ds, compute_expm=False)
        h_eff = sum(
            collapse(result.corrections[n], lam, t) for n in range(0, n_max + 1)
        )
        lhs = u @ collapse(h, lam, t) @ u.conj().T + 1j * hbar * du @ u.conj().T
        return np.linalg.norm(lhs - h_eff, 2)

    ratio = residual(0.5) / residual(0.25)
    assert 0.8 * 2 ** (n_max + 1) < ratio < 1.25 * 2 ** (n_max + 1), ratio


def test_elimination_invariant_swt():
    rng = np.random.default_rng(41)
    d = 5
    sizes = [2, 3]
    h = GradedOperator(d, {(0, 0): np.diag(np.sort(rng.uniform(0, 5, d)))})
    v_mat = 0.05 * random_hermitian(d, rng)
    v_mat -= np.diag(np.diag(v_mat))
    v = GradedOperator(d, {(1, 0): v_mat})
    result = run_swt(h, v, sizes, max_order=4)
    eliminated = result.mask.eliminate
    for n in range(1, 5):
        for _, mat in result.corrections[n].items():
            assert np.abs(mat[eliminated]).max() < 1e-12


def test_effective_hamiltonian_keeps_every_correction():
    # lambda is formal: a small high-order key is not negligible next to H0
    h, v = two_level_inputs(g=0.003)
    result = run_swt(h, v, [1, 1], max_order=8)
    held = {key for corr in result.corrections.values() for key in corr.keys()}
    assert {(6, 0), (8, 0)} <= held
    total = result.effective_hamiltonian()
    assert set(total.keys()) == held
    np.testing.assert_array_equal(total.term(8, 0), result.corrections[8].term(8, 0))


def test_product_count_grows_polynomially_with_order():
    # the (order, nestedness) recursion costs O(N^3) products, about 8x from
    # order 10 to 20; summing the 2^n chains of each order would cost ~1000x
    rng = np.random.default_rng(8)
    off = 0.05 * random_hermitian(4, rng)
    off -= np.diag(np.diag(off))
    h = GradedOperator(4, {(0, 0): np.diag([0.0, 1.0, 2.1, 3.3]), (1, 0): off})
    low = run_fd(h, max_order=10)
    high = run_fd(h, max_order=20)
    assert 0 < low.diagnostics.products
    assert high.diagnostics.products < 16 * low.diagnostics.products
    doc = result_document(high, "0" * 64)
    assert doc["diagnostics"]["products"] == high.diagnostics.products


def count_constructions(monkeypatch):
    """Counter of every GradedOperator built, by the constructor or frozen in place."""
    counter = [0]
    init = GradedOperator.__init__

    def counting_init(self, *args, **kwargs):
        counter[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedOperator, "__init__", counting_init)
    adopt = getattr(GradedOperator, "_adopt", None)
    if adopt is not None:
        def counting_adopt(*args, **kwargs):
            counter[0] += 1
            return adopt(*args, **kwargs)

        monkeypatch.setattr(GradedOperator, "_adopt", staticmethod(counting_adopt))
    return counter


@pytest.mark.parametrize("method, low, high", [("fd", 10, 20), ("la", 8, 16)])
def test_graded_operators_are_built_only_at_the_boundary(monkeypatch, method, low, high):
    # series entries accumulate in place and are frozen once when handed out,
    # so the objects built grow like the number of orders; wrapping every sum
    # and product grows like the O(N^3) products instead
    h = random_bd_hamiltonian((3, 3), 4)
    counter = count_constructions(monkeypatch)

    def constructions(order):
        counter[0] = 0
        if method == "fd":
            run_fd(h, max_order=order)
        else:
            run_la(h, [3, 3], max_order=order)
        return counter[0]

    at_low, at_high = constructions(low), constructions(high)
    assert 0 < at_low
    assert at_high < 2.5 * at_low, (at_low, at_high)


# ---------------------------------------------------------------------------
# tolerances follow the level spread
# ---------------------------------------------------------------------------


def two_level_with_offset(offset, gap=0.05, g=1e-4):
    h0 = GradedOperator(2, {(0, 0): np.diag([offset, offset + gap])})
    v = GradedOperator(2, {(1, 0): g * sigma_x()})
    return h0, v


def test_large_energy_offset_is_not_resonant():
    # a 0.05 gap sitting at 1e8: tolerances scaled by max|E| = 1e8 called the
    # gap resonant, though the same gap at offset 0 or 1e6 solves
    offset = 1e8
    h0, v = two_level_with_offset(offset)
    shifted = run_swt(h0, v, [1, 1], max_order=4)
    gap = (offset + 0.05) - offset  # the gap as stored, exact in floating point
    ref = run_swt(*two_level_with_offset(0.0, gap), [1, 1], max_order=4)
    # [H0, S] cancels terms of size 1e8 |S|, so agreement is to about 1e-7
    for n in range(1, 5):
        diff = (shifted.corrections[n] - ref.corrections[n]).max_abs()
        assert diff <= 1e-6 * ref.corrections[2].max_abs(), (n, diff)
        diff = (shifted.generator[n] - ref.generator[n]).max_abs()
        assert diff <= 1e-6 * ref.generator[1].max_abs(), (n, diff)


def test_degeneracy_tolerance_follows_the_spread():
    frame = EigenFrame.from_energies(np.array([1e8, 1e8 + 0.05, 1e8 + 0.1]))
    assert frame.classes == ((0,), (1,), (2,))
    assert frame.energy_scale() == (1e8 + 0.1) - 1e8
    assert EigenFrame.from_energies(np.array([3.0, 3.0])).energy_scale() == 1.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(["fd", "swt"]),
    shift=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1e8, 1e6, 1e8])),
    seed=st.integers(0, 2**32 - 1),
)
def test_corrections_invariant_under_energy_shift(method, shift, seed):
    # H0 -> H0 + c*1 commutes with everything: every correction of order >= 1
    # and the generator stay put, up to round-off of |c| + the spread
    rng = np.random.default_rng(seed)
    d = 5
    # gaps down to 0.02, below 1e-9 of the largest shift
    levels = np.cumsum(rng.uniform(0.02, 1.5, size=d))
    off = 0.01 * random_hermitian(d, rng)
    off -= np.diag(np.diag(off))
    sizes = [2, 3]

    def run(c):
        h0 = np.diag(levels + c)
        h = GradedOperator(d, {(0, 0): h0, (1, 0): off})
        if method == "fd":
            return run_fd(h, max_order=4)
        mask = Mask.block_off_diagonal(sizes)
        return run_swt(mask.complement_project(h), mask.project(h), sizes, max_order=4)

    base, shifted = run(0.0), run(shift)
    tol = 1e-13 * (abs(shift) + levels.max() - levels.min())
    for n in range(1, 5):
        assert (shifted.corrections[n] - base.corrections[n]).max_abs() <= tol, n
        assert (shifted.generator[n] - base.generator[n]).max_abs() <= tol, n


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("routine", ["swt", "fd", "fd-driven", "ace", "la"])
def test_non_hermitian_input_rejected(routine):
    h0 = np.diag([0.0, 1.0])
    skew = np.array([[0.0, 0.1], [0.3, 0.0]])
    h = GradedOperator(2, {(0, 0): h0, (1, 0): skew})
    with pytest.raises(PertError, match="hermitian"):
        if routine == "swt":
            run_swt(GradedOperator(2, {(0, 0): h0}), GradedOperator(2, {(1, 0): skew}),
                    [1, 1], max_order=2)
        elif routine == "fd":
            run_fd(h, max_order=2)
        elif routine == "fd-driven":
            # each harmonic is hermitian, but M[1, 1]^dag != M[1, -1]
            drive = GradedOperator(
                2, {(0, 0): h0, (1, 1): sigma_x(), (1, -1): 0.5 * sigma_x()}, omega_d=0.3
            )
            run_fd(drive, max_order=2)
        elif routine == "ace":
            run_ace(h, Mask.full_off_diagonal(2), max_order=2)
        else:
            run_la(h, [1, 1], max_order=2)
