import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from pertkit.oracle import evaluate_at, exact_block_diagonalize


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


@pytest.mark.parametrize("method", ["fd", "swt", "ace-driven"])
def test_first_order_spends_no_products(method):
    # order 1 needs only the masked input and the solve
    if method == "fd":
        result = run_fd(random_bd_hamiltonian((2, 2), 3), max_order=1)
    elif method == "swt":
        h, v = two_level_inputs()
        result = run_swt(h, v, [1, 1], max_order=1)
    else:
        result = run_ace(driven_instance(6), Mask.full_off_diagonal(4), max_order=1)
    assert 1 in result.generator and not result.generator[1].is_zero
    assert result.diagnostics.products == 0


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


@pytest.mark.parametrize("method, low, high",
                         [("fd", 10, 20), ("la", 8, 16), ("la-3-blocks", 8, 16)])
def test_graded_operators_are_built_only_at_the_boundary(monkeypatch, method, low, high):
    # series entries accumulate in place and are frozen once when handed out,
    # so the objects built grow like the number of orders; wrapping every sum
    # and product grows like the O(N^3) products instead.  Two-block least
    # action runs on the SW engine, three blocks on the least-action recursion.
    h = random_bd_hamiltonian((3, 3), 4)
    h3 = random_bd_hamiltonian((2, 2, 2), 4)
    counter = count_constructions(monkeypatch)

    def constructions(order):
        counter[0] = 0
        if method == "fd":
            run_fd(h, max_order=order)
        elif method == "la":
            run_la(h, [3, 3], max_order=order)
        else:
            run_la(h3, [2, 2, 2], max_order=order)
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
    # agreement is bounded loosely here; test_transform_never_multiplies_h0
    # checks that it is exact
    for n in range(1, 5):
        diff = (shifted.corrections[n] - ref.corrections[n]).max_abs()
        assert diff <= 1e-6 * ref.corrections[2].max_abs(), (n, diff)
        diff = (shifted.generator[n] - ref.generator[n]).max_abs()
        assert diff <= 1e-6 * ref.generator[1].max_abs(), (n, diff)


def driven_three_level(levels, omega_d=2.3):
    rng = np.random.default_rng(11)
    static = 0.05 * random_hermitian(3, rng)
    static -= np.diag(np.diag(static))
    drive = 0.04 * random_hermitian(3, rng)
    return GradedOperator(
        3,
        {(0, 0): np.diag(levels), (1, 0): static, (1, 1): drive, (1, -1): drive.conj().T},
        omega_d=omega_d,
    )


@pytest.mark.parametrize("method", ["swt", "fd-driven"])
def test_transform_never_multiplies_h0(method):
    # [H0, S^(n)] - i*hbar*dS^(n)/dt is read off the generator condition, so
    # H0 enters only through energy differences, which the shift leaves exact
    if method == "swt":
        offset, order = 1e8, 6
        levels = np.array([offset, offset + 0.05])

        def run(e):
            h0 = GradedOperator(2, {(0, 0): np.diag(e)})
            v = GradedOperator(2, {(1, 0): 1e-4 * sigma_x()})
            return run_swt(h0, v, [1, 1], max_order=order)
    else:
        offset, order = 1e6, 5
        levels = np.array([0.0, 1.0, 2.7]) + offset

        def run(e):
            return run_fd(driven_three_level(e), max_order=order)

    shifted, ref = run(levels), run(levels - offset)
    for n in range(1, order + 1):
        for series in ("corrections", "generator"):
            a, b = getattr(shifted, series)[n], getattr(ref, series)[n]
            assert a.keys() == b.keys(), (series, n)
            for key in a.keys():
                np.testing.assert_array_equal(a.term(*key), b.term(*key))


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
# covariance under rescaling and relabelling
# ---------------------------------------------------------------------------

COVARIANCE_ORDER = 4


def covariance_instance(seed, driven):
    """Random d=5 levels, couplings and drive, with every |E_j - E_i - k*omega_d|
    over the harmonics up to the solved order at least 0.05, or None."""
    rng = np.random.default_rng(seed)
    d = 5
    levels = np.cumsum(rng.uniform(0.2, 1.5, size=d))
    static = 0.05 * random_hermitian(d, rng)
    static -= np.diag(np.diag(static))
    terms = {(0, 0): np.diag(levels), (1, 0): static}
    omega_d = None
    if driven:
        omega_d = float(rng.uniform(0.3, 3.0))
        drive = 0.04 * random_hermitian(d, rng)
        terms[(1, 1)], terms[(1, -1)] = drive, drive.conj().T
    upper = np.triu(rng.random((d, d)) < 0.5, 1)
    ace_mask = Mask(upper | upper.T)
    gaps = levels[None, :] - levels[:, None]
    harmonics = np.arange(-COVARIANCE_ORDER, COVARIANCE_ORDER + 1) if driven else np.zeros(1)
    denoms = gaps[None] - harmonics[:, None, None] * (omega_d or 0.0)
    off = ~np.eye(d, dtype=bool)
    if np.abs(denoms[:, off]).min() < 0.05:
        return None
    return GradedOperator(d, terms, omega_d), ace_mask


def transform(method, h, mask, max_order=COVARIANCE_ORDER):
    if method == "fd":
        return run_fd(h, max_order=max_order)
    if method == "ace":
        return run_ace(h, mask, max_order=max_order)
    sizes = [2, 3]
    blocks = Mask.block_off_diagonal(sizes)
    return run_swt(blocks.complement_project(h), blocks.project(h), sizes,
                   max_order=max_order)


def assert_covariant(result, corrections, generator, a, spread):
    """``result`` has the given generator and a times the given corrections,
    to 1e-13 of each order's content: its correction plus spread * |S^(n)|."""
    for n in range(1, COVARIANCE_ORDER + 1):
        corr, gen = corrections[n], generator[n]
        size = corr.max_abs() + spread * gen.max_abs()
        assert term_distance(result.corrections[n], corr, a) <= 1e-13 * a * size, n
        assert term_distance(result.generator[n], gen, 1.0) <= 1e-13 * size / spread, n


def term_distance(x, y, a):
    """Largest entry of x - a*y over every (order, harmonic) key of either."""
    return max((np.abs(x.term(*key) - a * y.term(*key)).max()
                for key in x.keys() | y.keys()), default=0.0)


def scaled(h, a):
    return GradedOperator(h.dim, {key: a * mat for key, mat in h.items()},
                          None if h.omega_d is None else a * h.omega_d)


def permuted(h, perm):
    return GradedOperator(h.dim, {key: mat[np.ix_(perm, perm)] for key, mat in h.items()},
                          h.omega_d)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(["fd", "swt", "ace"]),
    driven=st.booleans(),
    log_a=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_covariance(method, driven, log_a, seed):
    # H -> a*H with omega_d -> a*omega_d and hbar fixed is a change of energy
    # unit: every correction scales by a and the generator is unchanged
    instance = covariance_instance(seed, driven)
    assume(instance is not None)
    h, mask = instance
    a = 10.0 ** log_a
    base = transform(method, h, mask)
    result = transform(method, scaled(h, a), mask)
    assert_covariant(result, base.corrections, base.generator, a, base.frame.energy_scale())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(["fd", "ace"]),
    driven=st.booleans(),
    perm=st.permutations(range(5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_relabelling_covariance(method, driven, perm, seed):
    # relabelling the levels, with the mask permuted to match, relabels every
    # correction and the generator
    instance = covariance_instance(seed, driven)
    assume(instance is not None)
    h, mask = instance
    perm = np.array(perm)
    base = transform(method, h, mask)
    result = transform(method, permuted(h, perm), Mask(mask.eliminate[np.ix_(perm, perm)]))
    assert_covariant(
        result,
        {n: permuted(c, perm) for n, c in base.corrections.items()},
        {n: permuted(g, perm) for n, g in base.generator.items()},
        1.0,
        base.frame.energy_scale(),
    )


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


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_hermiticity_is_judged_per_key(offset):
    # 1% non-hermitian couplings stay 1% non-hermitian next to a large H0:
    # lambda is formal, so a key small next to order 0 is not a negligible one
    h0 = np.diag([offset, offset + 1.0])
    skew = np.array([[0.0, 1e-3], [1e-3 + 1e-5, 0.0]])
    h = GradedOperator(2, {(0, 0): h0, (1, 0): skew})
    assert not h.is_hermitian_graded()
    assert not GradedOperator(2, {(0, 0): h0, (1, 0): 1j * skew}).is_anti_hermitian_graded()
    with pytest.raises(PertError, match="hermitian"):
        run_fd(h, max_order=2)


# ---------------------------------------------------------------------------
# harmonic and level bookkeeping
# ---------------------------------------------------------------------------


def assert_same_series(got, want, relabel=lambda key: key):
    """Every order of ``got`` holds exactly the relabelled keys and matrices of ``want``."""
    assert got.keys() == want.keys()
    for n, op in want.items():
        assert set(got[n].keys()) == {relabel(key) for key in op.keys()}, n
        for key, mat in op.items():
            np.testing.assert_array_equal(got[n].term(*relabel(key)), mat)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(method=st.sampled_from(["fd", "swt", "ace"]), seed=st.integers(0, 2**32 - 1))
def test_harmonic_relabelling_is_exact(method, seed):
    # a drive at harmonics +-1 with frequency omega_d is the same drive at
    # +-2 with frequency omega_d / 2: keys (n, k) map to (n, 2k), and every
    # denominator hbar * k * omega_d rounds identically, so bit for bit
    instance = covariance_instance(seed, True)
    assume(instance is not None)
    h, mask = instance
    doubled = GradedOperator(h.dim, {(j, 2 * k): mat for (j, k), mat in h.items()},
                             h.omega_d / 2)
    base = transform(method, h, mask, max_order=5)
    result = transform(method, doubled, mask, max_order=5)
    assert_same_series(result.corrections, base.corrections, lambda key: (key[0], 2 * key[1]))
    assert_same_series(result.generator, base.generator, lambda key: (key[0], 2 * key[1]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(method=st.sampled_from(["fd", "swt", "ace"]), omega_d=st.floats(0.1, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_zero_drive_equals_static_run(method, omega_d, seed):
    instance = covariance_instance(seed, False)
    assume(instance is not None)
    h, mask = instance
    zero = 0.0 * random_hermitian(h.dim, np.random.default_rng(seed))
    driven = GradedOperator(h.dim, {**dict(h.items()), (1, 1): zero, (1, -1): zero}, omega_d)
    static, result = transform(method, h, mask), transform(method, driven, mask)
    assert result.omega_d == omega_d
    assert_same_series(result.corrections, static.corrections)
    assert_same_series(result.generator, static.generator)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_fd_eigenvalues_match_the_oracle(seed):
    # the diagonal of the fd series through order N is the spectrum, to the
    # size of its last corrections.  One order's correction can be small by
    # cancellation (seed 301416: 8.2e-7 at order 6, 4.8e-6 at order 7, the
    # truncation error 4.0e-6), so the bound takes the last two.
    instance = covariance_instance(seed, False)
    assume(instance is not None)
    h, _ = instance
    order = 6
    result = run_fd(h, max_order=order)
    series = np.diag(sum(mat for op in result.corrections.values() for _, mat in op.items()))
    _, exact = exact_block_diagonalize(evaluate_at(h, 1.0), (1,) * h.dim)
    last = max(result.corrections[n].max_abs() for n in (order - 1, order))
    tol = 3 * last + 1e-12
    assert np.abs(series - np.diag(exact)).max() <= tol
