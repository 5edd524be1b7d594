import numpy as np
import pytest

from helpers import edsr_parity_mask, transmon_energy
from pertkit.engine import run_ace, run_fd, run_swt, rotate_operator
from pertkit.errors import NonFiniteContent
from pertkit.models import (
    EDSRParams,
    TransmonParams,
    dispersive_shift,
    boson_ops,
    build_edsr,
    build_transmon_resonator,
    gell_mann_basis,
    pauli,
    project_onto_basis,
    random_ace_hamiltonian,
    random_bd_hamiltonian,
    sigma_x_drive_amplitude,
    sigma_z_fock_coefficient,
    spin_sector,
)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------


def test_boson_commutator_truncation_corner():
    a, adag = boson_ops(6)
    comm = a @ adag - adag @ a
    expected = np.eye(6)
    expected[5, 5] = -5  # truncation artifact in the top corner
    np.testing.assert_allclose(comm, expected)


def test_boson_annihilates_vacuum():
    a, _ = boson_ops(5)
    vac = np.zeros(5)
    vac[0] = 1.0
    assert np.abs(a @ vac).max() == 0.0


def test_number_operator_spectrum():
    a, adag = boson_ops(7)
    np.testing.assert_allclose(np.diag(adag @ a).real, np.arange(7))


def test_gell_mann_d2_is_pauli():
    basis = gell_mann_basis(2)
    s0, sx, sy, sz = pauli()
    for got, expected in zip(basis, (s0, sx, sy, sz)):
        np.testing.assert_allclose(got, expected)


def test_gell_mann_trace_orthogonality():
    basis = gell_mann_basis(3)
    assert len(basis) == 9
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            inner = np.trace(a.conj().T @ b)
            if i != j:
                assert abs(inner) < 1e-14


def test_projection_of_sigma_x():
    basis = gell_mann_basis(2)
    coeffs = project_onto_basis(pauli()[1], basis)
    np.testing.assert_allclose(coeffs, [0, 1, 0, 0], atol=1e-15)


def test_projection_round_trip_random():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    basis = gell_mann_basis(3)
    coeffs = project_onto_basis(mat, basis)
    rebuilt = sum(c * b for c, b in zip(coeffs, basis))
    assert np.abs(rebuilt - mat).max() < 1e-12


# ---------------------------------------------------------------------------
# EDSR model
# ---------------------------------------------------------------------------


def test_edsr_without_couplings_is_diagonal(edsr_params):
    p = EDSRParams(
        omega=edsr_params.omega, omega_z=edsr_params.omega_z,
        omega_d=edsr_params.omega_d, b_sl=0.0, e0=0.0,
        hbar=edsr_params.hbar, n_max=6,
    )
    h, v, drive = build_edsr(p)
    assert v.is_zero and drive.is_zero
    h0 = h.term(0, 0)
    assert np.abs(h0 - np.diag(np.diag(h0))).max() == 0.0


def test_edsr_drive_is_hermitian_graded(edsr_params):
    _, _, drive = build_edsr(edsr_params)
    assert drive.is_hermitian_graded()
    np.testing.assert_allclose(
        drive.term(1, 1).conj().T, drive.term(1, -1)
    )


def test_edsr_static_second_order_sigma_z_pattern(edsr_params):
    # undriven transformation: the order-2 correction carries
    # hbar w_z b^2 / (4 (w^2 - w_z^2)) * (a^dag^2 + a^2 + 2 a^dag a + 1) s_z
    p = edsr_params
    h, v, _ = build_edsr(p)
    result = run_swt(h, v, [p.n_max, p.n_max], max_order=2)
    coef = p.hbar * p.omega_z * p.b_sl ** 2 / (4 * (p.omega ** 2 - p.omega_z ** 2))
    a, adag = boson_ops(p.n_max)
    pattern = adag @ adag + a @ a + 2 * adag @ a + np.eye(p.n_max)
    got = sigma_z_fock_coefficient(result.corrections[2].term(2, 0), p.n_max)
    interior = slice(0, p.n_max - 4)
    np.testing.assert_allclose(
        got[interior, interior],
        coef * pattern[interior, interior],
        rtol=1e-8, atol=1e-8 * abs(coef),
    )


def test_edsr_rotated_drive_matches_closed_form(edsr_params):
    p = edsr_params
    h, v, drive = build_edsr(p)
    result = run_swt(h, v, [p.n_max, p.n_max], max_order=2)
    rotated = rotate_operator(drive, result.generator, up_to_order=2)
    expected = -p.omega * p.e0 * p.b_sl / (p.omega ** 2 - p.omega_z ** 2)
    got = sigma_x_drive_amplitude(rotated, p.n_max)
    assert abs(got - expected) < 1e-8 * abs(expected)


def test_edsr_qubit_frequency_shift(edsr_params):
    p = edsr_params
    h, v, _ = build_edsr(p)
    result = run_swt(h, v, [p.n_max, p.n_max], max_order=2)
    total = spin_sector(result.corrections[0].term(0, 0), p.n_max) + spin_sector(
        result.corrections[2].term(2, 0), p.n_max
    )
    # qubit sigma_z coefficient is -hbar*omega_qubit/2
    sz_coef = (total[0, 0] - total[1, 1]).real / 2
    omega_qubit = -2 * sz_coef / p.hbar
    expected = p.omega_z * (1 - p.delta_z)
    assert abs(omega_qubit - expected) < 1e-8 * abs(expected)


def test_edsr_time_dependent_drive_coefficient(edsr_params):
    # full driven model, parity-block elimination: the order-2 qubit drive is
    # -(w E0 b / 2) (1/(w^2 - w_z^2) + 1/(w^2 - w_d^2)) cos(w_d t) sigma_x
    p = edsr_params
    h, v, drive = build_edsr(p)
    total = h + v + drive
    result = run_ace(total, edsr_parity_mask(p.n_max), max_order=2)
    got = sigma_x_drive_amplitude(result.corrections[2], p.n_max)
    expected = -(p.omega * p.e0 * p.b_sl / 2) * (
        1 / (p.omega ** 2 - p.omega_z ** 2) + 1 / (p.omega ** 2 - p.omega_d ** 2)
    )
    assert abs(got - expected) < 1e-8 * abs(expected)


def test_edsr_two_approaches_converge_at_resonance(edsr_params):
    # at w_d = w_qubit the static-then-rotate and time-dependent paths differ
    # by O(delta_z) relative; halving b_sl quarters the difference
    base = edsr_params

    def relative_difference(b_sl):
        p0 = EDSRParams(
            omega=base.omega, omega_z=base.omega_z, omega_d=base.omega_z,
            b_sl=b_sl, e0=base.e0, hbar=base.hbar, n_max=12,
        )
        p = EDSRParams(
            omega=p0.omega, omega_z=p0.omega_z, omega_d=p0.omega_qubit,
            b_sl=b_sl, e0=p0.e0, hbar=p0.hbar, n_max=12,
        )
        h, v, drive = build_edsr(p)
        swt = run_swt(h, v, [p.n_max, p.n_max], max_order=2)
        amp_static = sigma_x_drive_amplitude(
            rotate_operator(drive, swt.generator, up_to_order=2), p.n_max
        )
        ace = run_ace(h + v + drive, edsr_parity_mask(p.n_max), max_order=2)
        amp_td = sigma_x_drive_amplitude(ace.corrections[1] + ace.corrections[2], p.n_max)
        return abs(amp_td - amp_static) / abs(amp_static), p.delta_z

    r1, dz1 = relative_difference(base.b_sl)
    r2, dz2 = relative_difference(base.b_sl / 2)
    assert r1 < 5 * dz1
    assert abs(r2 / r1 - dz2 / dz1) < 0.2 * (dz2 / dz1)


# ---------------------------------------------------------------------------
# transmon-resonator model
# ---------------------------------------------------------------------------


def test_transmon_uncoupled_spectrum():
    p = TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.0, n_t_max=5, n_r_max=4)
    h = build_transmon_resonator(p)
    diag = np.diag(h.term(0, 0)).real
    for n_t in range(5):
        for n_r in range(4):
            assert abs(diag[n_t * 4 + n_r] - transmon_energy(p, n_t, n_r)) < 1e-12


def test_transmon_coupling_hermitian_graded(transmon_params):
    h = build_transmon_resonator(transmon_params)
    assert h.is_hermitian_graded()


def test_transmon_dispersive_warning():
    with pytest.warns(UserWarning, match="dispersive"):
        build_transmon_resonator(
            TransmonParams(omega_t=5.0, omega_r=5.2, alpha=-0.3, g=0.1)
        )


def test_transmon_fd_matches_closed_form_on_interior(transmon_params):
    p = transmon_params
    h = build_transmon_resonator(p)
    result = run_fd(h, max_order=2)
    shifts = np.diag(result.corrections[2].term(2, 0)).real
    for n_t in range(4):
        for n_r in range(4):
            idx = n_t * p.n_r_max + n_r
            predicted = dispersive_shift(p, n_t, n_r)
            assert abs(shifts[idx] - predicted) < 1e-8 * max(abs(predicted), 1e-6), (
                n_t, n_r,
            )


def test_transmon_fd_against_exact_eigenvalues(transmon_params):
    # independent check that the order-2 shifts are the true g^2 coefficients
    p = transmon_params
    h = build_transmon_resonator(p)
    result = run_fd(h, max_order=2)
    h0 = h.term(0, 0)
    v = h.term(1, 0)
    exact = np.linalg.eigvalsh(h0 + v)
    e0 = np.diag(h0).real
    order = np.argsort(e0, kind="stable")
    shifts = np.diag(result.corrections[2].term(2, 0)).real
    # compare on the three lowest well-separated levels
    for rank in range(3):
        idx = order[rank]
        second_order = exact[rank] - e0[idx]
        assert abs(shifts[idx] - second_order) < 10 * p.g ** 3


def test_dispersive_shift_zero_coupling(transmon_params):
    p = TransmonParams(
        omega_t=transmon_params.omega_t, omega_r=transmon_params.omega_r,
        alpha=transmon_params.alpha, g=0.0,
    )
    for n_t in range(3):
        for n_r in range(3):
            assert dispersive_shift(p, n_t, n_r) == 0.0


def test_dispersive_shift_exact_g_squared_scaling(transmon_params):
    p = transmon_params
    doubled = TransmonParams(
        omega_t=p.omega_t, omega_r=p.omega_r, alpha=p.alpha, g=2 * p.g,
    )
    for n_t in range(4):
        for n_r in range(4):
            a = dispersive_shift(p, n_t, n_r)
            b = dispersive_shift(doubled, n_t, n_r)
            assert abs(b - 4 * a) <= 1e-10 * max(abs(b), 1e-300)


def test_dispersive_shift_vanishing_denominator():
    # alpha*(n_t - 1) - w_r + w_t = 0 at n_t = 1 when w_t = w_r
    p = TransmonParams(omega_t=5.0, omega_r=5.0, alpha=-0.3, g=0.01)
    with pytest.raises(ValueError, match="denominator"):
        dispersive_shift(p, 1, 1)


def test_cross_kerr_slope_matches_engine(transmon_params):
    # the n_r dependence isolates the resonator pull plus both cross-Kerr
    # brackets; compare against engine differences state by state
    p = transmon_params
    h = build_transmon_resonator(p)
    result = run_fd(h, max_order=2)
    shifts = np.diag(result.corrections[2].term(2, 0)).real
    for n_t in range(4):
        engine_slope = (
            shifts[n_t * p.n_r_max + 2] - shifts[n_t * p.n_r_max + 1]
        )
        slope = dispersive_shift(p, n_t, 1) - dispersive_shift(p, n_t, 0)
        assert abs(engine_slope - slope) < 1e-10


# ---------------------------------------------------------------------------
# truncation guard
# ---------------------------------------------------------------------------


def test_edsr_guard_makes_comparisons_truncation_independent(edsr_params):
    # raising the truncation by 4 must not move interior matrix elements
    p = edsr_params
    interior = p.n_max - 4 + 1

    def sigma_z_block(n_max):
        q = EDSRParams(
            omega=p.omega, omega_z=p.omega_z, omega_d=p.omega_d,
            b_sl=p.b_sl, e0=p.e0, hbar=p.hbar, n_max=n_max,
        )
        h, v, _ = build_edsr(q)
        result = run_swt(h, v, [n_max, n_max], max_order=2)
        full = sigma_z_fock_coefficient(result.corrections[2].term(2, 0), n_max)
        return full[:interior, :interior]

    small = sigma_z_block(p.n_max)
    large = sigma_z_block(p.n_max + 4)
    assert np.abs(small - large).max() < 1e-10


def test_transmon_guard_makes_shifts_truncation_independent():
    def shifts_by_state(n_max):
        p = TransmonParams(
            omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05,
            n_t_max=n_max, n_r_max=n_max,
        )
        h = build_transmon_resonator(p)
        diag = np.diag(run_fd(h, max_order=2).corrections[2].term(2, 0)).real
        return {
            (n_t, n_r): diag[n_t * n_max + n_r]
            for n_t in range(4) for n_r in range(4)
        }

    small = shifts_by_state(8)
    large = shifts_by_state(12)
    for state, value in small.items():
        assert abs(value - large[state]) < 1e-10


# ---------------------------------------------------------------------------
# stochastic builders
# ---------------------------------------------------------------------------


def test_random_ace_deterministic():
    a = random_ace_hamiltonian(8, seed=42)
    b = random_ace_hamiltonian(8, seed=42)
    for key in a.keys():
        np.testing.assert_array_equal(a.term(*key), b.term(*key))


def test_random_ace_sorted_diagonal():
    h = random_ace_hamiltonian(10, seed=5)
    diag = np.diag(h.term(0, 0)).real
    assert np.all(np.diff(diag) >= 0)


def test_params_validate_truncations():
    with pytest.raises(ValueError, match="at least 4"):
        TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.01, n_r_max=3)
    with pytest.raises(ValueError, match="at least 4"):
        EDSRParams(omega=1.0, omega_z=0.6, omega_d=0.4, b_sl=0.01, e0=0.01, n_max=3)


def test_edsr_perturbativity_warning():
    with pytest.warns(UserWarning, match="perturbative"):
        build_edsr(
            EDSRParams(omega=1.0, omega_z=0.99, omega_d=0.5, b_sl=0.05, e0=0.01, n_max=6)
        )


def test_random_bd_order_structure():
    sizes = (3, 2, 3)
    h = random_bd_hamiltonian(sizes, seed=9)
    labels = np.repeat(np.arange(3), sizes)
    same = labels[:, None] == labels[None, :]
    first = h.term(1, 0)
    second = h.term(2, 0)
    assert np.abs(first[~same]).max() == 0.0
    assert np.abs(second[same]).max() == 0.0
    assert np.abs(first[same & ~np.eye(8, dtype=bool)]).max() > 0
    assert np.abs(second[~same]).max() > 0


@pytest.mark.parametrize("scale", [1e300, -1e300, np.float64(1e160), np.nan])
def test_random_bd_rejects_a_scale_whose_square_is_not_finite(scale):
    # cross-block couplings are drawn at the square of the scale
    with pytest.raises(ValueError, match="finite square"):
        random_bd_hamiltonian([2, 2], seed=1, scale=scale)


@pytest.mark.parametrize("build", [
    lambda: random_ace_hamiltonian(6, seed=1, scale=1.7e308),
    lambda: random_bd_hamiltonian([3, 3], seed=1, scale=1.3e154),
], ids=["ace", "bd"])
def test_random_couplings_that_overflow_raise(build):
    # pyproject turns a RuntimeWarning into an error: the overflow is reported once
    with pytest.raises(NonFiniteContent):
        build()
