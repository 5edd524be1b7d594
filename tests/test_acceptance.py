"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import json
import time

import numpy as np

from composition_reference import reference_la, reference_transform
from helpers import edsr_parity_mask, median_eta_by_order, time_derivative
from pertkit.engine import Mask, rotate_operator, run_ace, run_fd, run_swt
from pertkit.graded import GradedOperator, commutator
from pertkit.least_action import BlockStructure, run_la
from pertkit.models import (
    EDSRParams,
    TransmonParams,
    dispersive_shift,
    boson_ops,
    build_edsr,
    build_transmon_resonator,
    random_ace_hamiltonian,
    sigma_x_drive_amplitude,
    sigma_z_fock_coefficient,
    spin_sector,
)
from pertkit.experiments import (
    EnsembleSpec,
    checkerboard_mask,
    run_fig3_experiment,
    sample_instance,
)
from pertkit.oracle import (
    evaluate_at,
    exact_block_diagonalize,
    partial_sum_matrix,
    spectral_distance,
)
from pertkit.cli import main


def _report(label: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


# ---------------------------------------------------------------------------
# 1. two-level exactness
# ---------------------------------------------------------------------------


def test_criterion_1_two_level_exactness():
    start = time.perf_counter()
    delta = 1.0
    sx = np.array([[0, 1], [1, 0]], dtype=complex)

    def exact_pair(g):
        root = np.sqrt(delta ** 2 + 4 * g ** 2)
        return np.array([(delta - root) / 2, (delta + root) / 2])

    for g in (0.1 * delta, 0.05 * delta):
        h = GradedOperator(2, {(0, 0): np.diag([0.0, delta])})
        v = GradedOperator(2, {(1, 0): g * sx})
        swt = run_swt(h, v, [1, 1], max_order=6)
        fd = run_fd(h + v, max_order=6)
        for result in (swt, fd):
            # order-by-order agreement with the expansion of the exact pair
            series = {
                0: np.array([0.0, delta]),
                2: np.array([-1.0, 1.0]) * g ** 2 / delta,
                4: np.array([1.0, -1.0]) * g ** 4 / delta ** 3,
                6: np.array([-2.0, 2.0]) * g ** 6 / delta ** 5,
            }
            for n in range(0, 7):
                corr = result.corrections.get(n)
                got = np.diag(corr.term(n, 0)).real if corr is not None else np.zeros(2)
                np.testing.assert_allclose(
                    got, series.get(n, np.zeros(2)), atol=1e-13,
                    err_msg=f"{result.method} order {n} at g={g}",
                )

    # residual after order n scales as g^(n+2)/delta^(n+1): compare g and g/2
    for n in (2, 4, 6):
        residuals = []
        for g in (0.1 * delta, 0.05 * delta):
            h = GradedOperator(2, {(0, 0): np.diag([0.0, delta])})
            v = GradedOperator(2, {(1, 0): g * sx})
            result = run_swt(h, v, [1, 1], max_order=n)
            summed = sum(
                np.diag(result.corrections[m].term(m, 0)).real
                for m in range(0, n + 1)
                if m in result.corrections
            )
            residuals.append(np.abs(summed - exact_pair(g)).max())
        ratio = residuals[0] / residuals[1]
        assert 2 ** (n + 2) / 2 < ratio < 2 ** (n + 2) * 2, (n, ratio)
    _report("1 two-level exactness", start, budget=1.0)


# ---------------------------------------------------------------------------
# 2. EDSR static path
# ---------------------------------------------------------------------------


def test_criterion_2_edsr_static_path(edsr_params):
    start = time.perf_counter()
    p = edsr_params
    assert p.n_max == 20
    h, v, drive = build_edsr(p)
    result = run_swt(h, v, [p.n_max, p.n_max], max_order=2)

    coef = p.hbar * p.omega_z * p.b_sl ** 2 / (4 * (p.omega ** 2 - p.omega_z ** 2))
    a, adag = boson_ops(p.n_max)
    pattern = adag @ adag + a @ a + 2 * adag @ a + np.eye(p.n_max)
    got = sigma_z_fock_coefficient(result.corrections[2].term(2, 0), p.n_max)
    interior = slice(0, 17)  # Fock states n <= 16
    err = np.abs(got[interior, interior] - coef * pattern[interior, interior])
    assert err.max() < 1e-8 * abs(coef) * np.abs(pattern[interior, interior]).max()

    rotated = rotate_operator(drive, result.generator, up_to_order=2)
    amp = sigma_x_drive_amplitude(rotated, p.n_max)
    expected_amp = -p.omega * p.e0 * p.b_sl / (p.omega ** 2 - p.omega_z ** 2)
    assert abs(amp - expected_amp) < 1e-8 * abs(expected_amp)

    qubit = spin_sector(result.corrections[0].term(0, 0), p.n_max) + spin_sector(
        result.corrections[2].term(2, 0), p.n_max
    )
    omega_qubit = -(qubit[0, 0] - qubit[1, 1]).real / p.hbar
    assert abs(omega_qubit - p.omega_qubit) < 1e-8 * abs(p.omega_qubit)
    _report("2 EDSR static path", start, budget=30.0)


# ---------------------------------------------------------------------------
# 3. EDSR time-dependent path
# ---------------------------------------------------------------------------


def test_criterion_3_edsr_time_dependent_path(edsr_params):
    start = time.perf_counter()
    p = edsr_params
    h, v, drive = build_edsr(p)
    result = run_ace(h + v + drive, edsr_parity_mask(p.n_max), max_order=2)
    amp = sigma_x_drive_amplitude(result.corrections[2], p.n_max)
    expected = -(p.omega * p.e0 * p.b_sl / 2) * (
        1 / (p.omega ** 2 - p.omega_z ** 2) + 1 / (p.omega ** 2 - p.omega_d ** 2)
    )
    assert abs(amp - expected) < 1e-8 * abs(expected)

    # resonant drive: both paths converge with O(delta_z) relative difference
    def relative_difference(b_sl):
        trial = EDSRParams(
            omega=p.omega, omega_z=p.omega_z, omega_d=p.omega_z,
            b_sl=b_sl, e0=p.e0, hbar=p.hbar, n_max=12,
        )
        resonant = EDSRParams(
            omega=trial.omega, omega_z=trial.omega_z, omega_d=trial.omega_qubit,
            b_sl=b_sl, e0=trial.e0, hbar=trial.hbar, n_max=12,
        )
        hh, vv, dd = build_edsr(resonant)
        swt = run_swt(hh, vv, [12, 12], max_order=2)
        amp_static = sigma_x_drive_amplitude(
            rotate_operator(dd, swt.generator, up_to_order=2), 12
        )
        ace = run_ace(hh + vv + dd, edsr_parity_mask(12), max_order=2)
        amp_td = sigma_x_drive_amplitude(ace.corrections[2], 12)
        return abs(amp_td - amp_static) / abs(amp_static), resonant.delta_z

    r1, dz1 = relative_difference(p.b_sl)
    r2, dz2 = relative_difference(p.b_sl / 2)
    assert r1 < 5 * dz1
    assert r2 < 5 * dz2
    # the difference is proportional to delta_z, so halving b quarters it
    assert abs(r2 / r1 - dz2 / dz1) < 0.25 * (dz2 / dz1)
    _report("3 EDSR time-dependent path", start, budget=60.0)


# ---------------------------------------------------------------------------
# 4. transmon-resonator dispersive corrections
# ---------------------------------------------------------------------------


def test_criterion_4_transmon_resonator():
    start = time.perf_counter()
    fixtures = [
        TransmonParams(omega_t=5.0, omega_r=7.0, alpha=-0.3, g=0.05, n_t_max=8, n_r_max=8),
        TransmonParams(omega_t=4.3, omega_r=6.1, alpha=-0.22, g=0.03, n_t_max=8, n_r_max=8),
    ]
    for p in fixtures:
        h = build_transmon_resonator(p)
        result = run_fd(h, max_order=2)
        shifts = np.diag(result.corrections[2].term(2, 0)).real
        for n_t in range(4):
            for n_r in range(4):
                predicted = dispersive_shift(p, n_t, n_r)
                got = shifts[n_t * p.n_r_max + n_r]
                assert abs(got - predicted) < 1e-8 * max(abs(predicted), 1e-6), (
                    p, n_t, n_r, got, predicted,
                )
        doubled = TransmonParams(
            omega_t=p.omega_t, omega_r=p.omega_r, alpha=p.alpha, g=2 * p.g,
            n_t_max=8, n_r_max=8,
        )
        h2 = build_transmon_resonator(doubled)
        shifts2 = np.diag(run_fd(h2, max_order=2).corrections[2].term(2, 0)).real
        for n_t in range(4):
            for n_r in range(4):
                idx = n_t * p.n_r_max + n_r
                if abs(shifts[idx]) < 1e-300:
                    continue
                assert abs(shifts2[idx] - 4 * shifts[idx]) <= 1e-10 * abs(shifts2[idx])
    _report("4 transmon-resonator", start, budget=120.0)


# ---------------------------------------------------------------------------
# 5. least-action convergence at desk scale
# ---------------------------------------------------------------------------


def test_criterion_5_la_convergence():
    start = time.perf_counter()
    spec = EnsembleSpec(
        count=50, dim_min=6, dim_max=14, blocks_min=2, blocks_max=4,
        coupling=0.05, seed=7,
    )
    rows, skipped = run_fig3_experiment(spec, max_order=8)
    assert len(skipped) <= 2, f"too many skipped instances: {skipped}"
    medians = median_eta_by_order(rows)
    values = [medians[n] for n in range(1, 9)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:])), values
    assert medians[8] < 1e-3 * medians[4], (medians[8], medians[4])
    assert abs(medians[1] - medians[2]) <= 0.05 * medians[1]
    assert abs(medians[1] - medians[3]) <= 0.05 * medians[1]

    # lambda-halving ratio ~ 2^(n+1) on the leading instances, n = 4
    n = 4
    ratios = []
    for index in range(6):
        h, blocks = sample_instance(spec, index)
        result = run_la(h, blocks, n)
        exacts = {}
        for lam in (0.5, 0.25):
            numeric = evaluate_at(h, lam)
            _, h_exact = exact_block_diagonalize(numeric, blocks)
            exacts[lam] = spectral_distance(
                h_exact, partial_sum_matrix(result, n, lam)
            )
        ratios.append(exacts[0.5] / exacts[0.25])
    median_ratio = float(np.median(ratios))
    assert 0.7 * 2 ** (n + 1) < median_ratio < 1.4 * 2 ** (n + 1), ratios
    _report("5 LA convergence", start, budget=300.0)


# ---------------------------------------------------------------------------
# 6. arbitrary-coupling elimination demonstration
# ---------------------------------------------------------------------------


def test_criterion_6_ace_demonstration():
    start = time.perf_counter()
    d, seed = 12, 11
    h = random_ace_hamiltonian(d, seed)
    mask = checkerboard_mask(d)
    result = run_ace(h, mask, max_order=3)
    eliminated = mask.eliminate
    for n in range(1, 4):
        for _, mat in result.corrections[n].items():
            assert np.abs(mat[eliminated]).max() < 1e-12
    summed = partial_sum_matrix(result, 3, 1.0)
    unmasked_off = ~eliminated & ~np.eye(d, dtype=bool)
    assert np.abs(summed[unmasked_off]).max() > 1e-3
    _report("6 ACE demonstration", start, budget=30.0)


# ---------------------------------------------------------------------------
# 7. structural invariant sweep
# ---------------------------------------------------------------------------


def _sweep_instance(seed: int):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 8))
    diag = np.sort(rng.uniform(0.0, d, size=d)) + 0.15 * np.arange(d)
    off = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    off = 0.04 * (off + off.conj().T) / 2
    off -= np.diag(np.diag(off))
    driven = seed % 2 == 0
    terms = {(0, 0): np.diag(diag), (1, 0): off}
    omega_d = None
    if driven:
        drive = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        drive = 0.03 * (drive + drive.conj().T) / 2
        omega_d = 0.2713
        terms[(1, 1)] = drive
        terms[(1, -1)] = drive.conj().T
    return GradedOperator(d, terms, omega_d=omega_d), rng


def test_criterion_7_structural_invariants():
    start = time.perf_counter()
    checked_reference = 0
    for seed in range(200):
        h, rng = _sweep_instance(seed)
        d = h.dim
        routine = seed % 4
        if routine == 0:
            half = d // 2
            sizes = [half, d - half]
            mask = Mask.block_off_diagonal(sizes)
            result = run_swt(
                h.where(mask.keep), h.where(mask.eliminate), sizes, max_order=3
            )
        elif routine == 1:
            result = run_fd(h, max_order=3)
        elif routine == 2:
            idx = np.arange(d)
            mask = Mask(((idx[:, None] + idx[None, :]) % 2 == 1))
            result = run_ace(h, mask, max_order=3)
        else:
            static = GradedOperator(
                d, {key: mat for key, mat in h.items() if key[1] == 0}
            )
            half = d // 2
            result = run_la(static, BlockStructure((half, d - half)), max_order=3)

        for n in range(1, 4):
            assert result.generator[n].is_anti_hermitian_graded(1e-12), (seed, n)
            assert result.corrections[n].is_hermitian_graded(1e-12), (seed, n)

        if routine != 3:
            # first-order condition, exact to rounding
            h0 = GradedOperator(d, {(0, 0): result.corrections[0].term(0, 0)},
                                omega_d=result.omega_d)
            target = sum(
                (GradedOperator(d, {key: mat}, omega_d=result.omega_d)
                 for key, mat in h.items() if key[0] == 1),
                GradedOperator(d, {}, omega_d=result.omega_d),
            ).where(result.mask.eliminate)
            s1 = result.generator[1]
            residual = commutator(h0, s1) + target - time_derivative(s1) * (
                1j * result.hbar
            )
            assert residual.max_abs() < 1e-14 * max(target.max_abs(), 1.0), seed

        # oracle unitarity on the static content
        static = GradedOperator(d, {k: m for k, m in h.items() if k[1] == 0})
        numeric = evaluate_at(static, 1.0)
        half = d // 2
        u_dagger, _ = exact_block_diagonalize(numeric, BlockStructure((half, d - half)))
        assert np.abs(u_dagger.conj().T @ u_dagger - np.eye(d)).max() < 1e-10, seed

        # the (order, nestedness) recursion equals the chain-by-chain sum
        if seed % 10 == 0:
            if routine == 3:
                want = reference_la(static, BlockStructure((half, d - half)), 3)
            else:
                want = reference_transform(h, result.mask, 3)
            scale = max(np.abs(h.term(0, 0)).max(), 1.0)
            for got, ref in zip((result.corrections, result.generator), want):
                for n in range(1, 4):
                    for key in set(got[n].keys()) | set(ref[n].keys()):
                        diff = np.abs(got[n].term(*key) - ref[n].term(*key)).max()
                        assert diff <= 1e-14 * scale, (seed, n, key)
            checked_reference += 1
    assert checked_reference == 20
    _report("7 structural invariants", start, budget=180.0)


# ---------------------------------------------------------------------------
# 8. CLI golden determinism
# ---------------------------------------------------------------------------


def test_criterion_8_cli_golden(tmp_path):
    start = time.perf_counter()
    problem = {
        "dim": 2,
        "hbar": 1.0,
        "method": "swt",
        "max_order": 2,
        "block_sizes": [1, 1],
        "terms": [
            {"order": 0, "harmonic": 0,
             "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            {"order": 1, "harmonic": 0,
             "matrix": [[[0.0, 0.0], [0.1, 0.0]], [[0.1, 0.0], [0.0, 0.0]]]},
        ],
    }
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(problem), encoding="utf-8")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["transform", str(problem_path), "--out", str(out_a)]) == 0
    assert main(["transform", str(problem_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    spec = {
        "kind": "fig3", "count": 6, "dim_min": 6, "dim_max": 9,
        "blocks_min": 2, "blocks_max": 3, "coupling": 0.05,
        "seed": 13, "max_order": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    csv_a, csv_b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["experiment", str(spec_path), "--out", str(csv_a)]) == 0
    assert main(["experiment", str(spec_path), "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    _report("8 CLI golden determinism", start, budget=60.0)
