"""Physical model builders, operator bases and closed-form references.

Two worked systems drive the regression suite: a spin in a slanting field
coupled to a driven harmonic oscillator (an electric-dipole spin resonance
setup), and a transmon coupled to a readout resonator in the dispersive
regime.  Both come with closed-form second-order results used as oracles for
the transformation engine, plus stochastic Hamiltonian generators for the
benchmark ensembles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import Mask
from .graded import GradedOperator


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------


def boson_ops(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation/creation pair; a[n-1, n] = sqrt(n).

    The commutator [a, a^dag] equals the identity except in the top Fock
    corner, which is why comparisons stay away from the truncation edge.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    a = np.diag(np.sqrt(np.arange(1, n_max)), k=1).astype(complex)
    return a, a.conj().T


def pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    s0 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return s0, sx, sy, sz


def kron(*ops: np.ndarray) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Identity plus the d^2 - 1 generalized Gell-Mann matrices.

    Orthogonal under the trace inner product; for d = 2 this is exactly
    (identity, sigma_x, sigma_y, sigma_z).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    basis = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j
            anti[k, j] = 1j
            basis.append(anti)
    for level in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        basis.append(np.sqrt(2.0 / (level * (level + 1))) * np.diag(diag))
    return basis


def project_onto_basis(mat: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Coefficients c_i = tr(B_i^dag M) / tr(B_i^dag B_i)."""
    mat = np.asarray(mat, dtype=complex)
    return np.array(
        [np.trace(b.conj().T @ mat) / np.trace(b.conj().T @ b) for b in basis]
    )


# ---------------------------------------------------------------------------
# spin qubit in a slanting field, driven oscillator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EDSRParams:
    """Parameters of the driven spin-resonator model (angular frequencies)."""

    omega: float          # resonator frequency
    omega_z: float        # qubit frequency
    omega_d: float        # drive frequency
    b_sl: float           # slanting-field coupling
    e0: float             # drive amplitude
    hbar: float = 1.0
    n_max: int = 20

    def __post_init__(self):
        if self.n_max < 4:
            raise ValueError("n_max must be at least 4")

    @property
    def delta_z(self) -> float:
        """Second-order fractional qubit-frequency shift."""
        return self.b_sl ** 2 / (2 * (self.omega ** 2 - self.omega_z ** 2))

    @property
    def omega_qubit(self) -> float:
        return self.omega_z * (1 - self.delta_z)


def build_edsr(p: EDSRParams) -> tuple[GradedOperator, GradedOperator, GradedOperator]:
    """H = hbar*w a^dag a - (hbar*w_z/2) s_z - (hbar*b/2)(a^dag + a) s_x
           - E0 cos(w_d t)(a^dag + a).

    Returns (H_blocks, V, drive) on the spin (x) Fock product space, ordered
    spin-major so the two spin blocks are contiguous [n_max, n_max] ranges.
    The static coupling sits at order 1; the drive is split into harmonics
    k = +/-1 with weight E0/2 each.
    """
    n = p.n_max
    a, adag = boson_ops(n)
    s0, sx, _, sz = pauli()
    eye_b = np.eye(n, dtype=complex)
    dim = 2 * n
    gaps = [abs(p.omega - p.omega_z), abs(p.omega + p.omega_z),
            abs(p.omega - p.omega_d), abs(p.omega + p.omega_d)]
    if max(abs(p.b_sl), abs(p.e0)) * 10 > min(g for g in gaps if g > 0):
        warnings.warn(
            "couplings are not small against |omega +- omega_z| and "
            "|omega +- omega_d|; perturbative results may be unreliable",
            stacklevel=2,
        )
    h0 = p.hbar * p.omega * kron(s0, adag @ a) - 0.5 * p.hbar * p.omega_z * kron(sz, eye_b)
    h_blocks = GradedOperator(dim, {(0, 0): h0}, omega_d=p.omega_d)
    v_mat = -0.5 * p.hbar * p.b_sl * kron(sx, adag + a)
    v = GradedOperator(dim, {(1, 0): v_mat}, omega_d=p.omega_d)
    drive_mat = -0.5 * p.e0 * kron(s0, adag + a)
    drive = GradedOperator(
        dim, {(1, 1): drive_mat, (1, -1): drive_mat}, omega_d=p.omega_d
    )
    return h_blocks, v, drive


def spin_sector(mat: np.ndarray, n_max: int) -> np.ndarray:
    """2x2 spin matrix from the bosonic ground-state expectation."""
    idx = [0, n_max]
    return np.asarray(mat, dtype=complex)[np.ix_(idx, idx)]


def sigma_z_fock_coefficient(mat: np.ndarray, n_max: int) -> np.ndarray:
    """Per-Fock-entry sigma_z coefficient: (up block - down block) / 2."""
    mat = np.asarray(mat, dtype=complex)
    up = mat[:n_max, :n_max]
    down = mat[n_max:, n_max:]
    return (up - down) / 2


def sigma_x_drive_amplitude(g: GradedOperator, n_max: int) -> float:
    """Amplitude of cos(w_d t) sigma_x on the qubit (vacuum projection).

    The harmonic +1 and -1 parts contribute equally for a hermitian-graded
    operator, so the cosine amplitude is twice the +1 coefficient.
    """
    total = np.zeros((2, 2), dtype=complex)
    for (_, k), mat in g.items():
        if k == 1:
            total += spin_sector(mat, n_max)
    amp = total[0, 1] + total[1, 0]
    return float(amp.real)


# ---------------------------------------------------------------------------
# transmon coupled to a resonator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransmonParams:
    """Transmon-resonator parameters; hbar = 1 units."""

    omega_t: float        # transmon frequency
    omega_r: float        # resonator frequency
    alpha: float          # transmon anharmonicity
    g: float              # coupling
    n_t_max: int = 8
    n_r_max: int = 8

    def __post_init__(self):
        if self.n_t_max < 4 or self.n_r_max < 4:
            raise ValueError("mode truncations must be at least 4")


def build_transmon_resonator(p: TransmonParams) -> GradedOperator:
    """H = w_t N_t + w_r N_r + (alpha/2) a_t^dag a_t^dag a_t a_t
           - g (a_t^dag - a_t)(a_r^dag - a_r).

    Transmon-major ordering: index = n_t * n_r_max + n_r.  Warns when the
    coupling is not small against the dispersive detunings
    |w_r - w_t - n_t*alpha/2|.
    """
    at, adt = boson_ops(p.n_t_max)
    ar, adr = boson_ops(p.n_r_max)
    eye_t, eye_r = np.eye(p.n_t_max), np.eye(p.n_r_max)
    dim = p.n_t_max * p.n_r_max
    h0 = (
        p.omega_t * kron(adt @ at, eye_r)
        + p.omega_r * kron(eye_t, adr @ ar)
        + 0.5 * p.alpha * kron(adt @ adt @ at @ at, eye_r)
    )
    v = -p.g * kron(adt - at, adr - ar)
    detunings = [
        abs(p.omega_r - p.omega_t - n_t * p.alpha / 2) for n_t in range(p.n_t_max)
    ]
    if abs(p.g) * 10 > min(detunings):
        warnings.warn(
            "coupling is not small against the dispersive detunings; "
            "perturbative results may be unreliable",
            stacklevel=2,
        )
    return GradedOperator(dim, {(0, 0): h0, (1, 0): v})


def dispersive_shift(p: TransmonParams, n_t: int, n_r: int) -> float:
    """Closed-form second-order energy shift of the state (n_t, n_r).

    Evaluates the dispersive corrections as one pole structure in the four
    virtual transitions (transmon and resonator raised or lowered together
    or oppositely): the transmon and resonator frequency pulls, the
    anharmonicity correction, the linear and nonlinear cross-Kerr brackets,
    and the excitation-independent vacuum bracket.  Every bracket is a
    function of the transmon occupation through the same four denominators

        A  = alpha*(n_t - 1) - w_r + w_t      (transmon down, resonator up)
        B  = alpha*n_t + w_r + w_t            (both up)
        A' = alpha*n_t - w_r + w_t            (transmon up, resonator down)
        D  = alpha*(n_t - 1) + w_r + w_t      (both down)

    and every group scales exactly as g^2.
    """
    wt, wr, al, g = p.omega_t, p.omega_r, p.alpha, p.g
    g2 = g * g
    d_a = n_t * al - al - wr + wt
    d_b = n_t * al + wr + wt
    d_ap = n_t * al - wr + wt
    d_d = n_t * al - al + wr + wt
    scale = max(abs(wt), abs(wr), 1.0)
    for name, value in (("A", d_a), ("B", d_b), ("A'", d_ap), ("D", d_d)):
        if abs(value) < 1e-12 * scale:
            raise ValueError(
                f"vanishing denominator {name} at n_t = {n_t}; "
                "the state sits on a resonance"
            )
    omega_t_pull = g2 * (
        2 / d_a - 2 / d_b + (al + wr - wt) / d_a ** 2 + (al + wr + wt) / d_b ** 2
    )
    omega_r_pull = g2 * (
        -2 / d_b - 2 / d_ap + (wt - wr) / d_ap ** 2 + (wr + wt) / d_b ** 2
    )
    anharm_pull = al * g2 * (1 / d_b ** 2 - 1 / d_a ** 2)
    linear_ck = g2 * (
        2 / d_d + 2 / d_a - 2 / d_b - 2 / d_ap
        + (al - wr - wt) / d_d ** 2
        + (al + wr - wt) / d_a ** 2
        + (al + wr + wt) / d_b ** 2
        + (al - wr + wt) / d_ap ** 2
    )
    nonlinear_ck = al * g2 * (
        -1 / d_a ** 2 - 1 / d_d ** 2 + 1 / d_ap ** 2 + 1 / d_b ** 2
    )
    vacuum = -g2 * (1 / d_b + al * n_t / d_b ** 2)
    return (
        omega_t_pull * n_t
        + omega_r_pull * n_r
        + anharm_pull * n_t ** 2
        + linear_ck * n_t * n_r
        + nonlinear_ck * n_t ** 2 * n_r
        + vacuum
    )


# ---------------------------------------------------------------------------
# stochastic Hamiltonians
# ---------------------------------------------------------------------------


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def _sorted_diagonal(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.sort(rng.uniform(0.0, float(d), size=d))


def _ladder_diagonal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Ascending random levels with unit mean spacing and a 0.5 gap floor.

    Keeps every instance safely perturbative: couplings drawn at a few
    percent of the mean spacing stay small against the smallest gap.
    """
    spacings = rng.uniform(0.5, 1.5, size=d - 1)
    return np.concatenate([[0.0], np.cumsum(spacings)])


# a coupling that overflows raises NonFiniteContent when the operator is
# built: numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def random_ace_hamiltonian(d: int, seed, scale: float = 0.05) -> GradedOperator:
    """Sorted random diagonal at order 0, dense random couplings at order 1.

    ``scale`` multiplies the mean level spacing.  Deterministic in the seed.
    A coupling that overflows raises ``NonFiniteContent``.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    rng = np.random.default_rng(seed)
    diag = _sorted_diagonal(rng, d)
    spacing = (diag[-1] - diag[0]) / (d - 1)
    off = _random_hermitian(rng, d)
    off -= np.diag(np.diag(off))
    return GradedOperator(d, {(0, 0): np.diag(diag), (1, 0): scale * spacing * off})


def random_bd_hamiltonian(block_sizes, seed, scale: float = 0.05) -> GradedOperator:
    """Block-structured instance: in-block couplings at order 1, cross-block
    couplings at order 2, over an ascending random diagonal.

    Magnitudes track the bookkeeping order: in-block entries are drawn at
    ``scale`` times the mean spacing, cross-block entries at ``scale`` squared
    times the mean spacing, so the order-n tail of the transformed series
    shrinks uniformly by one power of ``scale`` per order.  A ``scale`` whose
    square is not a finite float raises ``ValueError``, and a coupling that
    overflows ``NonFiniteContent``.
    """
    rng = np.random.default_rng(seed)
    return _random_bd(rng, Mask.block_off_diagonal(block_sizes), scale)


@np.errstate(over="ignore", invalid="ignore")  # as in random_ace_hamiltonian
def _random_bd(rng: np.random.Generator, mask: Mask, scale: float) -> GradedOperator:
    if not math.isfinite(float(scale) * float(scale)):
        raise ValueError(f"scale must be finite with a finite square, got {scale}")
    d = mask.dim
    diag = _ladder_diagonal(rng, d)
    spacing = (diag[-1] - diag[0]) / (d - 1)
    same_block = mask.keep
    off = _random_hermitian(rng, d)
    off -= np.diag(np.diag(off))
    in_block = scale * spacing * np.where(same_block, off, 0.0)
    cross = scale ** 2 * spacing * np.where(same_block, 0.0, off)
    return GradedOperator(
        d, {(0, 0): np.diag(diag), (1, 0): in_block, (2, 0): cross}
    )
