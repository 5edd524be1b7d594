"""Generator conditions and the SWT / FD / ACE transformation routines.

All routines share one iterative loop over the transformed Hamiltonian

    e^(-S) H e^(S) - i*hbar e^(-S) d/dt e^(S) = sum_m C_m / m!,

where C_m^(n) = sum_s [C_{m-1}^(n-s), S^(s)] sums every nested commutator of
order n and nestedness m over the base H (C_0 = H), except that C_1^(n)
holds [H0, S^(n)] - i*hbar*dS^(n)/dt in place of [H0, S^(n)]: the chains
over the base dS/dt carry the same coefficients one nestedness later, so
they ride in this one series.  At order n the known content K_n is the
order-n part of the sum without the C_1^(n) term that needs S^(n).  The
part T_n of K_n landing on masked entries fixes S^(n) through the
elementwise condition

    S_ij,k = T_ij,k / (E_j - E_i - hbar*k*omega_d),

which solves [H0, S] - i*hbar*dS/dt = -T in the eigenbasis of the diagonal
unperturbed part.  That closes the loop: the missing C_1^(n) term is -T_n,
known without a product, so the order-n correction is K_n - T_n and -T_n
joins C_1^(n) for the orders above.  H0 is never multiplied, so shifting
it by c*1 moves an order >= 1 output only by the round-off of the shifted
differences E_j - E_i.  Order n costs O(n^2) commutators,
so a run through order N costs O(N^3).

Inside the loop the chains C_m^(n) live in a ``NestedSeries``, which forms
all nestedness levels of one term of the sum over s in one batched product,
and K_n, T_n and S^(n) are ``GradedSum``s that weighted terms are added
into in place; every entry is pruned when it is read as an operand.  Inputs,
finished and frozen ``GradedSum``s, are read as they are, and only the
corrections and the generator handed out in the ``TransformResult`` are
frozen into ``GradedOperator``s, without a copy.  ``rotate_operator`` runs
the same recursion over an arbitrary operator; its generator obeys no
generator condition, so there [O0, S^(n)] is a product like any other.

Every routine, least action's recursion included, validates its input and
builds its ``EigenFrame`` in one place, ``_prepare``, whose thresholds are
relative to half the level spread, so no shift or rescale of H0 flips a
verdict.  ``_prepare`` returns the run's ``EliminationTable``, built once
from the frame, the mask, hbar, omega_d and ``res_tol``: per harmonic k it
holds the denominators E_j - E_i - hbar*k*omega_d and the masked entries
closer to zero than the tolerance, so no order recomputes them.  Its
``solve`` is the only elimination in the package; ``_transform`` (through
``solve_sum``) and least action's ``_la_orders`` both call it.
One rule judges every denominator: a significant masked entry whose
|E_j - E_i - hbar*k*omega_d| falls below ``res_tol`` of the level spread
raises ResonantDenominator at the order that needs it.  A static coupling
between degenerate levels is the k = 0 case of that rule.

A run computes in one field, picked at its boundary by
``graded.common_field``: ``_prepare`` hands out H split by order as float64
copies of its real parts when no term has a nonzero imaginary part, and as
it is otherwise; ``rotate_operator`` does the same over the operator and
the generator orders it uses.  The series, the sums and ``solve`` take the
dtype of their operands, and the results are frozen back into complex128
``GradedOperator``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import PertError, ResonantDenominator
from .graded import (
    GradedOperator,
    GradedSum,
    NestedSeries,
    ZERO_RTOL,
    common_field,
    freeze_series,
)

#: Default tolerance, relative to the level spread, declaring a denominator resonant.
DEFAULT_RES_TOL = 1e-9
#: Deviation from anti-hermiticity, relative to each generator term, that rotation
#: accepts as round-off; an order 8 term built from cancelling products carries ~1e-10.
GENERATOR_RTOL = 1e-8


@dataclass(frozen=True)
class EigenFrame:
    """Spectrum of the diagonal unperturbed part, the levels every denominator joins."""

    energies: np.ndarray

    @staticmethod
    def from_energies(energies: np.ndarray) -> "EigenFrame":
        e = np.array(energies, dtype=float)  # own copy, frozen
        e.flags.writeable = False
        return EigenFrame(e)

    @property
    def dim(self) -> int:
        return len(self.energies)

    def energy_scale(self) -> float:
        """The level spread max(E) - min(E), or 1 when all levels coincide.

        Tolerances scale with it, not with max|E|, so that shifting H0 by a
        multiple of the identity leaves them unchanged.
        """
        return _spread(self.energies) or 1.0


def _spread(energies: np.ndarray) -> float:
    return float(energies.max() - energies.min()) if energies.size else 0.0


class Mask:
    """Hermitian-symmetric boolean pattern of couplings to eliminate."""

    __slots__ = ("eliminate", "keep")

    def __init__(self, eliminate: np.ndarray):
        el = np.asarray(eliminate, dtype=bool).copy()
        if el.ndim != 2 or el.shape[0] != el.shape[1]:
            raise ValueError(f"mask must be square, got shape {el.shape}")
        if not np.array_equal(el, el.T):
            raise ValueError("mask must be symmetric")
        if el.diagonal().any():
            raise ValueError("mask must not target diagonal entries")
        el.flags.writeable = False
        self.eliminate = el
        self.keep = ~el
        self.keep.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.eliminate.shape[0]

    @staticmethod
    def full_off_diagonal(dim: int) -> "Mask":
        return Mask(~np.eye(dim, dtype=bool))

    @staticmethod
    def block_off_diagonal(block_sizes: list[int] | tuple[int, ...]) -> "Mask":
        """Mask every entry connecting two different contiguous blocks."""
        sizes = [int(s) for s in block_sizes]
        if any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        labels = np.repeat(np.arange(len(sizes)), sizes)
        return Mask(labels[:, None] != labels[None, :])

    @staticmethod
    def from_pairs(dim: int, pairs) -> "Mask":
        el = np.zeros((dim, dim), dtype=bool)
        for i, j in pairs:
            if i == j or not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"mask pair ({i}, {j}) must join two levels among 0..{dim - 1}")
            el[i, j] = el[j, i] = True
        return Mask(el)


@dataclass
class Diagnostics:
    #: dense d x d matrix products spent by the run
    products: int = 0


@dataclass
class TransformResult:
    """Per-order corrections, the generator series and the frame metadata."""

    corrections: dict[int, GradedOperator]
    generator: dict[int, GradedOperator]
    frame: EigenFrame
    mask: Mask
    method: str
    max_order: int
    hbar: float
    omega_d: float | None
    diagnostics: Diagnostics

    @property
    def dim(self) -> int:
        return self.frame.dim

    def effective_hamiltonian(self, up_to_order: int | None = None) -> GradedOperator:
        """Sum of the corrections through the given order >= 0 (default: all)."""
        top = self.max_order if up_to_order is None else up_to_order
        if top > self.max_order:
            raise ValueError(f"order {top} exceeds solved order {self.max_order}")
        if top < 0:
            raise ValueError(f"order must be >= 0, got {top}")
        total = GradedSum()
        for n, corr in self.corrections.items():
            if n <= top:
                total.add_scaled(corr, 1.0)
        return GradedOperator._adopt(self.dim, total, self.omega_d)


class EliminationTable:
    """The denominators of one run, built once from its frame, mask, hbar,
    omega_d and resonance tolerance; solves each order's masked target.

    For each harmonic k it holds D_k = E_j - E_i - hbar*k*omega_d, made when
    k is first met, with the masked entries whose |D_k| falls below ``tol``
    (``res_tol`` times the level spread), or None where there are none.
    """

    __slots__ = ("frame", "mask", "tol", "_shift", "_harmonics")

    def __init__(self, frame: EigenFrame, mask: Mask, hbar: float,
                 omega_d: float | None, res_tol: float):
        self.frame = frame
        self.mask = mask
        self.tol = res_tol * frame.energy_scale()
        self._shift = (hbar, omega_d or 0.0)
        self._harmonics: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}

    def _denominators(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        """D_k and its masked entries closer to zero than ``tol`` (None if none)."""
        entry = self._harmonics.get(k)
        if entry is None:
            hbar, omega_d = self._shift
            energies = self.frame.energies
            denom = energies[None, :] - energies[:, None] - hbar * k * omega_d
            near = self.mask.eliminate & (np.abs(denom) < self.tol)
            entry = self._harmonics[k] = (denom, near if near.any() else None)
        return entry

    def solve(self, order: int, k: int, mat: np.ndarray) -> np.ndarray:
        """The order-``order`` generator matrix of harmonic k for a masked target ``mat``.

        Masked entries whose target is not negligible next to its largest
        entry are divided by D_k, every other entry is 0; a significant entry
        on a resonant denominator raises ResonantDenominator.
        """
        denom, near = self._denominators(k)
        size = np.abs(mat)
        significant = self.mask.eliminate & (size > ZERO_RTOL * size.max())
        if near is not None:
            resonant = significant & near
            if resonant.any():
                i, j = np.argwhere(resonant)[0]
                raise ResonantDenominator(int(i), int(j), k, float(denom[i, j]), order)
        safe = np.where(significant, denom, 1.0)
        return np.where(significant, mat / safe, 0.0)

    def solve_sum(self, order: int, target: GradedSum) -> GradedSum:
        """``solve`` for every key of an order-``order`` target, as a finished sum."""
        return GradedSum({(order, k): self.solve(order, k, mat)
                          for (_, k), mat in target.terms.items()}).finish()


# ---------------------------------------------------------------------------
# The problem boundary and the shared transformation loop
# ---------------------------------------------------------------------------


def _prepare(h: GradedOperator, mask: Mask, max_order: int, hbar: float,
             res_tol: float) -> tuple[EliminationTable, dict[int, GradedSum]]:
    """The one problem boundary of every routine: validate, return the run's
    elimination table, which holds the frame, and ``h`` split by order in the
    run's field (``graded.common_field``): float64 if no term of ``h`` has a
    nonzero imaginary part, else complex128.

    The mask must fit ``h``; ``h`` must be hermitian-graded with a static,
    real, diagonal order-0 part, judged against half the level spread, which
    a shift of H0 leaves and a rescale scales along; ``max_order`` >= 0;
    ``hbar``, ``res_tol``, and with a nonzero harmonic ``h.omega_d``, finite
    and positive.  Degenerate levels are not judged here: the table rejects
    a coupling between them as a resonance at the order that needs it.
    """
    if not _finite_positive(res_tol):
        raise PertError(f"res_tol must be finite and positive, got {res_tol}")
    if mask.dim != h.dim:
        raise ValueError(f"the mask covers {mask.dim} levels, the operator {h.dim}")
    _require_hermitian_graded(h, "the Hamiltonian")
    if any(j == 0 and k != 0 for j, k in h.keys()):
        raise PertError("the unperturbed part must be static (harmonic 0)")
    if (0, 0) not in h.keys():
        raise PertError("an order-0 term is required")
    h0 = h.term(0, 0)
    diag = np.diag(h0)
    frame = EigenFrame.from_energies(diag.real)
    # the spectrum's half-width: blind to a shift, never above max|E|, and 0
    # for coinciding levels, next to which any such content counts
    width = _spread(frame.energies) / 2
    if np.abs(h0 - np.diag(diag)).max() > ZERO_RTOL * width:
        raise PertError("the order-0 part must be supplied diagonal")
    if np.abs(diag.imag).max() > 1e-12 * width:
        raise PertError("the order-0 diagonal must be real")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if not _finite_positive(hbar):
        raise PertError(f"hbar must be finite and positive, got {hbar}")
    _require_drive((h,), h.omega_d)
    base, = common_field(h.by_order())
    return EliminationTable(frame, mask, hbar, h.omega_d, res_tol), base


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _require_drive(ops, omega_d: float | None) -> None:
    """With a nonzero harmonic in any of ``ops``, ``omega_d`` must be finite and positive."""
    if any(k != 0 for op in ops for k in op.harmonics()) and not (
            omega_d is not None and _finite_positive(omega_d)):
        raise PertError(f"omega_d must be finite and positive, got {omega_d}")


def _require_hermitian_graded(op: GradedOperator, name: str) -> None:
    if not op.is_hermitian_graded():
        raise PertError(f"{name} is not hermitian-graded (M[j, k]^dag != M[j, -k])")


def _inverse_factorial(m: int) -> float:
    if m <= 170:  # m! is a finite double
        return 1.0 / math.factorial(m)
    # the exact quotient rounded once: subnormal up to m = 177, then 0.0
    return 1 / math.factorial(m)


def _inverse_factorials(top: int) -> np.ndarray:
    """1/m! for m = 0 .. top, the weight of nestedness m."""
    return np.array([_inverse_factorial(m) for m in range(top + 1)])


def _transform(
    method: str,
    h: GradedOperator,
    mask: Mask,
    max_order: int,
    hbar: float,
    res_tol: float,
) -> TransformResult:
    table, base = _prepare(h, mask, max_order, hbar, res_tol)
    frame = table.frame
    omega_d = h.omega_d
    generator: dict[int, GradedSum] = {}
    chains = NestedSeries(base, generator, max_order, commutator=True)
    weights = _inverse_factorials(max_order)
    corrections: dict[int, GradedSum] = {0: base[0]}
    for n in range(1, max_order + 1):
        chains.extend(n)
        known = chains.weighted_sum(n, weights)
        masked = known.where(mask.eliminate)
        generator[n] = table.solve_sum(n, masked)
        # the generator condition: [H0, S^(n)] - i*hbar*dS^(n)/dt = -masked
        chains.add(n, 1, masked, -1.0)
        known.add_scaled(masked, -1.0)
        corrections[n] = known
    return TransformResult(
        corrections=freeze_series(corrections, frame.dim, omega_d),
        generator=freeze_series(generator, frame.dim, omega_d),
        frame=frame,
        mask=mask,
        method=method,
        max_order=max_order,
        hbar=hbar,
        omega_d=omega_d,
        diagnostics=Diagnostics(products=chains.products),
    )


# ---------------------------------------------------------------------------
# Public routines
# ---------------------------------------------------------------------------


def run_swt(
    h_blocks: GradedOperator,
    v: GradedOperator,
    block_sizes: list[int] | tuple[int, ...],
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Schrieffer-Wolff transformation eliminating inter-block couplings.

    ``h_blocks`` must be block-diagonal with respect to ``block_sizes`` and
    carry a static diagonal order-0 part; ``v`` holds the perturbative
    couplings (orders >= 1).  Block-diagonal content of ``v`` is legal and is
    simply retained in the corrections.
    """
    if h_blocks.dim != v.dim:
        raise ValueError(f"dimension mismatch: {h_blocks.dim} vs {v.dim}")
    _require_hermitian_graded(h_blocks, "h_blocks")
    _require_hermitian_graded(v, "the perturbation")
    mask = Mask.block_off_diagonal(block_sizes)
    # a mask of the wrong size is reported by _prepare
    if mask.dim == v.dim and not h_blocks.where(mask.eliminate).is_zero:
        raise PertError("h_blocks has content outside its declared blocks")
    if 0 in v.orders():
        raise PertError("the perturbation must not carry an order-0 term")
    # the sum checks that the drive frequencies agree
    return _transform("swt", h_blocks + v, mask, max_order, hbar, res_tol)


def run_fd(
    h: GradedOperator,
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Full diagonalization: eliminate every off-diagonal coupling.

    Requires the order-0 part diagonal and a nondegenerate coupled spectrum:
    a coupling between two levels closer than ``res_tol`` of the level
    spread raises ResonantDenominator (harmonic 0) at the first order whose
    known content holds it, so a pair coupled only above ``max_order``
    solves.
    """
    return _transform("fd", h, Mask.full_off_diagonal(h.dim), max_order, hbar, res_tol)


def run_ace(
    h: GradedOperator,
    mask: Mask,
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Arbitrary-coupling elimination: zero exactly the masked entries.

    Unmasked off-diagonal content is retained in the corrections.  An empty
    mask yields the identity transformation.
    """
    return _transform("ace", h, mask, max_order, hbar, res_tol)


def rotate_operator(
    operator: GradedOperator,
    generator: Mapping[int, GradedOperator],
    up_to_order: int,
) -> GradedOperator:
    """Rotate an arbitrary operator into the frame of a solved generator.

    Returns exp(-S) O exp(S) truncated at total order ``up_to_order`` >= 0,
    with S = sum_n ``generator[n]`` (e.g. ``TransformResult.generator``),
    which must hold every order up to ``up_to_order``, each anti-hermitian-
    graded, so that exp(S) is unitary, and no order below 1.  With a
    nonzero harmonic, the drive frequency must be finite and positive.  The
    order-n term is sum_m C_m^(n) / m! with C_0 = O, computed in float64 if
    neither O nor the generator orders used have a nonzero imaginary part.
    """
    if up_to_order < 0:
        raise ValueError(f"rotation order must be >= 0, got {up_to_order}")
    if min(generator, default=1) < 1:
        raise ValueError(f"a generator's orders start at 1, got order {min(generator)}")
    missing = [n for n in range(1, up_to_order + 1) if n not in generator]
    if missing:
        raise ValueError(
            f"rotation order {up_to_order} exceeds solved order {missing[0] - 1}"
        )
    for n in range(1, up_to_order + 1):
        if not generator[n].is_anti_hermitian_graded(GENERATOR_RTOL):
            raise PertError(f"the order-{n} generator is not anti-hermitian-graded "
                            "(S[j, k]^dag != -S[j, -k])")
    merged = operator
    for s_n in generator.values():
        merged._check_compatible(s_n)  # dimension and drive frequency
        if merged.omega_d is None:
            merged = s_n
    _require_drive((operator, *generator.values()), merged.omega_d)
    base, factors = common_field(operator.by_order(),
                                 {n: generator[n] for n in range(1, up_to_order + 1)})
    chains = NestedSeries(base, factors, up_to_order, commutator=True)
    weights = _inverse_factorials(up_to_order)
    total = GradedSum()
    total.add_scaled(base.get(0, GradedSum()), 1.0)
    for n in range(1, up_to_order + 1):
        chains.extend(n)
        total.add_scaled(chains.weighted_sum(n, weights), 1.0)
    return GradedOperator._adopt(operator.dim, total, merged.omega_d)
