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
it by c*1 changes no order >= 1 output.  Order n costs O(n^2) commutators,
so a run through order N costs O(N^3).

Inside the loop the chains C_m^(n) live in a ``NestedSeries``, which forms
all nestedness levels of one term of the sum over s in one batched product,
and K_n, T_n and S^(n) are ``GradedSum``s that weighted terms are added
into in place; every entry is pruned when it is read as an operand.  Inputs
are read as views of their ``GradedOperator`` terms, and only the
corrections and the generator handed out in the ``TransformResult`` are
frozen into ``GradedOperator``s, without a copy.  ``rotate_by_order`` runs
the same recursion over an arbitrary operator; its generator obeys no
generator condition, so there [O0, S^(n)] is a product like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateSpectrum, PertError, ResonantDenominator
from .graded import (
    GradedOperator,
    GradedSum,
    NestedSeries,
    ProductTally,
    ZERO_RTOL,
    freeze_series,
    zero_operator,
)

#: Default tolerance, relative to the level spread, declaring two levels degenerate.
DEFAULT_DEG_TOL = 1e-9
#: Default tolerance, relative to the level spread, declaring a denominator resonant.
DEFAULT_RES_TOL = 1e-9


@dataclass(frozen=True)
class EigenFrame:
    """Spectrum of the diagonal unperturbed part, with degeneracy classes."""

    energies: np.ndarray
    deg_tol: float
    classes: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_energies(energies: np.ndarray, deg_tol: float | None = None) -> "EigenFrame":
        e = np.array(energies, dtype=float)  # own copy; frozen below
        scale = _spread(e)
        tol = deg_tol if deg_tol is not None else DEFAULT_DEG_TOL * (scale or 1.0)
        order = np.argsort(e, kind="stable")
        classes: list[list[int]] = []
        for idx in order:
            if classes and abs(e[idx] - e[classes[-1][-1]]) <= tol:
                classes[-1].append(int(idx))
            else:
                classes.append([int(idx)])
        frozen = tuple(tuple(sorted(c)) for c in classes)
        e.flags.writeable = False
        return EigenFrame(e, tol, frozen)

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

    @property
    def is_empty(self) -> bool:
        return not self.eliminate.any()

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
            if i == j:
                raise ValueError("mask pairs must be off-diagonal")
            el[i, j] = el[j, i] = True
        return Mask(el)

    def project(self, g: GradedOperator) -> GradedOperator:
        """Keep only masked entries, per (order, harmonic) key."""
        return GradedOperator._adopt(g.dim, GradedSum.of(g).where(self.eliminate), g.omega_d)

    def complement_project(self, g: GradedOperator) -> GradedOperator:
        """Keep only unmasked entries, per (order, harmonic) key."""
        return GradedOperator._adopt(g.dim, GradedSum.of(g).where(self.keep), g.omega_d)


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
        """Sum of the corrections through the given order (default: all)."""
        top = self.max_order if up_to_order is None else up_to_order
        if top > self.max_order:
            raise ValueError(f"order {top} exceeds solved order {self.max_order}")
        total = GradedSum()
        for n, corr in self.corrections.items():
            if n <= top:
                total.add_scaled(GradedSum.of(corr), 1.0)
        return GradedOperator._adopt(self.dim, total, self.omega_d)


def solve_generator_order(
    target: GradedOperator,
    frame: EigenFrame,
    mask: Mask,
    hbar: float = 1.0,
    omega_d: float | None = None,
    res_tol: float = DEFAULT_RES_TOL,
) -> GradedOperator:
    """Solve [H0, S] - i*hbar*dS/dt = -target elementwise in the eigenbasis.

    ``target`` must be hermitian-graded, live at a single order and be
    supported on masked entries only (callers project first).  Masked entries
    whose target is zero get S = 0 even when the denominator vanishes; a
    nonzero target on a resonant denominator raises ResonantDenominator.
    """
    if target.is_zero:
        return zero_operator(frame.dim, omega_d)
    orders = target.orders()
    if len(orders) != 1:
        raise ValueError(f"target must hold a single order, found {orders}")
    s = _solve(orders[0], GradedSum.of(target), frame, mask, hbar, omega_d, res_tol)
    return GradedOperator._adopt(frame.dim, s, omega_d)


def _solve(
    order: int,
    target: GradedSum,
    frame: EigenFrame,
    mask: Mask,
    hbar: float,
    omega_d: float | None,
    res_tol: float,
) -> GradedSum:
    """The order-``order`` generator for a masked ``target``, as a finished sum."""
    energies = frame.energies
    tol = res_tol * frame.energy_scale()
    out = GradedSum()
    for (_, k), mat in target.terms.items():
        if k != 0 and omega_d is None:
            raise ValueError("omega_d is required for nonzero harmonics")
        shift = hbar * k * (omega_d or 0.0)
        denom = energies[None, :] - energies[:, None] - shift
        size = np.abs(mat)
        significant = mask.eliminate & (size > ZERO_RTOL * size.max())
        resonant = significant & (np.abs(denom) < tol)
        if resonant.any():
            i, j = np.argwhere(resonant)[0]
            raise ResonantDenominator(int(i), int(j), k, float(denom[i, j]), order)
        safe = np.where(significant, denom, 1.0)
        out.terms[(order, k)] = np.where(significant, mat / safe, 0.0)
    return out.finish()


# ---------------------------------------------------------------------------
# Shared transformation loop
# ---------------------------------------------------------------------------


def _merged_omega(*ops: GradedOperator) -> float | None:
    omega = None
    for op in ops:
        if op.omega_d is not None:
            if omega is not None and op.omega_d != omega:
                raise ValueError("omega_d mismatch between inputs")
            omega = op.omega_d
    return omega


def _require_static_diagonal_order0(h: GradedOperator) -> np.ndarray:
    """Validate the order-0 part: one static, diagonal matrix."""
    for (j, k) in h.keys():
        if j == 0 and k != 0:
            raise PertError("the unperturbed part must be static (harmonic 0)")
    if (0, 0) not in h.keys():
        raise PertError("an order-0 term is required")
    h0 = h.term(0, 0)
    off = h0 - np.diag(np.diag(h0))
    if np.abs(off).max() > ZERO_RTOL * max(np.abs(h0).max(), 1.0):
        raise PertError("the order-0 part must be supplied diagonal")
    diag = np.diag(h0)
    if np.abs(diag.imag).max() > 1e-12 * max(np.abs(diag).max(), 1.0):
        raise PertError("the order-0 diagonal must be real")
    return diag.real.copy()


def _inverse_factorials(top: int) -> np.ndarray:
    """1/m! for m = 0 .. top, the weight of nestedness m."""
    return np.array([1.0 / math.factorial(m) for m in range(top + 1)])


def _by_order(op: GradedOperator) -> dict[int, GradedSum]:
    """Views of an operator's terms, one sum per order."""
    out: dict[int, GradedSum] = {}
    for (j, k), mat in op.items():
        out.setdefault(j, GradedSum()).terms[(j, k)] = mat
    return out


def _transform(
    method: str,
    h: GradedOperator,
    frame: EigenFrame,
    mask: Mask,
    max_order: int,
    hbar: float,
    omega_d: float | None,
    res_tol: float,
) -> TransformResult:
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    tally = ProductTally()
    base = _by_order(h)
    generator: dict[int, GradedSum] = {}
    chains = NestedSeries(base, generator, tally, commutator=True)
    weights = _inverse_factorials(max_order)
    corrections: dict[int, GradedSum] = {0: base[0].finish()}
    for n in range(1, max_order + 1):
        chains.extend(n)
        known = chains.weighted_sum(n, weights)
        masked = known.where(mask.eliminate)
        generator[n] = _solve(n, masked, frame, mask, hbar, omega_d, res_tol)
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
        diagnostics=Diagnostics(products=tally.count),
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
    deg_tol: float | None = None,
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
    if mask.dim != h_blocks.dim:
        raise ValueError("block sizes must sum to the operator dimension")
    if not mask.project(h_blocks).is_zero:
        raise PertError("h_blocks has content outside its declared blocks")
    if 0 in v.orders():
        raise PertError("the perturbation must not carry an order-0 term")
    omega_d = _merged_omega(h_blocks, v)
    diag = _require_static_diagonal_order0(h_blocks)
    frame = EigenFrame.from_energies(diag, deg_tol)
    return _transform("swt", h_blocks + v, frame, mask, max_order, hbar, omega_d, res_tol)


def run_fd(
    h: GradedOperator,
    max_order: int,
    hbar: float = 1.0,
    deg_tol: float | None = None,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Full diagonalization: eliminate every off-diagonal coupling.

    Requires the order-0 part diagonal and nondegenerate on every statically
    coupled pair of levels.
    """
    _require_hermitian_graded(h, "the Hamiltonian")
    mask = Mask.full_off_diagonal(h.dim)
    diag = _require_static_diagonal_order0(h)
    frame = EigenFrame.from_energies(diag, deg_tol)
    _check_no_degenerate_coupling(h, frame)
    omega_d = _merged_omega(h)
    return _transform("fd", h, frame, mask, max_order, hbar, omega_d, res_tol)


def run_ace(
    h: GradedOperator,
    mask: Mask,
    max_order: int,
    hbar: float = 1.0,
    deg_tol: float | None = None,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Arbitrary-coupling elimination: zero exactly the masked entries.

    Unmasked off-diagonal content is retained in the corrections.  An empty
    mask yields the identity transformation.
    """
    if mask.dim != h.dim:
        raise ValueError(f"mask dimension {mask.dim} does not match operator {h.dim}")
    _require_hermitian_graded(h, "the Hamiltonian")
    diag = _require_static_diagonal_order0(h)
    frame = EigenFrame.from_energies(diag, deg_tol)
    omega_d = _merged_omega(h)
    return _transform("ace", h, frame, mask, max_order, hbar, omega_d, res_tol)


def _require_hermitian_graded(op: GradedOperator, name: str) -> None:
    if not op.is_hermitian_graded():
        raise PertError(f"{name} is not hermitian-graded (M[j, k]^dag != M[j, -k])")


def _check_no_degenerate_coupling(h: GradedOperator, frame: EigenFrame) -> None:
    """Reject static input couplings between degenerate levels."""
    degenerate = (
        np.abs(frame.energies[:, None] - frame.energies[None, :]) <= frame.deg_tol
    ) & ~np.eye(frame.dim, dtype=bool)
    if not degenerate.any():
        return
    for (j, k), mat in h.items():
        if j == 0 or k != 0:
            continue
        coupled = degenerate & (np.abs(mat) > ZERO_RTOL * max(np.abs(mat).max(), 1.0))
        if coupled.any():
            i, jdx = np.argwhere(coupled)[0]
            raise DegenerateSpectrum(int(i), int(jdx), float(frame.energies[i]))


def rotate_by_order(
    operator: GradedOperator,
    generator: Mapping[int, GradedOperator],
    up_to_order: int,
    tally: ProductTally,
) -> dict[int, GradedSum]:
    """Per-order terms of exp(-S) O exp(S) through ``up_to_order``, as sums.

    The order-n term is sum_m C_m^(n) / m! with C_0 = O and S the solved
    ``generator``, which must hold every order up to ``up_to_order``.
    """
    missing = [n for n in range(1, up_to_order + 1) if n not in generator]
    if missing:
        raise ValueError(
            f"rotation order {up_to_order} exceeds solved order {missing[0] - 1}"
        )
    if any(s_n.dim != operator.dim for s_n in generator.values()):
        raise ValueError("operator dimension does not match the generator")
    _merged_omega(operator, *generator.values())
    factors = {n: GradedSum.of(s_n) for n, s_n in generator.items()}
    base = _by_order(operator)
    chains = NestedSeries(base, factors, tally, commutator=True)
    weights = _inverse_factorials(up_to_order)
    rotated = {0: base.get(0, GradedSum())}
    for n in range(1, up_to_order + 1):
        chains.extend(n)
        rotated[n] = chains.weighted_sum(n, weights)
    return rotated


def rotate_operator(
    operator: GradedOperator,
    generator: Mapping[int, GradedOperator],
    up_to_order: int,
) -> GradedOperator:
    """Rotate an arbitrary operator into the frame of a solved generator.

    Returns exp(-S) O exp(S) truncated at total order ``up_to_order``, with
    S = sum_n ``generator[n]`` (e.g. ``TransformResult.generator``).
    """
    total = GradedSum()
    for term in rotate_by_order(operator, generator, up_to_order, ProductTally()).values():
        total.add_scaled(term, 1.0)
    omega_d = _merged_omega(operator, *generator.values())
    return GradedOperator._adopt(operator.dim, total, omega_d)
