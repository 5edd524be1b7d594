"""Least-action multi-block diagonalization.

The least-action unitary is the one closest to the identity among all that
block-diagonalize H.  Writing it U = 1 + U', with U^dag H U block diagonal,
its defining condition is that the block-diagonal part B(U) is Hermitian.
With U' = W + V and V cross-block (block off-diagonal), it is solved order
by order (Araya Day et al., arXiv:2404.03728) from
U^dag H U = H0 + U^dag ([H0, U'] + H' U):

    W^(n) = -1/2 sum_{0<k<n} U'^(k)^dag U'^(n-k),
    Y^(m) = [H0, U'^(m)] + H^(m) + sum_{0<b<m} H^(b) U'^(m-b),
    R^(n) = Y^(n) + sum_{0<a<n} U'^(a)^dag Y^(n-a),    taken with V^(n) = 0.

W follows from unitarity and is Hermitian.  The cross-block part T_n of
R^(n) fixes V^(n) through [H0, V^(n)] = -T_n, solved elementwise by the
engine's ``_solve``; the order-n correction is R^(n) - T_n, and Y^(n) gains
[H0, V^(n)] = -T_n, known without a product.  Since B(V) = 0,
B(U) = 1 + B(W) is Hermitian for any number of blocks; for two blocks U is
the direct rotation, i.e. Schrieffer-Wolff (Bravyi, DiVincenzo and Loss,
Ann. Phys. 326, 2793, 2011).

H0 is diagonal, so [H0, X] is the elementwise (E_i - E_j) X_ij: H0 is never
multiplied, and a shift of H0 by c*1 changes no order >= 1 output.  Only
cross-block energy differences are divided by, so levels degenerate inside
a block are accepted.  Each sum over 0 < k < n is one stacked matmul whose
operand scale is its largest product, so the recursion spends O(N^2)
products through order N.  The generator is the logarithm

    S = log(1 + U') = sum_m (-1)^m / (m + 1) P_m,

with P_m = U'^(m + 1) level m of one product ``NestedSeries`` over U', which
spends O(N^3) products in O(N^2) numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    DEFAULT_RES_TOL,
    Diagnostics,
    EigenFrame,
    Mask,
    TransformResult,
    _by_order,
    _require_hermitian_graded,
    _require_physical_units,
    _require_static_diagonal_order0,
    _solve,
)
from .graded import GradedOperator, GradedSum, NestedSeries, ProductTally, freeze_series


@dataclass(frozen=True)
class BlockStructure:
    """Ordered contiguous blocks partitioning the basis indices."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        normalized = tuple(int(s) for s in self.sizes)
        if not normalized or any(s < 1 for s in normalized):
            raise ValueError("block sizes must be positive integers")
        object.__setattr__(self, "sizes", normalized)

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def in_block(self) -> np.ndarray:
        """Read-only boolean d x d matrix, True where both indices share a block."""
        return self.cross_mask().keep

    def cross_mask(self) -> Mask:
        """Engine mask targeting every cross-block entry."""
        return Mask.block_off_diagonal(self.sizes)


def block_project(g: GradedOperator, blocks: BlockStructure) -> GradedOperator:
    """Zero all cross-block entries, per (order, harmonic) key."""
    return blocks.cross_mask().complement_project(g)


def _convolve(total: GradedSum, n: int, left: dict[int, np.ndarray],
              right: dict[int, np.ndarray], weight: float, tally: ProductTally) -> None:
    """Add ``weight`` times sum_{0<k<n} left[k] right[n-k] at key (n, 0).

    The products are one stacked matmul; the key's operand scale is the
    largest of them.
    """
    pairs = [(left[k], right[n - k]) for k in range(1, n) if k in left and n - k in right]
    if not pairs:
        return
    lefts, rights = zip(*pairs)
    prods = np.stack(lefts) @ np.stack(rights)
    tally.count += len(prods)
    total.add((n, 0), weight * prods.sum(axis=0), abs(weight) * float(np.abs(prods).max()))


def run_la(
    h: GradedOperator,
    blocks: BlockStructure | list[int] | tuple[int, ...],
    max_order: int,
    hbar: float = 1.0,
    deg_tol: float | None = None,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Least-action block diagonalization of a static Hamiltonian.

    Solves U = 1 + U' order by order, with U' = W + V, W = -1/2 U'^dag U'
    from unitarity and V cross-block from the elimination condition, and
    returns the corrections of U^dag H U and the generator S = log(1 + U')
    (module docstring).  One path serves every number of blocks.  The
    order-0 part must be diagonal; levels may be degenerate inside a block.
    Time-periodic input is not supported.
    """
    if not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(blocks)
    if blocks.dim != h.dim:
        raise ValueError(f"block sizes sum to {blocks.dim}, operator dim is {h.dim}")
    if any(k != 0 for k in h.harmonics()):
        raise ValueError("least-action transformation supports static input only")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    _require_hermitian_graded(h, "the Hamiltonian")
    _require_physical_units(h, hbar, None)
    frame = EigenFrame.from_energies(_require_static_diagonal_order0(h), deg_tol)
    mask = blocks.cross_mask()
    # [H0, X]_ij = (E_i - E_j) X_ij
    gaps = frame.energies[:, None] - frame.energies[None, :]
    base = _by_order(h)
    h_mats = {j: entry.terms[(j, 0)] for j, entry in base.items()}
    tally = ProductTally()
    # U'^(n) as sums, for the logarithm, and the nonzero U'^(n), U'^(n)^dag
    # and Y^(n) as matrices
    u: dict[int, GradedSum] = {}
    u_mats: dict[int, np.ndarray] = {}
    u_dag: dict[int, np.ndarray] = {}
    y_mats: dict[int, np.ndarray] = {}
    corrections: dict[int, GradedSum] = {0: base[0].finish()}
    for n in range(1, max_order + 1):
        w = GradedSum()
        _convolve(w, n, u_dag, u_mats, -0.5, tally)
        y = GradedSum()
        for mat in w.finish().terms.values():
            commuted = gaps * mat
            y.add((n, 0), commuted, float(np.abs(commuted).max()))
        if n in base:
            y.add_scaled(base[n], 1.0)
        _convolve(y, n, h_mats, u_mats, 1.0, tally)
        r = GradedSum()
        r.add_scaled(y, 1.0)
        _convolve(r, n, u_dag, y_mats, 1.0, tally)
        target = r.where(mask.eliminate)
        v = _solve(n, target, frame, mask, hbar, None, res_tol)
        # the elimination condition: [H0, V^(n)] = -T_n
        y.add_scaled(target, -1.0)
        r.add_scaled(target, -1.0)
        corrections[n] = r
        u[n] = GradedSum()
        u[n].add_scaled(w, 1.0)
        u[n].add_scaled(v, 1.0)
        if (n, 0) in u[n].finish().terms:
            u_mats[n] = u[n].terms[(n, 0)]
            u_dag[n] = u_mats[n].conj().T
        if (n, 0) in y.finish().terms:
            y_mats[n] = y.terms[(n, 0)]
    powers = NestedSeries(u, u, tally, commutator=False)
    log_weights = np.array([(-1.0) ** m / (m + 1) for m in range(max_order)])
    generator: dict[int, GradedSum] = {}
    for n in range(1, max_order + 1):
        powers.extend(n)
        generator[n] = powers.weighted_sum(n, log_weights)
    return TransformResult(
        corrections=freeze_series(corrections, h.dim, None),
        generator=freeze_series(generator, h.dim, None),
        frame=frame,
        mask=mask,
        method="la",
        max_order=max_order,
        hbar=hbar,
        omega_d=None,
        diagnostics=Diagnostics(products=tally.count),
    )
