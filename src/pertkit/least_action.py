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
R^(n) fixes V^(n) through [H0, V^(n)] = -T_n, solved elementwise on the
plain matrix by the run's ``EliminationTable``, which ``_prepare`` builds
once; the order-n correction is R^(n) - T_n, and Y^(n) gains
[H0, V^(n)] = -T_n, known without a product.  Since B(V) = 0,
B(U) = 1 + B(W) is Hermitian for any number of blocks; for two blocks U is
the direct rotation, i.e. Schrieffer-Wolff (Bravyi, DiVincenzo and Loss,
Ann. Phys. 326, 2793, 2011).

H0 is diagonal, so [H0, X] is the elementwise (E_i - E_j) X_ij: H0 is never
multiplied, and a shift of H0 by c*1 moves an order >= 1 output only by the
round-off of the shifted differences.  Only cross-block energy differences
are divided by, so levels degenerate inside a block are accepted.  The
recursion, ``_la_orders``, runs on per-order d x d matrices.  Order n's W,
H U' and U'^dag Y sums read only lower orders: their products are one stacked
matmul, each sum adds its slice in k order and one abs/reduce gives every
product's largest entry, O(N^2) products through order N.  Only the three
matrices that outlive an order are judged by ``graded._negligible`` (the
graded containers' rule), each against the largest single product or summand
that fed it: R^(n) - T_n and Y^(n), parts of the summands of R^(n), against
[H0, W^(n)], H^(n) and the H U' and U'^dag Y products, and U'^(n) against
V^(n) and W's products.  W, T, V and the partial Y and R are not pruned: a
W^(n) that cancels (at odd n for two blocks coupled only across) enters as
round-off.  The generator is the logarithm

    S = log(1 + U') = sum_m (-1)^m / (m + 1) P_m,

with P_m = U'^(m + 1) level m of one product ``NestedSeries`` over U', which
spends O(N^3) products in O(N^2) numpy calls; it is the only part of
``run_la`` that uses a ``NestedSeries``.  The la convergence scan, and
through it the fig3 experiment, calls ``_la_orders`` alone and computes no
generator.  Input checks, the frame, the elimination table and H's
per-order matrices come from the engine's ``_prepare``: no order wraps its
target in a ``GradedSum`` or recomputes the denominators and the resonant
entries.  The matrices are float64 when no term of H has a nonzero
imaginary part and complex128 otherwise, and every product, sum and
solve follows their dtype; ``run_la`` freezes its output complex128.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .engine import (
    DEFAULT_RES_TOL,
    Diagnostics,
    EliminationTable,
    Mask,
    TransformResult,
    _prepare,
)
from .graded import (
    GradedOperator,
    GradedSum,
    NestedSeries,
    _amax,
    _negligible,
    freeze_series,
)


@dataclass(frozen=True)
class BlockStructure:
    """Ordered contiguous blocks partitioning the basis indices; builds its mask once."""

    sizes: tuple[int, ...]
    _mask: Mask = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normalized = tuple(int(s) for s in self.sizes)
        if not normalized or any(s < 1 for s in normalized):
            raise ValueError("block sizes must be positive integers")
        object.__setattr__(self, "sizes", normalized)
        object.__setattr__(self, "_mask", Mask.block_off_diagonal(normalized))

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def in_block(self) -> np.ndarray:
        """Read-only boolean d x d matrix, True where both indices share a block."""
        return self._mask.keep

    def cross_mask(self) -> Mask:
        """Engine mask targeting every cross-block entry."""
        return self._mask


def _la_orders(
    h: GradedOperator,
    blocks: BlockStructure | list[int] | tuple[int, ...],
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> tuple[EliminationTable, dict[int, np.ndarray | None], dict[int, np.ndarray], int]:
    """The least-action recursion on per-order matrices (module docstring).

    Checks that the input is static, validates the problem with the engine's
    ``_prepare`` and returns the run's elimination table (which holds the
    frame and the mask), the correction of every order 0 .. ``max_order``
    (None where it vanishes), the nonzero U'^(n) and the number of dense
    products spent.  Each order forms its W, H U' and U'^dag Y products in
    one stacked matmul and judges only the three matrices that outlive it.
    """
    if not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(blocks)
    if any(k != 0 for k in h.harmonics()):
        raise ValueError("least-action transformation supports static input only")
    table, base = _prepare(h, blocks.cross_mask(), max_order, hbar, res_tol)
    energies, eliminate = table.frame.energies, table.mask.eliminate
    # [H0, X]_ij = (E_i - E_j) X_ij
    gaps = energies[:, None] - energies[None, :]
    h_mats = {j: entry.terms[(j, 0)] for j, entry in base.items()}
    h_sizes = {j: entry.sizes[(j, 0)] for j, entry in base.items()}
    products = 0
    # the nonzero U'^(n), U'^(n)^dag and Y^(n)
    u: dict[int, np.ndarray] = {}
    u_dag: dict[int, np.ndarray] = {}
    y_mats: dict[int, np.ndarray] = {}
    corrections: dict[int, np.ndarray | None] = {0: h_mats[0]}
    for n in range(1, max_order + 1):
        # every operand of the W, H U' and U'^dag Y sums lies below order n
        groups = (
            [(u_dag[k], u[n - k]) for k in range(1, n) if k in u and n - k in u],
            [(h_mats[k], u[n - k]) for k in range(1, n) if k in h_mats and n - k in u],
            [(u_dag[k], y_mats[n - k]) for k in range(1, n) if k in u and n - k in y_mats],
        )
        pairs = [pair for group in groups for pair in group]
        products += len(pairs)
        peaks: list[float] = []
        if pairs:
            prods = np.array([a for a, _ in pairs]) @ np.array([b for _, b in pairs])
            peaks = _amax(np.abs(prods), axis=(1, 2)).tolist()
        sums, scales, start = [], [], 0
        for group in groups:
            stop = start + len(group)
            sums.append(np.add.reduce(prods[start:stop]) if group else None)
            scales.append(max(peaks[start:stop], default=0.0))
            start = stop
        (w, hu, uy), (w_scale, hu_scale, uy_scale) = sums, scales
        if w is not None:
            w *= -0.5
        gw = None if w is None else gaps * w
        # Y^(n) before the elimination condition, and R^(n) = Y^(n) + sum U'^dag Y
        fed = [m for m in (gw, h_mats.get(n), hu) if m is not None]
        y = reduce(np.add, fed) if fed else None
        r = uy if y is None else y if uy is None else y + uy
        if r is None:
            corrections[n] = None
            continue
        target = np.where(eliminate, r, 0.0)
        v = table.solve(n, 0, target)
        # the kept R^(n) - T_n, Y^(n) (which gains [H0, V^(n)] = -T_n) and
        # U'^(n) = W^(n) + V^(n); then V^(n) and [H0, W^(n)], for the scales
        mats = [r - target, -target if y is None else y - target, v if w is None else w + v, v]
        sizes = _amax(np.abs(np.array(mats if gw is None else mats + [gw])), axis=(1, 2)).tolist()
        # R^(n) - T_n and Y^(n) are in-block and cross parts of the summands of R^(n)
        r_scale = max(sizes[4:] + [h_sizes.get(n, 0.0), hu_scale, uy_scale])
        against = (r_scale, r_scale, max(0.5 * w_scale, sizes[3]))
        corrections[n], y, u_n = (None if _negligible(size, scale, (n, 0)) else mat
                                  for mat, size, scale in zip(mats, sizes, against))
        if y is not None:
            y_mats[n] = y
        if u_n is not None:
            u[n], u_dag[n] = u_n, u_n.conj().T
    return table, corrections, u, products


def run_la(
    h: GradedOperator,
    blocks: BlockStructure | list[int] | tuple[int, ...],
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Least-action block diagonalization of a static Hamiltonian.

    Solves U = 1 + U' order by order, with U' = W + V, W = -1/2 U'^dag U'
    from unitarity and V cross-block from the elimination condition, on
    per-order matrices (``_la_orders``, which judges only each order's
    correction, Y and U'), and returns the corrections of U^dag H U and the
    generator S = log(1 + U'), the only part that runs on a ``NestedSeries``
    (module docstring).  One path serves every number of
    blocks.  The order-0 part must be diagonal; levels may be degenerate
    inside a block.  Time-periodic input is not supported.
    """
    table, corrections, u, products = _la_orders(h, blocks, max_order, hbar, res_tol)
    factors = {n: GradedSum({(n, 0): mat}) for n, mat in u.items()}
    powers = NestedSeries(factors, factors, max_order, commutator=False)
    log_weights = np.array([(-1.0) ** m / (m + 1) for m in range(max_order)])
    generator: dict[int, GradedSum] = {}
    for n in range(1, max_order + 1):
        powers.extend(n)
        generator[n] = powers.weighted_sum(n, log_weights)
    corrections = {n: GradedSum(None if mat is None else {(n, 0): mat})
                   for n, mat in corrections.items()}
    return TransformResult(
        corrections=freeze_series(corrections, h.dim, None),
        generator=freeze_series(generator, h.dim, None),
        frame=table.frame,
        mask=table.mask,
        method="la",
        max_order=max_order,
        hbar=hbar,
        omega_d=None,
        diagnostics=Diagnostics(products=products + powers.products),
    )
