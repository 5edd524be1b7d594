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
multiplied, and a shift of H0 by c*1 changes no order >= 1 output.  Only
cross-block energy differences are divided by, so levels degenerate inside
a block are accepted.  The recursion, ``_la_orders``, runs on per-order
matrices: each order's W, Y, R and U' is one d x d matrix or None, pruned by
``graded._negligible`` (the rule of the graded containers) against the
largest single product or summand that fed it.  Each sum over 0 < k < n is
one stacked matmul whose operand scale is its largest product, so the
recursion spends O(N^2) products through order N.  The generator is the
logarithm

    S = log(1 + U') = sum_m (-1)^m / (m + 1) P_m,

with P_m = U'^(m + 1) level m of one product ``NestedSeries`` over U', which
spends O(N^3) products in O(N^2) numpy calls; it is the only part of
``run_la`` that uses a ``NestedSeries``.  The la convergence scan, and
through it the fig3 experiment, calls ``_la_orders`` alone and computes no
generator.  Input checks, the frame and the elimination table come from
the engine's ``_prepare``: no order wraps its target in a ``GradedSum`` or
recomputes the denominators and the resonant entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _max_abs,
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


def block_project(g: GradedOperator, blocks: BlockStructure) -> GradedOperator:
    """Zero all cross-block entries, per (order, harmonic) key."""
    return blocks.cross_mask().complement_project(g)


def _finished(n: int, mat: np.ndarray | None,
              scale: float) -> tuple[np.ndarray | None, float]:
    """An order-n matrix and its largest entry, or (None, 0.0) if ``_negligible`` drops it."""
    if mat is None:
        return None, 0.0
    size = _max_abs(mat)
    if _negligible(size, scale, (n, 0)):
        return None, 0.0
    return mat, size


def _plus(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a + b, where None is zero."""
    if a is None:
        return b
    return a if b is None else a + b


def _convolve(n: int, left: dict[int, np.ndarray],
              right: dict[int, np.ndarray]) -> tuple[np.ndarray | None, float, int]:
    """sum_{0<k<n} left[k] right[n-k] (None if no pair is present), its largest
    product and the number of products, all formed by one stacked matmul."""
    ks = [k for k in range(1, n) if k in left and n - k in right]
    if not ks:
        return None, 0.0, 0
    prods = np.array([left[k] for k in ks]) @ np.array([right[n - k] for k in ks])
    return prods.sum(axis=0), _max_abs(prods), len(ks)


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
    products spent.  Each order's W, Y, R and U' is one matrix or None,
    judged by ``_negligible`` against the largest single product or summand
    that fed it.
    """
    if not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(blocks)
    if any(k != 0 for k in h.harmonics()):
        raise ValueError("least-action transformation supports static input only")
    table = _prepare(h, blocks.cross_mask(), max_order, hbar, res_tol)
    energies, eliminate = table.frame.energies, table.mask.eliminate
    # [H0, X]_ij = (E_i - E_j) X_ij
    gaps = energies[:, None] - energies[None, :]
    h_mats = {j: mat for (j, _), mat in h.items()}
    products = 0
    # the nonzero U'^(n), U'^(n)^dag and Y^(n)
    u: dict[int, np.ndarray] = {}
    u_dag: dict[int, np.ndarray] = {}
    y_mats: dict[int, np.ndarray] = {}
    corrections: dict[int, np.ndarray | None] = {0: h_mats[0]}
    for n in range(1, max_order + 1):
        w, w_scale, count = _convolve(n, u_dag, u)
        products += count
        if w is not None:
            w *= -0.5
        w, w_size = _finished(n, w, 0.5 * w_scale)
        y, y_scale = None, 0.0
        if w is not None:
            y = gaps * w
            y_scale = _max_abs(y)
        if n in h_mats:
            y = _plus(y, h_mats[n])
            y_scale = max(y_scale, _max_abs(h_mats[n]))
        hu, hu_scale, count = _convolve(n, h_mats, u)
        products += count
        y, y_size = _finished(n, _plus(y, hu), max(y_scale, hu_scale))
        uy, uy_scale, count = _convolve(n, u_dag, y_mats)
        products += count
        r_scale = max(y_size, uy_scale)
        r, _ = _finished(n, _plus(y, uy), r_scale)
        target = None if r is None else np.where(eliminate, r, 0.0)
        target, t_size = _finished(n, target, 0.0)
        v, v_size = None, 0.0
        if target is not None:
            v, v_size = _finished(n, table.solve(n, 0, target), 0.0)
            # the elimination condition: [H0, V^(n)] = -T_n; a pruned Y^(n)
            # restarts from it alone
            y_scale = t_size if y is None else max(y_scale, t_size)
            y, _ = _finished(n, _plus(y, -target), y_scale)
            r, _ = _finished(n, r - target, max(r_scale, t_size))
        corrections[n] = r
        u_n, _ = _finished(n, _plus(w, v), max(w_size, v_size))
        if u_n is not None:
            u[n] = u_n
            u_dag[n] = u_n.conj().T
        if y is not None:
            y_mats[n] = y
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
    per-order matrices (``_la_orders``), and returns the corrections of
    U^dag H U and the generator S = log(1 + U'), the only part that runs on
    a ``NestedSeries`` (module docstring).  One path serves every number of
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
