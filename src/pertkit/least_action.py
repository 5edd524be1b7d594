"""Least-action multi-block diagonalization.

The exact least-action unitary for a block structure is
U^dag = X^dag B(X) {B(X^dag) B(X)}^(-1/2), with X the full-diagonalization
frame and B the block projector.  Expanding X = exp(-Z) in the perturbative
full-diagonalization generator Z = sum_j Z^(j) turns U^dag into a series
I + sum_j U^(j) whose generator S (U^dag = exp(S)) follows order by order:

    eps^(i)  -- order-i content of B(X^dag) B(X) - I (block diagonal),
    W^(i)    -- order-i content of X^dag B(X) - I,
    U^(i)    -- order-i content of U^dag - I after the (1+eps)^(-1/2) resum,
    S^(j)    =  U^(j) - sum_{m >= 2} (order-j part of S^m) / m!.

Every coefficient depends only on the number of factors in a product and B
is linear, so all products of m factors and total order n are summed into
one power P_m^(n) = sum_s P_{m-1}^(n-s) F^(s) of the series F (Z, eps or S).
The powers, the convolutions over order and the final rotation each cost
O(N^3) products through order N.

The powers live in ``NestedSeries``, which form all powers of one term of
the sum over s in one batched product, and the convolutions over order form
all their products of one order in one stacked matmul.  Every other entry
(X and X^dag, their block projections, eps, W, U and S) is a ``GradedSum``
that weighted terms are added into in place.  Each is pruned once, when it
is first read as an operand, and only the ``LASeries`` and the corrections
of ``run_la`` are frozen into ``GradedOperator``s, without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .engine import (
    DEFAULT_RES_TOL,
    Mask,
    TransformResult,
    rotate_by_order,
    run_fd,
    run_swt,
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


@lru_cache(maxsize=None)
def _half_binomial(m: int) -> float:
    """binom(-1/2, m), computed exactly and converted to float once."""
    value = Fraction(1)
    for i in range(1, m + 1):
        value *= Fraction(-1, 2) - (i - 1)
        value /= i
    return float(value)


@dataclass
class LASeries:
    """All intermediate series of the least-action recursion."""

    Z: dict[int, GradedOperator]
    epsilon: dict[int, GradedOperator]
    W: dict[int, GradedOperator]
    U: dict[int, GradedOperator]
    S: dict[int, GradedOperator]
    #: dense d x d matrix products spent by the recursion
    products: int = 0


def _powers(
    series: dict[int, GradedSum], max_order: int, tally: ProductTally
) -> NestedSeries:
    """Level m, order n: sum of all products series^(s0) ... series^(sm) of order n."""
    powers = NestedSeries(series, series, tally, commutator=False)
    for n in range(1, max_order + 1):
        powers.extend(n)
    return powers


def _power_weights(max_order: int, weight) -> np.ndarray:
    """weight(m + 1) for levels m = 0 .. max_order - 1: level m holds the (m + 1)-th power."""
    return np.array([weight(m + 1) for m in range(max_order)])


def _convolve(
    a: Mapping[int, GradedSum],
    b: Mapping[int, GradedSum],
    n: int,
    tally: ProductTally,
) -> GradedSum:
    """The order-n part of (I + a)(I + b) - I.

    The products a^(j) b^(n-j), 0 < j < n, landing on one key are formed by
    one stacked matmul; the key's operand scale is the largest of them.
    """
    total = GradedSum()
    if n in b:
        total.add_scaled(b[n], 1.0)
    pairs: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for j in range(1, n):
        left, right = a.get(j), b.get(n - j)
        if left is None or right is None:
            continue
        for (_, k1), m1 in left.finish().terms.items():
            for (_, k2), m2 in right.finish().terms.items():
                lefts, rights = pairs.setdefault(k1 + k2, ([], []))
                lefts.append(m1)
                rights.append(m2)
    for k, (lefts, rights) in pairs.items():
        prods = np.stack(lefts) @ np.stack(rights)
        tally.count += len(prods)
        total.add((n, k), prods.sum(axis=0), float(np.abs(prods).max()))
    if n in a:
        total.add_scaled(a[n], 1.0)
    return total


def compute_la_generator(
    z: Mapping[int, GradedOperator],
    blocks: BlockStructure,
    max_order: int,
    dim: int | None = None,
) -> LASeries:
    """Run the least-action recursion through ``max_order``.

    ``z`` is the full-diagonalization generator series.  With P_m the m-th
    power of Z (``_powers``), X = exp(-Z) and X^dag = exp(Z) have order-n
    parts sum_m (-1)^m P_m^(n) / m! and sum_m P_m^(n) / m!.  Then eps = B(X^dag) B(X) - I, W = X^dag B(X) - I and
    U^dag = (I + W)(I + eps)^(-1/2) are convolutions over order, the inverse
    square root is sum_m binom(-1/2, m) eps^m, and S follows from
    U^dag = exp(S) as S^(n) = U^(n) - sum_{m >= 2} Q_m^(n) / m! with Q_m the
    m-th power of S, extended one order at a time.
    """
    if dim is None:
        dim = next(iter(z.values())).dim if z else blocks.dim
    tally = ProductTally()
    keep = blocks.cross_mask().keep

    exp_weights = _power_weights(max_order, lambda m: 1.0 / math.factorial(m))
    z_powers = _powers({n: GradedSum.of(op) for n, op in z.items()}, max_order, tally)
    x_dag = {n: z_powers.weighted_sum(n, exp_weights) for n in range(1, max_order + 1)}
    x_weights = _power_weights(max_order, lambda m: (-1.0) ** m / math.factorial(m))
    x = {n: z_powers.weighted_sum(n, x_weights) for n in range(1, max_order + 1)}
    bx_dag = {n: op.where(keep) for n, op in x_dag.items()}
    bx = {n: op.where(keep) for n, op in x.items()}

    # eps^(1) = B(Z^(1)) - B(Z^(1)) vanishes, so eps starts at order 2
    epsilon = {n: _convolve(bx_dag, bx, n, tally) for n in range(2, max_order + 1)}
    eps_powers = _powers(epsilon, max_order, tally)
    inv_sqrt_weights = _power_weights(max_order, _half_binomial)
    inv_sqrt = {n: eps_powers.weighted_sum(n, inv_sqrt_weights) for n in range(2, max_order + 1)}

    w: dict[int, GradedSum] = {}
    u: dict[int, GradedSum] = {}
    s: dict[int, GradedSum] = {}
    s_powers = NestedSeries({}, s, tally, commutator=False)
    for n in range(1, max_order + 1):
        w[n] = _convolve(x_dag, bx, n, tally)
        u[n] = _convolve(w, inv_sqrt, n, tally)
        s_powers.extend(n)
        # S^(n) itself is not known yet, so the sum starts at the square
        higher = s_powers.weighted_sum(n, exp_weights)
        s_n = GradedSum()
        s_n.add_scaled(u[n], 1.0)
        s_n.add_scaled(higher, -1.0)
        s[n] = s_n
        s_powers.add(n, 0, s_n, 1.0)
    return LASeries(
        Z=dict(z),
        epsilon=freeze_series(epsilon, dim, None),
        W=freeze_series(w, dim, None),
        U=freeze_series(u, dim, None),
        S=freeze_series(s, dim, None),
        products=tally.count,
    )


def compute_epsilon(
    i: int, z: Mapping[int, GradedOperator], blocks: BlockStructure
) -> GradedOperator:
    """Order-i term of B(X^dag) B(X) - I for X = exp(-Z)."""
    if i < 2:
        raise ValueError("epsilon terms start at order 2")
    return compute_la_generator(z, blocks, i).epsilon[i]


def run_la(
    h: GradedOperator,
    blocks: BlockStructure | list[int] | tuple[int, ...],
    max_order: int,
    hbar: float = 1.0,
    deg_tol: float | None = None,
    res_tol: float = DEFAULT_RES_TOL,
) -> TransformResult:
    """Least-action block diagonalization of a static Hamiltonian.

    For two blocks Schrieffer-Wolff is the direct rotation, which is the
    least-action one (Bravyi, DiVincenzo and Loss, Ann. Phys. 326, 2793,
    2011), so the SW engine solves it: it spends fewer products and needs no
    nondegenerate levels inside a block.  For three or more blocks this runs
    the full-diagonalization routine to obtain the Z series, builds the
    least-action generator from it, then rotates the input through the
    nested-commutator series.  Time-periodic input is not supported.
    """
    if not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(blocks)
    if blocks.dim != h.dim:
        raise ValueError(f"block sizes sum to {blocks.dim}, operator dim is {h.dim}")
    if any(k != 0 for k in h.harmonics()):
        raise ValueError("least-action transformation supports static input only")
    if len(blocks.sizes) == 2:
        mask = blocks.cross_mask()
        swt = run_swt(mask.complement_project(h), mask.project(h), blocks.sizes, max_order,
                      hbar=hbar, deg_tol=deg_tol, res_tol=res_tol)
        return replace(swt, method="la")
    fd = run_fd(h, max_order, hbar=hbar, deg_tol=deg_tol, res_tol=res_tol)
    la = compute_la_generator(fd.generator, blocks, max_order, dim=h.dim)
    tally = ProductTally()
    corrections = rotate_by_order(h, la.S, max_order, tally)
    diagnostics = fd.diagnostics
    diagnostics.products += la.products + tally.count
    return TransformResult(
        corrections=freeze_series(corrections, h.dim, None),
        generator=la.S,
        frame=fd.frame,
        mask=blocks.cross_mask(),
        method="la",
        max_order=max_order,
        hbar=hbar,
        omega_d=None,
        diagnostics=diagnostics,
    )
