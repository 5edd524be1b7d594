"""The least-action recursion through full diagonalization, kept as a test oracle.

This is the former construction of the least-action generator.  The exact
least-action unitary for a block structure is
U^dag = X^dag B(X) {B(X^dag) B(X)}^(-1/2), with X the full-diagonalization
frame and B the block projector.  Expanding X = exp(-Z) in the perturbative
full-diagonalization generator Z = sum_j Z^(j) turns U^dag into a series
I + sum_j U^(j) whose generator S (U^dag = exp(S)) follows order by order:

    eps^(i)  -- order-i content of B(X^dag) B(X) - I (block diagonal),
    W^(i)    -- order-i content of X^dag B(X) - I,
    U^(i)    -- order-i content of U^dag - I after the (1+eps)^(-1/2) resum,
    S^(j)    =  U^(j) - sum_{m >= 2} (order-j part of S^m) / m!.

It needs every level nondegenerate, since it starts from full
diagonalization, and it spends O(N^3) products through order N.  The package
solves the least-action unitary directly (``pertkit.least_action.run_la``);
the tests compare the two, e.g. ``rotate_operator(h, S, N)`` with
S = ``compute_la_generator(run_fd(h, N).generator, blocks, N).S``.

``pruned_la_orders`` keeps a second reference: the direct recursion as it
stood when every intermediate (W, the partial Y and R, T, V and U') was
pruned on its own by ``_negligible``.  The package judges only the three
matrices that outlive an order; the tests hold the two equal bit for bit
wherever no intermediate cancels to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from pertkit.engine import DEFAULT_RES_TOL, EliminationTable, _prepare
from pertkit.graded import (
    GradedOperator,
    GradedSum,
    NestedSeries,
    _max_abs,
    _negligible,
    freeze_series,
)
from pertkit.least_action import BlockStructure


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


def _powers(series: dict[int, GradedSum], max_order: int) -> NestedSeries:
    """Level m, order n: sum of all products series^(s0) ... series^(sm) of order n."""
    powers = NestedSeries(series, series, max_order, commutator=False)
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
) -> tuple[GradedSum, int]:
    """The order-n part of (I + a)(I + b) - I and the number of products spent.

    The products a^(j) b^(n-j), 0 < j < n, landing on one key are formed by
    one stacked matmul; the key's operand scale is the largest of them.
    """
    total = GradedSum()
    count = 0
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
        count += len(prods)
        total.add((n, k), prods.sum(axis=0), float(np.abs(prods).max()))
    if n in a:
        total.add_scaled(a[n], 1.0)
    return total, count


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
    keep = blocks.cross_mask().keep

    exp_weights = _power_weights(max_order, lambda m: 1.0 / math.factorial(m))
    z_powers = _powers(z, max_order)
    x_dag = {n: z_powers.weighted_sum(n, exp_weights) for n in range(1, max_order + 1)}
    x_weights = _power_weights(max_order, lambda m: (-1.0) ** m / math.factorial(m))
    x = {n: z_powers.weighted_sum(n, x_weights) for n in range(1, max_order + 1)}
    bx_dag = {n: op.where(keep) for n, op in x_dag.items()}
    bx = {n: op.where(keep) for n, op in x.items()}

    # eps^(1) = B(Z^(1)) - B(Z^(1)) vanishes, so eps starts at order 2
    epsilon: dict[int, GradedSum] = {}
    products = 0
    for n in range(2, max_order + 1):
        epsilon[n], count = _convolve(bx_dag, bx, n)
        products += count
    eps_powers = _powers(epsilon, max_order)
    inv_sqrt_weights = _power_weights(max_order, _half_binomial)
    inv_sqrt = {n: eps_powers.weighted_sum(n, inv_sqrt_weights) for n in range(2, max_order + 1)}

    w: dict[int, GradedSum] = {}
    u: dict[int, GradedSum] = {}
    s: dict[int, GradedSum] = {}
    # level m of order n holds the order-n part of S^m; S^(n) joins level 1 once solved
    s_powers = NestedSeries({}, s, max_order, commutator=False)
    s_weights = np.array([1.0 / math.factorial(m) for m in range(max_order + 1)])
    for n in range(1, max_order + 1):
        w[n], w_count = _convolve(x_dag, bx, n)
        u[n], u_count = _convolve(w, inv_sqrt, n)
        products += w_count + u_count
        s_powers.extend(n)
        # S^(n) itself is not known yet, so the sum starts at the square
        higher = s_powers.weighted_sum(n, s_weights)
        s_n = GradedSum()
        s_n.add_scaled(u[n], 1.0)
        s_n.add_scaled(higher, -1.0)
        s[n] = s_n
        s_powers.add(n, 1, s_n, 1.0)
    return LASeries(
        Z=dict(z),
        epsilon=freeze_series(epsilon, dim, None),
        W=freeze_series(w, dim, None),
        U=freeze_series(u, dim, None),
        S=freeze_series(s, dim, None),
        products=products + z_powers.products + eps_powers.products + s_powers.products,
    )


def compute_epsilon(
    i: int, z: Mapping[int, GradedOperator], blocks: BlockStructure
) -> GradedOperator:
    """Order-i term of B(X^dag) B(X) - I for X = exp(-Z)."""
    if i < 2:
        raise ValueError("epsilon terms start at order 2")
    return compute_la_generator(z, blocks, i).epsilon[i]



# ---------------------------------------------------------------------------
# the direct recursion with every intermediate pruned
# ---------------------------------------------------------------------------


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


def _convolve_orders(n: int, left: dict[int, np.ndarray],
                     right: dict[int, np.ndarray]) -> tuple[np.ndarray | None, float, int]:
    """sum_{0<k<n} left[k] right[n-k] (None if no pair is present), its largest
    product and the number of products, all formed by one stacked matmul."""
    ks = [k for k in range(1, n) if k in left and n - k in right]
    if not ks:
        return None, 0.0, 0
    prods = np.array([left[k] for k in ks]) @ np.array([right[n - k] for k in ks])
    return prods.sum(axis=0), _max_abs(prods), len(ks)


def pruned_la_orders(
    h: GradedOperator,
    blocks: BlockStructure | list[int] | tuple[int, ...],
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> tuple[EliminationTable, dict[int, np.ndarray | None], dict[int, np.ndarray], int]:
    """``pertkit.least_action._la_orders`` with W, Y, R, T, V and U' each
    pruned by ``_negligible`` against the largest product or summand that fed it.

    Returns the same four values: the elimination table, the corrections of
    orders 0 .. ``max_order`` (None where pruned), the kept U'^(n) and the
    number of dense products.
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
    products = 0
    # the nonzero U'^(n), U'^(n)^dag and Y^(n)
    u: dict[int, np.ndarray] = {}
    u_dag: dict[int, np.ndarray] = {}
    y_mats: dict[int, np.ndarray] = {}
    corrections: dict[int, np.ndarray | None] = {0: h_mats[0]}
    for n in range(1, max_order + 1):
        w, w_scale, count = _convolve_orders(n, u_dag, u)
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
        hu, hu_scale, count = _convolve_orders(n, h_mats, u)
        products += count
        y, y_size = _finished(n, _plus(y, hu), max(y_scale, hu_scale))
        uy, uy_scale, count = _convolve_orders(n, u_dag, y_mats)
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
