"""Exact numeric references: block diagonalization, spectral distance, scans.

These routines provide the non-perturbative side of every convergence check:
an ordered eigensystem with a stable basis assignment, the least-action
unitary U^dag = X^dag B(X) {B(X^dag) B(X)}^(-1/2) evaluated with dense linear
algebra, the relative spectral distance eta, and order/lambda scans.

The block diagonalization first splits H into sectors, found from its exact
zeros: the connected components of its off-diagonal nonzero pattern.  The
direct rotation commutes with every symmetry that commutes with the block
projectors (Bravyi, DiVincenzo and Loss, Ann. Phys. 326, 2793, 2011), so
each sector is solved apart, from its cell of the block mask and the block
sizes it induces, and every entry of U^dag and of U H U^dag between two
sectors is exactly 0: it is never formed.  A matrix of one sector takes the
whole-matrix path; when level 0 couples to every other level, as in any
dense input, one row settles it.  Solving sectors apart keeps eigh's
round-off, and its mixing of levels degenerate across sectors, out of the
result.

Within a sector, for a given assignment of eigenvectors to blocks the polar
factor above is the block-diagonalizing unitary closest to 1, with
Re tr U = sum_b ||X_bb||_* (the nuclear norm of block b's rows and columns
of X).  The least-action assignment maximizes that sum, which adds up over
sectors.  The greedy per-index match is kept when a certificate proves it
optimal: with w_i the weight of eigenvector i in its block,
L = sum_i (1 - w_i) and s1 >= s2 the two largest sqrt(1 - w_i), no other
assignment scores higher if L + s1 + s2 < 2.  The greedy sum is at least
sum_b ||X_bb||_F^2 = d - L, as no singular value of X_bb exceeds 1; any other
assignment moves at least two eigenvectors out of their blocks, and a nuclear
norm is at most the sum of its row norms, so it scores at most
d - 2 + s1 + s2.  Otherwise pairwise cross-block swaps climb the sum from the
greedy assignment until none improves it; the swaps of one row with the
rows of one partner block are scored by one stacked SVD.  The certificate,
the swaps and the conditioning check each act on one sector at a time.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .engine import TransformResult
from .errors import IllConditionedBlocks, PertError
from .graded import GradedOperator
from .least_action import BlockStructure, _la_orders

#: Smallest admissible eigenvalue of B(X^dag) B(X).
CONDITION_FLOOR = 1e-8

#: Least gain in sum_b ||X_bb||_* (at most d) for a swap to count: above
#: round-off, so the ascent cannot cycle on ties.
SWAP_GAIN_FLOOR = 1e-12


@dataclass
class OrderedEigensystem:
    """Diagonalizing frame X (rows are eigenvectors) with fixed order/phase."""

    X: np.ndarray
    eigenvalues: np.ndarray


@contextmanager
def _no_overflow(lam: float, t: float | None = None):
    """Raise PertError where powers of lambda, or sums weighted by them, overflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise PertError(f"the terms weighted at lambda={lam}, t={t} overflow a float") from None


def evaluate_at(g: GradedOperator, lam: float, t: float | None = None) -> np.ndarray:
    """Collapse the grading: sum_{j,k} lambda^j exp(i k omega_d t) M[j, k], a dense matrix.

    ``lam``, and ``t`` when given, must be finite, and so must each weighted
    term and the sum: an overflow raises ``PertError``.
    """
    if not math.isfinite(lam) or (t is not None and not math.isfinite(t)):
        raise PertError(f"lambda and t must be finite, got lambda={lam}, t={t}")
    if t is None and any(k != 0 for _, k in g.keys()):
        raise ValueError("a time value is required for harmonically graded operators")
    total = np.zeros((g.dim, g.dim), dtype=complex)
    with _no_overflow(lam, t):
        for (j, k), mat in g.items():
            weight = lam ** j
            if k != 0:
                weight = weight * np.exp(1j * k * g.omega_d * t)
            total += weight * mat
    return total


def _as_matrix(h: np.ndarray) -> np.ndarray:
    mat = np.asarray(h, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    spread = np.abs(mat)  # |H - c 1|, c the mean diagonal: no shift of H changes it
    np.fill_diagonal(spread, np.abs(mat.diagonal() - mat.diagonal().real.mean()))
    if np.abs(mat - mat.conj().T).max() > 1e-12 * spread.max():
        raise ValueError("matrix is not Hermitian to 1e-12 of its entries less their mean diagonal")
    return mat


def _greedy_assignment(weights: np.ndarray) -> np.ndarray:
    """perm[i] = eigenvector column assigned to basis index i, greedily."""
    d = weights.shape[0]
    perm = np.full(d, -1)
    taken = np.zeros(d, dtype=bool)
    order = np.argsort(weights, axis=None)[::-1]
    placed = 0
    for flat in order:
        i, col = divmod(int(flat), d)
        if perm[i] >= 0 or taken[col]:
            continue
        perm[i] = col
        taken[col] = True
        placed += 1
        if placed == d:
            break
    return perm


def ordered_eigensystem(h: np.ndarray) -> OrderedEigensystem:
    """Eigendecompose with eigenvectors labeled by their dominant basis index.

    Columns are matched to basis indices greedily by descending weight
    |X_ij|^2, then each eigenvector's phase is fixed so its assigned diagonal
    entry of X is real and positive.  In the perturbative regime X is then
    close to the identity.
    """
    return _ordered_eigensystem(_as_matrix(h))


def _ordered_eigensystem(mat: np.ndarray) -> OrderedEigensystem:
    """``ordered_eigensystem`` of a matrix ``_as_matrix`` has already validated."""
    w, v = np.linalg.eigh(mat)
    perm = _greedy_assignment(np.abs(v) ** 2)
    v = v[:, perm]
    w = w[perm]
    # each factor from its scalar pivot: numpy's array complex division can
    # differ in the last bit from its scalar division
    pivots = v.diagonal()
    live = np.abs(pivots) > 0
    v[:, live] *= np.array([np.conj(p) / abs(p) for p in pivots[live]], dtype=complex)
    return OrderedEigensystem(X=v.conj().T, eigenvalues=w)


def _certified_optimal(x: np.ndarray, keep: np.ndarray) -> bool:
    """Whether L + s1 + s2 < 2 proves that no other assignment of x's rows scores higher."""
    loss = 1.0 - np.where(keep, np.abs(x) ** 2, 0.0).sum(axis=1)
    top = np.sort(np.sqrt(np.maximum(loss, 0.0)))[-2:]
    return bool(loss.sum() + top.sum() < 2.0)


def _swap_ascent(x: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """x with rows swapped across blocks of ``sizes`` while a swap raises sum_b ||X_bb||_*.

    Row i of block a is tried against every later row j of the blocks after
    a, in order, and the first swap that gains more than SWAP_GAIN_FLOOR is
    taken; sweeps repeat until none does.  The swaps of row i with the rows
    of one partner block b are scored together: one stacked SVD of the
    trial blocks a and one of the trial blocks b.  After a taken swap the
    rest of block b is scored again from the new x.
    """
    x = x.copy()
    d = x.shape[0]
    ends = np.cumsum(sizes)
    spans = [slice(end - size, end) for size, end in zip(sizes, ends)]
    label = np.repeat(np.arange(len(spans)), sizes)
    norms = [float(np.linalg.svd(x[s, s], compute_uv=False).sum()) for s in spans]
    improved = True
    while improved:
        improved = False
        for i in range(d):
            a = label[i]
            sa = spans[a]
            j = int(ends[a])
            while j < d:
                b = label[j]
                sb = spans[b]
                rows = np.arange(j, sb.stop)
                # block a with row i replaced by row j, block b with row j by row i
                trial_a = np.repeat(x[None, sa, sa], rows.size, axis=0)
                trial_a[:, i - sa.start] = x[rows, sa]
                trial_b = np.repeat(x[None, sb, sb], rows.size, axis=0)
                trial_b[np.arange(rows.size), rows - sb.start] = x[i, sb]
                norm_a = np.linalg.svd(trial_a, compute_uv=False).sum(axis=1)
                norm_b = np.linalg.svd(trial_b, compute_uv=False).sum(axis=1)
                gains = np.flatnonzero(norm_a + norm_b > norms[a] + norms[b] + SWAP_GAIN_FLOOR)
                if gains.size:
                    k = gains[0]
                    j = int(rows[k])
                    x[[i, j]] = x[[j, i]]
                    norms[a], norms[b] = float(norm_a[k]), float(norm_b[k])
                    improved = True
                    j += 1
                else:
                    j = sb.stop
    return x


def _inverse_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """{M}^(-1/2) for Hermitian M via eigendecomposition; below CONDITION_FLOOR raises."""
    w, v = np.linalg.eigh(mat)
    smallest = float(w.min())
    if smallest < CONDITION_FLOOR:
        raise IllConditionedBlocks(smallest, CONDITION_FLOOR)
    return (v * (w ** -0.5)) @ v.conj().T


def _sectors(mat: np.ndarray) -> list[np.ndarray]:
    """Index arrays of mat's sectors, the connected components of its off-diagonal nonzero pattern.

    An entry links its two levels when it or its mirror entry is nonzero.
    When level 0 links to every other level, the matrix is one sector and
    nothing more is read.  Otherwise, until no label moves, each level
    takes the smallest label among its own and its neighbours', then its
    label's label, so each sector ends labelled by its lowest level.
    """
    d = mat.shape[0]
    if mat[0, 1:].all():
        return [np.arange(d)]
    linked = mat != 0
    rows, cols = np.nonzero(linked | linked.T)
    label, previous = np.arange(d), None
    while not np.array_equal(label, previous):
        previous = label
        label = previous.copy()
        np.minimum.at(label, rows, previous[cols])
        label = label[label]
    return [np.flatnonzero(label == root) for root in np.flatnonzero(label == np.arange(d))]


def _block_diagonalize(mat: np.ndarray, keep: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(U_dagger, H_block) of one sector, with in-block mask ``keep`` and block ``sizes``."""
    x = _ordered_eigensystem(mat).X
    if not _certified_optimal(x, keep):
        x = _swap_ascent(x, sizes)
    bx = np.where(keep, x, 0.0)
    u_dagger = x.conj().T @ bx @ _inverse_sqrt_psd(bx.conj().T @ bx)
    return u_dagger, u_dagger.conj().T @ mat @ u_dagger


def exact_block_diagonalize(
    h: np.ndarray,
    blocks: BlockStructure | Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Least-action block diagonalization by dense linear algebra.

    Returns (U_dagger, H_block) with H_block = U H U^dag block diagonal.
    The matrix is validated once, here, and split into its sectors: sets of
    levels that no nonzero off-diagonal entry links to a level outside the
    set.  Each sector is solved on its own (module docstring), with its
    cell of the one block mask and the blocks it induces (its level count
    in each block, empty blocks dropped); no mask is built per sector, and
    a one-level sector is the identity.  Entries of U_dagger and H_block
    between two sectors are exactly 0, because they are never formed.
    Inside a sector, the cross-block entries of H_block are the product's,
    not zeroed, each of order eps ||H||_2 (below 1e-15 ||H||_2 on transmon,
    d = 64, and EDSR, d = 40).  Each sector's eigenvector-to-block
    assignment is the greedy one where the certificate proves it optimal,
    else the local maximum of pairwise swaps (module docstring).  Raises
    IllConditionedBlocks if B(X^dag) B(X) of any sector's assignment has
    an eigenvalue below CONDITION_FLOOR.
    """
    if not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(tuple(blocks))
    mat = _as_matrix(h)
    if blocks.dim != mat.shape[0]:
        raise ValueError("block sizes must sum to the matrix dimension")
    keep = blocks.in_block()
    sectors = _sectors(mat)
    # one sector is all fig3 and EDSR send: through the loop a fig3 call took 35-75 us more
    if len(sectors) == 1:
        return _block_diagonalize(mat, keep, blocks.sizes)
    label = np.repeat(np.arange(len(blocks.sizes)), blocks.sizes)
    u_dagger = np.zeros_like(mat)
    h_block = np.zeros_like(mat)
    for levels in sectors:
        cell = np.ix_(levels, levels)
        # without this, eigh on each level of a diagonal d = 64 matrix ran 6x slower
        if levels.size == 1:
            u_dagger[cell] = 1.0
            h_block[cell] = mat[cell]
            continue
        sizes = np.bincount(label[levels])
        u_dagger[cell], h_block[cell] = _block_diagonalize(mat[cell], keep[cell], sizes[sizes > 0])
    return u_dagger, h_block


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest singular value of a - b over the largest singular value of a."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = np.linalg.norm(a, 2)
    if norm_a == 0:
        raise ValueError("reference matrix has zero spectral norm")
    return float(np.linalg.norm(a - b, 2) / norm_a)


def partial_sum_matrix(result: TransformResult, order: int, lam: float) -> np.ndarray:
    """Corrections through ``order``, collapsed at a numeric lambda (static).

    An order below 0 or beyond the solved one raises ``ValueError``, as
    ``TransformResult.effective_hamiltonian`` does.
    """
    h_eff = result.effective_hamiltonian(order)
    if any(k != 0 for k in h_eff.harmonics()):
        raise ValueError("partial sums are defined for static results only")
    return evaluate_at(h_eff, lam)


def convergence_scan(
    h: GradedOperator,
    method: str,
    orders: Iterable[int],
    lambdas: Iterable[float],
    blocks: BlockStructure | Sequence[int] | None = None,
    hbar: float = 1.0,
) -> list[tuple[int, float, float]]:
    """Table of eta(n, lambda) rows comparing a routine to the exact oracle.

    ``method`` is "la" (needs ``blocks``) or "fd", whose corrections are
    la's on unit blocks: both eliminate every off-diagonal entry and agree to
    round-off.  The routine runs once at the largest requested order and
    computes no generator; each row compares the collapsed partial sum
    against the exact block diagonalization of the collapsed input.  Per
    lambda, one running partial sum and one batched spectral norm give every
    order's eta, bit for bit ``spectral_distance`` of ``partial_sum_matrix``;
    the differences h_exact - partial_n are written into one stack allocated
    once per scan.
    """
    orders = sorted(set(int(n) for n in orders))
    if not orders or orders[0] < 0:
        raise ValueError(f"scan orders must be a nonempty set of orders >= 0, got {orders}")
    top = orders[-1]
    if method == "fd":
        blocks = BlockStructure((1,) * h.dim)
    elif method != "la":
        raise ValueError(f"unknown scan method {method!r}")
    elif blocks is None:
        raise ValueError("the la scan needs a block structure")
    elif not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(tuple(blocks))
    corrections = _la_orders(h, blocks, top, hbar=hbar)[1]
    rows: list[tuple[int, float, float]] = []
    # h_exact, then h_exact - partial_n for each requested order n
    diffs = np.empty((len(orders) + 1, h.dim, h.dim), dtype=complex)
    for lam in lambdas:
        _, h_exact = exact_block_diagonalize(evaluate_at(h, lam), blocks)
        # partial_sum_matrix's sums in its own sequence, one order at a time
        partial = np.zeros_like(h_exact)
        diffs[0] = h_exact
        row = 1
        with _no_overflow(lam):
            for n, mat in corrections.items():
                if mat is not None:
                    partial += (lam ** n) * mat
                if n in orders:
                    np.subtract(h_exact, partial, out=diffs[row])
                    row += 1
        norms = np.linalg.norm(diffs, 2, axis=(1, 2))
        if norms[0] == 0:
            raise ValueError("reference matrix has zero spectral norm")
        rows += [(n, float(lam), float(norm / norms[0])) for n, norm in zip(orders, norms[1:])]
    return rows
