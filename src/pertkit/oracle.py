"""Exact numeric references: block diagonalization, spectral distance, scans.

These routines provide the non-perturbative side of every convergence check:
an ordered eigensystem with a stable basis assignment, the least-action
unitary U^dag = X^dag B(X) {B(X^dag) B(X)}^(-1/2) evaluated with dense linear
algebra, the relative spectral distance eta, and order/lambda scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .engine import TransformResult
from .errors import IllConditionedBlocks
from .graded import GradedOperator
from .least_action import BlockStructure, _la_orders
from . import engine

#: Smallest admissible eigenvalue of B(X^dag) B(X).
CONDITION_FLOOR = 1e-8


@dataclass
class NumericHamiltonian:
    """A plain Hermitian matrix plus a record of how it was produced."""

    matrix: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class OrderedEigensystem:
    """Diagonalizing frame X (rows are eigenvectors) with fixed order/phase."""

    X: np.ndarray
    eigenvalues: np.ndarray


def evaluate_at(
    g: GradedOperator, lam: float, t: float | None = None
) -> NumericHamiltonian:
    """Collapse the grading: sum_{j,k} lambda^j exp(i k omega_d t) M[j, k]."""
    has_harmonics = any(k != 0 for _, k in g.keys())
    if has_harmonics and t is None:
        raise ValueError("a time value is required for harmonically graded operators")
    total = np.zeros((g.dim, g.dim), dtype=complex)
    for (j, k), mat in g.items():
        weight = lam ** j
        if k != 0:
            weight = weight * np.exp(1j * k * g.omega_d * t)
        total += weight * mat
    return NumericHamiltonian(
        matrix=total,
        provenance={"lambda": lam, "t": t, "omega_d": g.omega_d},
    )


def _as_matrix(h: NumericHamiltonian | np.ndarray) -> np.ndarray:
    mat = h.matrix if isinstance(h, NumericHamiltonian) else np.asarray(h, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(mat - mat.conj().T).max() > 1e-12 * np.abs(mat).max():
        raise ValueError("matrix is not Hermitian to 1e-12 of its largest entry")
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


def ordered_eigensystem(
    h: NumericHamiltonian | np.ndarray, use_assignment_solver: bool = False
) -> OrderedEigensystem:
    """Eigendecompose with eigenvectors labeled by their dominant basis index.

    Columns are matched to basis indices by maximum weight |X_ij|^2 (greedy by
    descending weight; optionally by a full optimal assignment), then each
    eigenvector's phase is fixed so its assigned diagonal entry of X is real
    and positive.  In the perturbative regime X is then close to the identity.
    """
    mat = _as_matrix(h)
    w, v = np.linalg.eigh(mat)
    weights = np.abs(v) ** 2
    if use_assignment_solver:
        rows, cols = linear_sum_assignment(-weights)
        perm = np.empty(mat.shape[0], dtype=int)
        perm[rows] = cols
    else:
        perm = _greedy_assignment(weights)
    v = v[:, perm]
    w = w[perm]
    for i in range(mat.shape[0]):
        pivot = v[i, i]
        if abs(pivot) > 0:
            v[:, i] *= np.conj(pivot) / abs(pivot)
    return OrderedEigensystem(X=v.conj().T, eigenvalues=w)


def _inverse_sqrt_psd(mat: np.ndarray, threshold: float = CONDITION_FLOOR) -> np.ndarray:
    """{M}^(-1/2) for Hermitian positive definite M via eigendecomposition."""
    w, v = np.linalg.eigh(mat)
    smallest = float(w.min())
    if smallest < threshold:
        raise IllConditionedBlocks(smallest, threshold)
    return (v * (w ** -0.5)) @ v.conj().T


def exact_block_diagonalize(
    h: NumericHamiltonian | np.ndarray,
    blocks: BlockStructure | Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Least-action block diagonalization by dense linear algebra.

    Returns (U_dagger, H_block) with H_block = U H U^dag exactly block
    diagonal.  Falls back from the greedy eigenvector assignment to a full
    optimal assignment before declaring the blocks ill conditioned.
    """
    if not isinstance(blocks, BlockStructure):
        blocks = BlockStructure(tuple(blocks))
    mat = _as_matrix(h)
    if blocks.dim != mat.shape[0]:
        raise ValueError("block sizes must sum to the matrix dimension")
    keep = blocks.in_block()

    def attempt(use_solver: bool) -> np.ndarray:
        eig = ordered_eigensystem(mat, use_assignment_solver=use_solver)
        bx = np.where(keep, eig.X, 0.0)
        gram = bx.conj().T @ bx
        return eig.X.conj().T @ bx @ _inverse_sqrt_psd(gram)

    try:
        u_dagger = attempt(False)
    except IllConditionedBlocks:
        u_dagger = attempt(True)
    u = u_dagger.conj().T
    h_block = u @ mat @ u_dagger
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
    """Corrections through ``order``, collapsed at a numeric lambda (static)."""
    total = np.zeros((result.dim, result.dim), dtype=complex)
    for n, corr in result.corrections.items():
        if n > order:
            continue
        for (j, k), mat in corr.items():
            if k != 0:
                raise ValueError("partial sums are defined for static results only")
            total += (lam ** j) * mat
    return total


def convergence_scan(
    h: GradedOperator,
    method: str,
    orders: Iterable[int],
    lambdas: Iterable[float],
    blocks: BlockStructure | Sequence[int] | None = None,
    hbar: float = 1.0,
) -> list[tuple[int, float, float]]:
    """Table of eta(n, lambda) rows comparing a routine to the exact oracle.

    ``method`` is "la" (needs ``blocks``) or "fd".  The routine runs once at
    the largest requested order; each row compares the collapsed partial sum
    against the exact block diagonalization of the collapsed input.  Per
    lambda, one running partial sum and one batched spectral norm give every
    order's eta, bit for bit ``spectral_distance`` of ``partial_sum_matrix``.
    """
    orders = sorted(set(int(n) for n in orders))
    if not orders or orders[0] < 0:
        raise ValueError(f"scan orders must be a nonempty set of orders >= 0, got {orders}")
    top = orders[-1]
    if method == "la":
        if blocks is None:
            raise ValueError("the la scan needs a block structure")
        if not isinstance(blocks, BlockStructure):
            blocks = BlockStructure(tuple(blocks))
        # the scan reads only the corrections: no generator is computed
        corrections = _la_orders(h, blocks, top, hbar=hbar)[2]
        oracle_blocks = blocks
    elif method == "fd":
        corrections = {n: None if corr.is_zero else corr.term(n, 0)
                       for n, corr in engine.run_fd(h, top, hbar=hbar).corrections.items()}
        oracle_blocks = BlockStructure((1,) * h.dim)
    else:
        raise ValueError(f"unknown scan method {method!r}")
    rows: list[tuple[int, float, float]] = []
    for lam in lambdas:
        _, h_exact = exact_block_diagonalize(evaluate_at(h, lam), oracle_blocks)
        # partial_sum_matrix's sums in its own sequence, one order at a time
        partial = np.zeros_like(h_exact)
        diffs = [h_exact]
        for n, mat in corrections.items():
            if mat is not None:
                partial += (lam ** n) * mat
            if n in orders:
                diffs.append(h_exact - partial)
        norms = np.linalg.norm(np.stack(diffs), 2, axis=(1, 2))
        if norms[0] == 0:
            raise ValueError("reference matrix has zero spectral norm")
        rows += [(n, float(lam), float(norm / norms[0])) for n, norm in zip(orders, norms[1:])]
    return rows
