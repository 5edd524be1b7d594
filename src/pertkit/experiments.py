"""Stochastic ensembles and the benchmark runners.

The block-diagonalization benchmark draws Hamiltonians with in-block
couplings at first order and cross-block couplings at second order, runs the
least-action routine and tabulates the relative spectral distance eta(n)
against the exact oracle.  The elimination demo applies a third-order
arbitrary-coupling elimination to a dense random instance and reports the
before/mask/after panels.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import median

import numpy as np

from .engine import Mask, run_ace
from .errors import PertError
from .graded import GradedOperator
from .least_action import BlockStructure, run_la
from .models import _random_bd, random_ace_hamiltonian
from .oracle import evaluate_at, exact_block_diagonalize, partial_sum_matrix


@dataclass(frozen=True)
class EnsembleSpec:
    """Reproducible stochastic ensemble description."""

    count: int = 50
    dim_min: int = 6
    dim_max: int = 14
    blocks_min: int = 2
    blocks_max: int = 4
    coupling: float = 0.05
    seed: int = 7

    def __post_init__(self):
        if self.count < 1 or self.dim_min < 4 or self.dim_max < self.dim_min:
            raise ValueError("invalid ensemble specification")
        if self.blocks_min < 2 or self.blocks_max < self.blocks_min:
            raise ValueError("need at least two blocks")


def sample_instance(spec: EnsembleSpec, index: int) -> tuple[GradedOperator, BlockStructure]:
    """Instance ``index`` of the ensemble; deterministic in (seed, index)."""
    rng = np.random.default_rng([spec.seed, index])
    d = int(rng.integers(spec.dim_min, spec.dim_max + 1))
    max_blocks = min(spec.blocks_max, d // 2)
    n_blocks = int(rng.integers(spec.blocks_min, max_blocks + 1)) if max_blocks > spec.blocks_min else spec.blocks_min
    sizes = np.full(n_blocks, 2)
    for _ in range(d - 2 * n_blocks):
        sizes[int(rng.integers(n_blocks))] += 1
    h = _random_bd(rng, tuple(int(s) for s in sizes), spec.coupling)
    return h, BlockStructure(tuple(int(s) for s in sizes))


@dataclass
class EtaRow:
    instance: int
    order: int
    lam: float
    eta: float
    seed: int


def _instance_rows(spec: EnsembleSpec, index: int, max_order: int) -> list[EtaRow]:
    h, blocks = sample_instance(spec, index)
    result = run_la(h, blocks, max_order)
    exact = evaluate_at(h, 1.0)
    _, h_exact = exact_block_diagonalize(exact, blocks)
    # spectral_distance(h_exact, partial_sum_matrix(result, n, 1.0)) for every
    # n, bit for bit, from one norm of h_exact and one running partial sum
    # that adds the corrections in the same sequence
    h_exact = np.asarray(h_exact, dtype=complex)
    exact_norm = np.linalg.norm(h_exact, 2)
    partial = np.zeros_like(h_exact)
    rows = []
    for n, corr in result.corrections.items():
        for _, mat in corr.items():
            partial += mat
        if n >= 1:
            eta = float(np.linalg.norm(h_exact - partial, 2) / exact_norm)
            rows.append(EtaRow(index, n, 1.0, eta, spec.seed))
    return rows


def run_fig3_experiment(
    spec: EnsembleSpec, max_order: int = 8, threads: int = 1
) -> tuple[list[EtaRow], list[tuple[int, str]]]:
    """Per-instance eta(n) rows plus a log of skipped instances.

    Instances failing a precondition (resonant denominators, ill-conditioned
    blocks) are recorded and skipped, not fatal.  Row order is normalized by
    instance id so parallel and serial runs emit identical tables.
    """
    rows_by_instance: dict[int, list[EtaRow]] = {}
    skipped: list[tuple[int, str]] = []

    def work(index: int):
        try:
            return index, _instance_rows(spec, index, max_order), None
        except PertError as err:
            return index, [], f"{type(err).__name__}: {err}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, range(spec.count)))
    else:
        outcomes = [work(i) for i in range(spec.count)]
    for index, rows, failure in outcomes:
        if failure is not None:
            skipped.append((index, failure))
        else:
            rows_by_instance[index] = rows
    ordered = [row for index in sorted(rows_by_instance) for row in rows_by_instance[index]]
    return ordered, skipped


def median_eta_by_order(rows: list[EtaRow]) -> dict[int, float]:
    by_order: dict[int, list[float]] = {}
    for row in rows:
        by_order.setdefault(row.order, []).append(row.eta)
    return {n: median(values) for n, values in sorted(by_order.items())}


def eta_rows_to_csv(rows: list[EtaRow]) -> str:
    lines = ["instance,n,lambda,eta,seed"]
    for row in rows:
        lines.append(
            f"{row.instance},{row.order},{row.lam:.17g},{row.eta:.17g},{row.seed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# arbitrary-coupling elimination demo
# ---------------------------------------------------------------------------


def checkerboard_mask(d: int) -> Mask:
    idx = np.arange(d)
    return Mask((idx[:, None] + idx[None, :]) % 2 == 1)


def ace_demo(
    d: int = 12,
    seed: int = 11,
    max_order: int = 3,
    mask: Mask | str = "checkerboard",
    coupling: float = 0.05,
) -> dict:
    """Third-order elimination on a dense random instance.

    Returns the three panels: the input matrix, the boolean mask and the
    transformed matrix (corrections summed at lambda = 1), in which every
    masked entry is exactly zero.
    """
    if isinstance(mask, str):
        if mask != "checkerboard":
            raise ValueError(f"unknown mask preset {mask!r}")
        mask = checkerboard_mask(d)
    h = random_ace_hamiltonian(d, seed, scale=coupling)
    result = run_ace(h, mask, max_order)
    before = evaluate_at(h, 1.0).matrix
    after = partial_sum_matrix(result, max_order, 1.0)
    return {
        "before": before,
        "mask": mask.eliminate.copy(),
        "after": after,
        "max_order": max_order,
        "seed": seed,
    }
