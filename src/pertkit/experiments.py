"""Stochastic ensembles and the benchmark runners.

The block-diagonalization benchmark draws Hamiltonians with in-block
couplings at first order and cross-block couplings at second order, runs the
least-action recursion and tabulates the relative spectral distance eta(n)
against the exact oracle by one la ``convergence_scan`` at lambda = 1 per
instance, which computes no generator and takes every eta from one batched
norm; an instance builds its block mask once, with its ``BlockStructure``.
The elimination demo applies a third-order arbitrary-coupling elimination to
a dense random instance and reports the before/mask/after panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Mask, run_ace
from .errors import PertError
from .graded import GradedOperator
from .least_action import BlockStructure
from .models import _random_bd, random_ace_hamiltonian
from .oracle import convergence_scan, evaluate_at, partial_sum_matrix


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
        if self.count < 1 or self.dim_max < self.dim_min:
            raise ValueError("invalid ensemble specification")
        if self.blocks_min < 2 or self.blocks_max < self.blocks_min:
            raise ValueError("need at least two blocks")
        # every block holds at least two levels
        if 2 * self.blocks_min > self.dim_min:
            raise ValueError(f"dim_min {self.dim_min} cannot hold {self.blocks_min} blocks "
                             "of at least two levels")
        if not (math.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError(f"coupling must be finite and positive, got {self.coupling}")
        # cross-block couplings are drawn at its square
        if not math.isfinite(self.coupling * self.coupling):
            raise ValueError(f"coupling {self.coupling} squares past the float range")


def sample_instance(spec: EnsembleSpec, index: int) -> tuple[GradedOperator, BlockStructure]:
    """Instance ``index`` of the ensemble; deterministic in (seed, index)."""
    rng = np.random.default_rng([spec.seed, index])
    d = int(rng.integers(spec.dim_min, spec.dim_max + 1))
    max_blocks = min(spec.blocks_max, d // 2)
    n_blocks = int(rng.integers(spec.blocks_min, max_blocks + 1)) if max_blocks > spec.blocks_min else spec.blocks_min
    sizes = 2 + np.bincount(rng.integers(n_blocks, size=d - 2 * n_blocks), minlength=n_blocks)
    blocks = BlockStructure(tuple(int(s) for s in sizes))
    return _random_bd(rng, blocks.cross_mask(), spec.coupling), blocks


@dataclass
class EtaRow:
    instance: int
    order: int
    lam: float
    eta: float
    seed: int


def _instance_rows(spec: EnsembleSpec, index: int, max_order: int) -> list[EtaRow]:
    h, blocks = sample_instance(spec, index)
    return [EtaRow(index, n, lam, eta, spec.seed)
            for n, lam, eta in convergence_scan(h, "la", range(1, max_order + 1), [1.0], blocks)]


def run_fig3_experiment(
    spec: EnsembleSpec, max_order: int = 8
) -> tuple[list[EtaRow], list[tuple[int, str]]]:
    """Per-instance eta(n) rows, in instance order, plus a log of skipped instances.

    Instances failing a precondition (resonant denominators, ill-conditioned
    blocks) are recorded and skipped, not fatal.  A ``max_order`` below 1
    raises ValueError.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    rows: list[EtaRow] = []
    skipped: list[tuple[int, str]] = []
    for index in range(spec.count):
        try:
            rows += _instance_rows(spec, index, max_order)
        except PertError as err:
            skipped.append((index, f"{type(err).__name__}: {err}"))
    return rows, skipped


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
    coupling: float = 0.05,
) -> dict:
    """Third-order elimination of the checkerboard mask on a dense random instance.

    Returns the three panels: the input matrix, the boolean mask and the
    transformed matrix (corrections summed at lambda = 1), in which every
    masked entry is exactly zero.
    """
    mask = checkerboard_mask(d)
    h = random_ace_hamiltonian(d, seed, scale=coupling)
    result = run_ace(h, mask, max_order)
    before = evaluate_at(h, 1.0)
    after = partial_sum_matrix(result, max_order, 1.0)
    return {
        "before": before,
        "mask": mask.eliminate.copy(),
        "after": after,
        "max_order": max_order,
        "seed": seed,
    }
