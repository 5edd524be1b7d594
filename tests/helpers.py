"""Small helpers that only the tests use: a model mask, a closed-form level, a table
reduction, README's minimal problem and the command line run in its own process."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np

from pertkit.engine import Mask
from pertkit.experiments import EtaRow
from pertkit.models import TransmonParams


def edsr_parity_mask(n_max: int) -> Mask:
    """Mask every entry connecting opposite Fock parities (both spins).

    This is the block pattern a standard SWT of the full driven model
    eliminates: it separates even from odd oscillator excitation numbers and
    removes both the slanting-field coupling and the direct drive.
    """
    fock = np.tile(np.arange(n_max), 2)
    return Mask((fock[:, None] + fock[None, :]) % 2 == 1)


def transmon_energy(p: TransmonParams, n_t: int, n_r: int) -> float:
    """Bare level w_t n_t + w_r n_r + (alpha/2) n_t (n_t - 1)."""
    return p.omega_t * n_t + p.omega_r * n_r + 0.5 * p.alpha * n_t * (n_t - 1)


def median_eta_by_order(rows: list[EtaRow]) -> dict[int, float]:
    by_order: dict[int, list[float]] = {}
    for row in rows:
        by_order.setdefault(row.order, []).append(row.eta)
    return {n: median(values) for n, values in sorted(by_order.items())}


def readme_problem() -> dict:
    """The problem document that follows README's "A minimal problem file:"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("A minimal problem file:")
    return json.loads(re.compile(r"^```json\n(.*?)^```", re.S | re.M).search(readme, start).group(1))


def run_cli(*argv) -> subprocess.CompletedProcess:
    """``python -m pertkit.cli`` with ``argv`` in a separate process, so that its
    exit status and everything it prints on stderr, warnings included, are seen."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "pertkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
