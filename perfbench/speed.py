"""Machine-speed reference: a fixed kernel timed next to every op.

On the 2-vCPU virtual machine this benchmark was developed on, speed
changes by up to 1.6x within seconds and drifts over minutes, with CPU time
tracking wall time, so raw timings of identical work spread far beyond any
useful regression bound.  Each op is therefore reported at reference
speed: its wall time times ``REFERENCE_S / k``, where ``k`` is this
kernel's time measured right before and right after the op.  The kernel mixes what pertkit spends its time on
(a Python loop over small complex matmuls, a few d=64 products and a JSON
round trip) and never calls pertkit, so a change to pertkit cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Kernel time that defines reference speed (about its median on that
#: 2-vCPU virtual machine, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_S = 0.004

_rng = np.random.default_rng(20241210)
_SMALL = [_rng.normal(size=(12, 12)) + 1j * _rng.normal(size=(12, 12)) for _ in range(8)]
_BIG = [_rng.normal(size=(64, 64)) + 1j * _rng.normal(size=(64, 64)) for _ in range(2)]
_DOC = [[float(x), float(y)] for x, y in _rng.normal(size=(600, 2))]


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], float] = {}
    for r in range(30):
        for i, a in enumerate(_SMALL):
            b = _SMALL[(i + r) % len(_SMALL)]
            c = a @ b - b @ a
            acc[(i, r % 5)] = acc.get((i, r % 5), 0.0) + float(np.abs(c).max())
    for _ in range(3):
        _BIG[0] @ _BIG[1]
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale from wall time to reference-speed time for one op."""
    return REFERENCE_S / ((before + after) / 2)
