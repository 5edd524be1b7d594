"""Exception types shared across the package."""

from __future__ import annotations


class PertError(Exception):
    """Base class for all package-specific errors."""


class ResonantDenominator(PertError):
    """A masked coupling sits on a (near-)vanishing energy denominator.

    For a static target (harmonic 0) this signals a degenerate coupled pair;
    for a nonzero harmonic it signals a drive resonance.
    """

    def __init__(self, i: int, j: int, harmonic: int, denominator: float, order: int):
        self.i = i
        self.j = j
        self.harmonic = harmonic
        self.denominator = denominator
        self.order = order
        super().__init__(
            f"resonant denominator at entry ({i}, {j}), harmonic {harmonic}, "
            f"order {order}: |E_j - E_i - hbar*k*omega_d| = {abs(denominator):.3e}"
        )


class NonFiniteContent(PertError):
    """A graded entry holds NaN or inf: the input is not finite or a series overflowed."""

    def __init__(self, key: tuple[int, int] | None = None):
        self.key = key
        where = "" if key is None else f" at order {key[0]}, harmonic {key[1]}"
        super().__init__(
            f"non-finite content{where}: the input is not finite or the series overflowed"
        )


class IllConditionedBlocks(PertError):
    """The block-projected eigenvector matrix is too close to singular.

    Raised when the smallest eigenvalue of B(X)^dag B(X) falls below the
    conditioning threshold, i.e. the exact eigenbasis mixes the requested
    blocks too strongly for the least-action unitary to be well defined.
    """

    def __init__(self, smallest: float, threshold: float):
        self.smallest = smallest
        super().__init__(
            f"B(X)^dag B(X) has smallest eigenvalue {smallest:.3e} < {threshold:.1e}; "
            "blocks are too strongly mixed"
        )
