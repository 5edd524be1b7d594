"""Graded-operator arithmetic and nested-commutator series.

A graded operator is a family of dense d x d complex matrices indexed by
(order, harmonic): it represents

    sum_{j,k} M[j, k] * lambda^j * exp(i k omega_d t),

where lambda is the formal perturbation bookkeeping parameter, j >= 0 the
perturbative order and k the integer drive harmonic.  Orders combine
additively under products; harmonics likewise.  Absent keys are zero.

Every series in the package is a sum of left-nested chains

    [...[[base^(h), S^(s1)], S^(s2)], ..., S^(sm)]    or    base^(h) F^(s1) ... F^(sm)

whose coefficient depends only on the nestedness m (1/m!, -i*hbar/(m+1)!,
binom(-1/2, m)).  ``NestedSeries`` therefore never enumerates the 2^n
compositions (h; s1..sm) of an order n: it keeps one matrix per
(nestedness, order),

    C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),    C_0 = base,

with op a commutator or a product.  Filling it through order N takes
O(N^3) graded products.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

#: Relative magnitude below which a term matrix counts as zero and is pruned.
ZERO_RTOL = 1e-14

Key = tuple[int, int]


def _as_term_matrix(dim: int, mat) -> np.ndarray:
    out = np.array(mat, dtype=complex)  # own copy; frozen by the constructor
    if out.shape != (dim, dim):
        raise ValueError(f"term matrix has shape {out.shape}, expected ({dim}, {dim})")
    return out


class GradedOperator:
    """Immutable family of d x d complex matrices keyed by (order, harmonic)."""

    __slots__ = ("dim", "omega_d", "_terms")

    def __init__(self, dim: int, terms: Mapping[Key, np.ndarray] | None = None,
                 omega_d: float | None = None,
                 operand_scale: Mapping[Key, float] | None = None):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self.omega_d = None if omega_d is None else float(omega_d)
        staged: dict[Key, np.ndarray] = {}
        for key, mat in (terms or {}).items():
            j, k = int(key[0]), int(key[1])
            if j < 0:
                raise ValueError(f"perturbative order must be >= 0, got {j}")
            if k != 0 and self.omega_d is None:
                raise ValueError("omega_d is required when nonzero harmonics are present")
            staged[(j, k)] = _as_term_matrix(self.dim, mat)
        self._terms = _prune(staged, operand_scale or {})
        for mat in self._terms.values():
            mat.flags.writeable = False

    # -- basic queries -------------------------------------------------

    def term(self, order: int, harmonic: int = 0) -> np.ndarray:
        """Matrix at (order, harmonic); the zero matrix if absent."""
        mat = self._terms.get((order, harmonic))
        if mat is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return mat

    def keys(self):
        return self._terms.keys()

    def items(self):
        return self._terms.items()

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted({j for j, _ in self._terms}))

    def harmonics(self) -> tuple[int, ...]:
        return tuple(sorted({k for _, k in self._terms}))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def max_abs(self) -> float:
        if not self._terms:
            return 0.0
        return max(np.abs(m).max() for m in self._terms.values())

    def __repr__(self) -> str:
        keys = sorted(self._terms)
        return f"GradedOperator(dim={self.dim}, keys={keys})"

    # -- structure tests -----------------------------------------------

    def is_hermitian_graded(self, tol: float = 1e-12) -> bool:
        """True when M[j, k]^dag == M[j, -k] for every stored key."""
        scale = self.max_abs() or 1.0
        for (j, k), mat in self._terms.items():
            partner = self.term(j, -k)
            if np.abs(mat.conj().T - partner).max() > tol * scale:
                return False
        return True

    def is_anti_hermitian_graded(self, tol: float = 1e-12) -> bool:
        """True when M[j, k]^dag == -M[j, -k] for every stored key."""
        scale = self.max_abs() or 1.0
        for (j, k), mat in self._terms.items():
            partner = self.term(j, -k)
            if np.abs(mat.conj().T + partner).max() > tol * scale:
                return False
        return True

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        self._check_compatible(other)
        merged: dict[Key, np.ndarray] = dict(self._terms)
        operand_scale: dict[Key, float] = {}
        for key, mat in other._terms.items():
            mine = merged.get(key)
            if mine is None:
                merged[key] = mat
            else:
                merged[key] = mine + mat
                # a difference of nearly equal terms prunes to zero instead of
                # keeping round-off noise
                operand_scale[key] = max(np.abs(mine).max(), np.abs(mat).max())
        return GradedOperator(self.dim, merged, self._merged_omega(other), operand_scale)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-other)

    def __neg__(self) -> "GradedOperator":
        return self * (-1.0)

    def __mul__(self, scalar: complex) -> "GradedOperator":
        return GradedOperator(
            self.dim, {k: m * scalar for k, m in self._terms.items()}, self.omega_d
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        """Graded product: convolution over both orders and harmonics."""
        self._check_compatible(other)
        out: dict[Key, np.ndarray] = {}
        operand_scale: dict[Key, float] = {}
        for (j1, k1), m1 in self._terms.items():
            for (j2, k2), m2 in other._terms.items():
                key = (j1 + j2, k1 + k2)
                prod = m1 @ m2
                operand_scale[key] = max(operand_scale.get(key, 0.0), np.abs(prod).max())
                if key in out:
                    out[key] += prod
                else:
                    out[key] = prod
        return GradedOperator(self.dim, out, self._merged_omega(other), operand_scale)

    def adjoint(self) -> "GradedOperator":
        """Termwise conjugate transpose with the harmonic negated."""
        return GradedOperator(
            self.dim,
            {(j, -k): m.conj().T for (j, k), m in self._terms.items()},
            self.omega_d,
        )

    def time_derivative(self) -> "GradedOperator":
        """d/dt of the operator: multiplies each term by i*k*omega_d.

        Static content (k = 0) drops out.  The i*hbar factor appearing in
        time-dependent generator conditions is applied by callers.
        """
        out: dict[Key, np.ndarray] = {}
        for (j, k), mat in self._terms.items():
            if k == 0:
                continue
            if self.omega_d is None:
                raise ValueError("omega_d is required to differentiate nonzero harmonics")
            out[(j, k)] = (1j * k * self.omega_d) * mat
        return GradedOperator(self.dim, out, self.omega_d)

    def order_part(self, order: int) -> "GradedOperator":
        """The sub-operator holding only the terms of one order."""
        return GradedOperator(
            self.dim,
            {key: m for key, m in self._terms.items() if key[0] == order},
            self.omega_d,
        )

    def by_order(self) -> dict[int, "GradedOperator"]:
        """Split into single-order operators, keyed by order."""
        return {j: self.order_part(j) for j in self.orders()}

    # -- helpers ---------------------------------------------------------

    def _check_compatible(self, other: "GradedOperator") -> None:
        if not isinstance(other, GradedOperator):
            raise TypeError(f"expected GradedOperator, got {type(other).__name__}")
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if (self.omega_d is not None and other.omega_d is not None
                and self.omega_d != other.omega_d):
            raise ValueError(
                f"omega_d mismatch: {self.omega_d} vs {other.omega_d}"
            )

    def _merged_omega(self, other: "GradedOperator") -> float | None:
        return self.omega_d if self.omega_d is not None else other.omega_d


def _prune(terms: dict[Key, np.ndarray],
           operand_scale: Mapping[Key, float]) -> dict[Key, np.ndarray]:
    """Drop the term matrices that are negligible next to their own operands.

    Each key is judged on its own: against the largest entry of the matrices
    it was summed or multiplied from (``operand_scale``), else against
    itself, so only exact zeros go.  Orders and harmonics never set each
    other's scale, since lambda is formal and a small key is not a negligible
    one.
    """
    out = {}
    for key, mat in terms.items():
        size = np.abs(mat).max()
        if size > ZERO_RTOL * max(size, operand_scale.get(key, 0.0)):
            out[key] = mat
    return out


def zero_operator(dim: int, omega_d: float | None = None) -> GradedOperator:
    return GradedOperator(dim, {}, omega_d)


def identity_operator(dim: int, omega_d: float | None = None) -> GradedOperator:
    return GradedOperator(dim, {(0, 0): np.eye(dim)}, omega_d)


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """[a, b] = a@b - b@a under the graded product."""
    return (a @ b) - (b @ a)


# ---------------------------------------------------------------------------
# Nested-commutator and power series
# ---------------------------------------------------------------------------


class ProductTally:
    """Count of the dense d x d matrix products spent by graded products."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def product(self, a: GradedOperator, b: GradedOperator) -> GradedOperator:
        self.count += len(a.keys()) * len(b.keys())
        return a @ b

    def commutator(self, a: GradedOperator, b: GradedOperator) -> GradedOperator:
        self.count += 2 * len(a.keys()) * len(b.keys())
        return commutator(a, b)


class NestedSeries:
    """Left-nested chains over one base, summed per (nestedness, order).

    ``levels[m][n]`` is C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)), where
    ``levels[0]`` is the base and F the ``factors``, both keyed by order and
    held by reference, so entries a caller sets later are seen.  Absent
    entries are zero.  ``extend(n)`` fills order n of every level m >= 1 from
    the factor orders present at the time; a caller that solves F^(n) at
    order n adds the chains using it afterwards with ``add``.
    """

    def __init__(
        self,
        base: dict[int, GradedOperator],
        factors: Mapping[int, GradedOperator],
        op: Callable[[GradedOperator, GradedOperator], GradedOperator],
    ):
        self.levels: list[dict[int, GradedOperator]] = [base]
        self.factors = factors
        self.op = op

    def extend(self, n: int) -> None:
        for m in range(1, n + 1):
            if m == len(self.levels):
                self.levels.append({})
            below = self.levels[m - 1]
            if not below:
                break
            for s in range(1, n + 1):
                left, right = below.get(n - s), self.factors.get(s)
                if left is None or right is None or left.is_zero or right.is_zero:
                    continue
                self.add(m, n, self.op(left, right))

    def add(self, m: int, n: int, term: GradedOperator) -> None:
        level = self.levels[m]
        level[n] = level[n] + term if n in level else term

    def weighted_sum(
        self, n: int, weight: Callable[[int], complex], total: GradedOperator
    ) -> GradedOperator:
        """``total`` plus sum_m weight(m) * C_m^(n)."""
        for m, level in enumerate(self.levels):
            term = level.get(n)
            if term is not None and not term.is_zero:
                total = total + term * weight(m)
        return total
