"""Graded-operator arithmetic and nested-commutator series.

A graded operator is a family of dense d x d complex matrices indexed by
(order, harmonic): it represents

    sum_{j,k} M[j, k] * lambda^j * exp(i k omega_d t),

where lambda is the formal perturbation bookkeeping parameter, j >= 0 the
perturbative order and k the integer drive harmonic.  Orders combine
additively under products; harmonics likewise.  Absent keys are zero.

Two containers hold such families.  ``GradedOperator`` is the immutable one
the package hands out and takes in: its term matrices are read-only and
negligible keys are pruned when it is built.  ``GradedSum`` is the working
form of one series entry inside the engines' loops: a mutable dict
(order, harmonic) -> matrix into which products, commutators and weighted
summands are added in place, with each key's operand scale (its largest
single product or summand).  An entry is pruned once, by
``GradedSum.finish``, when it is complete: when it is first read as an
operand or handed out.  ``GradedOperator._adopt`` freezes a finished entry
without copying its arrays; the engines call it only at the public boundary.

Every series in the package is a sum of left-nested chains

    [...[[base^(h), S^(s1)], S^(s2)], ..., S^(sm)]    or    base^(h) F^(s1) ... F^(sm)

whose coefficient depends only on the nestedness m (1/m! or binom(-1/2, m)).
``NestedSeries`` therefore never enumerates the 2^n compositions
(h; s1..sm) of an order n: it keeps one entry per (nestedness, order),

    C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),    C_0 = base,

with op a commutator or a product added into C_m^(n) in place.  Filling it
through order N takes O(N^3) graded products.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

#: Relative magnitude below which a term matrix counts as zero and is pruned.
ZERO_RTOL = 1e-14

Key = tuple[int, int]

_amax = np.maximum.reduce


def _max_abs(mat: np.ndarray) -> float:
    return float(_amax(np.abs(mat), axis=None))


class GradedSum:
    """Mutable per-key sum of d x d matrices: one series entry in a loop.

    ``terms`` maps (order, harmonic) to a matrix, which the sum owns and adds
    into in place unless it came from ``of``; ``scale`` maps each key to the
    largest entry of any single product or summand added to it.  ``finish``
    prunes once and records each kept key's largest entry in ``sizes``;
    adding to a finished sum reopens it.
    """

    __slots__ = ("terms", "scale", "sizes")

    def __init__(self, terms: dict[Key, np.ndarray] | None = None):
        self.terms: dict[Key, np.ndarray] = {} if terms is None else terms
        self.scale: dict[Key, float] = {}
        self.sizes: dict[Key, float] | None = None

    @staticmethod
    def of(op: "GradedOperator") -> "GradedSum":
        """A read-only view of an operator's terms, for use as an operand."""
        return GradedSum(dict(op._terms))

    def add(self, key: Key, mat: np.ndarray, size: float) -> None:
        """Add ``mat``, which the sum takes over, at ``key``; ``size`` is its largest entry."""
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = mat
            self.scale[key] = size
        else:
            cur += mat
            if size > self.scale.get(key, 0.0):
                self.scale[key] = size
        self.sizes = None

    def add_scaled(self, other: "GradedSum", weight: complex) -> None:
        """Add ``weight`` times ``other``, finishing ``other`` first."""
        sizes = other.finish().sizes
        for key, mat in other.terms.items():
            self.add(key, mat * weight, abs(weight) * sizes[key])

    def add_product(self, a: "GradedSum", b: "GradedSum") -> None:
        """Add the graded product a b of two finished sums."""
        prod = _graded_product(a, b)
        for key, mat in prod.terms.items():
            self.add(key, mat, prod.scale[key])

    def add_commutator(self, a: "GradedSum", b: "GradedSum") -> None:
        """Add the graded commutator [a, b] of two finished sums."""
        ab, ba = _graded_product(a, b), _graded_product(b, a)
        for key, mat in ab.terms.items():
            mat -= ba.terms[key]
            self.add(key, mat, max(ab.scale[key], ba.scale[key]))

    def where(self, keep: np.ndarray) -> "GradedSum":
        """Per key, the entries where ``keep`` holds and zero elsewhere.

        The part is a new sum pruned only where it is exactly zero.
        """
        return GradedSum({key: np.where(keep, mat, 0.0)
                          for key, mat in self.finish().terms.items()})

    def finish(self) -> "GradedSum":
        """Drop the keys that are negligible next to their own operands.

        Each key is judged on its own: against the largest single product or
        summand that fed it, else against itself, so only exact zeros go.
        Orders and harmonics never set each other's scale, since lambda is
        formal and a small key is not a negligible one.
        """
        if self.sizes is None:
            sizes: dict[Key, float] = {}
            for key, mat in list(self.terms.items()):
                size = _max_abs(mat)
                if size > ZERO_RTOL * max(size, self.scale.get(key, 0.0)):
                    sizes[key] = size
                else:
                    del self.terms[key]
            self.sizes = sizes
        return self


def _graded_product(a: GradedSum, b: GradedSum) -> GradedSum:
    """Convolution of a and b over orders and harmonics."""
    out = GradedSum()
    for (j1, k1), m1 in a.terms.items():
        for (j2, k2), m2 in b.terms.items():
            prod = m1 @ m2
            out.add((j1 + j2, k1 + k2), prod, _max_abs(prod))
    return out


def _as_term_matrix(dim: int, mat) -> np.ndarray:
    out = np.array(mat, dtype=complex)  # own copy; frozen by the constructor
    if out.shape != (dim, dim):
        raise ValueError(f"term matrix has shape {out.shape}, expected ({dim}, {dim})")
    return out


class GradedOperator:
    """Immutable family of d x d complex matrices keyed by (order, harmonic)."""

    __slots__ = ("dim", "omega_d", "_terms")

    def __init__(self, dim: int, terms: Mapping[Key, np.ndarray] | None = None,
                 omega_d: float | None = None):
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
        self._terms = GradedSum(staged).finish().terms
        for mat in self._terms.values():
            mat.flags.writeable = False

    @classmethod
    def _adopt(cls, dim: int, entry: GradedSum, omega_d: float | None) -> "GradedOperator":
        """Freeze a finished entry without copying; its arrays turn read-only.

        ``entry`` must hold complex dim x dim matrices, with ``omega_d`` set if
        any harmonic is nonzero, and must not be added to afterwards.
        """
        op = object.__new__(cls)
        op.dim = dim
        op.omega_d = omega_d
        op._terms = dict(entry.finish().terms)
        for mat in op._terms.values():
            mat.flags.writeable = False
        return op

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
        total = GradedSum()
        total.add_scaled(GradedSum.of(self), 1.0)
        # a difference of nearly equal terms prunes to zero instead of
        # keeping round-off noise
        total.add_scaled(GradedSum.of(other), 1.0)
        return GradedOperator._adopt(self.dim, total, self._merged_omega(other))

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-other)

    def __neg__(self) -> "GradedOperator":
        return self * (-1.0)

    def __mul__(self, scalar: complex) -> "GradedOperator":
        total = GradedSum()
        total.add_scaled(GradedSum.of(self), scalar)
        return GradedOperator._adopt(self.dim, total, self.omega_d)

    __rmul__ = __mul__

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        """Graded product: convolution over both orders and harmonics."""
        self._check_compatible(other)
        total = GradedSum()
        total.add_product(GradedSum.of(self), GradedSum.of(other))
        return GradedOperator._adopt(self.dim, total, self._merged_omega(other))

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
        derivative = GradedSum({(j, k): (1j * k * self.omega_d) * mat
                                for (j, k), mat in self._terms.items() if k != 0})
        return GradedOperator._adopt(self.dim, derivative, self.omega_d)

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


def freeze_series(series: Mapping[int, GradedSum], dim: int,
                  omega_d: float | None) -> dict[int, GradedOperator]:
    """Every entry of a finished series frozen into a ``GradedOperator``, without a copy."""
    return {n: GradedOperator._adopt(dim, entry, omega_d) for n, entry in series.items()}


def zero_operator(dim: int, omega_d: float | None = None) -> GradedOperator:
    return GradedOperator(dim, {}, omega_d)


def identity_operator(dim: int, omega_d: float | None = None) -> GradedOperator:
    return GradedOperator(dim, {(0, 0): np.eye(dim)}, omega_d)


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """[a, b] = a@b - b@a under the graded product."""
    a._check_compatible(b)
    total = GradedSum()
    total.add_commutator(GradedSum.of(a), GradedSum.of(b))
    return GradedOperator._adopt(a.dim, total, a._merged_omega(b))


# ---------------------------------------------------------------------------
# Nested-commutator and power series
# ---------------------------------------------------------------------------


class ProductTally:
    """Count of the dense d x d matrix products spent by graded products."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def product(self, out: GradedSum, a: GradedSum, b: GradedSum) -> None:
        """Add a b to ``out``; a and b must be finished."""
        self.count += len(a.terms) * len(b.terms)
        out.add_product(a, b)

    def commutator(self, out: GradedSum, a: GradedSum, b: GradedSum) -> None:
        """Add [a, b] to ``out``; a and b must be finished."""
        self.count += 2 * len(a.terms) * len(b.terms)
        out.add_commutator(a, b)


class NestedSeries:
    """Left-nested chains over one base, summed per (nestedness, order).

    ``levels[m][n]`` is the entry C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),
    where ``levels[0]`` is the base and F the ``factors``, both keyed by
    order and held by reference, so entries a caller sets later are seen.
    Absent entries are zero.  ``extend(n)`` fills order n of every level
    m >= 1 from the factor orders present at the time, finishing each
    operand it reads; a caller that solves F^(n) at order n adds the chains
    using it afterwards into ``entry(m, n)``.
    """

    def __init__(
        self,
        base: dict[int, GradedSum],
        factors: Mapping[int, GradedSum],
        op: Callable[[GradedSum, GradedSum, GradedSum], None],
    ):
        self.levels: list[dict[int, GradedSum]] = [base]
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
                if (left is None or right is None
                        or not left.finish().terms or not right.finish().terms):
                    continue
                self.op(self.entry(m, n), left, right)

    def entry(self, m: int, n: int) -> GradedSum:
        """C_m^(n), created empty if absent."""
        level = self.levels[m]
        if n not in level:
            level[n] = GradedSum()
        return level[n]

    def weighted_sum(
        self, n: int, weight: Callable[[int], complex], total: GradedSum
    ) -> GradedSum:
        """Add sum_m weight(m) * C_m^(n) to ``total`` and return it."""
        for m, level in enumerate(self.levels):
            term = level.get(n)
            if term is not None:
                total.add_scaled(term, weight(m))
        return total
