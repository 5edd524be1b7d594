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
operand or handed out.  A key is judged only against its own operand scale,
never against other keys, since lambda is formal and a small key is not a
negligible one.  ``GradedOperator._adopt`` freezes a finished entry without
copying its arrays; the engines call it only at the public boundary.

Every series in the package is a sum of left-nested chains

    [...[[base^(h), S^(s1)], S^(s2)], ..., S^(sm)]    or    base^(h) F^(s1) ... F^(sm)

whose coefficient depends only on the nestedness m (1/m! or binom(-1/2, m)).
``NestedSeries`` therefore never enumerates the 2^n compositions
(h; s1..sm) of an order n: it keeps one entry per (nestedness, order),

    C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),    C_0 = base,

with op a commutator or a product.  Filling it through order N takes O(N^3)
dense products.  It stores every nestedness level of one (order, harmonic)
key as one contiguous (levels, d, d) stack with one operand scale per level,
so all levels m of one term of the sum over s are formed by one batched
matmul (two for a commutator): O(N^2) numpy calls in all.  Each level is
pruned on its own, by the rule of ``GradedSum.finish``.
"""

from __future__ import annotations

from typing import Mapping

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
        return self._is_graded_adjoint(1.0, tol)

    def is_anti_hermitian_graded(self, tol: float = 1e-12) -> bool:
        """True when M[j, k]^dag == -M[j, -k] for every stored key."""
        return self._is_graded_adjoint(-1.0, tol)

    def _is_graded_adjoint(self, sign: float, tol: float) -> bool:
        """True when M[j, k]^dag == sign * M[j, -k] for every stored key.

        Each key is judged against its own size and its partner's: lambda is
        formal, so a key small next to another order is not a negligible one.
        """
        for (j, k), mat in self._terms.items():
            partner = self.term(j, -k)
            scale = max(_max_abs(mat), _max_abs(partner))
            if _max_abs(mat.conj().T - sign * partner) > tol * scale:
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


def _level_max(stack: np.ndarray) -> np.ndarray:
    """Largest entry of each matrix in a (levels, d, d) stack."""
    return _amax(np.abs(stack), axis=(1, 2))


class _Stack:
    """Nestedness levels lo .. hi - 1 of one (order, harmonic) key, stored contiguously.

    ``mats[i]`` is level lo + i and ``scale[i]`` its operand scale, the
    largest single product or summand added to it.  ``finish`` prunes every
    level by the rule of ``GradedSum.finish``, zeroes the pruned ones, trims
    the range to the outermost kept levels and records each level's largest
    entry in ``sizes`` (0 for a pruned level) and the kept count in ``kept``.
    """

    __slots__ = ("lo", "hi", "mats", "scale", "sizes", "kept")

    def __init__(self, lo: int, hi: int, dim: int):
        self.lo, self.hi = lo, hi
        self.mats = np.zeros((hi - lo, dim, dim), dtype=complex)
        self.scale = np.zeros(hi - lo)
        self.sizes: np.ndarray | None = None
        self.kept = 0

    def cover(self, lo: int, hi: int) -> None:
        """Widen the level range, if needed, to include lo .. hi - 1; reopens the stack."""
        self.sizes = None
        if self.lo <= lo and hi <= self.hi:
            return
        wider = _Stack(min(lo, self.lo), max(hi, self.hi), self.mats.shape[1])
        at = slice(self.lo - wider.lo, self.hi - wider.lo)
        wider.mats[at] = self.mats
        wider.scale[at] = self.scale
        self.lo, self.hi, self.mats, self.scale = wider.lo, wider.hi, wider.mats, wider.scale

    def finish(self) -> "_Stack":
        if self.sizes is None:
            sizes = _level_max(self.mats)
            # GradedSum.finish's test size <= ZERO_RTOL * max(size, scale), since size >= 0
            pruned = sizes <= ZERO_RTOL * self.scale
            dropped = int(np.count_nonzero(pruned))
            self.kept = len(sizes) - dropped
            if dropped:
                # a pruned level restarts from its next summand, as an absent key does
                self.mats[pruned] = 0.0
                self.scale[pruned] = 0.0
                sizes[pruned] = 0.0
                if pruned[0] or pruned[-1]:
                    kept = np.flatnonzero(~pruned)
                    first, last = (kept[0], kept[-1] + 1) if len(kept) else (0, 0)
                    self.lo, self.hi = self.lo + first, self.lo + last
                    self.mats, self.scale, sizes = (
                        self.mats[first:last], self.scale[first:last], sizes[first:last])
            self.sizes = sizes
        return self


class NestedSeries:
    """Left-nested chains over one base, summed per (nestedness, order).

    Level m of order n is the entry

        C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),    C_0^(n) = base^(n),

    with op the commutator [C, F] or the product C F and F the ``factors``,
    a dict of finished sums keyed by order that is held by reference, so
    orders a caller solves later are seen.  The base is copied in as level 0.

    Every nestedness level of one (order, harmonic) key lives in one
    contiguous (levels, d, d) array, a ``_Stack``, over the range of levels
    that can be nonzero.  ``extend(n)`` therefore fills order n of every
    level with one batched matmul (two for a commutator) per factor order s
    and harmonic pair (k1, k2): all levels of the order-(n - s) stack at
    harmonic k1 times the factor's harmonic-k2 matrix, added into levels
    one higher of the order-n stack at k1 + k2.  A run through order N thus
    makes O(N^2) numpy calls for its O(N^3) dense products.  Each level
    keeps the largest single product that fed it, and finishing a stack,
    when it is read as an operand or summed, prunes each level against it
    alone, as ``GradedSum.finish`` prunes a key.  ``tally`` counts the dense
    products of the kept levels, the same count as one product per level.
    """

    def __init__(
        self,
        base: Mapping[int, GradedSum],
        factors: Mapping[int, GradedSum],
        tally: ProductTally,
        commutator: bool,
    ):
        self.stacks: dict[int, dict[int, _Stack]] = {}  # order -> harmonic -> levels
        self.factors = factors
        self.tally = tally
        self.commutator = commutator
        for n, entry in base.items():
            self.add(n, 0, entry, 1.0)

    def _finished(self, n: int) -> dict[int, _Stack]:
        """The order-n stacks, each finished; stacks with no level left are dropped."""
        stacks = self.stacks.get(n, {})
        for k in [k for k, stack in stacks.items() if not stack.finish().kept]:
            del stacks[k]
        return stacks

    def extend(self, n: int) -> None:
        """Fill order n of every level m >= 1 from the factor orders present."""
        jobs = []
        spans: dict[int, tuple[int, int]] = {}
        for s in range(1, n + 1):
            right = self.factors.get(s)
            if right is None or n - s not in self.stacks:
                continue
            factor_terms = right.finish().terms.items()
            for k1, left in self._finished(n - s).items():
                lo, hi = left.lo + 1, left.hi + 1
                for (_, k2), f in factor_terms:
                    k = k1 + k2
                    jobs.append((k, left, f))
                    span = spans.get(k)
                    spans[k] = (lo, hi) if span is None else (min(span[0], lo), max(span[1], hi))
        if not jobs:
            return
        stacks = self.stacks.setdefault(n, {})
        dim = jobs[0][2].shape[0]
        for k, (lo, hi) in spans.items():
            if k in stacks:
                stacks[k].cover(lo, hi)
            else:
                stacks[k] = _Stack(lo, hi, dim)
        per_level = 2 if self.commutator else 1
        for k, left, f in jobs:
            out = stacks[k]
            prod = left.mats @ f
            sizes = _level_max(prod)
            if self.commutator:
                reverse = f @ left.mats
                np.maximum(sizes, _level_max(reverse), out=sizes)
                prod -= reverse
            at = slice(left.lo + 1 - out.lo, left.hi + 1 - out.lo)
            np.maximum(out.scale[at], sizes, out=out.scale[at])
            out.mats[at] += prod
            self.tally.count += per_level * left.kept

    def add(self, n: int, m: int, entry: GradedSum, weight: complex) -> None:
        """Add ``weight`` times ``entry``, a sum of order-n keys, into level m of order n."""
        sizes = entry.finish().sizes
        stacks = self.stacks.setdefault(n, {})
        for key, mat in entry.terms.items():
            stack = stacks.get(key[1])
            if stack is None:
                stack = stacks[key[1]] = _Stack(m, m + 1, mat.shape[0])
            else:
                stack.cover(m, m + 1)
            i = m - stack.lo
            stack.mats[i] += weight * mat
            stack.scale[i] = max(stack.scale[i], abs(weight) * sizes[key])

    def weighted_sum(self, n: int, weights: np.ndarray) -> GradedSum:
        """sum_m weights[m] * C_m^(n), one contraction over the levels per key."""
        total = GradedSum()
        abs_weights = np.abs(weights)
        for k, stack in self._finished(n).items():
            mats = stack.mats
            w = weights[stack.lo:stack.hi]
            total.terms[(n, k)] = np.dot(w, mats.reshape(len(mats), -1)).reshape(mats.shape[1:])
            total.scale[(n, k)] = float(_amax(abs_weights[stack.lo:stack.hi] * stack.sizes))
        return total
