"""Graded-operator arithmetic and nested-commutator series.

A graded operator is a family of dense d x d matrices indexed by
(order, harmonic): it represents

    sum_{j,k} M[j, k] * lambda^j * exp(i k omega_d t),

where lambda is the formal perturbation bookkeeping parameter, j >= 0 the
perturbative order and k the integer drive harmonic.  Orders combine
additively under products; harmonics likewise.  Absent keys are zero.

One container holds such families.  ``GradedSum`` is a dict
(order, harmonic) -> matrix into which products, commutators and weighted
summands are added in place, with each key's operand scale (its largest
single product or summand).  It is pruned once, by ``finish``, when it is
complete: when it is first read as an operand or handed out.  A key is
judged only against its own operand scale, never against other keys, since
lambda is formal and a small key is not a negligible one.
``GradedOperator``, what the package hands out and takes in, is a finished
``GradedSum`` frozen with its dimension and drive frequency: its matrices are
complex128 and read-only, its ``terms``, ``scale`` and ``sizes`` read-only
mappings, ``add`` raises, and it is read as an operand as it is.  Its
constructor validates and copies the matrices; ``_adopt`` freezes a finished
sum without a copy.

A run computes in one field, picked once by ``common_field`` from the
operators it reads: float64 when no matrix of theirs has a nonzero imaginary
part, as for a time-reversal-symmetric Hamiltonian written in a real basis,
and complex128 otherwise.  There is one code path for both: sums, stacks
and products take the dtype of their operands, and freezing casts a real
result back to complex128, so every operator handed out is complex.

The engines' transformed Hamiltonian and least action's logarithm are sums
of left-nested chains

    [...[[base^(h), S^(s1)], S^(s2)], ..., S^(sm)]    or    base^(h) F^(s1) ... F^(sm)

whose coefficient depends only on the nestedness m (1/m! or (-1)^m / (m + 1)).
``NestedSeries`` therefore never enumerates the 2^n compositions
(h; s1..sm) of an order n: it keeps one entry per (nestedness, order),

    C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),    C_0 = base,

with op a commutator or a product.  Filling it through order N takes O(N^3)
dense products.  Every factor has order >= 1, so a chain of order n nests
at most n deep, and only the base fills level 0: the levels of one order-n
(order, harmonic) key are one contiguous stack, allocated once, (n + 1, d, d)
for a key the base holds and (n, d, d) for any other, with one operand scale
per level, so all levels m of one term of the sum over s are formed by one
batched matmul (two for a commutator) over the stack's kept span, its first
kept level to its last: O(N^2) numpy calls in all.  Each level is pruned on
its own.  ``GradedSum.finish``, the stacks and least action's per-order loop
all prune by one rule, ``_negligible``.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import NonFiniteContent

#: Relative magnitude below which a term matrix counts as zero and is pruned.
ZERO_RTOL = 1e-14

Key = tuple[int, int]

_amax = np.maximum.reduce


def _max_abs(mat: np.ndarray) -> float:
    return float(_amax(np.abs(mat), axis=None))


def _negligible(size, scale, key: Key | None = None):
    """The pruning rule: whether a matrix of largest entry ``size`` counts as zero.

    ``scale`` is the largest single product or summand that fed the matrix
    (0 if none): it is dropped when size <= ZERO_RTOL * max(size, scale),
    which for size >= 0 is size <= ZERO_RTOL * scale, so with no operand
    scale only exact zeros go.  Works on floats and, elementwise, on arrays
    of them.  A NaN or inf size raises ``NonFiniteContent`` instead of being
    judged: NaN > x and inf > inf are false, so the test would drop it.
    """
    finite = np.isfinite(size).all() if isinstance(size, np.ndarray) else math.isfinite(size)
    if not finite:
        raise NonFiniteContent(key)
    return size <= ZERO_RTOL * scale


class GradedSum:
    """Mutable per-key sum of d x d matrices: one series entry in a loop.

    ``terms`` maps (order, harmonic) to a matrix, which the sum owns and adds
    into in place; ``scale`` maps each key to the largest entry of any single
    product or summand added to it.  ``finish`` prunes once and records each
    kept key's largest entry in ``sizes``; adding to a finished sum reopens it.
    """

    __slots__ = ("terms", "scale", "sizes")

    def __init__(self, terms: dict[Key, np.ndarray] | None = None):
        self.terms: dict[Key, np.ndarray] = {} if terms is None else terms
        self.scale: dict[Key, float] = {}
        self.sizes: dict[Key, float] | None = None

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
        formal and a small key is not a negligible one.  The rule is
        ``_negligible``'s; a key holding NaN or inf raises ``NonFiniteContent``.
        """
        if self.sizes is None:
            sizes: dict[Key, float] = {}
            for key, mat in list(self.terms.items()):
                size = _max_abs(mat)
                if _negligible(size, self.scale.get(key, 0.0), key):
                    del self.terms[key]
                else:
                    sizes[key] = size
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


def common_field(*series: Mapping[int, GradedSum]) -> list[Mapping[int, GradedSum]]:
    """The series a run reads, in the one field the run computes in.

    If no matrix of theirs has a nonzero imaginary part, each entry becomes a
    finished sum of contiguous float64 copies of its matrices' real parts,
    with the same sizes; otherwise the series are returned as they are.
    """
    entries = [entry.finish() for one in series for entry in one.values()]
    if any(mat.imag.any() for entry in entries for mat in entry.terms.values()):
        return list(series)
    return [{n: _real_copy(entry) for n, entry in one.items()} for one in series]


def _real_copy(entry: GradedSum) -> GradedSum:
    copy = GradedSum({key: np.ascontiguousarray(mat.real) for key, mat in entry.terms.items()})
    copy.sizes = dict(entry.sizes)
    return copy


class GradedOperator(GradedSum):
    """A finished, frozen ``GradedSum`` of d x d complex128 matrices, with
    its dimension ``dim`` and drive frequency ``omega_d``.

    Its arrays are read-only, its ``terms``, ``scale`` and ``sizes`` are
    read-only mappings and ``add`` raises ``TypeError``, so it is read as an
    operand as it is.
    """

    __slots__ = ("dim", "omega_d")

    def __init__(self, dim: int, terms: Mapping[Key, np.ndarray] | None = None,
                 omega_d: float | None = None):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        dim = int(dim)
        omega_d = None if omega_d is None else float(omega_d)
        staged = GradedSum()
        for key, mat in (terms or {}).items():
            j, k = int(key[0]), int(key[1])
            if j < 0:
                raise ValueError(f"perturbative order must be >= 0, got {j}")
            if k != 0 and omega_d is None:
                raise ValueError("omega_d is required when nonzero harmonics are present")
            own = np.array(mat, dtype=complex)  # own copy; frozen below
            if own.shape != (dim, dim):
                raise ValueError(f"term matrix has shape {own.shape}, expected ({dim}, {dim})")
            staged.terms[(j, k)] = own
        self._freeze(dim, staged, omega_d)

    @classmethod
    def _adopt(cls, dim: int, entry: GradedSum, omega_d: float | None) -> "GradedOperator":
        """Freeze a finished entry without copying; its arrays turn read-only.

        ``entry`` must hold dim x dim matrices, with ``omega_d`` set if any
        harmonic is nonzero, and must not be added to afterwards: the
        operator takes over its dicts.  A real matrix is replaced by its
        complex128 copy.
        """
        return object.__new__(cls)._freeze(dim, entry, omega_d)

    def _freeze(self, dim: int, entry: GradedSum, omega_d: float | None) -> "GradedOperator":
        """Take over ``entry``'s terms, scales and sizes once it is finished,
        each matrix complex128, behind read-only mappings."""
        entry.finish()
        self.dim, self.omega_d = dim, omega_d
        terms = entry.terms
        for key, mat in terms.items():
            if mat.dtype != np.complex128:  # the result of a run in real arithmetic
                terms[key] = mat = mat.astype(np.complex128)
            mat.flags.writeable = False
        self.terms, self.scale, self.sizes = (
            MappingProxyType(terms), MappingProxyType(entry.scale), MappingProxyType(entry.sizes))
        return self

    def add(self, key: Key, mat: np.ndarray, size: float) -> None:
        raise TypeError("a GradedOperator is frozen; add into a GradedSum instead")

    # -- basic queries -------------------------------------------------

    def term(self, order: int, harmonic: int = 0) -> np.ndarray:
        """Matrix at (order, harmonic); the zero matrix if absent."""
        mat = self.terms.get((order, harmonic))
        if mat is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return mat

    def keys(self):
        return self.terms.keys()

    def items(self):
        return self.terms.items()

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted({j for j, _ in self.terms}))

    def harmonics(self) -> tuple[int, ...]:
        return tuple(sorted({k for _, k in self.terms}))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        return max(self.sizes.values(), default=0.0)

    def __repr__(self) -> str:
        keys = sorted(self.terms)
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
        for (j, k), mat in self.terms.items():
            scale = max(self.sizes[(j, k)], self.sizes.get((j, -k), 0.0))
            if _max_abs(mat.conj().T - sign * self.term(j, -k)) > tol * scale:
                return False
        return True

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        self._check_compatible(other)
        total = GradedSum()
        total.add_scaled(self, 1.0)
        # a difference of nearly equal terms prunes to zero instead of
        # keeping round-off noise
        total.add_scaled(other, 1.0)
        return GradedOperator._adopt(self.dim, total, self._merged_omega(other))

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-other)

    def __neg__(self) -> "GradedOperator":
        return self * (-1.0)

    def __mul__(self, scalar: complex) -> "GradedOperator":
        total = GradedSum()
        total.add_scaled(self, scalar)
        return GradedOperator._adopt(self.dim, total, self.omega_d)

    __rmul__ = __mul__

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        """Graded product: convolution over both orders and harmonics."""
        self._check_compatible(other)
        return GradedOperator._adopt(self.dim, _graded_product(self, other),
                                     self._merged_omega(other))

    def adjoint(self) -> "GradedOperator":
        """Termwise conjugate transpose with the harmonic negated."""
        return GradedOperator(
            self.dim,
            {(j, -k): m.conj().T for (j, k), m in self.terms.items()},
            self.omega_d,
        )

    def time_derivative(self) -> "GradedOperator":
        """d/dt of the operator: multiplies each term by i*k*omega_d.

        Static content (k = 0) drops out.  The i*hbar factor appearing in
        time-dependent generator conditions is applied by callers.
        """
        derivative = GradedSum({(j, k): (1j * k * self.omega_d) * mat
                                for (j, k), mat in self.terms.items() if k != 0})
        return GradedOperator._adopt(self.dim, derivative, self.omega_d)

    def where(self, keep: np.ndarray) -> "GradedOperator":
        """Per key, the entries where ``keep`` holds and zero elsewhere, frozen."""
        return GradedOperator._adopt(self.dim, super().where(keep), self.omega_d)

    def by_order(self) -> dict[int, "GradedOperator"]:
        """Split into single-order operators, keyed by order; the matrices are shared."""
        parts = {j: GradedSum() for j in self.orders()}
        for part in parts.values():
            part.sizes = {}  # finished: each key is one of this operator's
        for key, mat in self.terms.items():
            parts[key[0]].terms[key] = mat
            parts[key[0]].sizes[key] = self.sizes[key]
        return {j: GradedOperator._adopt(self.dim, part, self.omega_d) for j, part in parts.items()}

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
    """Every entry of a finished series frozen into a ``GradedOperator``, without
    a copy of a complex matrix."""
    return {n: GradedOperator._adopt(dim, entry, omega_d) for n, entry in series.items()}


def zero_operator(dim: int, omega_d: float | None = None) -> GradedOperator:
    return GradedOperator(dim, {}, omega_d)


def identity_operator(dim: int, omega_d: float | None = None) -> GradedOperator:
    return GradedOperator(dim, {(0, 0): np.eye(dim)}, omega_d)


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """[a, b] = a@b - b@a under the graded product."""
    a._check_compatible(b)
    ab, ba = _graded_product(a, b), _graded_product(b, a)
    for key, mat in ab.terms.items():
        mat -= ba.terms[key]
        ab.scale[key] = max(ab.scale[key], ba.scale[key])
    return GradedOperator._adopt(a.dim, ab, a._merged_omega(b))


# ---------------------------------------------------------------------------
# Nested-commutator and power series
# ---------------------------------------------------------------------------


def _level_max(stack: np.ndarray) -> np.ndarray:
    """Largest entry of each matrix in a (levels, d, d) stack."""
    return _amax(np.abs(stack), axis=(1, 2))


class _Stack:
    """Nestedness levels lo .. n of one order-n (order, harmonic) key, stored contiguously.

    A chain of order n nests at most n deep and only the base fills level 0,
    so lo is 0 for a stack the base starts and 1 for any other: ``mats[m - lo]``
    is level m and ``scale[m - lo]`` its operand scale, the largest single
    product or summand added to it.  ``top`` is one past the last row added
    to; chains often nest less deep (swt, drive harmonics, la), and ``finish``
    reads the rows below it only.  It raises ``NonFiniteContent`` if a level
    holds NaN or inf; otherwise it prunes each level by ``_negligible``, zeroes
    the pruned ones and records each level's largest entry in ``sizes`` (0 if
    pruned), the kept count in ``kept`` and the rows from the first kept to
    the last in ``span``: the rows read as operands and summed.
    """

    __slots__ = ("lo", "top", "mats", "scale", "sizes", "kept", "span")

    def __init__(self, lo: int, n: int, like: np.ndarray):
        self.lo, self.top = lo, 0
        self.mats = np.zeros((n + 1 - lo, *like.shape), dtype=like.dtype)
        self.scale = np.zeros(n + 1 - lo)
        self.sizes: np.ndarray | None = None
        self.kept, self.span = 0, slice(0, 0)

    def finish(self) -> "_Stack":
        if self.sizes is None:
            mats, scale = self.mats[:self.top], self.scale[:self.top]
            sizes = _level_max(mats)
            # an overflowed level has size and scale inf, and is raised, not pruned
            pruned = _negligible(sizes, scale)
            self.kept, self.span = len(sizes), slice(0, len(sizes))
            if pruned.any():
                kept = np.flatnonzero(~pruned).tolist()
                self.kept = len(kept)
                self.span = slice(kept[0], kept[-1] + 1) if self.kept else slice(0, 0)
                # a level never added to is zero with scale 0 already
                dropped = pruned & (scale > 0)
                if dropped.any():
                    # a pruned level restarts from its next summand, as an absent key does
                    mats[dropped] = 0.0
                    scale[dropped] = 0.0
                    sizes[dropped] = 0.0
            self.sizes = sizes
        return self


class NestedSeries:
    """Left-nested chains over one base, summed per (nestedness, order).

    Level m of order n is the entry

        C_m^(n) = sum_s op(C_{m-1}^(n-s), F^(s)),    C_0^(n) = base^(n),

    with op the commutator [C, F] or the product C F and F the ``factors``,
    a dict of finished sums keyed by order that is held by reference, so
    orders a caller solves later are seen.  The base is copied in as level 0
    through ``max_order``, the last order the series is extended to; callers
    add to levels m >= 1 only.

    Every nestedness level of one (order, harmonic) key lives in one
    contiguous array, a ``_Stack``, so ``extend(n)`` fills order n of every
    level with one batched matmul (two for a commutator) per factor order s
    and harmonic pair (k1, k2): the kept span of the order-(n - s) stack at
    harmonic k1 times the factor's harmonic-k2 matrix, added into the
    levels one higher of the order-n stack at k1 + k2.  A run through order
    N thus makes O(N^2) numpy calls for its O(N^3) dense products.  Each
    level keeps the largest single product that fed it, and finishing a
    stack, when it is read as an operand or summed, prunes each level
    against it alone, as ``GradedSum.finish`` prunes a key.  ``products``
    counts the dense products: one per kept operand level (two for a commutator).
    """

    def __init__(self, base: Mapping[int, GradedSum], factors: Mapping[int, GradedSum],
                 max_order: int, commutator: bool):
        self.stacks: dict[int, dict[int, _Stack]] = {}  # order -> harmonic -> levels
        self.factors = factors
        self.commutator = commutator
        self.products = 0
        for n, entry in base.items():
            if n <= max_order:
                self.add(n, 0, entry, 1.0)

    def _finished(self, n: int) -> dict[int, _Stack]:
        """The order-n stacks, each finished; stacks with no level left are dropped."""
        stacks = self.stacks.get(n, {})
        for k in [k for k, stack in stacks.items() if not stack.finish().kept]:
            del stacks[k]
        return stacks

    def _stack(self, n: int, k: int, lo: int, like: np.ndarray) -> _Stack:
        """The order-n stack at harmonic k, made from level lo if absent, each
        level shaped and typed as ``like``; reopened."""
        stacks = self.stacks.setdefault(n, {})
        stack = stacks.get(k)
        if stack is None:
            stack = stacks[k] = _Stack(lo, n, like)
        stack.sizes = None
        return stack

    def extend(self, n: int) -> None:
        """Fill order n of every level m >= 1 from the factor orders present."""
        per_level = 2 if self.commutator else 1
        for s in range(1, n + 1):
            right = self.factors.get(s)
            if right is None or n - s not in self.stacks:
                continue
            factor_terms = right.finish().terms.items()
            for k1, left in self._finished(n - s).items():
                mats = left.mats[left.span]
                first = left.lo + left.span.start + 1  # the level mats[0] feeds
                for (_, k2), f in factor_terms:
                    out = self._stack(n, k1 + k2, 1, f)
                    at = slice(first - out.lo, first - out.lo + len(mats))
                    out.top = max(out.top, at.stop)
                    prod = mats @ f
                    sizes = _level_max(prod)
                    if self.commutator:
                        reverse = f @ mats
                        np.maximum(sizes, _level_max(reverse), out=sizes)
                        prod -= reverse
                    np.maximum(out.scale[at], sizes, out=out.scale[at])
                    out.mats[at] += prod
                    self.products += per_level * left.kept

    def add(self, n: int, m: int, entry: GradedSum, weight: complex) -> None:
        """Add ``weight`` times ``entry``, a sum of order-n keys, into level m of order n."""
        sizes = entry.finish().sizes
        for key, mat in entry.terms.items():
            stack = self._stack(n, key[1], min(m, 1), mat)
            row = m - stack.lo
            if row < 0:
                raise ValueError(f"level 0 of order {n} holds the base alone")
            stack.top = max(stack.top, row + 1)
            stack.mats[row] += weight * mat
            stack.scale[row] = max(stack.scale[row], abs(weight) * sizes[key])

    def weighted_sum(self, n: int, weights: np.ndarray) -> GradedSum:
        """sum_m weights[m] * C_m^(n), one contraction over the kept span per key."""
        total = GradedSum()
        for k, stack in self._finished(n).items():
            mats, w = stack.mats[stack.span], weights[stack.lo:][stack.span]
            total.terms[(n, k)] = np.dot(w, mats.reshape(len(mats), -1)).reshape(mats.shape[1:])
            total.scale[(n, k)] = float(_amax(np.abs(w) * stack.sizes[stack.span]))
        return total
