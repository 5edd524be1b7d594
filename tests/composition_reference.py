"""Composition-indexed reference evaluator, kept as a test oracle.

This is the direct form of every series in the package: each order-n term
is a sum over integer compositions, one nested-commutator chain

    [...[[base^(h), S^(s1)], S^(s2)], ..., S^(sm)]      (h + s1 + ... + sm = n)

or one product F^(s1) ... F^(sm) per composition, with the coefficient of
its nestedness.  There are 2^n chains at order n, so it is only usable at
low orders; the package sums the same chains per (order, nestedness) and the
tests compare the two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from pertkit.engine import Mask, EigenFrame, solve_generator_order, DEFAULT_RES_TOL
from pertkit.graded import GradedOperator, commutator, zero_operator
from pertkit.least_action import BlockStructure, block_project


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


class Composition(NamedTuple):
    """Ordered integer tuple indexing one nested-commutator chain.

    ``head`` is the order of the base operator (0 allowed only for the
    unperturbed base); ``tail`` holds the orders of the successive generator
    factors.  head + sum(tail) is the total order, len(tail) the nestedness.
    """

    head: int
    tail: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return self.head + sum(self.tail)

    @property
    def nestedness(self) -> int:
        return len(self.tail)

    def prefix(self) -> "Composition":
        if not self.tail:
            raise ValueError("a bare composition has no prefix")
        return Composition(self.head, self.tail[:-1])

    def as_tuple(self) -> tuple[int, ...]:
        return (self.head, *self.tail)


@lru_cache(maxsize=None)
def positive_compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All ordered tuples of positive integers summing to n (2^(n-1) of them).

    n = 0 yields the single empty tuple.  Ordered by increasing length, then
    lexicographically.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = [(first, *rest) for first in range(1, n + 1) for rest in positive_compositions(n - first)]
    out.sort(key=lambda t: (len(t), t))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_compositions(n: int, allow_zero_head: bool) -> tuple[Composition, ...]:
    """All compositions (head; tail) of total order n.

    Tail parts are >= 1; the head is >= 0 when ``allow_zero_head`` else >= 1.
    Ordered by ascending length, then lexicographically on (head, *tail).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = 0 if allow_zero_head else 1
    out = [
        Composition(head, tail)
        for head in range(lo, n + 1)
        for tail in positive_compositions(n - head)
    ]
    out.sort(key=lambda c: (1 + len(c.tail), c.as_tuple()))
    return tuple(out)


# ---------------------------------------------------------------------------
# chains and products over compositions
# ---------------------------------------------------------------------------


class CommutatorCache:
    """Memo table of chains keyed by (base tag, Composition)."""

    def __init__(self) -> None:
        self.entries: dict[tuple[str, Composition], GradedOperator] = {}
        self.hits = 0
        self.misses = 0


def nested_commutator(
    base: Mapping[int, GradedOperator],
    comp: Composition,
    generator: Mapping[int, GradedOperator],
    cache: CommutatorCache,
    tag: str = "H",
) -> GradedOperator:
    """[...[base^(head), S^(s1)], ..., S^(sm)], caching every prefix.

    Raises KeyError when the base order is absent and LookupError when a
    referenced generator order has not been solved.
    """
    key = (tag, comp)
    found = cache.entries.get(key)
    if found is not None:
        cache.hits += 1
        return found
    cache.misses += 1
    if not comp.tail:
        if comp.head not in base:
            raise KeyError(f"base series has no order-{comp.head} term")
        value = base[comp.head]
    else:
        left = nested_commutator(base, comp.prefix(), generator, cache, tag)
        s_order = comp.tail[-1]
        if s_order not in generator:
            raise LookupError(f"generator order {s_order} referenced before being solved")
        value = commutator(left, generator[s_order])
    cache.entries[key] = value
    return value


def product_over_composition(
    series: Mapping[int, GradedOperator], comp: tuple[int, ...]
) -> GradedOperator:
    """Left-to-right product series[c1] @ ... @ series[cm].

    Orders absent from the series count as zero, collapsing the product.
    """
    if not comp:
        raise ValueError("composition must be nonempty")
    dim = next(iter(series.values())).dim
    out: GradedOperator | None = None
    for part in comp:
        factor = series.get(part)
        if factor is None or factor.is_zero:
            return zero_operator(dim)
        out = factor if out is None else out @ factor
    return out


def _chain_sum(base, n, generator, cache, tag, coeff, skip=None, allow_zero_head=True):
    """sum of coeff(m) * chain over the compositions of n with a head in ``base``."""
    total = None
    for comp in enumerate_compositions(n, allow_zero_head):
        if comp == skip or comp.head not in base:
            continue
        chain = nested_commutator(base, comp, generator, cache, tag)
        if not chain.is_zero:
            term = chain * coeff(comp.nestedness)
            total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# reference routines
# ---------------------------------------------------------------------------


def reference_transform(
    h: GradedOperator,
    mask: Mask,
    max_order: int,
    hbar: float = 1.0,
    res_tol: float = DEFAULT_RES_TOL,
) -> tuple[dict[int, GradedOperator], dict[int, GradedOperator]]:
    """(corrections, generator) of the swt / fd / ace loop, chain by chain.

    ``h`` is the whole Hamiltonian (for swt, h_blocks + v) and ``mask`` the
    entries to eliminate; harmonics take the time-dependent condition.
    """
    frame = EigenFrame.from_energies(np.diag(h.term(0, 0)).real)
    omega_d = h.omega_d
    time_dependent = any(k != 0 for k in h.harmonics())
    base = h.by_order()
    cache = CommutatorCache()
    generator: dict[int, GradedOperator] = {}
    d_generator: dict[int, GradedOperator] = {}
    corrections = {0: h.order_part(0)}
    for n in range(1, max_order + 1):
        known = zero_operator(h.dim, omega_d)
        part = _chain_sum(base, n, generator, cache, "H", lambda m: 1.0 / math.factorial(m),
                          skip=Composition(0, (n,)))
        if part is not None:
            known = known + part
        if time_dependent:
            part = _chain_sum(d_generator, n, generator, cache, "dS",
                              lambda m: -1j * hbar / math.factorial(m + 1),
                              skip=Composition(n, ()), allow_zero_head=False)
            if part is not None:
                known = known + part
        masked = mask.project(known)
        generator[n] = solve_generator_order(masked, frame, mask, hbar, omega_d, res_tol)
        ds = generator[n].time_derivative()
        if not ds.is_zero:
            d_generator[n] = ds
        corrections[n] = known - masked
    return corrections, generator


def reference_rotate(
    operator: GradedOperator, generator: Mapping[int, GradedOperator], up_to_order: int
) -> GradedOperator:
    """exp(-S) O exp(S) through ``up_to_order``, chain by chain."""
    base = operator.by_order()
    cache = CommutatorCache()
    total = base.get(0, zero_operator(operator.dim, operator.omega_d))
    for n in range(1, up_to_order + 1):
        part = _chain_sum(base, n, generator, cache, "O", lambda m: 1.0 / math.factorial(m))
        if part is not None:
            total = total + part
    return total


def _half_binomial(m: int) -> float:
    value = Fraction(1)
    for i in range(1, m + 1):
        value *= Fraction(-1, 2) - (i - 1)
        value /= i
    return float(value)


def reference_la_generator(
    z: Mapping[int, GradedOperator], blocks: BlockStructure, max_order: int, dim: int
) -> dict[str, dict[int, GradedOperator]]:
    """The epsilon, W, U and S series of least action, composition by composition."""
    zero = zero_operator(dim)

    def z_prod(comp):
        return product_over_composition(z, comp) if z else zero

    def bz(comp):
        return block_project(z_prod(comp), blocks)

    def sign(comp):
        return -1.0 if len(comp) % 2 else 1.0

    def splittings(i):
        return [(j, i - j) for j in range(1, i)]

    epsilon = {}
    for i in range(2, max_order + 1):
        total = zero
        for comp in positive_compositions(i):
            if len(comp) % 2 == 0:
                total = total + bz(comp) * (2.0 / math.factorial(len(comp)))
        for j, k in splittings(i):
            for theta in positive_compositions(j):
                for phi in positive_compositions(k):
                    coeff = sign(phi) / (math.factorial(len(theta)) * math.factorial(len(phi)))
                    total = total + (bz(theta) @ bz(phi)) * coeff
        epsilon[i] = total

    def eps_prod(comp):
        if any(part < 2 for part in comp):
            return zero
        return product_over_composition(epsilon, comp)

    w, u, s = {}, {}, {}
    for i in range(1, max_order + 1):
        total = zero
        for comp in positive_compositions(i):
            total = total + (z_prod(comp) + bz(comp) * sign(comp)) * (1.0 / math.factorial(len(comp)))
        for j, k in splittings(i):
            for theta in positive_compositions(j):
                for phi in positive_compositions(k):
                    coeff = sign(phi) / (math.factorial(len(theta)) * math.factorial(len(phi)))
                    total = total + (z_prod(theta) @ bz(phi)) * coeff
        w[i] = total
        total = w[i]
        for theta in positive_compositions(i):
            total = total + eps_prod(theta) * _half_binomial(len(theta))
        for j, k in splittings(i):
            for theta in positive_compositions(k):
                total = total + (w[j] @ eps_prod(theta)) * _half_binomial(len(theta))
        u[i] = total
        s_i = u[i]
        for theta in positive_compositions(i):
            if len(theta) > 1:
                s_i = s_i - product_over_composition(s, theta) * (1.0 / math.factorial(len(theta)))
        s[i] = s_i
    return {"epsilon": epsilon, "W": w, "U": u, "S": s}


def reference_la(
    h: GradedOperator, blocks: BlockStructure, max_order: int
) -> tuple[dict[int, GradedOperator], dict[int, GradedOperator]]:
    """(corrections, generator) of least action, composition by composition."""
    _, z = reference_transform(h, Mask.full_off_diagonal(h.dim), max_order)
    s = reference_la_generator(z, blocks, max_order, h.dim)["S"]
    base = h.by_order()
    cache = CommutatorCache()
    corrections = {0: h.order_part(0)}
    for n in range(1, max_order + 1):
        part = _chain_sum(base, n, s, cache, "H", lambda m: 1.0 / math.factorial(m))
        corrections[n] = part if part is not None else zero_operator(h.dim)
    return corrections, s
