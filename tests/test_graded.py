import itertools

import numpy as np
import pytest

from composition_reference import (
    CommutatorCache,
    Composition,
    enumerate_compositions,
    nested_commutator,
    positive_compositions,
    product_over_composition,
)
from pertkit.graded import (
    GradedOperator,
    GradedSum,
    NestedSeries,
    ProductTally,
    commutator,
    identity_operator,
    zero_operator,
)

RNG = np.random.default_rng(20240813)


def random_matrix(d, rng=RNG):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def hermitian(d, rng=RNG):
    m = random_matrix(d, rng)
    return (m + m.conj().T) / 2


def pauli():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


# ---------------------------------------------------------------------------
# add / multiply / commutator / adjoint / time derivative
# ---------------------------------------------------------------------------


def test_add_zero_is_identity():
    m = random_matrix(3)
    a = GradedOperator(3, {(1, 0): m})
    out = a + zero_operator(3)
    assert set(out.keys()) == {(1, 0)}
    np.testing.assert_allclose(out.term(1, 0), m)


def test_add_disjoint_keys_concatenate():
    m, n = random_matrix(2), random_matrix(2)
    a = GradedOperator(2, {(1, 1): m}, omega_d=1.0)
    b = GradedOperator(2, {(1, -1): n}, omega_d=1.0)
    out = a + b
    assert set(out.keys()) == {(1, 1), (1, -1)}


def test_add_cancellation_prunes_to_zero():
    m = random_matrix(4)
    a = GradedOperator(4, {(2, 0): m})
    b = GradedOperator(4, {(2, 0): -m})
    assert (a + b).is_zero


def test_add_rejects_dimension_mismatch():
    a = GradedOperator(2, {(0, 0): np.eye(2)})
    b = GradedOperator(3, {(0, 0): np.eye(3)})
    with pytest.raises(ValueError, match="dimension"):
        a + b


def test_add_rejects_omega_mismatch():
    a = GradedOperator(2, {(1, 1): np.eye(2)}, omega_d=1.0)
    b = GradedOperator(2, {(1, 1): np.eye(2)}, omega_d=2.0)
    with pytest.raises(ValueError, match="omega_d"):
        a + b


def test_multiply_identity():
    x = GradedOperator(3, {(1, 0): random_matrix(3), (2, 0): random_matrix(3)})
    out = identity_operator(3) @ x
    assert set(out.keys()) == set(x.keys())
    for key in x.keys():
        np.testing.assert_allclose(out.term(*key), x.term(*key))


def test_multiply_gradings_add():
    ma, mb = random_matrix(2), random_matrix(2)
    a = GradedOperator(2, {(1, 1): ma}, omega_d=0.7)
    b = GradedOperator(2, {(1, -1): mb}, omega_d=0.7)
    out = a @ b
    assert set(out.keys()) == {(2, 0)}
    np.testing.assert_allclose(out.term(2, 0), ma @ mb)


def test_multiply_noncommutative_difference_is_commutator():
    ma, mb = random_matrix(2), random_matrix(2)
    a = GradedOperator(2, {(1, 0): ma})
    b = GradedOperator(2, {(2, 0): mb})
    diff = (a @ b) - (b @ a)
    assert set(diff.keys()) == {(3, 0)}
    np.testing.assert_allclose(diff.term(3, 0), ma @ mb - mb @ ma)


def test_commutator_with_itself_vanishes():
    x = GradedOperator(3, {(1, 0): random_matrix(3)})
    assert commutator(x, x).is_zero


def test_commutator_pauli_algebra():
    sx, sy, sz = pauli()
    a = GradedOperator(2, {(0, 0): sz})
    b = GradedOperator(2, {(1, 0): sx})
    out = commutator(a, b)
    assert set(out.keys()) == {(1, 0)}
    np.testing.assert_allclose(out.term(1, 0), 2j * sy)


def test_commutator_hermitian_with_antihermitian_is_hermitian():
    d = 3
    h = hermitian(d)
    a = GradedOperator(d, {(1, 1): h, (1, -1): h.conj().T}, omega_d=1.3)
    s_mat = random_matrix(d)
    s = GradedOperator(
        d, {(1, 1): s_mat, (1, -1): -s_mat.conj().T}, omega_d=1.3
    )
    assert a.is_hermitian_graded()
    assert s.is_anti_hermitian_graded()
    assert commutator(a, s).is_hermitian_graded()


def test_commutator_of_hermitians_is_antihermitian():
    d = 3
    a = GradedOperator(d, {(1, 0): hermitian(d)})
    b = GradedOperator(d, {(2, 0): hermitian(d)})
    assert commutator(a, b).is_anti_hermitian_graded()


def test_adjoint_is_involution():
    x = GradedOperator(
        3, {(1, 2): random_matrix(3), (0, 0): random_matrix(3)}, omega_d=0.5
    )
    xdd = x.adjoint().adjoint()
    assert set(xdd.keys()) == set(x.keys())
    for key in x.keys():
        np.testing.assert_allclose(xdd.term(*key), x.term(*key))


def test_adjoint_fixes_hermitian_graded():
    h = hermitian(3)
    x = GradedOperator(3, {(1, 0): h})
    np.testing.assert_allclose(x.adjoint().term(1, 0), h)


def test_adjoint_negates_harmonic():
    x = GradedOperator(2, {(1, 2): random_matrix(2)}, omega_d=1.0)
    assert set(x.adjoint().keys()) == {(1, -2)}


def test_adjoint_antihomomorphism():
    a = GradedOperator(
        3, {(1, 1): random_matrix(3), (2, 0): random_matrix(3)}, omega_d=2.0
    )
    b = GradedOperator(
        3, {(0, 0): random_matrix(3), (1, -1): random_matrix(3)}, omega_d=2.0
    )
    lhs = (a @ b).adjoint()
    rhs = b.adjoint() @ a.adjoint()
    assert set(lhs.keys()) == set(rhs.keys())
    for key in lhs.keys():
        assert np.abs(lhs.term(*key) - rhs.term(*key)).max() < 1e-12


def test_time_derivative_of_static_vanishes():
    x = GradedOperator(3, {(1, 0): random_matrix(3), (2, 0): random_matrix(3)})
    assert x.time_derivative().is_zero


def test_time_derivative_factor():
    m = random_matrix(2)
    x = GradedOperator(2, {(1, 1): m}, omega_d=2.0)
    np.testing.assert_allclose(x.time_derivative().term(1, 1), 2j * m)


def test_time_derivative_preserves_antihermitian_grading():
    m = random_matrix(3)
    s = GradedOperator(3, {(1, 1): m, (1, -1): -m.conj().T}, omega_d=1.7)
    ds = s.time_derivative()
    assert ds.is_anti_hermitian_graded()


def test_nonzero_harmonic_requires_omega():
    with pytest.raises(ValueError, match="omega_d"):
        GradedOperator(2, {(1, 1): np.eye(2)})


def test_grading_closure_under_products():
    rng = np.random.default_rng(7)
    for _ in range(20):
        keys_a = {(int(rng.integers(0, 3)), int(rng.integers(-1, 2))) for _ in range(2)}
        keys_b = {(int(rng.integers(0, 3)), int(rng.integers(-1, 2))) for _ in range(2)}
        a = GradedOperator(3, {k: random_matrix(3, rng) for k in keys_a}, omega_d=1.0)
        b = GradedOperator(3, {k: random_matrix(3, rng) for k in keys_b}, omega_d=1.0)
        sums = {(ja + jb, ka + kb) for ja, ka in keys_a for jb, kb in keys_b}
        assert set((a @ b).keys()) <= sums
        assert set(commutator(a, b).keys()) <= sums


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def brute_force_compositions(n, allow_zero_head):
    """Independent enumeration via cut masks on a row of n units."""
    found = set()
    for bits in itertools.product([0, 1], repeat=n - 1):
        parts, start = [], 0
        for pos, cut in enumerate(bits, start=1):
            if cut:
                parts.append(pos - start)
                start = pos
        parts.append(n - start)
        parts = tuple(parts)
        found.add(parts)
        if allow_zero_head:
            found.add((0, *parts))
    return found


def test_compositions_n3_with_zero_head_matches_listing():
    got = {c.as_tuple() for c in enumerate_compositions(3, True)}
    assert got == {
        (3,), (2, 1), (1, 2), (0, 3),
        (1, 1, 1), (0, 1, 2), (0, 2, 1), (0, 1, 1, 1),
    }
    assert len(enumerate_compositions(3, True)) == 8


def test_compositions_n1():
    got = {c.as_tuple() for c in enumerate_compositions(1, True)}
    assert got == {(1,), (0, 1)}


def test_compositions_n3_positive_heads():
    got = {c.as_tuple() for c in enumerate_compositions(3, False)}
    assert got == {(3,), (2, 1), (1, 2), (1, 1, 1)}


@pytest.mark.parametrize("n", range(1, 11))
def test_composition_counts_against_brute_force(n):
    with_zero = {c.as_tuple() for c in enumerate_compositions(n, True)}
    positive = {c.as_tuple() for c in enumerate_compositions(n, False)}
    assert with_zero == brute_force_compositions(n, True)
    assert positive == brute_force_compositions(n, False)
    assert len(with_zero) == 2 ** n
    assert len(positive) == 2 ** (n - 1)


def test_composition_order_is_deterministic():
    comps = enumerate_compositions(4, True)
    lengths = [1 + len(c.tail) for c in comps]
    assert lengths == sorted(lengths)
    for length in set(lengths):
        group = [c.as_tuple() for c in comps if 1 + len(c.tail) == length]
        assert group == sorted(group)


def test_composition_invariants():
    for comp in enumerate_compositions(5, True):
        assert comp.order == 5
        assert comp.nestedness == len(comp.tail)
        assert all(p >= 1 for p in comp.tail)


def test_positive_compositions_of_zero():
    assert positive_compositions(0) == ((),)


# ---------------------------------------------------------------------------
# nested commutators and the cache
# ---------------------------------------------------------------------------


def _base_and_generator(d=4, orders=(0, 1, 2), s_orders=(1, 2, 3), seed=3):
    rng = np.random.default_rng(seed)
    base = {
        j: GradedOperator(d, {(j, 0): hermitian(d, rng)}) for j in orders
    }
    gen = {}
    for s in s_orders:
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gen[s] = GradedOperator(d, {(s, 0): m - m.conj().T})
    return base, gen


def test_nested_commutator_bare_term():
    base, gen = _base_and_generator()
    cache = CommutatorCache()
    out = nested_commutator(base, Composition(2), gen, cache)
    np.testing.assert_allclose(out.term(2, 0), base[2].term(2, 0))


def test_nested_commutator_first_order_condition_term():
    base, gen = _base_and_generator()
    cache = CommutatorCache()
    out = nested_commutator(base, Composition(0, (1,)), gen, cache)
    expected = commutator(base[0], gen[1])
    np.testing.assert_allclose(out.term(1, 0), expected.term(1, 0))


def test_cache_hits_accumulate_across_orders():
    base, gen = _base_and_generator()
    cache = CommutatorCache()
    for n in (3, 4):
        for comp in enumerate_compositions(n, True):
            if comp.head not in base or any(s not in gen for s in comp.tail):
                continue
            nested_commutator(base, comp, gen, cache)
    assert cache.hits > 0


def test_cold_cache_equals_warm_cache():
    base, gen = _base_and_generator()
    warm = CommutatorCache()
    for n in (2, 3, 4):
        for comp in enumerate_compositions(n, True):
            if comp.head not in base or any(s not in gen for s in comp.tail):
                continue
            nested_commutator(base, comp, gen, warm)
    comp = Composition(1, (1, 2))
    warm_val = nested_commutator(base, comp, gen, warm)
    cold_val = nested_commutator(base, comp, gen, CommutatorCache())
    assert set(warm_val.keys()) == set(cold_val.keys())
    for key in warm_val.keys():
        scale = max(np.abs(warm_val.term(*key)).max(), 1.0)
        assert np.abs(warm_val.term(*key) - cold_val.term(*key)).max() <= 1e-14 * scale


def test_nested_commutator_missing_generator_order():
    base, gen = _base_and_generator(s_orders=(1,))
    with pytest.raises(LookupError, match="generator order"):
        nested_commutator(base, Composition(0, (1, 2)), gen, CommutatorCache())


def test_cache_prefix_relation():
    base, gen = _base_and_generator()
    cache = CommutatorCache()
    comp = Composition(0, (1, 1, 2))
    full = nested_commutator(base, comp, gen, cache)
    prefix = cache.entries[("H", comp.prefix())]
    np.testing.assert_allclose(
        full.term(4, 0), commutator(prefix, gen[2]).term(4, 0)
    )


# ---------------------------------------------------------------------------
# NestedSeries against the composition-indexed reference
# ---------------------------------------------------------------------------


def graded_series(terms_by_order, dim, omega_d=None):
    """{order: GradedOperator} from {order: {harmonic: matrix}}."""
    return {n: GradedOperator(dim, {(n, k): m for k, m in terms.items()}, omega_d)
            for n, terms in terms_by_order.items()}


def run_nested(base, factors, top, commutator_op):
    """Fill a NestedSeries through order ``top``; level m of order n is read
    off as the weighted sum with weight 1 on m and 0 elsewhere."""
    dim = next(iter(base.values())).dim
    omega_d = next(iter(base.values())).omega_d
    tally = ProductTally()
    series = NestedSeries({n: GradedSum.of(op) for n, op in base.items()},
                          {n: GradedSum.of(op) for n, op in factors.items()},
                          tally, commutator=commutator_op)
    levels = {}
    for n in range(1, top + 1):
        series.extend(n)
        for m in range(n + 1):
            weights = np.zeros(top + 1)
            weights[m] = 1.0
            levels[(m, n)] = GradedOperator._adopt(dim, series.weighted_sum(n, weights), omega_d)
    return levels, tally.count


def reference_level(base, factors, m, n, commutator_op):
    """Sum of the chains of nestedness m and order n, composition by composition."""
    dim = next(iter(base.values())).dim
    total = zero_operator(dim, next(iter(base.values())).omega_d)
    if n == 0:
        return base[0] if m == 0 and 0 in base else total
    cache = CommutatorCache()
    for comp in enumerate_compositions(n, True):
        if (len(comp.tail) != m or comp.head not in base
                or any(s not in factors for s in comp.tail)):
            continue
        if commutator_op:
            total = total + nested_commutator(base, comp, factors, cache)
        else:
            merged = {**factors, comp.head: base[comp.head]}
            total = total + product_over_composition(merged, comp.as_tuple())
    return total


def assert_levels_match(base, factors, top, commutator_op):
    levels, count = run_nested(base, factors, top, commutator_op)
    scale = max(op.max_abs() for op in [*base.values(), *factors.values()])
    expected_count = 0
    for n in range(1, top + 1):
        for m in range(n + 1):
            want = reference_level(base, factors, m, n, commutator_op)
            got = levels[(m, n)]
            assert set(got.keys()) == set(want.keys()), (m, n)
            for key in want.keys():
                assert np.abs(got.term(*key) - want.term(*key)).max() <= 1e-13 * scale ** (m + 1)
            # one dense product (two for a commutator) per nonzero key of each
            # level-(m - 1) operand and key of each factor
            if m >= 1:
                for s, factor in factors.items():
                    if s <= n:
                        left = reference_level(base, factors, m - 1, n - s, commutator_op)
                        expected_count += ((2 if commutator_op else 1)
                                           * len(left.keys()) * len(factor.keys()))
    assert count == expected_count
    return levels


def test_nested_commutators_with_a_pruned_middle_level():
    # [B1, S1] vanishes exactly (both diagonal) and S2 is absent, so level 1
    # of order 2 is pruned between the base B2 at level 0 and [[B0, S1], S1]
    # at level 2; it must neither feed order 3 nor count as products
    rng = np.random.default_rng(5)
    d = 4
    base = graded_series({0: {0: hermitian(d, rng)}, 1: {0: np.diag(rng.normal(size=d))},
                          2: {0: hermitian(d, rng)}}, d)
    factors = graded_series({1: {0: 1j * np.diag(rng.normal(size=d))},
                             3: {0: random_matrix(d, rng)}}, d)
    levels = assert_levels_match(base, factors, 4, True)
    assert levels[(1, 2)].is_zero
    assert not levels[(0, 2)].is_zero and not levels[(2, 2)].is_zero


def test_nested_commutators_with_harmonic_pairs_on_one_key():
    # (k1, k2) = (1, -1) and (-1, 1) both land on harmonic 0
    rng = np.random.default_rng(6)
    d = 3
    drive = random_matrix(d, rng)
    base = graded_series({0: {0: np.diag(rng.normal(size=d))},
                          1: {0: hermitian(d, rng), 1: drive, -1: drive.conj().T}}, d, 0.9)
    factors = graded_series({1: {1: random_matrix(d, rng), -1: random_matrix(d, rng)},
                             2: {0: random_matrix(d, rng), 2: random_matrix(d, rng)}}, d, 0.9)
    levels = assert_levels_match(base, factors, 4, True)
    assert (2, 0) in levels[(1, 2)].keys()


def test_nested_products_are_the_powers_of_a_series():
    # base = factors: level m of order n sums every product of m + 1 factors
    rng = np.random.default_rng(7)
    d = 3
    series = graded_series({1: {0: random_matrix(d, rng), 1: random_matrix(d, rng),
                                -1: random_matrix(d, rng)},
                            2: {0: random_matrix(d, rng)},
                            3: {2: random_matrix(d, rng)}}, d, 1.3)
    assert_levels_match(series, series, 5, False)


def test_nested_series_prunes_each_level_against_its_own_products():
    # order 2 holds a 1e-20 base term at level 0, X I + I (-X + delta) at
    # level 1, a cancellation to 1e-15 of its products, and I I at level 2:
    # each level is judged only against what fed it, so level 0 stays and
    # level 1 goes
    rng = np.random.default_rng(8)
    d = 3
    x = random_matrix(d, rng)
    delta = 1e-15 * random_matrix(d, rng)
    base = graded_series({0: {0: np.eye(d)}, 1: {0: x}, 2: {0: 1e-20 * x}}, d)
    factors = graded_series({1: {0: np.eye(d)}, 2: {0: -x + delta}}, d)
    levels, _ = run_nested(base, factors, 2, False)
    np.testing.assert_array_equal(levels[(0, 2)].term(2, 0), 1e-20 * x)
    assert (x @ np.eye(d) + np.eye(d) @ (-x + delta)).any()
    assert levels[(1, 2)].is_zero
    assert not levels[(2, 2)].is_zero
