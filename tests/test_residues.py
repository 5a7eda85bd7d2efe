from itertools import repeat
from math import gcd
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange, totient

from cmtwist.residues import (
    _max_order_residue,
    _unit_generators,
    group_order,
    invariant_factor_basis,
    subgroup_generated,
    unit_group,
)
from helpers import (
    abstract_order_histogram,
    all_subgroups,
    bfs_subgroup_generated,
    box_and_orders_is_basis,
    coset_inv,
    coset_mul,
    coset_of,
    element_order,
    full_scan_max_order_residue,
    orders,
    gcd_scan_unit_group,
    pairwise_closure_witness,
    peeled_invariant_factor_basis,
    power_walk_coset_order,
    quotient_cosets,
    quotient_order_histogram,
    subgroup,
    subgroups_two_generated,
)


class TestUnitGroup:
    def test_prime_modulus(self):
        assert unit_group(7) == (1, 2, 3, 4, 5, 6)

    def test_size_matches_totient(self):
        # phi(m) from the primes of m, held to sympy's totient
        for m in [*range(1, 10**4), 10007, 100003, 999983, 720720]:
            assert group_order(m) == int(totient(m)), m
        assert len(unit_group(51)) == 32

    def test_trivial_modulus(self):
        # 0 is the only residue mod 1, and gcd(0, 1) = 1: (Z/1)^x = {0}
        assert unit_group(1) == (0,)
        assert group_order(1) == 1
        assert unit_group(2) == (1,)
        assert frozenset({0}) == subgroup(1, [0]) == subgroup_generated(1, [0, 0])
        assert len(subgroup(1, [0])) == 1 and element_order(1, 0) == 1
        assert invariant_factor_basis(1, frozenset({0})) == ()
        with pytest.raises(ValueError, match="subgroup must contain 1"):
            subgroup(1, [])
        with pytest.raises(ValueError, match="1 is not a unit residue mod 1"):
            subgroup_generated(1, [1])

    def test_zero_is_a_unit_only_mod_one(self):
        for m in (2, 7, 8):
            for call in (lambda: element_order(m, 0), lambda: subgroup_generated(m, [0]),
                         lambda: subgroup(m, [0, 1])):
                with pytest.raises(ValueError, match=f"^0 is not a unit residue mod {m}$"):
                    call()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_group(0)

    def test_sieve_matches_gcd_scan(self):
        # the uncached body, so the cache does not keep thousands of tuples
        for m in range(1, 3001):
            assert unit_group.__wrapped__(m) == gcd_scan_unit_group(m), m

    @given(st.integers(min_value=3001, max_value=10**6))
    @settings(max_examples=24, deadline=None)
    def test_sieve_is_exactly_the_units_at_large_moduli(self, m):
        # phi(m) increasing residues of [1, m), each prime to m, are the
        # units; this costs a gcd per unit, where the scan pays one per residue
        units = unit_group.__wrapped__(m)
        assert len(units) == totient(m)
        assert 0 < units[0] and units[-1] < m and all(map(lt, units, units[1:]))
        assert set(map(gcd, units, repeat(m))) == {1}


class TestGroupOrder:
    def test_non_positive_modulus_rejected(self):
        for m in (0, -3):
            with pytest.raises(ValueError, match=f"^modulus must be a positive integer, got {m}$"):
                group_order(m)


class TestSubgroups:
    def test_generated_examples(self):
        assert subgroup_generated(7, [2]) == frozenset({1, 2, 4})
        assert subgroup_generated(51, [16]) == frozenset({1, 16})
        assert subgroup_generated(7, []) == frozenset({1})

    def test_non_unit_generator_rejected(self):
        with pytest.raises(ValueError):
            subgroup_generated(51, [17])
        with pytest.raises(ValueError):
            subgroup_generated(7, [0])

    def test_non_closed_set_rejected(self):
        with pytest.raises(ValueError):
            subgroup(7, [1, 2])

    def test_lagrange(self):
        for m in range(2, 80):
            for elems in subgroups_two_generated(m):
                assert len(unit_group(m)) % len(elems) == 0


class TestCosets:
    def test_partition_mod7(self):
        H = subgroup(7, [1, 2, 4])
        assert quotient_cosets(7, H) == (
            frozenset({1, 2, 4}),
            frozenset({3, 5, 6}),
        )

    def test_mul_of_nonresidue_class(self):
        nonres = frozenset({3, 5, 6})
        assert coset_mul(7, nonres, nonres) == frozenset({1, 2, 4})

    def test_identity_coset_is_its_own_inverse(self):
        H = subgroup(7, [1, 2, 4])
        assert coset_inv(7, H) == H

    def test_product_is_representative_independent(self):
        # literal element-wise products collapse back onto a single coset
        for m in (20, 36, 51):
            H = subgroup_generated(m, [unit_group(m)[1]])
            cosets = quotient_cosets(m, H)
            for c1 in cosets:
                for c2 in cosets:
                    prod = coset_mul(m, c1, c2)
                    assert len(prod) == len(H)
                    assert prod == coset_of(m, H, (min(c1) * min(c2)) % m)

    @given(st.integers(min_value=3, max_value=100), st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, m, data):
        units = unit_group(m)
        gens = data.draw(
            st.lists(st.sampled_from(units), min_size=0, max_size=2)
        )
        H = subgroup_generated(m, gens)
        cosets = quotient_cosets(m, H)
        identity = H
        a = data.draw(st.sampled_from(cosets))
        b = data.draw(st.sampled_from(cosets))
        c = data.draw(st.sampled_from(cosets))
        assert coset_mul(m, a, identity) == a
        assert coset_mul(m, a, b) == coset_mul(m, b, a)
        assert coset_mul(m, coset_mul(m, a, b), c) == coset_mul(m, a, coset_mul(m, b, c))
        assert coset_mul(m, a, coset_inv(m, a)) == identity

    def test_axioms_exhaustive_small(self):
        # full triple check where the quotient is small enough to afford it
        for m in range(3, 101):
            H = subgroup_generated(m, unit_group(m)[:2])
            cosets = quotient_cosets(m, H)
            if len(cosets) > 12:
                continue
            identity = H
            for a in cosets:
                assert coset_mul(m, a, identity) == a
                for b in cosets:
                    ab = coset_mul(m, a, b)
                    assert ab == coset_mul(m, b, a)
                    for c in cosets:
                        assert coset_mul(m, ab, c) == coset_mul(m, a, coset_mul(m, b, c))


class TestInvariantFactors:
    def test_paper_group_structure(self):
        # Gal of the conductor-51 example field: Z/2 x Z/8
        assert orders(invariant_factor_basis(51, subgroup_generated(51, [16]))) == (2, 8)

    def test_cyclic_prime_case(self):
        assert orders(invariant_factor_basis(7, frozenset({1}))) == (6,)

    def test_rank_two_case(self):
        # every element of (Z/8)^x squares to 1, so two C2 factors
        assert all(element_order(8, x) <= 2 for x in unit_group(8))
        assert orders(invariant_factor_basis(8, frozenset({1}))) == (2, 2)

    def test_chain_and_product(self):
        for m in (24, 51, 63, 80, 91):
            for H in subgroups_two_generated(m):
                factors = orders(invariant_factor_basis(m, H))
                prod = 1
                for d1, d2 in zip(factors, factors[1:]):
                    assert d2 % d1 == 0
                for d in factors:
                    assert d >= 2
                    prod *= d
                assert prod == group_order(m) // len(H)

    def test_against_order_histogram_oracle_full_sweep(self):
        # every <=2-generated subgroup for every modulus up to 200:
        # the abstract group built from the invariant factors must have the
        # same element-order multiset as the actual coset quotient
        for m in range(2, 201):
            for H in subgroups_two_generated(m):
                factors = orders(invariant_factor_basis(m, H))
                assert abstract_order_histogram(factors) == (
                    quotient_order_histogram(m, H)
                ), (m, sorted(H), factors)

    def test_basis_spans_and_matches_factors(self):
        for m in (7, 8, 20, 51, 85):
            for H in list(subgroups_two_generated(m))[:12]:
                basis = invariant_factor_basis(m, H)
                assert box_and_orders_is_basis(m, H, basis)
                assert orders(basis) == orders(peeled_invariant_factor_basis(m, H))
                for g, d in basis:
                    assert power_walk_coset_order(m, H, g) == d

    # invariant_factor_basis proves its basis instead of checking it: the
    # coset listing and the power walk check it here
    @given(st.integers(min_value=1, max_value=10**4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_peeled_basis_is_a_basis_with_exact_orders(self, m, data):
        units = unit_group(m)
        H = subgroup_generated(m, data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=3)))
        basis = invariant_factor_basis(m, H)
        assert box_and_orders_is_basis(m, H, basis), (m, basis)
        for g, d in basis:
            assert power_walk_coset_order(m, H, g) == d, (m, basis)
        ds = orders(basis)
        assert all(d2 % d1 == 0 for d1, d2 in zip(ds, ds[1:])), (m, basis)


class TestSubgroupEnumeration:
    def test_counts_for_small_cyclic_groups(self):
        # (Z/7)^x is cyclic of order 6: one subgroup per divisor
        assert len(all_subgroups(7)) == 4
        # (Z/8)^x = C2 x C2: trivial, three C2s, full
        assert len(all_subgroups(8)) == 5

    def test_all_closed_and_distinct(self):
        for m in (12, 20, 51):
            subs = all_subgroups(m)
            assert len(set(subs)) == len(subs)
            for S in subs:
                assert subgroup(m, S) == S  # re-validates closure


class TestAgainstQuadraticOracles:
    """Coset extension and prime stripping against the brute-force kernels."""

    def test_invariant_factor_basis_matches_peeling_for_every_subgroup(self):
        for m in range(1, 101):
            for S in all_subgroups(m):
                assert invariant_factor_basis(m, S) == (
                    peeled_invariant_factor_basis(m, S)
                ), (m, sorted(S))

    def test_max_order_residue_matches_full_scan(self):
        # the cofactor test keeps the least residue of maximal order
        for m in range(3, 120):
            for S in all_subgroups(m):
                if len(S) < group_order(m):
                    assert _max_order_residue(m, S) == (
                        full_scan_max_order_residue(m, S)
                    ), (m, sorted(S))
        # the field ladder's shapes f*p, whose quotients are far from cyclic,
        # over a trivial H, {+-1} and the kernel of the Legendre symbol mod p:
        # 1,368 cases in about 1.1 s, nearly all of it the full scan
        for f in (3, 4, 5, 8, 9, 12):
            for p in primerange(5, 400):
                m = f * p
                legendre_kernel = frozenset(x for x in unit_group(m) if pow(x, (p - 1) // 2, p) == 1)
                for S in (frozenset({1}), frozenset({1, m - 1}), legendre_kernel):
                    assert _max_order_residue(m, S) == full_scan_max_order_residue(m, S), (m, len(S))

    def test_unit_generators_generate_the_unit_group(self):
        assert _unit_generators(1) == _unit_generators(2) == ()
        assert _unit_generators(4) == (3,)
        for m in range(3, 1000):
            assert len(subgroup_generated(m, _unit_generators(m))) == group_order(m), m

    def test_unit_generator_lifted_off_a_wieferich_root(self):
        # 5 is the least primitive root mod 40487 but 5^(p-1) = 1 mod p^2,
        # so (Z/p^2)^x needs 5 + p, of order p(p - 1)
        p = 40487
        assert pow(5, p - 1, p * p) == 1
        (g,) = _unit_generators(p * p)
        assert g == 5 + p
        n = p * (p - 1)
        assert 2 * 31 * 653 == p - 1
        assert all(pow(g, n // r, p * p) != 1 for r in (2, 31, 653, p))

    def test_box_of_coset_representatives_with_a_wrong_order_is_refused(self):
        # 13 has order 4 mod 15, yet {13^a 2^b : a < 2, b < 4} lists (Z/15)^x
        H = frozenset({1})
        assert element_order(15, 13) == 4
        assert {13 ** a * 2 ** b % 15 for a in range(2) for b in range(4)} == set(unit_group(15))
        assert box_and_orders_is_basis(15, H, ((13, 2), (2, 4))) is False
        assert box_and_orders_is_basis(15, H, ((14, 2), (2, 4))) is True

    @given(st.integers(min_value=2, max_value=150), st.data())
    @settings(max_examples=150, deadline=None)
    def test_subgroup_generated_matches_bfs(self, m, data):
        gens = data.draw(st.lists(st.sampled_from(unit_group(m)), max_size=4))
        assert subgroup_generated(m, gens) == bfs_subgroup_generated(m, gens)

    @given(st.integers(min_value=2, max_value=120), st.data())
    @settings(max_examples=300, deadline=None)
    def test_closure_check_matches_pairwise(self, m, data):
        units = unit_group(m)
        # half the draws start from a subgroup, so closed sets come up often
        if data.draw(st.booleans()):
            base = subgroup_generated(
                m, data.draw(st.lists(st.sampled_from(units), max_size=2))
            )
        else:
            base = frozenset({1})
        added = data.draw(st.lists(st.sampled_from(units), max_size=3))
        removed = data.draw(st.lists(st.sampled_from(units[1:] or units), max_size=1))
        elems = (base | frozenset(added)) - (frozenset(removed) - {1})
        witness = pairwise_closure_witness(m, elems)
        if witness is None:
            assert subgroup(m, elems) == elems
            return
        with pytest.raises(ValueError, match="not closed") as info:
            subgroup(m, elems)
        a, b = (int(v) for v in str(info.value).rsplit(": ", 1)[1].split("*"))
        assert a in elems and b in elems
        assert (a * b) % m not in elems

    def test_closure_witness_from_a_power(self):
        # 3*3 = 2 mod 7 is the first product the generation meets
        with pytest.raises(ValueError, match=r"mod 7: 3\*3$"):
            subgroup(7, [1, 3])


class TestLargeInputs:
    """Values at conductors the quadratic kernels could not reach in time."""

    def test_prime_conductor_10007(self):
        assert orders(invariant_factor_basis(10007, frozenset({1}))) == (10006,)

    def test_conductor_4095(self):
        assert orders(invariant_factor_basis(4095, frozenset({1}))) == (2, 6, 12, 12)
