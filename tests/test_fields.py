from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import sympy
from sympy import primerange

from cmtwist.fields import (
    MAX_CONDUCTOR,
    _coset_rep,
    _coset_rows,
    compositum,
    coset,
    cyclotomic,
    factorint,
    field_from,
    galois_group,
    is_cm,
    is_subfield,
    jacobi_symbol,
    maximal_real_subfield,
    quadratic,
    roots_of_unity_order,
)
from cmtwist import fields
from cmtwist.cmtypes import reflex
from cmtwist.residues import (
    _prime_divisors,
    _unit_generators,
    invariant_factor_basis,
    subgroup_generated,
    unit_group,
)
from helpers import (
    RATIONALS,
    all_cm_types,
    cm_fields,
    conjugation_set,
    coset_of,
    divisor_scan_field,
    example41_field,
    fixes_conjugation,
    is_squarefree,
    kronecker_scan_quadratic_kernel,
    least,
    lift_compositum,
    lift_is_subfield,
    orders,
    quotient_cosets,
    subgroup,
    subgroup_lattice_subfields,
)


def lattice(m):
    return subgroup_lattice_subfields(cyclotomic(m))


class TestKroneckerSymbol:
    """``jacobi_symbol``: the Kronecker symbol (a/n) at odd n > 0, the one
    case that ``quadratic`` and the Lucas test evaluate."""

    def test_against_jacobi_for_odd_moduli(self):
        for n in range(1, 60, 2):
            for a in range(-30, 30):
                assert jacobi_symbol(a, n) == int(sympy.jacobi_symbol(a, n))

    # the Lucas test runs on n above 3.3e24
    @given(st.integers(-10**30, 10**30), st.integers(0, 10**30 // 2).map(lambda k: 2 * k + 1))
    @settings(max_examples=200, deadline=None)
    def test_against_jacobi_up_to_ten_to_the_thirty(self, a, n):
        assert jacobi_symbol(a, n) == int(sympy.jacobi_symbol(a, n))

    def test_euler_criterion(self):
        # (a/p) for odd primes, the definition the symbol must reproduce
        for p in primerange(3, 120):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert jacobi_symbol(a, p) == expected

    @given(st.integers(-80, 80), st.integers(-80, 80), st.integers(0, 39).map(lambda k: 2 * k + 1))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_in_numerator(self, a, b, n):
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


class TestConstructors:
    def test_quadratic_minus7(self):
        K = quadratic(-7)
        assert K.conductor == 7
        assert K.fixed_group == frozenset({1, 2, 4})

    def test_quadratic_minus3_is_third_cyclotomic(self):
        assert quadratic(-3) == cyclotomic(3)

    def test_quadratic_rejects_bad_d(self):
        for d in (0, 1, 12, -18, 50):
            with pytest.raises(ValueError):
                quadratic(d)

    def test_quadratic_splitting_oracle(self):
        # p splits in Q(sqrt d) iff d is a square mod p (Euler criterion),
        # iff p mod |disc| lands in the fixed group
        for d in (-1, -2, -3, -7, -11, 2, 3, 5, 6, -15, 21):
            K = quadratic(d)
            m = K.conductor
            for p in primerange(3, 200):
                if (2 * d) % p == 0:
                    continue
                splits = pow(d % p, (p - 1) // 2, p) == 1
                assert splits == (p % m in K.fixed_group), (d, p)

    def test_quadratic_kernel_matches_kronecker_scan(self):
        for d in range(-1500, 1501):
            disc = d if d % 4 == 1 else 4 * d
            if d not in (0, 1) and abs(disc) <= 1500 and is_squarefree(d):
                K = quadratic(d)
                assert K.fixed_group == kronecker_scan_quadratic_kernel(d), d
                assert K.conductor == abs(disc) and K.degree == 2, d

    # d = 1 mod 4 has disc = d, any other d has |disc| = 4|d|
    @given(st.integers(-10**4, 10**4).map(lambda d: d if d % 4 == 1 else d // 4))
    @settings(max_examples=40, deadline=None)
    def test_quadratic_kernel_matches_kronecker_scan_at_larger_discriminants(self, d):
        assume(d not in (0, 1) and is_squarefree(d))
        K = quadratic(d)
        assert K.fixed_group == kronecker_scan_quadratic_kernel(d)
        assert K.conductor == abs(d if d % 4 == 1 else 4 * d) and K.degree == 2

    def test_quadratic_evaluates_the_character_on_generators_only(self, monkeypatch):
        calls = []

        def counted(a, n):
            calls.append(n)
            return jacobi_symbol(a, n)

        monkeypatch.setattr(fields, "jacobi_symbol", counted)
        for d in (-1, 2, -3, 5, -7, 30, -105, 1155, -9997, 249997):
            calls.clear()
            K = quadratic(d)
            assert len(calls) <= len(_unit_generators(K.conductor)), d

    def test_cyclotomic_normalization(self):
        assert cyclotomic(14) == cyclotomic(7)
        assert cyclotomic(1) == cyclotomic(2) == RATIONALS
        assert cyclotomic(12).degree == 4

    def test_degrees(self):
        assert cyclotomic(7).degree == 6
        assert quadratic(5).degree == 2
        assert RATIONALS.degree == 1

    def test_rationals_are_the_pair_one_and_zero(self):
        # Gal(Q/Q) is the unit 0 of (Z/1)^x, a coset of its own fixed group
        assert galois_group(RATIONALS) == unit_group(1) == (0,)
        assert coset(RATIONALS, 0) == [0] and _coset_rep(RATIONALS) == (0,)
        for m in (1, 2, 3, 4, 6):
            assert maximal_real_subfield(cyclotomic(m)) == RATIONALS
        assert field_from(12, unit_group(12)) == RATIONALS
        assert maximal_real_subfield(RATIONALS) == RATIONALS


class TestLatticeOperations:
    def test_paper_compositum(self):
        K = example41_field()
        assert K.conductor == 51
        assert K.degree == 16
        assert K.fixed_group == frozenset({1, 16})

    def test_intersect_coprime_conductors(self):
        # normalized conductors make a common subfield compare equal
        common = set(lattice(7)) & set(subgroup_lattice_subfields(quadratic(-3)))
        assert common == {RATIONALS}

    def test_sqrt_minus7_inside_seventh_cyclotomic(self):
        assert is_subfield(quadratic(-7), cyclotomic(7))
        assert not is_subfield(cyclotomic(7), quadratic(-7))

    def test_subfield_iff_compositum_absorbs(self):
        corpus = lattice(51) + lattice(84)
        assert len(corpus) >= 20
        for K1 in corpus:
            for K2 in corpus:
                sub = is_subfield(K1, K2)
                assert sub == lift_is_subfield(K1, K2)
                assert sub == (compositum(K1, K2) == K2)
                if sub:
                    assert K2.degree % K1.degree == 0

    def test_compositum_matches_the_lifted_intersection(self):
        cm = cm_fields(40, 8)
        corpus = tuple(dict.fromkeys(cm + tuple(maximal_real_subfield(K) for K in cm)
                                     + (RATIONALS,)))
        for i, K1 in enumerate(corpus):
            for K2 in corpus[i:]:
                assert compositum(K1, K2) == lift_compositum(K1, K2), (K1, K2)

    def test_lattice_axioms(self):
        corpus = lattice(51)[:8] + lattice(84)[:8]
        for K1 in corpus:
            assert compositum(K1, K1) == K1
            for K2 in corpus:
                assert compositum(K1, K2) == compositum(K2, K1)
                assert is_subfield(K1, compositum(K1, K2))

    def test_degree_product_rule_coprime(self):
        # coprime conductors meet in Q, so the compositum has the product degree
        pairs = [
            (cyclotomic(7), cyclotomic(5)),
            (quadratic(-3), cyclotomic(17)),
            (quadratic(-7), quadratic(5)),
            (cyclotomic(9), quadratic(-7)),
        ]
        for K1, K2 in pairs:
            assert compositum(K1, K2).degree == K1.degree * K2.degree

    def test_subfields_of_degree_12_conductor_1001(self):
        # cubic field of conductor 7 times Q(sqrt(-11)) times Q(sqrt(13)):
        # Gal = Z/3 x Z/2 x Z/2 has ten subgroups
        cubic = maximal_real_subfield(cyclotomic(7))
        K = compositum(compositum(cubic, quadratic(-11)), quadratic(13))
        assert (K.conductor, K.degree) == (1001, 12)
        subs = subgroup_lattice_subfields(K)
        assert [F.degree for F in subs] == [1, 2, 2, 2, 3, 4, 6, 6, 6, 12]
        assert subs[0] == RATIONALS and subs[-1] == K and cubic in subs
        assert {F for F in subs if F.degree == 2} == {
            quadratic(-11), quadratic(13), quadratic(-143)}
        assert all(is_subfield(F, K) for F in subs)

    def test_normalization_idempotent(self):
        for K in lattice(84):
            again = field_from(K.conductor, K.fixed_group)
            assert again == K


def test_unchecked_constructors_build_subgroups():
    # field_from trusts its set to be a subgroup, and no type marks a checked
    # set, so the closure oracle is what shows each constructor builds one:
    # from generators, as a compositum's intersection of lifts (also when
    # the conductors share a factor), as a stabilizer, and as the image of
    # one of these mod a smaller conductor (15 -> 3 for some reflex fields)
    quadratics = [quadratic(d) for d in range(-199, 200) if d not in (0, 1)
                  and is_squarefree(d) and abs(d if d % 4 == 1 else 4 * d) < 200]
    reflex_fields = {reflex(T)[1] for K in cm_fields(40, 8) for T in all_cm_types(K)}
    corpus = (
        list(cm_fields(40, 8))
        + [maximal_real_subfield(K) for K in cm_fields(40, 8)]
        + [cyclotomic(m) for m in range(1, 200)]
        + [maximal_real_subfield(cyclotomic(m)) for m in range(1, 200)]
        + quadratics
        + [example41_field(), compositum(quadratic(-3), cyclotomic(5)),
           compositum(quadratic(-1), quadratic(5)), compositum(quadratic(-3), quadratic(-7)),
           compositum(quadratic(-3), cyclotomic(9)), compositum(quadratic(-1), cyclotomic(12)),
           compositum(quadratic(-3), quadratic(-1)), compositum(cyclotomic(8), quadratic(2))]
        + sorted(reflex_fields, key=lambda F: (F.conductor, sorted(F.fixed_group)))
    )
    assert len(quadratics) == 122
    assert any(F.conductor == 3 for F in reflex_fields)
    for K in corpus:
        assert subgroup(K.conductor, K.fixed_group) == K.fixed_group, K
        assert field_from(K.conductor, K.fixed_group) == K, K


class TestCMStructure:
    def test_predicates(self):
        assert is_cm(cyclotomic(7))
        assert not is_cm(RATIONALS)
        assert fixes_conjugation(maximal_real_subfield(cyclotomic(17)))
        assert fixes_conjugation(RATIONALS) and not fixes_conjugation(cyclotomic(7))
        assert not is_cm(quadratic(5)) and fixes_conjugation(quadratic(5))

    def test_real_subfield_of_seventh_cyclotomic(self):
        # adjoin -1 = 6 to the trivial fixed group
        L = maximal_real_subfield(cyclotomic(7))
        assert L.degree == 3
        assert L.fixed_group == frozenset({1, 6})

    def test_conjugation_coset(self):
        # the lookup rep[m - 1] the CLI runs for complex conjugation
        def conj(K):
            c = _coset_rep(K)[K.conductor - 1]
            assert c == least(conjugation_set(K))
            return c

        K = cyclotomic(7)
        assert conj(K) == 6
        k = quadratic(-7)
        assert conj(k) == 3 and coset(k, 3) == [3, 5, 6]
        assert conj(maximal_real_subfield(K)) == 1
        assert conj(RATIONALS) == 0

    def test_galois_elements_match_the_coset_listing(self):
        # least residues, their cosets and restriction, against listed cosets
        for K in lattice(84) + cm_fields(40, 8) + (RATIONALS,):
            m = K.conductor
            cosets = quotient_cosets(m, K.fixed_group)
            assert galois_group(K) == tuple(map(least, cosets))
            where = {x: least(c) for c in cosets for x in c}
            assert _coset_rep(K) == tuple(where.get(x, 0) for x in range(m))
            assert all(coset(K, least(c)) == sorted(c) for c in cosets)
            assert _coset_rep(K)[m - 1] == least(conjugation_set(K))
            for k in subgroup_lattice_subfields(K):
                rep_k = _coset_rep(k)
                assert [rep_k[g % k.conductor] for g in galois_group(K)] == [
                    least(coset_of(k.conductor, k.fixed_group, g % k.conductor))
                    for g in galois_group(K)
                ]

    def test_coset_table_matches_brute_force(self):
        # every unit of every field, the least residue of its coset or any
        # other, against the coset listed from H; the table of sorted cosets
        # holds exactly the Galois elements, each with its listed coset
        reals = (quadratic(5), quadratic(2), maximal_real_subfield(cyclotomic(13)),
                 maximal_real_subfield(cyclotomic(35)), compositum(quadratic(5), quadratic(13)))
        for K in cm_fields(40, 8) + (RATIONALS,) + reals:
            m, H = K.conductor, K.fixed_group
            rows = _coset_rows(K)
            assert list(rows) == list(galois_group(K))
            for g in unit_group(m):
                expected = sorted(g * h % m for h in H)
                got = coset(K, g)
                assert got == expected, (K, g)
                got.append(-1)          # a new list each time
                assert coset(K, g) == expected
                assert rows[_coset_rep(K)[g]] == tuple(expected), (K, g)

    def test_coset_of_a_non_unit_is_refused(self):
        k = quadratic(-7)
        assert coset(k, 5) == coset(k, 3) == [3, 5, 6]
        for K, g in ((k, 0), (k, 7), (k, -1), (k, 14), (cyclotomic(12), 0), (cyclotomic(12), 2),
                     (cyclotomic(7), 0), (quadratic(5), 5), (RATIONALS, 1)):
            with pytest.raises(ValueError, match="is not a unit residue"):
                coset(K, g)
        assert coset(RATIONALS, 0) == [0]

    def test_every_cm_field_has_index_two_real_subfield(self):
        corpus = lattice(51) + lattice(84)
        cm_fields = [K for K in corpus if is_cm(K)]
        assert cm_fields
        for K in cm_fields:
            L = maximal_real_subfield(K)
            assert fixes_conjugation(L)
            assert K.degree == 2 * L.degree
            assert is_subfield(L, K)

    def test_exactly_one_of_cm_or_real(self):
        for K in lattice(51) + lattice(84):
            if K.degree > 1:
                assert is_cm(K) != fixes_conjugation(K)


class TestRootsOfUnity:
    def test_frozen_examples(self):
        assert roots_of_unity_order(quadratic(-3)) == 6
        assert roots_of_unity_order(cyclotomic(7)) == 14
        assert roots_of_unity_order(quadratic(-7)) == 2
        assert roots_of_unity_order(quadratic(-1)) == 4
        assert roots_of_unity_order(RATIONALS) == 2
        assert roots_of_unity_order(cyclotomic(8)) == 8
        assert roots_of_unity_order(cyclotomic(12)) == 12

    def test_divisor_closure(self):
        # the roots of unity form one cyclic group: zeta_N lies in K
        # exactly when N divides w(K), and every such N divides 2m
        corpus = (lattice(51) + lattice(84)
                  + cm_fields(40, 8))
        for K in corpus:
            w = roots_of_unity_order(K)
            assert w % 2 == 0
            assert (2 * K.conductor) % w == 0
            for N in range(1, 2 * K.conductor + 1):
                if (2 * K.conductor) % N == 0:
                    assert is_subfield(cyclotomic(N), K) == (w % N == 0)

    def test_gcd_that_never_falls_to_two(self):
        # every h in H is 1 mod 3 (or mod 12, or is 1), so the running gcd
        # never falls to 2 and the whole of H is read
        for p in (5, 7, 13, 101):
            plus = maximal_real_subfield(cyclotomic(p))
            for k, w in ((quadratic(-3), 6), (cyclotomic(12), 12), (cyclotomic(p), 2 * p)):
                K = compositum(k, plus)
                assert roots_of_unity_order(K) == w, (p, K)
                g = gcd(K.conductor, *(h - 1 for h in K.fixed_group))
                assert w == (g if g % 2 == 0 else 2 * g), (p, K)

    def test_real_fields_have_only_plus_minus_one(self):
        for K in lattice(84):
            if fixes_conjugation(K):
                assert roots_of_unity_order(K) == 2


def test_large_quadratic_conductor():
    K = quadratic(-99991)
    assert (K.conductor, K.degree) == (99991, 2)
    assert orders(invariant_factor_basis(K.conductor, K.fixed_group)) == (2,)
    assert roots_of_unity_order(K) == 2


def test_factorint_and_squarefree_match_sympy_below_ten_to_the_five(monkeypatch):
    # quadratic refuses a non-squarefree d right after the conductor budget;
    # a d that passes reaches _unit_generators, patched here to raise, so
    # each refusal is shown to come before any kernel work
    class Reached(Exception):
        pass

    def reached(m):
        raise Reached

    monkeypatch.setattr(fields, "_unit_generators", reached)
    # the sweep runs uncached, so the suite is not left holding 10^5 entries
    prime_divisors = _prime_divisors.__wrapped__
    monkeypatch.setattr(fields, "_prime_divisors", prime_divisors)
    for n in range(1, 10**5):
        factors = sympy.factorint(n)
        assert factorint(n) == factors and prime_divisors(n) == tuple(sorted(factors)), n
        squarefree = all(e == 1 for e in factors.values())
        for d in (n, -n) if n > 1 else (-1,):
            try:
                quadratic(d)
            except Reached:
                assert squarefree, d
            except ValueError as refused:
                assert not squarefree and str(refused) == f"{d} is not squarefree", d
    with pytest.raises(ValueError, match="^can only factor a positive integer, got 0$"):
        factorint(0)


def test_cached_prime_divisors_agree_with_the_sweep():
    sample = [1, 2, 97, 360, 4095, 10007, 40487**2, 720720, 999983, MAX_CONDUCTOR]
    for n in sample:
        assert _prime_divisors(n) == _prime_divisors.__wrapped__(n) == tuple(sorted(sympy.factorint(n))), n
        hits = _prime_divisors.cache_info().hits
        assert _prime_divisors(n) is _prime_divisors(n)
        assert _prime_divisors.cache_info().hits == hits + 2, n


class TestConductorBudget:
    def test_inputs_at_the_budget_build(self):
        assert cyclotomic(MAX_CONDUCTOR).conductor == MAX_CONDUCTOR
        assert cyclotomic(999983).conductor == 999983

    def test_inputs_over_the_budget_are_refused_before_any_work(self):
        over = f"exceeds the budget MAX_CONDUCTOR = {MAX_CONDUCTOR}"
        for build in (
            lambda: cyclotomic(MAX_CONDUCTOR + 1),
            lambda: cyclotomic(10**12),
            lambda: quadratic(-2305843009213693951),   # 2^61 - 1, prime
            lambda: quadratic(250002),                 # conductor 4 * 250002
            lambda: quadratic(-(10**40)),              # not squarefree either
            lambda: field_from(10**12, [1]),
            lambda: compositum(cyclotomic(999983), cyclotomic(999979)),
        ):
            with pytest.raises(ValueError, match=over):
                build()


def test_field_hashable_and_comparable():
    seen = {cyclotomic(7), quadratic(-7), cyclotomic(14)}
    assert len(seen) == 2
    # fields are lru_cache keys: equal only to a field, hashed alike, immutable
    assert cyclotomic(7) != (7, frozenset({1}))
    assert not cyclotomic(7) == (7, frozenset({1}))
    assert field_from(21, [1, 8]) is not cyclotomic(7)
    assert hash(field_from(21, [1, 8])) == hash(cyclotomic(7))
    with pytest.raises(AttributeError):
        cyclotomic(7).conductor = 14


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_field_from_strips_primes_to_the_least_divisor_conductor(data):
    m = data.draw(st.integers(1, 3000), label="m")
    gens = data.draw(st.lists(st.sampled_from(unit_group(m)), max_size=3), label="gens")
    H = subgroup_generated(m, gens)
    assert field_from(m, H) == divisor_scan_field(m, H)


def test_field_from_checks_the_identity_and_stores_a_frozenset():
    # field_from trusts closure, but a set without 1 is refused with its own
    # error (also inside a generator, where a StopIteration would turn into
    # a RuntimeError), and any iterable is stored as a frozenset, so the
    # field hashes
    for H in (frozenset({3}), frozenset(), [6]):
        with pytest.raises(ValueError, match=r"\(Z/7\)\^x must contain 1$"):
            field_from(7, H)
    with pytest.raises(ValueError, match="must contain 1$"):
        list(field_from(7, H) for H in [frozenset({3})])
    with pytest.raises(ValueError, match=r"\(Z/1\)\^x must contain 0$"):
        field_from(1, frozenset())
    K = field_from(7, [1, 6])
    assert type(K.fixed_group) is frozenset and K in {maximal_real_subfield(cyclotomic(7))}
    assert field_from(21, [1, 8]) == cyclotomic(7)


def test_invalid_subgroup_data_rejected():
    # field_from trusts its set; the closure oracle is what refuses these
    with pytest.raises(ValueError, match=r"not closed under multiplication mod 7: 4\*4$"):
        subgroup(7, subgroup_generated(5, [4]))  # {1, 4} is closed mod 5, not mod 7
    with pytest.raises(ValueError, match="not closed"):
        subgroup(7, [1, 3])
