from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtwist.cli import _cmtype_list
from cmtwist.cmtypes import (
    is_weil_type,
    reflex,
    restriction_multiplicities,
    stabilizer,
    validate_cm_type,
    weil_datum,
    weil_r,
)
from cmtwist.fields import (
    _coset_rep,
    compositum,
    coset,
    cyclotomic,
    field_from,
    galois_group,
    is_cm,
    maximal_real_subfield,
    quadratic,
)
from cmtwist.residues import _check_unit, unit_group
from helpers import (
    all_cm_types,
    appended_balance_product,
    brute_stabilizer_subgroup,
    canonical_cm_type,
    cm_fields,
    conjugation_set,
    coset_mul,
    coset_mul_conjugate_pairs,
    coset_mul_is_weil_type,
    coset_mul_restriction_multiplicities,
    coset_mul_stabilizer,
    coset_mul_translate,
    coset_mul_validate_cm_type,
    element_set,
    example41_field,
    example41_type,
    induced_cm_type,
    is_primitive,
    least,
    quotient_cosets,
    reflex_field,
    scan_stabilizer,
    sorted_cosets,
    subgroup,
    subgroup_lattice_subfields,
)


K7 = cyclotomic(7)
SQRT_M7 = quadratic(-7)


def jacobian_type():
    return validate_cm_type(K7, [1, 2, 3])


class TestValidation:
    def test_paper_41_half_system(self):
        T = example41_type()
        assert len(T.psi) == 8
        # conjugation really is the (1, 0) coordinate
        conj = _coset_rep(T.field)[50]
        assert conj == least(conjugation_set(T.field)) == 35  # 35 = 2 mod 3 and 1 mod 17

    def test_paper_42_half_system(self):
        T = jacobian_type()
        assert sorted_cosets(T) == ((1,), (2,), (3,))

    def test_full_pair_rejected(self):
        with pytest.raises(ValueError, match="half-system"):
            validate_cm_type(quadratic(-1), [1, 3])

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="half-system"):
            validate_cm_type(K7, [1, 2])

    def test_conjugate_pair_named_in_error(self):
        with pytest.raises(ValueError, match="appears together"):
            validate_cm_type(K7, [1, 2, 6])

    def test_non_cm_field_rejected(self):
        with pytest.raises(ValueError, match="not a CM field"):
            validate_cm_type(quadratic(5), [1])

    def test_unit_labels_decided_by_the_coset_table(self):
        # a label x joins a half-system exactly when _check_unit accepts it,
        # and is refused with that function's message, even after valid labels
        for K in cm_fields(40, 8)[::5]:
            m, rep, pairs = K.conductor, _coset_rep(K), coset_mul_conjugate_pairs(K)
            for x in range(-1, m + 1):
                if 0 <= x < m and gcd(x, m) == 1:
                    rest = [g for g, c in pairs if rep[x] not in (g, c)]
                    assert validate_cm_type(K, rest + [x]).psi == {rep[x], *rest}, (K, x)
                    continue
                with pytest.raises(ValueError) as expected:
                    _check_unit(m, x)
                with pytest.raises(ValueError) as refused:
                    validate_cm_type(K, [g for g, _ in pairs[1:]] + [x])
                assert str(refused.value) == str(expected.value), (K, x)

    def test_every_half_system_partitions(self):
        for K in cm_fields(26, 8):
            conj = conjugation_set(K)
            for T in all_cm_types(K):
                assert len(T.psi) == K.degree // 2
                psi = {element_set(K, c) for c in T.psi}
                conj_psi = {coset_mul(K.conductor, conj, c) for c in psi}
                assert not (psi & conj_psi)
                assert psi | conj_psi == set(quotient_cosets(K.conductor, K.fixed_group))


def test_cm_type_hashable_and_comparable():
    # CM-types are lru_cache keys too: equal only to a CM-type, hashed alike, immutable
    T = validate_cm_type(K7, [1, 2, 3])
    again = validate_cm_type(field_from(21, [1, 8]), [1, 2, 3])
    assert again == T and again is not T and hash(again) == hash(T)
    assert len({T, again, validate_cm_type(K7, [1, 2, 4])}) == 2
    assert T != (K7, frozenset({1, 2, 3}))
    assert not T == (K7, frozenset({1, 2, 3}))
    with pytest.raises(AttributeError):
        T.psi = frozenset()


class TestStabilizerAndReflex:
    def test_paper_41_primitive(self):
        T = example41_type()
        assert stabilizer(T) == T.field.fixed_group
        assert is_primitive(T)
        assert reflex_field(T) == T.field

    def test_jacobian_type_primitive(self):
        T = jacobian_type()
        assert is_primitive(T)
        assert reflex_field(T) == K7

    def test_induced_type_detected(self):
        T = validate_cm_type(K7, [1, 2, 4])
        assert stabilizer(T) == frozenset({1, 2, 4})
        assert not is_primitive(T)
        assert reflex_field(T) == SQRT_M7

    def test_imaginary_quadratic_always_primitive(self):
        T = validate_cm_type(SQRT_M7, [1])
        assert is_primitive(T)
        assert reflex_field(T) == SQRT_M7

    def test_stabilizer_never_contains_conjugation(self):
        for K in cm_fields(26, 8):
            for T in all_cm_types(K):
                assert K.conductor - 1 not in stabilizer(T)

    def test_reflex_is_whole_field_iff_primitive(self):
        for K in cm_fields(26, 8):
            for T in all_cm_types(K):
                assert (reflex_field(T) == K) == is_primitive(T)

    def test_primitivity_against_coset_union_oracle_degree_16(self):
        corpus = [example41_field(), cyclotomic(32), cyclotomic(13), cyclotomic(15)]
        assert max(K.degree for K in corpus) == 16
        for K in corpus:
            for T in all_cm_types(K):
                brute = brute_stabilizer_subgroup(T)
                assert stabilizer(T) == brute
                assert reflex_field(T) == field_from(K.conductor, brute)
                assert is_primitive(T) == (brute == K.fixed_group)


def quadratic_residue_type(p, swapped=False):
    """The squares mod a prime p = 3 mod 4, a CM-type of Q(zeta_p) since -1 is
    not a square; ``swapped`` trades the least square for its conjugate."""
    psi = sorted({x * x % p for x in range(1, p)})
    if swapped:
        psi[0] = p - psi[0]
    return validate_cm_type(cyclotomic(p), psi)


class TestStabilizerOnPrimeCyclotomicFields:
    @pytest.mark.parametrize("p", [1019, 2003, 10007])
    def test_squares_give_the_index_two_subgroup_and_a_swap_gives_one(self, p):
        T = quadratic_residue_type(p)
        # the fixed group is {1}, so the squares are the index-2 subgroup itself
        assert len(T.psi) == (p - 1) // 2 and stabilizer(T) == T.psi
        assert stabilizer(quadratic_residue_type(p, swapped=True)) == frozenset({1})

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_and_near_invariant_types_match_the_scan(self, data):
        # pick one of each conjugate pair of cosets of the subgroup S of odd
        # order t (t = 1 draws a random type), then perhaps trade one element
        # for its conjugate
        p = data.draw(st.sampled_from(list(sympy.primerange(3, 2000))))
        n, g = p - 1, sympy.primitive_root(p)
        t = data.draw(st.sampled_from([t for t in sympy.divisors(n) if t % 2]))
        half = n // t // 2  # the cosets g^j S and g^(j + half) S are conjugate
        sides = data.draw(st.lists(st.booleans(), min_size=half, max_size=half))
        psi = [pow(g, k, p) for k in range(n) if (k % (2 * half) >= half) == sides[k % half]]
        swapped = data.draw(st.booleans())
        if swapped:
            i = data.draw(st.integers(0, len(psi) - 1))
            psi[i] = p - psi[i]
        T = validate_cm_type(cyclotomic(p), psi)
        stab = stabilizer(T)
        assert stab == scan_stabilizer(T), (p, t)
        assert swapped or pow(g, n // t, p) in stab, (p, t)


def test_stabilizer_fields_match_the_checked_path():
    # reflex hands the stabilizer to field_from, which trusts it to be a
    # subgroup: the closure oracle checks that it is one.  A primitive type's
    # reflex field is K itself, with no field_from call; the report's coset
    # rows of each type are expanded without coset
    fields = cm_fields(40, 8)
    induced = [validate_cm_type(cyclotomic(7), [1, 2, 4]),
               validate_cm_type(compositum(quadratic(-3), cyclotomic(5)), [1, 4, 7, 13])]
    assert all(T.field in fields and not is_primitive(T) for T in induced)
    for K in fields:
        m = K.conductor
        for T in all_cm_types(K):
            stab, refl, inv, conj = reflex(T)
            assert stab == stabilizer(T) == subgroup(m, stab), T
            assert refl == field_from(m, stabilizer(T)), T
            for t in (T, inv, conj):
                assert _cmtype_list(t) == [coset(t.field, g) for g in sorted(t.psi)], t


class TestReflexType:
    def test_jacobian_reflex_under_both_conventions(self):
        T = jacobian_type()
        # inverses: 2*4 = 1 and 3*5 = 1 mod 7
        assert pow(2, -1, 7) == 4 and pow(3, -1, 7) == 5
        _, refl, inv, conj = reflex(T)
        assert refl == reflex_field(T) == T.field
        assert sorted_cosets(inv) == ((1,), (4,), (5,))
        assert sorted_cosets(conj) == ((4,), (5,), (6,))

    def test_quadratic_reflex(self):
        T = validate_cm_type(SQRT_M7, [1])
        _, refl, inv, conj = reflex(T)
        assert refl == reflex_field(T)
        assert inv.psi == {galois_group(SQRT_M7)[0]}
        # the conjugate convention flips a quadratic type to the other one
        assert conj.psi == {least(conjugation_set(SQRT_M7))}

    def test_reflex_always_validates(self):
        # reflex builds both types unchecked; its docstring proves they are CM-types
        for K in cm_fields(26, 6):
            for T in all_cm_types(K):
                _, refl, *types = reflex(T)
                assert refl == reflex_field(T)
                for r in types:
                    assert r.field == refl
                    assert len(r.psi) == refl.degree // 2
                    assert validate_cm_type(refl, r.psi) == r


class TestMultiplicities:
    def test_paper_41_fibers(self):
        D = weil_datum(quadratic(-3), [example41_type()])
        counts = D.multiplicities
        assert sorted(counts.values()) == [4, 4]
        assert is_weil_type(D)

    def test_jacobian_fibers(self):
        D = weil_datum(SQRT_M7, [jacobian_type()])
        assert D.multiplicities == {1: 2, 3: 1}
        assert not is_weil_type(D)

    def test_balanced_product_fibers(self):
        elliptic = validate_cm_type(SQRT_M7, [3])
        D = weil_datum(SQRT_M7, [jacobian_type(), elliptic])
        counts = D.multiplicities
        assert sorted(counts.values()) == [2, 2]
        assert is_weil_type(D)

    def test_other_half_system_unbalanced(self):
        D = weil_datum(SQRT_M7, [validate_cm_type(K7, [1, 3, 5])])
        assert D.multiplicities == {1: 1, 3: 2}
        assert not is_weil_type(D)

    def test_single_component_conjugate_sum(self):
        # n_sigma + n_sigma-bar = [K:k] for every sigma
        for K in cm_fields(26, 8):
            for k in subgroup_lattice_subfields(K):
                if not is_cm(k) or k == K:
                    continue
                rel_degree = K.degree // k.degree
                conj = conjugation_set(k)
                T = canonical_cm_type(K)
                counts = weil_datum(k, [T]).multiplicities
                for sigma, n in counts.items():
                    nbar = counts[least(coset_mul(k.conductor, conj, element_set(k, sigma)))]
                    assert n + nbar == rel_degree
                # and balance is equivalent to every fiber being half
                balanced = all(
                    2 * n == rel_degree for n in counts.values()
                )
                assert balanced == is_weil_type(weil_datum(k, [T]))

    def test_translation_equivariance(self):
        for K in cm_fields(20, 6):
            for k in subgroup_lattice_subfields(K):
                if not is_cm(k) or k.degree == K.degree:
                    continue
                T = canonical_cm_type(K)
                counts = weil_datum(k, [T]).multiplicities
                for g in galois_group(K):
                    gT = coset_mul_translate(T, g)
                    validate_cm_type(K, gT.psi)
                    g_small = element_set(k, _coset_rep(k)[g % k.conductor])
                    moved = weil_datum(k, [gT]).multiplicities
                    for sigma, n in counts.items():
                        assert moved[least(coset_mul(k.conductor, g_small, element_set(k, sigma)))] == n


class TestWeilDatum:
    def test_r_values(self):
        D41 = weil_datum(quadratic(-3), [example41_type()])
        assert D41.dim == 8
        assert weil_r(D41) == 8
        elliptic = validate_cm_type(SQRT_M7, [3])
        D42 = weil_datum(SQRT_M7, [jacobian_type(), elliptic])
        assert D42.dim == 4
        assert weil_r(D42) == 4

    def test_r_is_a_positive_integer_on_every_datum(self):
        # dim 3 over a quadratic base still gives the integer r = 3 (odd)
        assert weil_r(weil_datum(SQRT_M7, [jacobian_type()])) == 3
        for K in cm_fields(26, 8):
            for k in subgroup_lattice_subfields(K):
                if not is_cm(k):
                    continue
                for T in all_cm_types(K):
                    D = weil_datum(k, [T])
                    r = Fraction(2 * D.dim, k.degree)
                    assert r.denominator == 1 and r > 0 and weil_r(D) == r

    def test_base_must_be_subfield(self):
        with pytest.raises(ValueError, match="not a subfield"):
            weil_datum(quadratic(-3), [jacobian_type()])

    def test_base_must_be_cm(self):
        with pytest.raises(ValueError, match="not a CM field"):
            weil_datum(quadratic(5), [jacobian_type()])

    def test_weil_implies_dimension_divisibility(self):
        for K in cm_fields(26, 8):
            for k in subgroup_lattice_subfields(K):
                if not is_cm(k):
                    continue
                for T in all_cm_types(K):
                    D = weil_datum(k, [T])
                    if is_weil_type(D):
                        assert D.dim % k.degree == 0


class TestBalanceProduct:
    """One elliptic factor with CM by the quadratic base, appended to a datum."""

    def test_balances_jacobian(self):
        D = weil_datum(SQRT_M7, [jacobian_type()])
        choice = appended_balance_product(D)
        assert choice is not None
        assert sorted_cosets(choice) == ((3, 5, 6),)
        assert is_weil_type(weil_datum(SQRT_M7, [jacobian_type(), choice]))

    def test_impossible_when_gap_exceeds_one(self):
        # fibers (3, 0): no single elliptic factor can close the gap
        D = weil_datum(SQRT_M7, [validate_cm_type(K7, [1, 2, 4])])
        assert appended_balance_product(D) is None
        for label in (1, 3):
            E = validate_cm_type(SQRT_M7, [label])
            assert not is_weil_type(weil_datum(SQRT_M7, D.components + (E,)))

    def test_balanced_stays_balanced_only_by_symmetry(self):
        # already-balanced data cannot absorb one more factor
        elliptic = validate_cm_type(SQRT_M7, [3])
        D = weil_datum(SQRT_M7, [jacobian_type(), elliptic])
        assert is_weil_type(D) and appended_balance_product(D) is None
        for label in (1, 3):
            E = validate_cm_type(SQRT_M7, [label])
            assert not is_weil_type(weil_datum(SQRT_M7, D.components + (E,)))


# ---------------------------------------------------------------------------
# Coset-index lookups against Galois arithmetic on literal coset sets.

@lru_cache(maxsize=None)
def degree_96_field():
    """Q(sqrt(-3)) times the real subfield of the 97th cyclotomic field
    (|H| = 2), with its CM subfields."""
    K = compositum(quadratic(-3), maximal_real_subfield(cyclotomic(97)))
    return K, tuple(k for k in subgroup_lattice_subfields(K) if is_cm(k))


def check_against_oracles(T, bases):
    assert stabilizer(T) == coset_mul_stabilizer(T)
    for k in bases:
        D = weil_datum(k, [T])
        counts = D.multiplicities
        assert list(counts.items()) == list(coset_mul_restriction_multiplicities(k, [T]).items())
        assert counts == restriction_multiplicities(k, [T])
        assert is_weil_type(D) == coset_mul_is_weil_type(k, [T])


def draw_half_system(data, K):
    """One residue from each conjugate pair's drawn side, in pair order."""
    pairs = coset_mul_conjugate_pairs(K)
    bits = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [data.draw(st.sampled_from(sorted(element_set(K, pair[b]))))
            for pair, b in zip(pairs, bits)]


def outcome(validate, K, psi):
    try:
        return validate(K, psi)
    except ValueError as exc:
        return str(exc)


class TestAgainstCosetMulOracles:
    def test_every_type_on_small_cm_fields(self):
        for K in cm_fields(40, 8):
            bases = [k for k in subgroup_lattice_subfields(K) if is_cm(k)]
            for T in all_cm_types(K):
                check_against_oracles(T, bases)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_half_systems_on_degree_96_field(self, data):
        # half the draws lie over a type of a CM subfield L, so their
        # stabilizer contains Gal(K/L)
        K, cm_subfields = degree_96_field()
        assert (K.degree, len(K.fixed_group)) == (96, 2)
        L = data.draw(st.sampled_from(cm_subfields)) if data.draw(st.booleans()) else K
        T = induced_cm_type(K, validate_cm_type(L, draw_half_system(data, L)))
        assert validate_cm_type(K, T.psi) == T
        check_against_oracles(T, {quadratic(-3), L})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_validate_rejects_like_the_oracle(self, data):
        K = data.draw(st.sampled_from(cm_fields(40, 8) + (degree_96_field()[0],)))
        psi = draw_half_system(data, K)
        # replace a few entries by arbitrary units, or drop one
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(psi) - 1))
            psi[i] = data.draw(st.sampled_from(unit_group(K.conductor)))
        if data.draw(st.booleans()):
            psi = psi[1:]
        assert outcome(validate_cm_type, K, psi) == outcome(coset_mul_validate_cm_type, K, psi)
