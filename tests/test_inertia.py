import json
import time
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Poly, Symbol, expand, primerange

import cmtwist.inertia
from cmtwist.cli import main
from cmtwist.fields import jacobi_symbol
from cmtwist.inertia import (
    CLASS_NUMBER_ASSUMPTION,
    GOOD_REDUCTION_ASSUMPTION,
    MAX_PRIME_BITS,
    base_certificate,
    isprime,
    kitself_certificate,
)
from cmtwist.twists import Hypothesis
from helpers import _pow, element_order, galois_vs_frobenius, run_python, unit_generator_check

INERT_PRIMES_3_MOD_7 = [p for p in primerange(3, 500) if p % 7 == 3]

# The least strong pseudoprimes psi_k to the first k prime bases,
# k = 1..13 (Jaeschke; Sorenson and Webster); several k share one value.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
              825265, 321197185, 5394826801, 232250619601, 9746347772161)
# Composites passing the strong Lucas test with Selfridge's parameters.
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
                             75077, 97439)


def chernick_base_2_strong_pseudoprimes(bound):
    """The Chernick numbers (6k+1)(12k+1)(18k+1) below bound whose three
    factors are prime and that are strong probable primes to base 2."""
    k_max = 1
    while (6 * k_max + 1) * (12 * k_max + 1) * (18 * k_max + 1) < bound:
        k_max += 1
    size = 18 * k_max + 2
    sieve = bytearray([1]) * size
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(size) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, size, i)))
    found = []
    for k in range(1, k_max):
        if sieve[6 * k + 1] and sieve[12 * k + 1] and sieve[18 * k + 1]:
            n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
            if cmtwist.inertia._strong_probable_prime(n, (2,)):
                found.append(n)
    return found


class TestIsPrime:
    """Differential tests against sympy.isprime, the reference."""

    def test_every_n_below_ten_to_the_five(self):
        assert [n for n in range(-3, 10**5) if isprime(n) != sympy.isprime(n)] == []

    def test_around_each_base_set_threshold(self):
        # Baillie-PSW decides below 2^64 and Miller-Rabin to the first 13
        # primes from 2^64 up to psi_13, the least strong pseudoprime to those
        # bases, so only 2^64 and psi_13 are boundaries.  The other probes
        # sit at the bounds of smaller proven base sets.
        bounds = (53 * 53, 341531, 350269456337, 55245642489451, 7999252175582851,
                  585226005592931977, 2**64, 318665857834031151167461,
                  3317044064679887385961981)
        for n in (n for b in bounds for n in range(b - 2, b + 3)):
            assert isprime(n) == sympy.isprime(n), n

    def test_chernick_base_2_strong_pseudoprimes_below_2_to_the_64(self):
        # Carmichael numbers that pass the base-2 half of Baillie-PSW, so the
        # strong Lucas half alone must reject them below 2^64.
        found = chernick_base_2_strong_pseudoprimes(2**64)
        assert len(found) == 251 and found[0] == 27278026129
        for n in found:
            assert not sympy.isprime(n), n
            assert not isprime(n), n

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL + STRONG_LUCAS_PSEUDOPRIMES)
    def test_pseudoprimes_are_composite(self, n):
        assert not sympy.isprime(n)
        assert not isprime(n)

    def test_lucas_half_on_its_pseudoprimes_and_on_squares(self):
        # 1093^2 and 3511^2 are strong base-2 pseudoprimes.  The scan for D
        # reaches +-1093 or +-3511, whose symbol is 0, within milliseconds,
        # so they pass with or without the square guard.
        for n in STRONG_LUCAS_PSEUDOPRIMES + (1093**2, 3511**2):
            assert (cmtwist.inertia._strong_lucas_probable_prime(n)
                    == sympy.ntheory.primetest.is_strong_lucas_prp(n)), n

    def test_lucas_half_rejects_a_square_of_a_large_prime_at_once(self):
        # A square has no D with (D/n) = -1, and the first D with symbol 0 is
        # +-(2^61 - 1), so without the square guard the scan would not end.
        # It runs in a subprocess, which the timeout stops.
        code = "import cmtwist.inertia as m; print(m._strong_lucas_probable_prime((2**61 - 1) ** 2))"
        out = run_python(["-c", code], timeout=30)
        assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr[-2000:]

    def test_lucas_half_on_every_odd_n_below_20000(self):
        lucas = cmtwist.inertia._strong_lucas_probable_prime
        assert [n for n in range(49, 20000, 2)
                if lucas(n) != sympy.ntheory.primetest.is_strong_lucas_prp(n)] == []

    def test_lucas_half_where_selfridge_q_shares_a_factor_with_n(self):
        # Q = (1 - D)/4 for the first D with (D/n) = -1.  The half runs on a
        # chain that needs Q to be a unit, so it must reject every such n, as
        # the chain with Q itself does.  (The scan only picks n; sympy judges.)
        def selfridge_q(n):
            D = 5
            while jacobi_symbol(D, n) != -1:
                D = -D - 2 if D > 0 else -D + 2
            return (1 - D) // 4

        # above the range every odd n is compared in
        shared = [n for n in range(20001, 50000, 2) if isqrt(n) ** 2 != n and gcd(selfridge_q(n), n) > 1]
        assert len(shared) > 1000
        for n in shared:
            assert not sympy.isprime(n)
            assert not cmtwist.inertia._strong_lucas_probable_prime(n)
            assert not sympy.ntheory.primetest.is_strong_lucas_prp(n)

    @given(st.integers(min_value=0, max_value=2**128))
    @settings(max_examples=1500, deadline=None)
    def test_random_integers_below_2_to_the_128(self, n):
        assert isprime(n) == sympy.isprime(n)

    @given(st.integers(min_value=2**90, max_value=2**128).map(lambda n: n | 1))
    @settings(max_examples=300, deadline=None)
    def test_lucas_half_on_large_odd_integers(self, n):
        if all(n % q for q in cmtwist.inertia._SMALL_PRIMES):
            assert (cmtwist.inertia._strong_lucas_probable_prime(n)
                    == sympy.ntheory.primetest.is_strong_lucas_prp(n))

    @given(st.integers(min_value=2**49, max_value=2**51),
           st.integers(min_value=2**49, max_value=2**51))
    @settings(max_examples=60, deadline=None)
    def test_products_of_two_primes_of_about_50_bits(self, a, b):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert isprime(p) and isprime(q)
        assert not isprime(p * q)

    def test_large_primes_and_their_neighbours(self):
        for p in (2**89 - 1, 2**107 - 1, 2**127 - 1, 10**30 + 57):
            assert sympy.isprime(p)
            assert isprime(p)
            assert isprime(p + 2) == sympy.isprime(p + 2)


class TestPrimeBudget:
    def test_budget_is_the_digit_limit_of_the_witnesses(self):
        # p^6 - 1, the largest integer a witness prints, has at most 4,300
        # digits below 2^MAX_PRIME_BITS, and can have more one bit higher
        assert (2**MAX_PRIME_BITS - 1) ** 6 - 1 < 10**4300
        assert (2 ** (MAX_PRIME_BITS + 1) - 1) ** 6 - 1 >= 10**4300

    def test_prime_at_the_budget_concludes_and_serializes(self, tmp_path, capsys):
        p = 2**MAX_PRIME_BITS - 2253
        assert p.bit_length() == MAX_PRIME_BITS and p % 7 == 3 and sympy.isprime(p)
        out = tmp_path / "report.json"
        assert main(["inertia", "--p", str(p), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["concluded"] and f"p^2 - 1 = {p * p - 1}" in report["statements"]

    @pytest.mark.parametrize("p", [
        10**720 + 667,                            # prime, 3 (mod 7)
        2**MAX_PRIME_BITS + 1,                    # composite
        10**720 + 469,                            # prime, 1 (mod 7)
        10**4000 + 1,                             # composite
        -(10**720 + 667),
    ], ids=["prime-3-mod-7", "composite", "prime-not-3-mod-7", "10^4000+1", "negative"])
    def test_past_the_budget_is_refused_at_once(self, p, capsys):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^more than MAX_PRIME_BITS = {MAX_PRIME_BITS} bits$"):
            kitself_certificate(p)
        assert time.perf_counter() - t0 < 1.0
        assert main(["inertia", "--p", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: p: more than MAX_PRIME_BITS = {MAX_PRIME_BITS} bits\n"
        assert main(["base-cert", "--p", "3", "--q", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"input error: q: more than MAX_PRIME_BITS = {MAX_PRIME_BITS} bits\n")


class TestResidueOrders:
    def test_order_examples(self):
        assert element_order(7, 3) == 6
        assert element_order(7, 2) == 3
        assert element_order(7, 5) == 6

    def test_congruence_predicate(self):
        assert holds(kitself_certificate(3), CONGRUENCE) is True
        assert holds(kitself_certificate(17), CONGRUENCE) is True
        assert holds(kitself_certificate(2), CONGRUENCE) is False
        # inert but the wrong residue
        assert holds(kitself_certificate(5), CONGRUENCE) is False

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="differ from 7"):
            kitself_certificate(7)
        with pytest.raises(ValueError, match="not prime"):
            kitself_certificate(15)


# the certificate's one check, a checked record named by its statement;
# the arithmetic at p is stated as witnesses resting on it
CONGRUENCE = "p = 3 (mod 7)"


def holds(cert, name):
    """Whether the checked record ``name`` of a certificate holds, or None
    when the certificate has no such record."""
    return next((h.holds for h in cert.hypotheses
                 if h.name == name and h.kind == "checked"), None)


class TestInertiaOrder:
    def test_p3(self):
        assert 13 * 56 == 3**6 - 1
        assert kitself_certificate(3).results["inertia_order"] == 56

    def test_p17(self):
        assert 307 * 78624 == 17**6 - 1
        assert kitself_certificate(17).results["inertia_order"] == 78624

    def test_wrong_residue_rejected(self):
        # p = 5 is inert but not 3 (mod 7): no inertia order, no witness, no verdict
        cert = kitself_certificate(5)
        assert cert.results["inertia_order"] is None and cert.statements == ()
        assert holds(cert, CONGRUENCE) is False and cert.results["conclusion"] is None

    def test_identities_up_to_ten_thousand(self):
        primes = [p for p in primerange(3, 10_000) if p % 7 == 3]
        assert len(primes) > 100
        for p in primes:
            q = p * p + p + 1
            assert (p**3 - 1) % q == 0
            assert gcd(p**6 - 1, p**3 * q) == q
            cert = kitself_certificate(p)
            assert cert.results["inertia_order"] * q == p**6 - 1
            assert holds(cert, CONGRUENCE) is True
            assert f"({p}^6 - 1)/{q} = {(p**6 - 1) // q}" in cert.statements
            assert f"gcd({p**6 - 1}, {p**3 * q}) = {q}" in cert.statements


class TestFrobeniusExponents:
    def test_examples(self):
        for p in (3, 17):
            assert (pow(p, 3, 7), pow(p, 4, 7), pow(p, 5, 7)) == (6, 4, 5)
            cert = kitself_certificate(p)
            assert holds(cert, CONGRUENCE) is True
            assert "(p^3, p^4, p^5) = (6, 4, 5) (mod 7)" in cert.statements

    def test_exponents_follow_from_the_congruence(self):
        # (p^3, p^4, p^5) = (6, 4, 5) (mod 7) holds for p = 3 (mod 7) alone
        for r in range(1, 7):
            assert ((pow(r, 3, 7), pow(r, 4, 7), pow(r, 5, 7)) == (6, 4, 5)) is (r == 3)

    def test_wrong_residue_rejected(self):
        cert = kitself_certificate(2)
        assert holds(cert, CONGRUENCE) is False and not cert.concluded
        assert not any(s.startswith("(p^3, p^4, p^5)") for s in cert.statements)

    def test_exponent_sum_identity(self):
        # p^3 + p^4 + p^5 = p^3 (1 + p + p^2) as polynomials
        p = Symbol("p")
        assert expand(p**3 + p**4 + p**5 - p**3 * (1 + p + p**2)) == 0


class TestSevenDivisibility:
    def test_examples(self):
        # (7 | p^2 + p + 1, 7 | p^2 - 1) at p = 3, 2, 13
        for p, divides in ((3, (False, False)), (2, (True, False)), (13, (False, True))):
            assert ((p * p + p + 1) % 7 == 0, (p * p - 1) % 7 == 0) == divides
        assert {"p^2 + p + 1 = 13", "p^2 - 1 = 8"} <= set(kitself_certificate(3).statements)

    def test_residue_classification(self):
        for p in primerange(3, 500):
            if p == 7:
                continue
            assert ((p * p + p + 1) % 7 == 0) is (p % 7 in (2, 4))
            assert ((p * p - 1) % 7 == 0) is (p % 7 in (1, 6))
            # the congruence excludes both classes, and both witnesses rest on it
            cert = kitself_certificate(p)
            assert holds(cert, CONGRUENCE) is (p % 7 == 3)
            assert (f"p^2 + p + 1 = {p * p + p + 1}" in cert.statements) is (p % 7 == 3)
            assert (f"p^2 - 1 = {p * p - 1}" in cert.statements) is (p % 7 == 3)


class TestUnitGenerator:
    def test_reduction_value_and_order(self):
        report = unit_generator_check()
        assert report["reduction_value_mod_7"] == 5
        # powers of 5 mod 7 cycle through all six units
        powers = {pow(5, k, 7) for k in range(1, 7)}
        assert powers == {1, 2, 3, 4, 5, 6}
        assert report["reduction_order"] == 6

    def test_polynomial_identity(self):
        assert unit_generator_check()["unit_identity_holds"]


class TestFiniteField:
    def test_modulus_root_relations(self):
        # x has order 7, and the modulus polynomial vanishes on it
        x = (0, 1, 0, 0, 0, 0)
        assert _pow(3, x, 7) == (1, 0, 0, 0, 0, 0)
        acc = (1, 0, 0, 0, 0, 0)
        for k in range(1, 7):
            acc = tuple((a + b) % 3 for a, b in zip(acc, _pow(3, x, k)))
        assert acc == (0, 0, 0, 0, 0, 0)

    def test_frobenius_fixed_points(self):
        # u^(p^6) = u for every element of the degree-six extension
        for p in (3, 17):
            u = (1, 2, 0, 1, 0, 2)
            assert _pow(p, u, p**6) == u

    def test_reducible_characteristic_rejected(self):
        # every prime whose residue mod 7 has order below 6
        for p in primerange(2, 100):
            if p != 7 and element_order(7, p % 7) != 6:
                with pytest.raises(ValueError, match="reducible"):
                    galois_vs_frobenius(p, 1)

    def test_irreducibility_matches_order_six(self):
        # oracle: factor the modulus polynomial over GF(p) with sympy; the
        # certificate's congruence p = 3 (mod 7) makes it irreducible
        x = Symbol("x")
        phi = sum(x**k for k in range(7))
        for p in primerange(2, 500):
            if p == 7:
                continue
            factors = Poly(phi, x, domain=GF(p)).factor_list()[1]
            irreducible = len(factors) == 1 and factors[0][0].degree() == 6
            assert irreducible == (element_order(7, p % 7) == 6), p
            if holds(kitself_certificate(p), CONGRUENCE):
                assert irreducible, p


class TestGaloisVsFrobenius:
    def test_examples(self):
        assert galois_vs_frobenius(3, 4)
        assert galois_vs_frobenius(3, 1)
        assert galois_vs_frobenius(17, 6)

    def test_all_exponents_all_small_primes(self):
        for p in (3, 17, 31):
            for i in range(1, 7):
                assert galois_vs_frobenius(p, i)

    def test_reducible_prime_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            galois_vs_frobenius(13, 2)

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError, match="3 \\(mod 7\\)"):
            galois_vs_frobenius(5, 2)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            galois_vs_frobenius(3, 7)


class TestCertificates:
    def test_kitself_at_3(self):
        cert = kitself_certificate(3)
        assert cert.concluded
        assert cert.results["conclusion"] == "K' = K"
        assert cert.results["inertia_order"] == 56
        assert cert.statements == (
            "3 = 3 (mod 7)", "(3^6 - 1)/13 = 56", "gcd(728, 351) = 13",
            "(p^3, p^4, p^5) = (6, 4, 5) (mod 7)", "p^2 + p + 1 = 13", "p^2 - 1 = 8")
        assert cert.hypotheses == (Hypothesis(CONGRUENCE, "checked", True),
                                   Hypothesis(CLASS_NUMBER_ASSUMPTION, "assumed", True))
        assert set(cert.results) == {"p", "inertia_order", "conclusion"}

    def test_kitself_at_17(self):
        cert = kitself_certificate(17)
        assert cert.concluded
        assert cert.results["inertia_order"] == 78624

    def test_kitself_fails_at_2(self):
        cert = kitself_certificate(2)
        assert not cert.concluded
        assert cert.results["conclusion"] is None
        failed = [h.name for h in cert.hypotheses if not h.holds]
        assert failed == [CONGRUENCE]
        # every witness rests on the congruence
        assert cert.statements == ()

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            kitself_certificate(9)
        with pytest.raises(ValueError):
            kitself_certificate(7)

    def test_base_certificate_3_17(self):
        cert = base_certificate(3, 17)
        assert cert.concluded
        assert cert.results["conclusion"] == "K_Phi(A) = K = Q_Phi(A)"
        assert {h.name for h in cert.hypotheses if h.kind == "assumed"} == {
            CLASS_NUMBER_ASSUMPTION,
            GOOD_REDUCTION_ASSUMPTION,
        }
        assert all(h.holds for h in cert.hypotheses)
        assert len(cert.statements) == 3

    def test_base_certificate_shared_prime_rejected(self):
        with pytest.raises(ValueError, match="^q: must differ from p$"):
            base_certificate(3, 3)

    def test_base_certificate_fails_at_2(self):
        cert = base_certificate(3, 2)
        assert not cert.concluded
        assert cert.results["conclusion"] is None
        # the record names the prime whose certificate failed, and that
        # certificate (run alone) names the check
        assert cert.results["certificate_q"] == kitself_certificate(2).results
        assert cert.results["certificate_q"]["conclusion"] is None
        assert holds(kitself_certificate(2), CONGRUENCE) is False
        assert [h.name for h in cert.hypotheses if not h.holds] == ["K' = K at q = 2"]
        # every statement rests on the failed check
        assert cert.statements == ()

    def test_one_primality_proof_per_certificate(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return isprime(n)

        monkeypatch.setattr(cmtwist.inertia, "isprime", counted)
        for p in (3, 2, 13, 10**30 + 57):
            calls.clear()
            kitself_certificate(p)
            assert calls == [p]
        calls.clear()
        base_certificate(3, 17)
        assert calls == [3, 17]

    def test_parallel_certification_is_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor

        primes = INERT_PRIMES_3_MOD_7[:8]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(kitself_certificate, primes))
        assert parallel == [kitself_certificate(p) for p in primes]


# each checked record of a certificate, by its name with the primes left
# as fields, and the arguments at which it is the one record that fails
FALSIFIERS = {
    (kitself_certificate, CONGRUENCE): {"p": 5},
    (base_certificate, "K' = K at p = {p}"): {"p": 5, "q": 3},
    (base_certificate, "K' = K at q = {q}"): {"p": 3, "q": 5},
}


def test_every_checked_record_can_withhold_a_conclusion_alone():
    # a checked record is a predicate that can fail while every other
    # record holds, never a fact that fails only together with another one
    for theorem, args in ((kitself_certificate, {"p": 3}), (base_certificate, {"p": 3, "q": 17}),
                          *((theorem, args) for (theorem, _), args in FALSIFIERS.items())):
        emitted = [h.name for h in theorem(**args).hypotheses if h.kind == "checked"]
        assert emitted == [name.format(**args) for t, name in FALSIFIERS if t is theorem]
    for (theorem, name), args in FALSIFIERS.items():
        cert = theorem(**args)
        assert [h.name for h in cert.hypotheses if not h.holds] == [name.format(**args)]
        assert not cert.concluded and cert.statements == ()


def test_every_inert_3_mod_7_prime_certifies():
    for p in INERT_PRIMES_3_MOD_7:
        assert kitself_certificate(p).concluded
