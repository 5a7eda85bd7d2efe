"""Acceptance suite: the nine exit criteria, one test and one printed
pass/fail line each.  Everything is exact integer arithmetic; every
tolerance is zero."""

from math import gcd

from sympy import primerange

from cmtwist.cli import EXAMPLE_42_ASSUMED, JobSpec, run
from cmtwist.cmtypes import (
    reflex_types,
    restriction_multiplicities,
    stabilizer,
    validate_cm_type,
    weil_datum,
)
from cmtwist.fields import cyclotomic, field_from, quadratic
from cmtwist.inertia import base_certificate, kitself_certificate
from cmtwist.residues import invariant_factors, subgroup_generated
from cmtwist.twists import make_character, twist_x
from helpers import (
    all_cm_types,
    brute_stabilizer_subgroup,
    cm_fields,
    coset_mul,
    element_set,
    example41_field,
    example41_type,
    galois_vs_frobenius,
    is_primitive,
    quotient_cosets,
    reflex_field,
    synthetic_weil_datum,
)


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_group_structure():
    factors = invariant_factors(51, subgroup_generated(51, [16]))
    _report("criterion 1: Gal(K/Q) of the conductor-51 field is Z/2 x Z/8",
            factors == (2, 8))


def test_criterion_2_cm_type():
    K = example41_field()
    T = example41_type()
    # exhaustive stabilizer scan over all 16 Galois elements, as coset sets
    psi = {element_set(K, c) for c in T.psi}
    trivial = all(
        {coset_mul(51, g, c) for c in psi} != psi
        for g in quotient_cosets(51, K.fixed_group)
        if g != K.fixed_group
    )
    counts = restriction_multiplicities(weil_datum(quadratic(-3), [T]))
    ok = (
        len(T.psi) == 8
        and trivial
        and is_primitive(T)
        and reflex_field(T) == K
        and list(counts.values()) == [4, 4]
    )
    _report("criterion 2: the half-system validates, is primitive, has "
            "reflex field K, and n_sigma = 4 twice", ok)


def test_criterion_3_cubic_twist_conclusion():
    D = weil_datum(quadratic(-3), [example41_type()])
    res = twist_x(D, make_character(quadratic(-3), 3, "M")).results
    ok = (
        res["n"] == 3
        and res["r"] == 8
        and res["t"] == 1
        and res["conclusions"]["phiB_equals_M"]
        and res["conclusions"]["phiB_over_F_exact"] == 3
    )
    _report("criterion 3: cubic twist with r = 8 gives t = 1 and "
            "F_Phi(B) = M with [F_Phi(B):F] = 3", ok)


def test_criterion_4_reflex_conventions():
    T = validate_cm_type(cyclotomic(7), [1, 2, 3])
    refl = reflex_field(T)
    inv, conj = reflex_types(T, refl)
    ok = (
        refl == cyclotomic(7)
        and conj.sorted_psi() == ((4,), (5,), (6,))
        and inv.sorted_psi() == ((1,), (4,), (5,))
    )
    _report("criterion 4: reflex field is the whole field; conjugate "
            "convention gives {4,5,6}, inverse gives {1,4,5}", ok)


def test_criterion_5_inertia_arithmetic_at_3():
    cert = kitself_certificate(3)
    checks = {c["name"]: c for c in cert.results["checks"]}
    unit = cert.results["unit_generator"]
    ok = (
        cert.results["inertia_order"] == 56
        and gcd(3**6 - 1, 3**3 * 13) == 13
        and checks["gcd_check"]["pass"]
        and checks["gcd_check"]["witness"] == "gcd(728, 351) = 13"
        and checks["frobenius_exponents"]["pass"]
        and checks["frobenius_exponents"]["witness"] == "(p^3, p^4, p^5) = (6, 4, 5) (mod 7)"
        and checks["seven_nondivisibility"]["pass"]      # 7 does not divide 13
        and checks["seven_nondivisibility"]["witness"] == "p^2 + p + 1 = 13"
        and checks["elliptic_order"]["pass"]             # 7 does not divide 8
        and checks["elliptic_order"]["witness"] == "p^2 - 1 = 8"
        and unit["reduction_value_mod_7"] == 5
        and unit["reduction_order"] == 6
        and cert.concluded
    )
    _report("criterion 5: inertia order 56, gcd 13, Frobenius (6,4,5), "
            "non-divisibilities, unit reduces to a generator", ok)


def test_criterion_6_base_certificate_and_replay():
    cert = base_certificate(3, 17)
    report = run(JobSpec("example-42", {}))
    assumed = [h.name for h in report.hypotheses if h.kind == "assumed"]
    ok = (
        cert.concluded
        and cert.results["conclusion"] == "K_Phi(A) = K = Q_Phi(A)"
        and report.concluded
        and report.results["conclusions"] == ["K_Phi(A) = K",
                                              "Q_Phi(A^(d)) = L_d"]
        and set(assumed) == set(EXAMPLE_42_ASSUMED)
        and len(assumed) == 4
        and all(h.holds for h in report.hypotheses)
    )
    _report("criterion 6: base certificate at (3, 17) passes and the "
            "replay concludes with exactly the four assumptions", ok)


def test_criterion_7_primitivity_oracle_sweep():
    fields = cm_fields(40, 8)
    checked = 0
    agreed = 0
    for K in fields:
        for T in all_cm_types(K):
            checked += 1
            brute = brute_stabilizer_subgroup(T)
            same_stab = stabilizer(T) == brute
            same_primitive = is_primitive(T) == (
                brute == K.fixed_group
            )
            same_reflex = reflex_field(T) == field_from(K.conductor, brute)
            if same_stab and same_primitive and same_reflex:
                agreed += 1
    ok = checked > 300 and agreed == checked
    _report(f"criterion 7: primitivity and reflex agree with brute force "
            f"on all {checked} CM-types (conductor <= 40, degree <= 8)", ok)


def test_criterion_8_frobenius_sweep():
    primes = [p for p in primerange(3, 500) if p % 7 == 3]
    checked = 0
    passed = 0
    for p in primes:
        for i in range(1, 7):
            checked += 1
            if galois_vs_frobenius(p, i, trials=4):
                passed += 1
    ok = checked == 6 * len(primes) and passed == checked and len(primes) == 17
    _report(f"criterion 8: ring maps match Frobenius powers for all "
            f"{checked} (p, i) pairs with p = 3 mod 7, p < 500", ok)


def test_criterion_9_twist_report_sweep():
    checked = 0
    good = 0
    for n in range(2, 51):
        k, _ = synthetic_weil_datum(n, 2)
        c = make_character(k, n)
        for r in range(2, 51, 2):
            if r % n == 0:
                continue
            _, D = synthetic_weil_datum(n, r)
            res = twist_x(D, c).results
            t, mu, deg = res["t"], res["mu_bound"], res["conclusions"]
            exact = deg["exact_m_over_phiB"]
            checked += 1
            chain = (
                t == gcd(n, 2 * r)
                and n % t == 0
                and (2 * r) % t == 0
                and t % mu == 0
                and deg["m_over_phiB_divisor"] == mu
            )
            exactness = True
            if exact is not None:
                exactness = (
                    mu % exact == 0
                    and exact * deg["phiB_over_F_exact"] == n
                )
            no_contradiction = not (
                deg["phiB_equals_M"] and exact != 1
            )
            if chain and exactness and no_contradiction:
                good += 1
    ok = checked > 1000 and good == checked
    _report(f"criterion 9: divisor-chain and exactness invariants hold for "
            f"all {checked} (n, r) reports with 2 <= n, r <= 50", ok)
