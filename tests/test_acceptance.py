"""Acceptance suite: the nine exit criteria, one test and one printed
pass/fail line each.  Everything is exact integer arithmetic; every
tolerance is zero."""

from math import gcd

from sympy import primerange

from cmtwist.cli import EXAMPLE_42_ASSUMED, JobSpec, run
from cmtwist.cmtypes import (
    reflex,
    stabilizer,
    validate_cm_type,
    weil_datum,
    weil_r,
)
from cmtwist.fields import cyclotomic, field_from, quadratic
from cmtwist.inertia import base_certificate, kitself_certificate
from cmtwist.twists import twist_x
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
    sorted_cosets,
    synthetic_weil_datum,
    unit_generator_check,
)


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_group_structure():
    # the field job on the example-4.1 literal, as a user runs it
    field = {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}
    report = run(JobSpec("field", {"field": field}))
    _report("criterion 1: Gal(K/Q) of the conductor-51 field is Z/2 x Z/8",
            report.results["invariant_factors"] == [2, 8]
            and "Gal = Z/2 x Z/8" in report.statements)


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
    counts = weil_datum(quadratic(-3), [T]).multiplicities
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
    res = twist_x(D, 3, "M").results
    ok = (
        weil_r(D) == 8
        and res["t"] == 1
        and res["conclusions"]["exact_m_over_phiB"] == 1
        and res["conclusions"]["phiB_over_F_exact"] == 3
    )
    _report("criterion 3: cubic twist with r = 8 gives t = 1 and "
            "F_Phi(B) = M with [F_Phi(B):F] = 3", ok)


def test_criterion_4_reflex_conventions():
    T = validate_cm_type(cyclotomic(7), [1, 2, 3])
    _, refl, inv, conj = reflex(T)
    ok = (
        refl == reflex_field(T) == cyclotomic(7)
        and sorted_cosets(conj) == ((4,), (5,), (6,))
        and sorted_cosets(inv) == ((1,), (4,), (5,))
    )
    _report("criterion 4: reflex field is the whole field; conjugate "
            "convention gives {4,5,6}, inverse gives {1,4,5}", ok)


def test_criterion_5_inertia_arithmetic_at_3():
    cert = kitself_certificate(3)
    # the congruence is the one checked record, and the arithmetic at 3 is
    # stated as witnesses that stand only when it holds
    checks = {h.name: h.holds for h in cert.hypotheses if h.kind == "checked"}
    unit = unit_generator_check()
    ok = (
        checks == {"p = 3 (mod 7)": True}
        and cert.results["inertia_order"] == 56
        and "(3^6 - 1)/13 = 56" in cert.statements
        and gcd(3**6 - 1, 3**3 * 13) == 13
        and "gcd(728, 351) = 13" in cert.statements
        and (pow(3, 3, 7), pow(3, 4, 7), pow(3, 5, 7)) == (6, 4, 5)
        and "(p^3, p^4, p^5) = (6, 4, 5) (mod 7)" in cert.statements
        and 13 % 7 != 0 and "p^2 + p + 1 = 13" in cert.statements
        and 8 % 7 != 0 and "p^2 - 1 = 8" in cert.statements
        and unit["reduction_value_mod_7"] == 5
        and unit["reduction_order"] == 6                 # 5 generates (Z/7)^x
        and unit["unit_identity_holds"]                  # (x - 1)(-1 - x) = 1 - x^2
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
        for r in range(2, 51, 2):
            if r % n == 0:
                continue
            _, D = synthetic_weil_datum(n, r)
            rep = twist_x(D, n)
            res = rep.results
            t, mu, deg = res["t"], res["mu_bound"], res["conclusions"]
            exact = deg["exact_m_over_phiB"]
            checked += 1
            chain = (
                t == gcd(n, 2 * r)
                and n % t == 0
                and (2 * r) % t == 0
                and t % mu == 0
            )
            exactness = True
            if exact is not None:
                exactness = (
                    mu % exact == 0
                    and exact * deg["phiB_over_F_exact"] == n
                )
            no_contradiction = (exact == 1) is (rep.concluded and mu == 1)
            if chain and exactness and no_contradiction:
                good += 1
    ok = checked > 1000 and good == checked
    _report(f"criterion 9: divisor-chain and exactness invariants hold for "
            f"all {checked} (n, r) reports with 2 <= n, r <= 50", ok)
