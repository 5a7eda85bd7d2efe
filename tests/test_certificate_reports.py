"""Certificate reports decoded and checked against arithmetic redone here.

Every ``inertia``, ``base-cert`` and ``example-42`` report of the pinned
``commands`` corpus, an ``inertia`` report at each prime below 2,000
other than 7, and reports at the primes next to psi_13 = 3.3e24 on either
side, are decoded from their JSON text.  The arithmetic at each prime is
redone with ``pow`` and ``gcd``: a report concludes exactly when its
primes are 3 (mod 7), each certificate's inertia order is
(p^6 - 1)/(p^2 + p + 1) or null, the witnesses are the formulas in p that
the congruence proves, each prime has exactly one checked record, and a
prime has an assumed record of being a probable prime exactly when it is
at least psi_13, where primality is not proven.  A change of the
certificate bytes, and the re-pin of their digests, is judged by this
test.
"""

from __future__ import annotations

import json
from math import gcd

from sympy import nextprime, prevprime, primerange

from test_report_bytes import command_jobs, outcome

BASE_CLAIM = "the base certificate gives K_Phi(A) = K = Q_Phi(A)"
# the least strong pseudoprime to the first 13 prime bases: below it
# Miller-Rabin to those bases, or Baillie-PSW below 2^64, proves primality
PSI_13 = 3317044064679887385961981
BELOW_PSI_13, ABOVE_PSI_13 = prevprime(PSI_13), nextprime(PSI_13)
CLASS_NUMBER, GOOD_REDUCTION = "class number 1", "good reduction outside 7"


def witnesses(p: int) -> list[str]:
    """The arithmetic at p as a certificate states it, formulas in p, after
    checking it here where it follows from p = 3 (mod 7)."""
    q = p * p + p + 1
    big = p**6 - 1
    frob = (pow(p, 3, 7), pow(p, 4, 7), pow(p, 5, 7))
    assert big % q == 0 and gcd(big, p**3 * q) == q
    assert frob == (6, 4, 5) and (q % 7, (p * p - 1) % 7) == (6, 1)
    return [
        "(p^6 - 1)/(p^2 + p + 1) = inertia_order",
        "gcd(p^6 - 1, p^3 (p^2 + p + 1)) = p^2 + p + 1",
        "(p^3, p^4, p^5) = (6, 4, 5) (mod 7)",
        "(p^2 + p + 1, p^2 - 1) = (6, 1) (mod 7)",
    ]


def probable_primes(**primes: int) -> list[str]:
    """The assumed primality records of the named primes, in order."""
    return [f"{key} is prime (strong Baillie-PSW probable prime)"
            for key, n in primes.items() if n >= PSI_13]


def certified(cert: dict) -> bool:
    """Check one prime's certificate section; whether p = 3 (mod 7)."""
    p, order = cert["p"], cert["inertia_order"]
    congruent = p % 7 == 3
    assert cert["conclusion"] == ("K' = K" if congruent else None), p
    if congruent:
        assert order * (p * p + p + 1) == p**6 - 1, p
    else:
        assert order is None, p
    return congruent


def checked(doc: dict) -> list[tuple[str, bool]]:
    return [(h["name"], h["holds"]) for h in doc["hypotheses"] if h["kind"] == "checked"]


def assumed(doc: dict) -> list[str]:
    assert all(h["holds"] for h in doc["hypotheses"] if h["kind"] == "assumed")
    return [h["name"] for h in doc["hypotheses"] if h["kind"] == "assumed"]


def check_inertia(doc: dict) -> None:
    cert = doc["results"]["certificate"]
    p = cert["p"]
    congruent = certified(cert)
    assert doc["concluded"] is congruent, p
    assert checked(doc) == [("p = 3 (mod 7)", congruent)], p
    assert assumed(doc) == [CLASS_NUMBER, *probable_primes(p=p)], p
    assert doc["statements"] == (witnesses(p) if congruent else []), p


def check_base_cert(doc: dict) -> None:
    cert = doc["results"]["certificate"]
    p, q = doc["payload"]["p"], doc["payload"]["q"]
    assert (cert["certificate_p"]["p"], cert["certificate_q"]["p"]) == (p, q)
    at_p, at_q = certified(cert["certificate_p"]), certified(cert["certificate_q"])
    assert doc["concluded"] is (at_p and at_q)
    assert (cert["conclusion"] is not None) is (at_p and at_q)
    assert checked(doc) == [(f"K' = K at p = {p}", at_p), (f"K' = K at q = {q}", at_q)]
    assert assumed(doc) == [CLASS_NUMBER, GOOD_REDUCTION, *probable_primes(p=p, q=q)]


def check_example_42(doc: dict) -> None:
    cert = doc["results"]["base_certificate"]
    both = certified(cert["certificate_p"]) and certified(cert["certificate_q"])
    assert doc["concluded"] is both
    assert (cert["conclusion"] is not None) is both
    assert [holds for name, holds in checked(doc) if name == BASE_CLAIM] == [both]
    # the example's own assumptions, then the replayed base certificate's
    # primality records
    p, q = doc["payload"].get("p", 3), doc["payload"].get("q", 17)
    assert assumed(doc) == [CLASS_NUMBER, GOOD_REDUCTION, "Hom(J,E^(d)) = 0",
                            "endomorphism-field identities", *probable_primes(p=p, q=q)]


CHECKS = {"inertia": check_inertia, "base-cert": check_base_cert, "example-42": check_example_42}


def test_certificate_reports_redo_their_arithmetic():
    jobs = [(c, p) for c, p in command_jobs() if c in CHECKS]
    jobs += [("inertia", {"p": p}) for p in primerange(2, 2000) if p != 7]
    jobs += [("inertia", {"p": BELOW_PSI_13}), ("inertia", {"p": ABOVE_PSI_13})]
    for p, q in ((BELOW_PSI_13, ABOVE_PSI_13), (ABOVE_PSI_13, 17), (10**30 + 709, 10**30 + 751)):
        jobs += [("base-cert", {"p": p, "q": q}), ("example-42", {"p": p, "q": q})]
    seen = {c: 0 for c in CHECKS}
    for command, payload in jobs:
        code, text = outcome(command, payload)
        if code == 1:
            continue
        doc = json.loads(text)
        assert (doc["command"], doc["payload"]) == (command, payload)
        assert code == (0 if doc["concluded"] else 2)
        CHECKS[command](doc)
        seen[command] += 1
    # 302 primes and the two next to psi_13, three pairs of primes, and the
    # corpus's reports (its exit-1 jobs print no report)
    assert seen == {"inertia": 306, "base-cert": 5, "example-42": 6}
