"""Certificate reports decoded and checked against arithmetic redone here.

Every ``inertia``, ``base-cert`` and ``example-42`` report of the pinned
``commands`` corpus, and an ``inertia`` report at each prime below 2,000
other than 7, is decoded from its JSON text.  The arithmetic at each prime
is redone with ``pow`` and ``gcd``: a report concludes exactly when its
primes are 3 (mod 7), each certificate's inertia order is
(p^6 - 1)/(p^2 + p + 1) or null, each witness is the string recomputed
here, and each prime has exactly one checked record.  A change of the
certificate bytes, and the re-pin of their digests, is judged by this
test.
"""

from __future__ import annotations

import json
from math import gcd

from sympy import primerange

from test_report_bytes import command_jobs, outcome

BASE_CLAIM = "the base certificate gives K_Phi(A) = K = Q_Phi(A)"


def witnesses(p: int) -> list[str]:
    """The arithmetic at p as a certificate states it, proven where it
    follows from p = 3 (mod 7)."""
    q = p * p + p + 1
    big = p**6 - 1
    frob = (pow(p, 3, 7), pow(p, 4, 7), pow(p, 5, 7))
    assert big % q == 0 and gcd(big, p**3 * q) == q
    assert frob == (6, 4, 5) and (q % 7, (p * p - 1) % 7) == (6, 1)
    return [
        f"{p} = 3 (mod 7)",
        f"({p}^6 - 1)/{q} = {big // q}",
        f"gcd({big}, {p**3 * q}) = {q}",
        f"(p^3, p^4, p^5) = {frob} (mod 7)",
        f"p^2 + p + 1 = {q}",
        f"p^2 - 1 = {p * p - 1}",
    ]


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


def check_inertia(doc: dict) -> None:
    cert = doc["results"]["certificate"]
    p = cert["p"]
    congruent = certified(cert)
    assert doc["concluded"] is congruent, p
    assert checked(doc) == [("p = 3 (mod 7)", congruent)], p
    assert doc["statements"] == (witnesses(p) if congruent else []), p


def check_base_cert(doc: dict) -> None:
    cert = doc["results"]["certificate"]
    p, q = doc["payload"]["p"], doc["payload"]["q"]
    assert (cert["certificate_p"]["p"], cert["certificate_q"]["p"]) == (p, q)
    at_p, at_q = certified(cert["certificate_p"]), certified(cert["certificate_q"])
    assert doc["concluded"] is (at_p and at_q)
    assert (cert["conclusion"] is not None) is (at_p and at_q)
    assert checked(doc) == [(f"K' = K at p = {p}", at_p), (f"K' = K at q = {q}", at_q)]


def check_example_42(doc: dict) -> None:
    cert = doc["results"]["base_certificate"]
    both = certified(cert["certificate_p"]) and certified(cert["certificate_q"])
    assert doc["concluded"] is both
    assert (cert["conclusion"] is not None) is both
    assert [holds for name, holds in checked(doc) if name == BASE_CLAIM] == [both]


CHECKS = {"inertia": check_inertia, "base-cert": check_base_cert, "example-42": check_example_42}


def test_certificate_reports_redo_their_arithmetic():
    jobs = [(c, p) for c, p in command_jobs() if c in CHECKS]
    jobs += [("inertia", {"p": p}) for p in primerange(2, 2000) if p != 7]
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
    # 302 primes, and the corpus's reports (its exit-1 jobs print no report)
    assert seen == {"inertia": 304, "base-cert": 2, "example-42": 3}
