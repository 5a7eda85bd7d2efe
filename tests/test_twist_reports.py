"""Twist reports decoded and checked against numbers recomputed from the payload.

Every ``twist-x`` and ``twist-e`` report (exit 0 or 2) of the pinned
``commands`` and ``twists`` corpora is decoded from its JSON text.  From
the payload alone, with the oracles of ``helpers``, this module rebuilds
the fields, counts each fiber of the restriction to the base k,
r = sum [K_i:Q] / [k:Q], t, the roots of unity w(k) (by counting the
roots of unity of Q(zeta_2m) that the base fixes) and the bound
gcd(t, w(k)).  Each checked record must hold exactly when those numbers
say, each assumed record must be the payload's flag, the report
concludes exactly when every record holds, and its degrees and
statements are the rows of the theorem that stand.  A change of the twist
report bytes, and the re-pin of their digests, is judged by this test.
"""

from __future__ import annotations

import json
from functools import reduce
from math import gcd, prod

import pytest

from cmtwist.cmtypes import CMType
from helpers import (
    coset_mul_is_weil_type,
    coset_mul_restriction_multiplicities,
    coset_of,
    divisor_scan_field,
    kronecker_scan_quadratic_kernel,
    lift_compositum,
    swap_loop_declared_basis,
)
from test_report_bytes import CORPUS, command_jobs, corpus_literals, outcome, twist_jobs  # noqa: F401

# payload flag -> the assumed record it sets, in the order a report lists them
ASSUMED = {
    "twist-x": {"base_central": "k embeds in the center of End0(A)",
                "end_field_equal": "F = F(End(A))",
                "phi_base_equal": "F_Phi(A) = F",
                "aut_valued": "iota(c) takes values in Aut(A)"},
    "twist-e": {"hom_xy_zero": "Hom(X, Y) = 0",
                "end_fields_equal": "F = F(End(X)) = F(End(Y))",
                "phi_base_equal": "F_Phi(A) = F"},
}
WEIL = "(A, k, iota) is of Weil type"


def literal_field(obj: dict):
    """The field a payload literal names, built by the scanning oracles."""
    (kind, value), = obj.items()
    if kind == "corpus":
        return CORPUS[value]
    if kind == "compositum":
        return reduce(lift_compositum, map(literal_field, value))
    if kind == "quadratic":
        disc = value if value % 4 == 1 else 4 * value
        return divisor_scan_field(abs(disc), kronecker_scan_quadratic_kernel(value))
    m = value
    return divisor_scan_field(m, frozenset({1 % m, -1 % m} if kind == "real_subfield_of" else {1 % m}))


def degree(K) -> int:
    m = K.conductor
    return sum(gcd(x, m) == 1 for x in range(m)) // len(K.fixed_group)


def roots_of_unity_count(k) -> int:
    """#mu(k): every root of unity of k lies in Q(zeta_2m), m the conductor,
    and zeta^a lies in k when each lift h of the fixed group has a(h - 1) = 0."""
    m, M = k.conductor, 2 * k.conductor
    lifts = [h for h in range(1, M) if gcd(h, M) == 1 and h % m in k.fixed_group]
    return sum(all(a * (h - 1) % M == 0 for h in lifts) for a in range(M))


def component_type(obj: dict) -> CMType:
    """A payload component as the field and the residues its labels name."""
    K = literal_field(obj["field"])
    labels = obj["type"]
    if isinstance(labels[0], list):
        m, basis = K.conductor, swap_loop_declared_basis(K)
        labels = [prod(pow(g, a, m) for a, (g, _) in zip(coords, basis)) % m for coords in labels]
    return CMType(K, frozenset(labels))


def records(doc: dict) -> list[tuple[str, str, bool]]:
    return [(h["name"], h["kind"], h["holds"]) for h in doc["hypotheses"]]


def check_twist(command: str, payload: dict, doc: dict) -> None:
    k = literal_field(payload["base"])
    comps = [component_type(c) for c in payload["components"]]
    deg_k, w = degree(k), roots_of_unity_count(k)
    counts = coset_mul_restriction_multiplicities(k, comps)
    res = doc["results"]
    assert (res["base"]["degree"], res["base"]["roots_of_unity"]) == (deg_k, w)
    assert res["multiplicities"] == [
        {"coset": sorted(coset_of(k.conductor, k.fixed_group, s)), "n": n}
        for s, n in counts.items()]
    r, rem = divmod(sum(degree(T.field) for T in comps), deg_k)
    assert rem == 0 and res["weil_r"] == r
    balanced = coset_mul_is_weil_type(k, comps)
    assume = payload.get("assume", {})
    twist = res["twist"]
    if command == "twist-x":
        n = payload["character"]["order"]
        label = payload["character"].get("label", "M")
        t = gcd(n, 2 * r)
        mu = gcd(t, w)
        assert (twist["t"], twist["mu_bound"]) == (t, mu)
        checked = [("c takes values in k^x", w % n == 0), ("r is even", r % 2 == 0),
                   ("n does not divide r", r % n != 0), (WEIL, balanced)]
    else:
        label = payload.get("label", "M")
        t, rem = divmod(payload["dim_x"], payload["dim_y"])
        assert twist["t"] == t
        checked = [("[k:Q] = 2 dim(Y)", deg_k == 2 * payload["dim_y"]),
                   ("dim(X) = t dim(Y) for some odd positive integer t", rem == 0 and t % 2 == 1),
                   (WEIL, balanced)]
    expected = [(name, "checked", holds) for name, holds in checked]
    expected += [(name, "assumed", assume.get(flag, True)) for flag, name in ASSUMED[command].items()]
    assert records(doc) == expected
    concluded = all(holds for _, _, holds in expected)
    leading = all(holds for name, _, holds in expected if name != "F_Phi(A) = F")
    assert doc["concluded"] is concluded

    # the theorem's table: two leading rows, then rows resting on every record
    if command == "twist-x":
        rows = [f"F_Phi(B) lies in {label} and "
                f"[{label}:F_Phi(B)] divides gcd(gcd(n, 2r), w(k)) = {mu}"]
        exact = (1, n) if mu == 1 else (2, n // 2) if t == 2 else (None, None)
        if mu == 1:
            rows.append(f"F_Phi(B) = {label} and [F_Phi(B):F] = {n}")
        elif t == 2:
            rows.append(f"[{label}:F_Phi(B)] = 2 and [F_Phi(B):F] = {n // 2}")
        got = twist["conclusions"]
        assert (got["exact_m_over_phiB"], got["phiB_over_F_exact"]) == (
            exact if concluded else (None, None))
        assert (got["exact_m_over_phiB"] == 1) is (concluded and mu == 1)
        lead = ["F = F(End(B))", "F != F_Phi(A) or F != F_Phi(B)"]
    else:
        rows = [f"F_Phi(B) = {label}"]
        lead = ["F = F(End(B))", "F(End(A)) != F_Phi(A) or F(End(B)) != F_Phi(B)"]
    assert doc["statements"] == (lead if leading else []) + (rows if concluded else [])


@pytest.mark.usefixtures("corpus_literals")
def test_twist_reports_follow_from_their_payload():
    jobs = [(c, p) for c, p in command_jobs() + twist_jobs() if c in ASSUMED]
    seen = {"twist-x": [0, 0], "twist-e": [0, 0]}
    for command, payload in jobs:
        code, text = outcome(command, payload)
        if code == 1:
            continue
        doc = json.loads(text)
        assert (doc["command"], doc["payload"]) == (command, payload)
        assert code == (0 if doc["concluded"] else 2)
        check_twist(command, payload, doc)
        seen[command][code // 2] += 1
    # reports by exit 0 and 2: the commands corpus's (its two exit-1 jobs
    # print none) and the twists corpus's
    assert seen == {"twist-x": [2 + 74, 2 + 162], "twist-e": [1 + 16, 1 + 164]}
