"""Field and CM-type reports decoded and checked against numbers recomputed
from the report and its payload.

Every report (exit 0 or 2) of the four pinned corpora of
``test_report_bytes`` is decoded from its JSON text, and every field dict
inside its ``results`` is checked with the oracles of ``helpers`` alone:
the fixed group is closed (``subgroup``), the conductor is the least one
(``divisor_scan_field``), the degree is phi(m)/|H|, ``is_cm`` holds
exactly when the degree exceeds 1 and complex conjugation m - 1 lies
outside H, and w(K) is a brute-force count of the roots of unity.  A
``field`` report's invariant factors must give the element-order
histogram of (Z/m)^x/H.  A ``cmtype`` report must hold the payload's
half-system as sorted cosets, the stabilizer of ``scan_stabilizer``,
``primitive`` exactly when that stabilizer is H, its fixed field as the
reflex field, and both reflex types as recomputed here: the image in the
reflex field of psi^-1 and of the conjugate c psi.  A change of field or
CM-type report bytes, and the re-pin of their digests, is judged by this
test.
"""

from __future__ import annotations

import json
from math import gcd

import pytest

from cmtwist.cmtypes import CMType
from helpers import (
    abstract_order_histogram,
    coset_of,
    divisor_scan_field,
    fixes_conjugation,
    quotient_order_histogram,
    scan_stabilizer,
    subgroup,
    swap_loop_declared_basis,
)
from test_report_bytes import (  # noqa: F401
    cmtype_jobs,
    command_jobs,
    corpus_literals,
    outcome,
    rationals_jobs,
    twist_jobs,
)
from test_twist_reports import component_type, degree, literal_field, roots_of_unity_count

FIELD_KEYS = {"conductor", "fixed_group", "degree", "is_cm", "roots_of_unity"}
CMTYPE_KEYS = {"field", "type", "stabilizer", "primitive", "reflex_field",
               "reflex_type_inverse", "reflex_type_conjugate"}


def field_dicts(value) -> list[dict]:
    """Every field dict inside a report value: the dicts with a conductor."""
    if isinstance(value, list):
        return [d for v in value for d in field_dicts(v)]
    if isinstance(value, dict):
        own = [value] if "conductor" in value else []
        return own + [d for v in value.values() for d in field_dicts(v)]
    return []


def check_field_dict(f: dict):
    """The field a report's field dict names, after checking every value of it."""
    assert set(f) == FIELD_KEYS, f
    m, listed = f["conductor"], f["fixed_group"]
    # Q's fixed group {0} is written as []
    assert listed == sorted(set(listed)) and (listed == []) is (m == 1), f
    H = subgroup(m, listed or [0])
    K = divisor_scan_field(m, H)
    assert (K.conductor, K.fixed_group) == (m, H), f
    assert f["degree"] == degree(K), f
    assert f["is_cm"] is (f["degree"] > 1 and not fixes_conjugation(K)), f
    assert f["roots_of_unity"] == roots_of_unity_count(K), f
    return K


def as_rows(m: int, H: frozenset[int], residues) -> list[list[int]]:
    """The cosets of H that the residues meet, each sorted, by least residue."""
    return sorted(sorted(c) for c in {coset_of(m, H, x % m) for x in residues})


def is_half_system(m: int, H: frozenset[int], rows: list[list[int]]) -> bool:
    units = sum(gcd(x, m) == 1 for x in range(m))
    chosen = {x for row in rows for x in row}
    return (2 * len(rows) * len(H) == units
            and not any((m - 1) * x % m in chosen for x in chosen))


def check_field_report(payload: dict, doc: dict, field_of) -> None:
    res = doc["results"]
    assert set(res) == {"field", "invariant_factors"}
    K = field_of(res["field"])
    assert K == literal_field(payload["field"])
    factors = res["invariant_factors"]
    assert all(d > 1 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert abstract_order_histogram(factors) == quotient_order_histogram(K.conductor, K.fixed_group)
    kind = "CM" if res["field"]["is_cm"] else "totally real"
    assert doc["statements"] == [
        f"conductor {K.conductor}, degree {res['field']['degree']}, {kind}",
        "Gal = " + (" x ".join(f"Z/{d}" for d in factors) or "trivial"),
    ]


def check_cmtype_report(payload: dict, doc: dict, field_of) -> None:
    res = doc["results"]
    coordinates = isinstance(payload["type"][0], list)
    assert set(res) == CMTYPE_KEYS | ({"coordinate_basis"} if coordinates else set())
    K, reflex = field_of(res["field"]), field_of(res["reflex_field"])
    T = component_type(payload)
    assert T.field == K
    m, H = K.conductor, K.fixed_group
    rows = as_rows(m, H, T.psi)
    assert res["type"] == rows and is_half_system(m, H, rows)
    stab = scan_stabilizer(CMType(K, frozenset(row[0] for row in rows)))
    assert res["stabilizer"] == sorted(stab)
    assert res["primitive"] is (stab == H)
    assert reflex == divisor_scan_field(m, stab)
    psi = [x for row in rows for x in row]
    m_r, H_r = reflex.conductor, reflex.fixed_group
    inverse = as_rows(m_r, H_r, (pow(x, -1, m) for x in psi))
    conjugate = as_rows(m_r, H_r, ((m - 1) * x for x in psi))
    assert (res["reflex_type_inverse"], res["reflex_type_conjugate"]) == (inverse, conjugate)
    assert is_half_system(m_r, H_r, inverse) and is_half_system(m_r, H_r, conjugate)
    statements = [
        f"valid CM-type, {'primitive' if stab == H else 'induced'}",
        f"reflex field has conductor {m_r} and degree {degree(reflex)}",
    ]
    if coordinates:
        basis = swap_loop_declared_basis(K)
        assert res["coordinate_basis"] == [{"generator": g, "order": d} for g, d in basis]
        statements.insert(0, "coordinate basis: " + ", ".join(
            f"generator {g} of order {d}" for g, d in basis))
    assert doc["statements"] == statements


@pytest.mark.usefixtures("corpus_literals")
def test_field_and_cmtype_reports_follow_from_their_payload():
    checked: dict[str, object] = {}

    def field_of(f: dict):
        key = json.dumps(f, sort_keys=True)
        if key not in checked:
            checked[key] = check_field_dict(f)
        return checked[key]

    seen = {"field dicts": 0, "field": 0, "cmtype": 0}
    for command, payload in command_jobs() + cmtype_jobs() + twist_jobs() + rationals_jobs():
        code, text = outcome(command, payload)
        if code == 1:
            continue
        doc = json.loads(text)
        assert (doc["command"], doc["payload"]) == (command, payload)
        found = field_dicts(doc["results"])
        for f in found:
            field_of(f)
        seen["field dicts"] += len(found)
        if command in ("field", "cmtype"):
            assert code == 0 and doc["concluded"] is True and doc["hypotheses"] == []
            seen[command] += 1
            check = check_field_report if command == "field" else check_cmtype_report
            check(payload, doc, field_of)
    # 14 field reports (4 + 10) and 297 cmtype reports (2 + 295), whose
    # field dicts, with each twist report's base, name 63 distinct fields
    assert (seen, len(checked)) == ({"field dicts": 1030, "field": 14, "cmtype": 297}, 63)
