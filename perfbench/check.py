"""Judge one job's outcome against what the generator knows.

Nothing here imports ``cmtwist``: the arithmetic is recomputed with
``arith``.  ``check_job`` returns a list of problems; empty means verified.
"""

from __future__ import annotations

import json

from arith import phi


def check_job(expect: dict, doc: dict, outcome: str, text: str) -> list[str]:
    if outcome != str(expect["exit"]):
        return [f"outcome {outcome}, expected exit {expect['exit']}: {text[:200]}"]
    if outcome == "1" or text.startswith("hypothesis failure: "):
        return []
    report = json.loads(text)
    problems = []
    if report.get("command") != doc["command"] or report.get("payload") != doc["payload"]:
        problems.append("report does not echo the job")
    if report.get("concluded") is not (outcome == "0"):
        problems.append("concluded disagrees with the exit code")
    try:
        problems += CHECKS[expect["check"]](expect, report["results"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _field(expect: dict, field: dict) -> list[str]:
    out = []
    m, fixed = field["conductor"], field["fixed_group"]
    if m != expect["conductor"] or field["degree"] != expect["degree"]:
        out.append(f"conductor/degree {m}/{field['degree']}, expected "
                   f"{expect['conductor']}/{expect['degree']}")
    if field["degree"] * max(len(fixed), 1) != phi(m):
        out.append("degree != phi(conductor)/|fixed group|")
    return out


def _check_field(expect: dict, res: dict) -> list[str]:
    out = _field(expect, res["field"])
    if res["field"]["is_cm"] is not expect["is_cm"]:
        out.append("is_cm is wrong")
    factors = res["invariant_factors"]
    prod = 1
    for i, d in enumerate(factors):
        prod *= d
        if d < 2 or (i and d % factors[i - 1]):
            out.append(f"invariant factors {factors} are not a divisibility chain")
    if prod != res["field"]["degree"]:
        out.append(f"invariant factors {factors} do not multiply to the degree")
    return out


def _check_cmtype(expect: dict, res: dict) -> list[str]:
    out = _field(expect, res["field"])
    m, degree = expect["conductor"], expect["degree"]
    cosets = [frozenset(c) for c in res["type"]]
    members = set().union(*cosets)
    if len(cosets) != degree // 2 or len(members) != len(cosets) * expect["fixed_order"]:
        out.append("type is not degree/2 disjoint cosets of the fixed group")
    if any(frozenset(m - x for x in c) in cosets for c in cosets):
        out.append("type holds a conjugate pair")
    fixed, stab = set(res["field"]["fixed_group"]), set(res["stabilizer"])
    if not fixed <= stab or phi(m) % len(stab):
        out.append("stabilizer does not contain the fixed group")
    refl = res["reflex_field"]["degree"]
    if refl * len(stab) != degree * len(fixed):
        out.append("reflex degree != [Gal : stabilizer]")
    if len(res["reflex_type_inverse"]) * 2 != refl or len(res["reflex_type_conjugate"]) * 2 != refl:
        out.append("reflex types are not half-systems")
    labels = expect["labels"]
    if expect["coords"]:
        basis = [(b["generator"], b["order"]) for b in res["coordinate_basis"]]
        orders = 1
        for _, d in basis:
            orders *= d
        if orders != degree:
            out.append("coordinate basis orders do not multiply to the degree")
        labels = []
        for coords in expect["labels"]:
            x = 1
            for a, (g, _) in zip(coords, basis):
                x = x * pow(g, a, m) % m
            labels.append(x)
    if not all(x in members for x in labels):
        out.append("type does not hold every label")
    return out


def _check_twist(expect: dict, res: dict) -> list[str]:
    out = []
    if sum(e["n"] for e in res["multiplicities"]) != expect["dim"]:
        out.append("n_sigma does not sum to the dimension")
    if res["weil_r"] != expect["r"]:
        out.append(f"weil_r {res['weil_r']}, expected {expect['r']}")
    return out


def _certificate(p: int, cert: dict) -> list[str]:
    out = []
    if cert["p"] != p:
        out.append("certificate for the wrong prime")
    if p % 7 == 3:
        if cert["inertia_order"] * (p * p + p + 1) != p**6 - 1:
            out.append("inertia_order * (p^2+p+1) != p^6 - 1")
    elif cert["inertia_order"] is not None:
        out.append("inertia order given without the congruence")
    if (cert["conclusion"] is not None) is not (p % 7 == 3):
        out.append("conclusion present iff p = 3 (mod 7) fails")
    return out


def _check_inertia(expect: dict, res: dict) -> list[str]:
    return _certificate(expect["p"], res["certificate"])


def _base(p: int, q: int, cert: dict) -> list[str]:
    out = _certificate(p, cert["certificate_p"]) + _certificate(q, cert["certificate_q"])
    if (cert["conclusion"] is not None) is not (p % 7 == 3 and q % 7 == 3):
        out.append("base conclusion present iff both primes = 3 (mod 7) fails")
    return out


def _check_base_cert(expect: dict, res: dict) -> list[str]:
    return _base(expect["p"], expect["q"], res["certificate"])


def _check_discond(expect: dict, res: dict) -> list[str]:
    n, d = expect["n"], expect["d"]
    got = res["discond"]
    if (got["gal_phiB_over_F"], got["gal_M_over_phiB"]) != (f"Z/{n // d}", f"Z/{d}"):
        return ["cyclic layers do not split n = (n/d) * d"]
    return []


def _check_example_41(expect: dict, res: dict) -> list[str]:
    out = []
    if res["invariant_factors"] != [2, 8]:
        out.append("Gal(K/Q) is not Z/2 x Z/8")
    if sum(e["n"] for e in res["n_sigma"]) != 8 or res["weil_r"] != 8:
        out.append("n_sigma does not sum to the dimension 8")
    return out


def _check_example_42(expect: dict, res: dict) -> list[str]:
    p, q = expect["p"], expect["q"]
    out = _base(p, q, res["base_certificate"])
    if sum(e["n"] for e in res["n_sigma_J"]) != 3 or sum(e["n"] for e in res["n_sigma_product"]) != 4:
        out.append("n_sigma does not sum to the dimensions 3 and 4")
    if bool(res["conclusions"]) is not (p % 7 == 3 and q % 7 == 3):
        out.append("conclusions present iff both primes = 3 (mod 7) fails")
    return out


CHECKS = {
    "field": _check_field,
    "cmtype": _check_cmtype,
    "twist": _check_twist,
    "inertia": _check_inertia,
    "base-cert": _check_base_cert,
    "discond": _check_discond,
    "example-41": _check_example_41,
    "example-42": _check_example_42,
}
