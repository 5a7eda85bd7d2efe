"""One reader for every report: ``judge`` decodes the outcome of a job and
checks it against numbers recomputed from the payload alone.

An outcome is the exit code of a job and the bytes ``main`` prints for it
(``outcome``).  ``judge`` decodes the text, then checks what every report
shares: the command and payload are echoed, ``concluded`` is true exactly
at exit 0, a record with ``holds: false`` appears exactly at exit 2, no
``pass`` or ``witness`` key appears, and every field dict is right
(``field_of``).  Then it runs the command's own checks:

- a field dict: the fixed group is closed (``subgroup``), the conductor is
  the least one (``divisor_scan_field``), the degree is phi(m)/|H|,
  ``is_cm`` holds exactly when the degree exceeds 1 and complex
  conjugation m - 1 lies outside H, and w(K) is a brute-force count;
- ``field``: the invariant factors give the element-order histogram of
  (Z/m)^x/H;
- ``cmtype``: the payload's half-system as sorted cosets, the stabilizer
  of ``scan_stabilizer``, its fixed field as the reflex field, both reflex
  types (the images of psi^-1 and of c psi), and "primitive" exactly when
  the stabilizer is H;
- ``twist-x`` and ``twist-e``: each fiber of the restriction to the base
  k, r = sum [K_i:Q] / [k:Q], t, w(k) and gcd(t, w(k)); each checked
  record holds exactly when those numbers say, each assumed record is the
  payload's flag, and the statements are the rows of the theorem that
  stand;
- ``inertia`` and ``base-cert``: the arithmetic at each prime redone with
  ``pow`` and ``gcd``, a checked record per prime that holds exactly when
  p = 3 (mod 7), and an assumed probable-prime record exactly when p is at
  least psi_13, below which primality is proven;
- ``discond``: (n/d) d = n, the layers Z/(n/d) and Z/d, no records and no
  statements, and exit 1 exactly when d < 1, n < 1 or d does not divide n;
- ``example-41`` and ``example-42``: each result is the value at its path
  in a sub-job's report, which is judged in turn, and each checked record
  holds exactly when its value is the paper's claim.

A change of report bytes, and the re-pin of their digests, is judged here.
pytest collects no test from this module; ``test_report_bytes`` calls it.
"""

from __future__ import annotations

import json
from functools import partial, reduce
from math import gcd, prod
from operator import getitem

from cmtwist.cli import InputError, run, validate_input
from cmtwist.cmtypes import CMType
from helpers import (
    abstract_order_histogram,
    cm_fields,
    coset_mul_is_weil_type,
    coset_mul_restriction_multiplicities,
    coset_rows,
    divisor_scan_field,
    fixes_conjugation,
    kronecker_scan_quadratic_kernel,
    lift_compositum,
    quotient_order_histogram,
    scan_stabilizer,
    subgroup,
    swap_loop_declared_basis,
)

# the fields a payload may name as {"corpus": i}, a literal that
# test_report_bytes adds to parse_field_literal
CORPUS = cm_fields(40, 8)

REPORT_KEYS = {"command", "payload", "results", "statements", "hypotheses", "concluded", "version"}
FIELD_KEYS = {"conductor", "fixed_group", "degree", "is_cm", "roots_of_unity"}
CMTYPE_KEYS = {"field", "type", "stabilizer", "reflex_field",
               "reflex_type_inverse", "reflex_type_conjugate"}
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
CLASS_NUMBER, GOOD_REDUCTION = "class number 1", "good reduction outside 7"
BASE_CONCLUSION = "K_Phi(A) = K = Q_Phi(A)"
# the least strong pseudoprime to the first 13 prime bases: below it
# Miller-Rabin to those bases, or Baillie-PSW below 2^64, proves primality
PSI_13 = 3317044064679887385961981


def outcome(command: str, payload: dict) -> tuple[int, str]:
    """(exit code, bytes main would print) for one job."""
    try:
        report = run(validate_input({"command": command, "payload": payload}))
    except InputError as exc:
        return 1, f"input error: {exc}\n"
    return (0 if report.concluded else 2), report.to_json()


def judge(command: str, payload: dict, code: int, text: str) -> dict | None:
    """Check one job's outcome; the decoded report, or None at exit 1."""
    if code == 1:
        assert text.startswith("input error: ") and text.endswith("\n"), text
        assert command != "discond" or not divides(payload), payload
        return None
    doc = json.loads(text)
    assert set(doc) == REPORT_KEYS and (doc["command"], doc["payload"]) == (command, payload)
    assert doc["concluded"] is (code == 0), (command, payload)
    objects = list(dicts(doc))
    assert not {"pass", "witness"} & {key for d in objects for key in d}, (command, payload)
    assert any(d.get("holds") is False for d in objects) is (code == 2), (command, payload)
    for f in field_dicts(doc):
        field_of(f)
    CHECKS[command](payload, doc)
    return doc


def dicts(value):
    """Every object inside a report value, each before the ones it holds."""
    if isinstance(value, list):
        for v in value:
            yield from dicts(v)
    elif isinstance(value, dict):
        yield value
        for v in value.values():
            yield from dicts(v)


def field_dicts(doc: dict) -> list[dict]:
    """Every field dict inside a report's results: the objects with a conductor."""
    return [d for d in dicts(doc["results"]) if "conductor" in d]


def records(doc: dict) -> list[tuple[str, str, bool]]:
    return [(h["name"], h["kind"], h["holds"]) for h in doc["hypotheses"]]


# ---------------------------------------------------------------------------
# Fields and CM-types.

_FIELDS: dict[str, object] = {}


def field_of(f: dict):
    """The field a report's field dict names, after checking every value of
    it; each distinct dict is checked once."""
    key = json.dumps(f, sort_keys=True)
    if key not in _FIELDS:
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
        _FIELDS[key] = K
    return _FIELDS[key]


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


def is_half_system(m: int, H: frozenset[int], rows: list[list[int]]) -> bool:
    units = sum(gcd(x, m) == 1 for x in range(m))
    chosen = {x for row in rows for x in row}
    return (2 * len(rows) * len(H) == units
            and not any((m - 1) * x % m in chosen for x in chosen))


def check_field(payload: dict, doc: dict) -> None:
    res = doc["results"]
    assert set(res) == {"field", "invariant_factors"} and doc["hypotheses"] == []
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


def check_cmtype(payload: dict, doc: dict) -> None:
    res = doc["results"]
    coordinates = isinstance(payload["type"][0], list)
    assert set(res) == CMTYPE_KEYS | ({"coordinate_basis"} if coordinates else set())
    assert doc["hypotheses"] == []
    K, reflex = field_of(res["field"]), field_of(res["reflex_field"])
    T = component_type(payload)
    assert T.field == K
    m, H = K.conductor, K.fixed_group
    rows = coset_rows(m, H, T.psi)
    assert res["type"] == rows and is_half_system(m, H, rows)
    stab = scan_stabilizer(CMType(K, frozenset(row[0] for row in rows)))
    assert res["stabilizer"] == sorted(stab)
    assert reflex == divisor_scan_field(m, stab)
    psi = [x for row in rows for x in row]
    m_r, H_r = reflex.conductor, reflex.fixed_group
    inverse = coset_rows(m_r, H_r, (pow(x, -1, m) for x in psi))
    conjugate = coset_rows(m_r, H_r, ((m - 1) * x for x in psi))
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


# ---------------------------------------------------------------------------
# Twists.

def check_twist(command: str, payload: dict, doc: dict) -> None:
    k = literal_field(payload["base"])
    comps = [component_type(c) for c in payload["components"]]
    deg_k, w = degree(k), roots_of_unity_count(k)
    counts = coset_mul_restriction_multiplicities(k, comps)
    res = doc["results"]
    assert (res["base"]["degree"], res["base"]["roots_of_unity"]) == (deg_k, w)
    assert res["multiplicities"] == [
        {"coset": coset_rows(k.conductor, k.fixed_group, [s])[0], "n": n}
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


# ---------------------------------------------------------------------------
# Certificates and the layer split.

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


def assumed(*names: str, **primes: int) -> list[tuple[str, str, bool]]:
    """The assumed records of the names, then the probable-prime records of
    the primes at or above psi_13."""
    names += tuple(f"{key} is prime (strong Baillie-PSW probable prime)"
                   for key, n in primes.items() if n >= PSI_13)
    return [(name, "assumed", True) for name in names]


def certified(cert: dict, p: int) -> bool:
    """Check the certificate section of the prime p; whether p = 3 (mod 7)."""
    order = cert["inertia_order"]
    congruent = p % 7 == 3
    assert cert == {"p": p, "inertia_order": order,
                    "conclusion": "K' = K" if congruent else None}, p
    assert (order * (p * p + p + 1) == p**6 - 1) if congruent else order is None, p
    return congruent


def check_inertia(payload: dict, doc: dict) -> None:
    p = payload["p"]
    congruent = certified(doc["results"]["certificate"], p)
    assert set(doc["results"]) == {"certificate"}
    assert records(doc) == [("p = 3 (mod 7)", "checked", congruent), *assumed(CLASS_NUMBER, p=p)], p
    assert doc["statements"] == (witnesses(p) if congruent else []), p


def check_base_cert(payload: dict, doc: dict) -> None:
    p, q = payload["p"], payload["q"]
    cert = doc["results"]["certificate"]
    at_p, at_q = certified(cert["certificate_p"], p), certified(cert["certificate_q"], q)
    both = at_p and at_q
    assert set(doc["results"]) == {"certificate"} and len(cert) == 3
    assert cert["conclusion"] == (BASE_CONCLUSION if both else None)
    assert records(doc) == [(f"K' = K at p = {p}", "checked", at_p),
                            (f"K' = K at q = {q}", "checked", at_q),
                            *assumed(CLASS_NUMBER, GOOD_REDUCTION, p=p, q=q)]
    assert doc["statements"] == ([
        "K_Phi(A) lies in K(A_n) for every n >= 3",
        "K(A_p) intersect K(A_q) is unramified over K away from 7",
        "no intermediate field survives the inertia bound at either prime",
    ] if both else [])


def divides(payload: dict) -> bool:
    """Whether discond's d is a positive divisor of a positive n."""
    n, d = payload["n"], payload["d"]
    return n >= 1 and d >= 1 and n % d == 0


def check_discond(payload: dict, doc: dict) -> None:
    n, d = payload["n"], payload["d"]
    # the layers Gal(F_Phi(B)/F) and Gal(M/F_Phi(B)), of orders n/d and d
    assert divides(payload) and (n // d) * d == n
    layers = {"gal_phiB_over_F": f"Z/{n // d}", "gal_M_over_phiB": f"Z/{d}"}
    assert doc["results"] == {"discond": layers}
    assert doc["hypotheses"] == doc["statements"] == []


# ---------------------------------------------------------------------------
# The worked examples: each result read from a sub-job, each claim the paper's.

K_41 = {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}
TYPE_41 = {"field": K_41, "type": [1, 5, 13, 26, 28, 32, 37, 44]}
TWIST_41 = {"base": {"quadratic": -3}, "components": [TYPE_41], "character": {"order": 3}}
TYPE_J = {"field": {"cyclotomic": 7}, "type": [1, 2, 3]}
J_ALONE = {"base": {"quadratic": -7}, "components": [TYPE_J], "character": {"order": 2}}
J_TIMES_E = {"base": {"quadratic": -7},
             "components": [TYPE_J, {"field": {"quadratic": -7}, "type": [3]}],
             "dim_x": 3, "dim_y": 1, "label": "L_d"}


def example_jobs(command: str, payload: dict) -> dict[str, dict]:
    """An example's sub-jobs: command -> payload."""
    if command == "example-41":
        return {"field": {"field": K_41}, "cmtype": TYPE_41, "twist-x": TWIST_41}
    return {"base-cert": {"p": payload.get("p", 3), "q": payload.get("q", 17)},
            "cmtype": TYPE_J, "twist-x": J_ALONE, "twist-e": J_TIMES_E}


# an example's result key -> (the sub-job it is read from, its path there)
READS = {
    "invariant_factors": ("field", "results.invariant_factors"),
    "reflex_degree": ("cmtype", "results.reflex_field.degree"),
    "n_sigma": ("twist-x", "results.multiplicities"),
    "weil_r": ("twist-x", "results.weil_r"),
    "phiB_over_F": ("twist-x", "results.twist.conclusions.phiB_over_F_exact"),
    "base_certificate": ("base-cert", "results.certificate"),
    "reflex_degree_J": ("cmtype", "results.reflex_field.degree"),
    "n_sigma_J": ("twist-x", "results.multiplicities"),
    "n_sigma_product": ("twist-e", "results.multiplicities"),
    "product_concluded": ("twist-e", "concluded"),
}


def at(path: str, value):
    """The value at a dotted path of keys."""
    return reduce(getitem, path.split("."), value)


def n_sigma(*rows) -> list[dict]:
    return [{"coset": coset, "n": n} for coset, n in rows]


# example -> its checked records, each (name, path in the results, the
# paper's value), its own assumptions, and its conclusions
EXAMPLES = {
    "example-41": (
        [("Gal(K/Q) = Z/2 x Z/8", "invariant_factors", [2, 8]),
         ("Phi is primitive", "reflex_degree", 16),
         ("the reflex field of Phi is K", "reflex_degree", 16),
         ("n_sigma = 4 for both embeddings of k", "n_sigma", n_sigma(([1], 4), ([2], 4))),
         ("r = 8", "weil_r", 8),
         ("[F_Phi(B):F] = 3", "phiB_over_F", 3)],
        ("End(A) is the full ring of integers of K", *ASSUMED["twist-x"].values()),
        ["F_Phi(B) = M, [F_Phi(B):F] = 3"],
    ),
    "example-42": (
        [("the reflex CM-field of the CM-type of J is K", "reflex_degree_J", 6),
         ("restriction multiplicities of J alone are (2, 1)", "n_sigma_J",
          n_sigma(([1, 2, 4], 2), ([3, 5, 6], 1))),
         ("appending the conjugate elliptic type balances them to (2, 2)", "n_sigma_product",
          n_sigma(([1, 2, 4], 2), ([3, 5, 6], 2))),
         ("the twist of E by d gives F_Phi(J x E^(d)) = L_d", "product_concluded", True),
         ("the base certificate gives K_Phi(A) = K = Q_Phi(A)", "base_certificate.conclusion",
          BASE_CONCLUSION)],
        (CLASS_NUMBER, GOOD_REDUCTION, "Hom(J,E^(d)) = 0", "endomorphism-field identities"),
        ["K_Phi(A) = K", "Q_Phi(A^(d)) = L_d"],
    ),
}


def check_example(command: str, payload: dict, doc: dict) -> None:
    res = doc["results"]
    claims, names, conclusions = EXAMPLES[command]
    # every value the example reads is one that a claim is about
    assert set(res) == {"conclusions", *(path.split(".")[0] for _, path, _ in claims)}
    jobs = example_jobs(command, payload)
    reports = {sub: judge(sub, p, *outcome(sub, p)) for sub, p in jobs.items()}
    for key in res.keys() - {"conclusions"}:
        sub, path = READS[key]
        assert res[key] == at(path, reports[sub]), key
    checked = [(name, "checked", at(path, res) == claim) for name, path, claim in claims]
    # the base certificate's probable-prime records are carried over
    assert records(doc) == checked + assumed(*names, **jobs.get("base-cert", {}))
    concluded = all(holds for _, _, holds in checked)
    assert doc["statements"] == res["conclusions"] == (conclusions if concluded else [])


CHECKS = {
    "field": check_field,
    "cmtype": check_cmtype,
    "twist-x": partial(check_twist, "twist-x"),
    "twist-e": partial(check_twist, "twist-e"),
    "discond": check_discond,
    "inertia": check_inertia,
    "base-cert": check_base_cert,
    "example-41": partial(check_example, "example-41"),
    "example-42": partial(check_example, "example-42"),
}
