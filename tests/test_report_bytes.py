"""Report bytes pinned over fixed corpora of jobs, each report judged.

Each job runs in process through ``validate_input`` and ``run``.  A job
that ends in a report (exit 0 or 2) gives its ``to_json()`` text; one that
ends in exit 1 gives the message ``main`` prints for it.  Each outcome is
judged by ``decode.judge``, which recomputes the report from its payload,
and hashed: the SHA-256 of each corpus's concatenated output is pinned
below, so a change to any report byte or error message, however small,
fails here.  The pinned digests must only change together with a
deliberate change of the report format, recorded in CHANGES.md, and the
judge is the evidence at such a re-pin.  Certificates at more primes are
judged with no digest.

The half-systems are chosen from each field's cosets as
``helpers.coset_rows`` lists them from the conductor and the fixed group,
independently of ``cmtypes``.  Fields of ``cm_fields(40, 8)`` that no
field literal names are sent as ``{"corpus": i}``, a literal this module
adds to ``parse_field_literal``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import product

import pytest
from sympy import nextprime, prevprime, primerange

import cmtwist.cli as cli
from cmtwist.cli import declared_basis
from cmtwist.fields import is_subfield, quadratic
from decode import CORPUS, J_TIMES_E, K_41, PSI_13, TYPE_J, field_dicts, judge, outcome
from helpers import coset_rows


@pytest.fixture
def corpus_literals(monkeypatch):
    parse = cli.parse_field_literal

    def parse_with_corpus(obj, where="field"):
        if isinstance(obj, dict) and set(obj) == {"corpus"}:
            return CORPUS[obj["corpus"]]
        return parse(obj, where)

    monkeypatch.setattr(cli, "parse_field_literal", parse_with_corpus)


def judged(jobs) -> tuple[str, dict[str, int]]:
    """The SHA-256 of the jobs' outcomes, each judged, and a tally: jobs
    per command and exit code, field dicts, and distinct field dicts."""
    h = hashlib.sha256()
    seen: Counter = Counter()
    fields = set()
    for command, payload in jobs:
        code, text = outcome(command, payload)
        doc = judge(command, payload, code, text)
        h.update(f"{command} exit {code}\n".encode())
        h.update(text.encode())
        seen[f"{command} {code}"] += 1
        found = field_dicts(doc) if doc else []
        seen["field dicts"] += len(found)
        fields.update(json.dumps(f, sort_keys=True) for f in found)
    seen["fields"] = len(fields)
    return h.hexdigest(), dict(+seen)


# ---------------------------------------------------------------------------
# Galois elements of a field, recomputed from its conductor and fixed group.

def conjugate_pairs(K) -> list[tuple[list[int], list[int]]]:
    m = K.conductor
    cosets = coset_rows(m, K.fixed_group)
    where = {x: c for c in cosets for x in c}
    pairs, used = [], set()
    for c in cosets:
        if c[0] not in used:
            cc = where[(m - 1) * c[0] % m]
            used.update((c[0], cc[0]))
            pairs.append((c, cc))
    return pairs


def residue_types(K) -> list[list[int]]:
    """Three half-systems as residue labels: least residues of the first of
    each pair, greatest residues of alternating choices, and the second of
    each pair in descending order."""
    pairs = conjugate_pairs(K)
    return [
        [c[0] for c, _ in pairs],
        [pair[i % 2][-1] for i, pair in enumerate(pairs)],
        [cc[0] for _, cc in reversed(pairs)],
    ]


def coordinate_types(K) -> list[list[list[int]]]:
    """Two half-systems as coordinates on the declared basis: the first
    tuple of each conjugate pair in box order, and a mixed choice written
    with the last coordinate shifted by its order."""
    m = K.conductor
    basis = declared_basis(K)
    where = {x: c[0] for c in coset_rows(m, K.fixed_group) for x in c}
    first: dict[int, list[int]] = {}
    for coords in product(*(range(d) for _, d in basis)):
        x = 1
        for a, (g, _) in zip(coords, basis):
            x = x * pow(g, a, m) % m
        first.setdefault(where[x], list(coords))
    plain, mixed, used = [], [], set()
    for i, (rep, coords) in enumerate(first.items()):
        conj = where[(m - 1) * rep % m]
        if rep in used:
            continue
        used.update((rep, conj))
        plain.append(coords)
        pick = list(first[conj] if i % 3 == 1 else coords)
        pick[-1] += basis[-1][1]
        mixed.append(pick)
    return [plain, mixed]


# ---------------------------------------------------------------------------
# Corpora.

def example41_twist(order: int) -> dict:
    return {
        "base": {"quadratic": -3},
        "components": [{
            "field": K_41,
            "type": [[0, 0], [0, 1], [0, 4], [0, 7], [1, 2], [1, 3], [1, 5], [1, 6]],
        }],
        "character": {"order": order},
    }


def command_jobs() -> list[tuple[str, dict]]:
    """Every command at least once, including its exit-1 and exit-2 forms."""
    return [
        ("field", {"field": {"cyclotomic": 51}}),
        ("field", {"field": {"quadratic": -7}}),
        ("field", {"field": {"real_subfield_of": 17}}),
        ("field", {"field": {"compositum": [{"quadratic": -3}, {"quadratic": 5},
                                            {"cyclotomic": 7}]}}),
        ("field", {"field": {"quadratic": 12}}),
        ("cmtype", TYPE_J),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2, 4]}),
        ("twist-x", example41_twist(3)),
        ("twist-x", example41_twist(6)),
        ("twist-x", example41_twist(2)),
        ("twist-x", example41_twist(1)),
        ("twist-x", {**example41_twist(3),
                     "assume": {"end_field_equal": False, "base_central": True}}),
        ("twist-e", J_TIMES_E),
        ("twist-e", {"base": {"quadratic": -7}, "components": J_TIMES_E["components"],
                     "dim_x": 3, "dim_y": 1, "assume": {"phi_base_equal": False}}),
        ("twist-e", {"base": {"quadratic": -7}, "components": [TYPE_J], "dim_x": 3, "dim_y": 1}),
        ("discond", {"n": 6, "d": 2}),
        ("discond", {"n": 6, "d": 4}),
        ("inertia", {"p": 3}),
        ("inertia", {"p": 2}),
        ("inertia", {"p": 15}),
        ("base-cert", {"p": 3, "q": 17}),
        ("base-cert", {"p": 3, "q": 2}),
        ("example-41", {}),
        ("example-42", {}),
        ("example-42", {"p": 17, "q": 31}),
        ("example-42", {"p": 3, "q": 2}),
    ]


def cmtype_jobs() -> list[tuple[str, dict]]:
    """Residue- and coordinate-labelled types on every field of the corpus,
    then malformed half-systems."""
    jobs = []
    for i, K in enumerate(CORPUS):
        for labels in residue_types(K) + coordinate_types(K):
            jobs.append(("cmtype", {"field": {"corpus": i}, "type": labels}))
    jobs += [
        ("cmtype", {"field": K_41, "type": [16, 2, 4, 5, 7, 8, 11, 47]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2]}),
        ("cmtype", {"field": {"cyclotomic": 21}, "type": [1, 2, 3, 4, 5, 8]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2, 10]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [0, 2, 3]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [-1, 2, 3]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [[0], [1, 2], [2]]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [[0], 1, [2]]}),
        ("cmtype", {"field": {"real_subfield_of": 13}, "type": [1, 2, 3]}),
    ]
    return jobs


def twist_jobs() -> list[tuple[str, dict]]:
    """twist-x and twist-e data over imaginary quadratic bases: twist-x on
    one component alone and on a component with its conjugate type,
    twist-e on one component with either elliptic type of the base."""
    jobs = []
    for d, orders in ((-3, (3, 6)), (-1, (4,)), (-7, (2,)), (-2, (2,))):
        k = quadratic(d)
        base = {"quadratic": d}
        (c, cc), = conjugate_pairs(k)
        elliptic = (c[0], cc[0])
        for i, K in enumerate(CORPUS):
            if not is_subfield(k, K):
                continue
            m = K.conductor
            for labels in residue_types(K)[:2]:
                conj = [(m - 1) * x % m for x in labels]
                one = [{"field": {"corpus": i}, "type": labels}]
                paired = one + [{"field": {"corpus": i}, "type": conj}]
                for n in orders:
                    for comps in (one, paired):
                        jobs.append(("twist-x", {"base": base, "components": comps,
                                                 "character": {"order": n}}))
                for e in elliptic:
                    jobs.append(("twist-e", {
                        "base": base,
                        "components": one + [{"field": base, "type": [e]}],
                        "dim_x": K.degree // 2, "dim_y": 1,
                    }))
    return jobs


def rationals_jobs() -> list[tuple[str, dict]]:
    """The rationals, conductor 1, as every literal that names them, as one
    factor of a compositum on either side, and as a field or base that is
    not CM."""
    Q = {"cyclotomic": 1}
    jobs = [("field", {"field": {"cyclotomic": m}}) for m in (1, 2)]
    jobs += [("field", {"field": {"real_subfield_of": m}}) for m in (1, 3, 4, 6)]
    for other in ({"quadratic": -3}, {"cyclotomic": 7}):
        jobs += [("field", {"field": {"compositum": [Q, other]}}),
                 ("field", {"field": {"compositum": [other, Q]}})]
    seven = [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]}]
    jobs += [
        ("cmtype", {"field": Q, "type": [0]}),
        ("twist-x", {"base": Q, "components": seven, "character": {"order": 2}}),
        ("twist-e", {"base": Q, "components": seven, "dim_x": 3, "dim_y": 1}),
    ]
    return jobs


# corpus: (SHA-256 of its output, a tally of its jobs by command and exit
# code, with the field dicts of its reports and how many are distinct).
# Over the four corpora, 332 reports hold a false record (exit 2), and
# 1,030 field dicts name 63 distinct fields.
PINNED = {
    "commands": ("85406c3ea96c5b4a9af00560e68388c2dc755a0185c5413f7a52ea13ddc5c604", {
        "field 0": 4, "field 1": 1, "cmtype 0": 2, "twist-x 0": 2, "twist-x 1": 1,
        "twist-x 2": 2, "twist-e 0": 1, "twist-e 1": 1, "twist-e 2": 1, "discond 0": 1,
        "discond 1": 1, "inertia 0": 1, "inertia 1": 1, "inertia 2": 1, "base-cert 0": 1,
        "base-cert 2": 1, "example-41 0": 1, "example-42 0": 2, "example-42 2": 1,
        "field dicts": 14, "fields": 6}),
    "cmtype": ("5c831a5bdcf92f4d7a0bb2620465823ba0ffd7c629179518bc8e6092a17d5a58", {
        "cmtype 0": 295, "cmtype 1": 9, "field dicts": 590, "fields": 59}),
    "twists": ("e815a43d0160c95ec1051c1f1b266c7058cb66d5ff73ab603d73837e42480a78", {
        "twist-x 0": 74, "twist-x 2": 162, "twist-e 0": 16, "twist-e 2": 164,
        "field dicts": 416, "fields": 4}),
    "rationals": ("9149f6fda8cf9c9f674eb6fd844bbcb018fc19e7069534ca289c23a5500bec77", {
        "field 0": 10, "cmtype 1": 1, "twist-x 1": 1, "twist-e 1": 1,
        "field dicts": 10, "fields": 3}),
}


@pytest.mark.usefixtures("corpus_literals")
@pytest.mark.parametrize("name, jobs", [
    ("commands", command_jobs),
    ("cmtype", cmtype_jobs),
    ("twists", twist_jobs),
    ("rationals", rationals_jobs),
])
def test_report_bytes_are_pinned(name, jobs):
    assert judged(jobs()) == PINNED[name]


def test_certificates_at_more_primes_are_judged():
    # every prime below 2,000 but the ramified 7, the primes next to psi_13,
    # and pairs of them, or of two primes near 10^30, through base-cert and
    # example-42; judged, with no digest
    below, above = prevprime(PSI_13), nextprime(PSI_13)
    jobs = [("inertia", {"p": p}) for p in [*primerange(2, 2000), below, above] if p != 7]
    for p, q in ((below, above), (above, 17), (10**30 + 709, 10**30 + 751)):
        jobs += [("base-cert", {"p": p, "q": q}), ("example-42", {"p": p, "q": q})]
    assert judged(jobs)[1] == {"inertia 0": 54, "inertia 2": 250, "base-cert 0": 1,
                               "base-cert 2": 2, "example-42 0": 1, "example-42 2": 2}
