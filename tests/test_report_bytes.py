"""Report bytes pinned over a fixed corpus of jobs.

Each job runs in process through ``validate_input`` and ``run``.  A job
that ends in a report contributes its ``to_json()`` text; one that ends
in exit 1 or 2 contributes the message ``main`` prints for it.  The
SHA-256 of each corpus's concatenated output is pinned below, so a change
to any report byte or error message, however small, fails here.  The
pinned digests must only change together with a deliberate change of the
report format, recorded in CHANGES.md.  The same corpora also check that
no report concludes over a hypothesis that does not hold or a failed check.

The half-systems are chosen from each field's cosets computed here from
the conductor and the fixed group, independently of ``cmtypes``.  Fields
of ``cm_fields(40, 8)`` that no field literal names are sent as
``{"corpus": i}``, a literal this module adds to ``parse_field_literal``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import product
from math import gcd

import pytest

import cmtwist.cli as cli
from cmtwist.cli import HypothesisError, InputError, declared_basis, run, validate_input
from cmtwist.fields import is_subfield, quadratic
from helpers import cm_fields


CORPUS = cm_fields(40, 8)


@pytest.fixture
def corpus_literals(monkeypatch):
    parse = cli.parse_field_literal

    def parse_with_corpus(obj, where="field"):
        if isinstance(obj, dict) and set(obj) == {"corpus"}:
            return CORPUS[obj["corpus"]]
        return parse(obj, where)

    monkeypatch.setattr(cli, "parse_field_literal", parse_with_corpus)


def outcome(command: str, payload: dict) -> tuple[int, str]:
    """(exit code, bytes main would print) for one job."""
    try:
        report = run(validate_input({"command": command, "payload": payload}))
    except InputError as exc:
        return 1, f"input error: {exc}\n"
    except HypothesisError as exc:
        return 2, f"hypothesis failure: {exc}\n"
    return (0 if report.concluded else 2), report.to_json()


def digest(jobs) -> tuple[str, dict[int, int]]:
    h = hashlib.sha256()
    exits: Counter = Counter()
    for command, payload in jobs:
        code, text = outcome(command, payload)
        exits[code] += 1
        h.update(f"{command} exit {code}\n".encode())
        h.update(text.encode())
    return h.hexdigest(), dict(sorted(exits.items()))


# ---------------------------------------------------------------------------
# Galois elements of a field, recomputed from its conductor and fixed group.

def coset_lists(K) -> list[list[int]]:
    """Cosets of the fixed group as sorted residue lists, by least residue."""
    m, H = K.conductor, K.fixed_group
    seen: set[int] = set()
    cosets = []
    for x in range(1, m):
        if gcd(x, m) == 1 and x not in seen:
            c = sorted(x * h % m for h in H)
            seen.update(c)
            cosets.append(c)
    return cosets


def conjugate_pairs(K) -> list[tuple[list[int], list[int]]]:
    m = K.conductor
    cosets = coset_lists(K)
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
    where = {x: c[0] for c in coset_lists(K) for x in c}
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
            "field": {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]},
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
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2, 3]}),
        ("cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2, 4]}),
        ("twist-x", example41_twist(3)),
        ("twist-x", example41_twist(6)),
        ("twist-x", example41_twist(2)),
        ("twist-x", example41_twist(1)),
        ("twist-x", {**example41_twist(3),
                     "assume": {"end_field_equal": False, "base_central": True}}),
        ("twist-e", {"base": {"quadratic": -7},
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]},
                                    {"field": {"quadratic": -7}, "type": [3]}],
                     "dim_x": 3, "dim_y": 1, "label": "L_d"}),
        ("twist-e", {"base": {"quadratic": -7},
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]},
                                    {"field": {"quadratic": -7}, "type": [3]}],
                     "dim_x": 3, "dim_y": 1, "assume": {"phi_base_equal": False}}),
        ("twist-e", {"base": {"quadratic": -7},
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]}],
                     "dim_x": 3, "dim_y": 1}),
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
    k51 = {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}
    jobs += [
        ("cmtype", {"field": k51, "type": [16, 2, 4, 5, 7, 8, 11, 47]}),
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


# corpus: (SHA-256 of its output, jobs per exit code)
PINNED = {
    "commands": ("0acf5d9c73d53028ca3a296450778e391e0076320c3eeb8d9b769e7919715c9d",
                 {0: 15, 1: 5, 2: 6}),
    "cmtype": ("c39d856a096381b6aa490a7740ce598d7e818a1f0f5a7a4566c9a92147f311f8",
               {0: 295, 1: 9}),
    "twists": ("6b8efc0d04834af5e276784e5a40198687ca59478e55b16efdb7a1ac254450b5",
               {0: 90, 2: 326}),
    "rationals": ("9878047c321dcb4e04be73e48656928d8c1a69afa75cd04fabbce13ae9b4bfdc",
                  {0: 10, 1: 3}),
}


@pytest.mark.usefixtures("corpus_literals")
@pytest.mark.parametrize("name, jobs", [
    ("commands", command_jobs),
    ("cmtype", cmtype_jobs),
    ("twists", twist_jobs),
    ("rationals", rationals_jobs),
])
def test_report_bytes_are_pinned(name, jobs):
    assert digest(jobs()) == PINNED[name]


def false_records(value) -> int:
    """Hypothesis records with ``holds: false`` and certificate checks with
    ``pass: false`` inside a report value."""
    if isinstance(value, list):
        return sum(false_records(v) for v in value)
    if isinstance(value, dict):
        own = value.get("holds") is False or value.get("pass") is False
        return own + sum(false_records(v) for v in value.values())
    return 0


@pytest.mark.usefixtures("corpus_literals")
def test_no_report_concludes_over_a_false_record():
    # the invariant of the pinned corpora above: a hypothesis that does not
    # hold, or a certificate check that fails, never yields concluded: true
    blocked = 0
    for command, payload in command_jobs() + cmtype_jobs() + twist_jobs() + rationals_jobs():
        code, text = outcome(command, payload)
        if code == 1 or text.startswith("hypothesis failure: "):
            continue
        doc = json.loads(text)
        if false_records([doc["results"], doc["hypotheses"]]):
            blocked += 1
            assert doc["concluded"] is False and code == 2, (command, payload)
    # twist-x, twist-e, inertia, base-cert and example-42 each have one
    assert blocked == 5
