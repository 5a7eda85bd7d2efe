"""Command-line front end and JSON report emitter.

One job per invocation.  Reports are deterministic: identical jobs emit
byte-identical JSON (sorted keys, no timestamps).  Exit codes separate
the three ways a run can end: 0 when every conclusion was reached, 2 when
a hypothesis does not hold (a checked one failed, a certificate check
among them, or an assumed flag is false), 1 for malformed input, a usage
error included.  Exit 2 always comes with a report that names what failed.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache, partial, reduce
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import getitem
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, NamedTuple, Optional

if TYPE_CHECKING:
    # imported for real in _build_parser only, so library callers of run,
    # which parse no command line, never load argparse and its gettext
    import argparse

from . import __version__
from .cmtypes import CMType, WeilDatum, reflex, validate_cm_type, weil_datum, weil_r
from .fields import (
    AbelianField,
    _coset_rows,
    _galois_basis,
    compositum,
    cyclotomic,
    is_cm,
    maximal_real_subfield,
    quadratic,
    roots_of_unity_order,
)
from .inertia import (
    CLASS_NUMBER_ASSUMPTION,
    GOOD_REDUCTION_ASSUMPTION,
    base_certificate,
    kitself_certificate,
)
from .residues import _socle_lines
from .twists import (
    HYP_AUT_VALUED,
    HYP_CENTRAL,
    HYP_END_A,
    HYP_PHI_BASE,
    Conclusion,
    Hypothesis,
    conclude,
    discond_groups,
    twist_e,
    twist_x,
)

class InputError(Exception):
    """Malformed job document; message carries the offending field path."""


class JobSpec(NamedTuple):
    command: str
    payload: dict


class Report(NamedTuple):
    """A job's command and payload, then its :class:`Conclusion`'s fields in order."""

    command: str
    payload: dict
    results: dict
    hypotheses: tuple[Hypothesis, ...]
    statements: tuple[str, ...]
    concluded: bool

    def to_json(self) -> str:
        """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``,
        where doc holds the six fields, each hypothesis as a record
        ``{name, kind, holds}``, and "version".

        The seven keys and the records have a fixed schema, so they are
        written here in sorted order, strings through the C encoder's
        ``encode_basestring_ascii``.  CPython's C encoder serves
        ``json.dumps`` only without ``indent``, so :func:`_emit` writes the
        free-form payload and results.  The pieces are joined once.
        """
        records = ",\n    ".join(
            f'{{\n      "holds": {"true" if h.holds else "false"},\n      "kind": '
            f'{encode_basestring_ascii(h.kind)},\n      "name": {encode_basestring_ascii(h.name)}\n    }}'
            for h in self.hypotheses)
        statements = ",\n    ".join(map(encode_basestring_ascii, self.statements))
        out = ['{\n  "command": ', encode_basestring_ascii(self.command),
               ',\n  "concluded": ', "true" if self.concluded else "false",
               ',\n  "hypotheses": ', f"[\n    {records}\n  ]" if self.hypotheses else "[]",
               ',\n  "payload": ']
        _emit(self.payload, 1, out)
        out.append(',\n  "results": ')
        _emit(self.results, 1, out)
        out += [',\n  "statements": ', f"[\n    {statements}\n  ]" if self.statements else "[]",
                ',\n  "version": ', encode_basestring_ascii(__version__), "\n}\n"]
        return "".join(out)


class _Newlines(dict):
    def __missing__(self, depth: int) -> str:
        self[depth] = text = "\n" + "  " * depth
        return text


_NEWLINES = _Newlines()     # "\n" plus the indent of each depth, made on first use
# Up to this many items the item loop of a flat list is no slower than the
# type scan plus the join.
_JOIN_MIN = 7
_INTS = {int}
_ROWS = {list, tuple}


def _rows_text(rows: list | tuple, depth: int) -> Optional[str]:
    """The JSON text of a list of rows at ``depth``, or None when it is not a
    list of non-empty rows of one width whose cells are all exactly int.

    The text is one row template, ``%d`` per cell, repeated once per row and
    filled with all the cells in one ``%`` operation.
    """
    widths = set(map(len, rows))
    if len(widths) != 1 or not (width := widths.pop()):
        return None
    cells = tuple(chain.from_iterable(rows))
    if set(map(type, cells)) != _INTS:
        return None
    cell, outer = _NEWLINES[depth + 2], _NEWLINES[depth + 1]
    row = "[" + cell + ("%d," + cell) * (width - 1) + "%d" + outer + "]"
    return ("[" + outer + (row + "," + outer) * (len(rows) - 1) + row + _NEWLINES[depth] + "]") % cells


def _emit(obj: Any, depth: int, out: list[str]) -> None:
    """Append the JSON text of a report value at nesting ``depth`` to ``out``.

    Accepts dict (``str`` keys, emitted sorted), list, tuple, str, int, bool
    and None, and raises ``TypeError`` on anything else.  Strings and keys go
    through the C ``encode_basestring_ascii`` that ``json.dumps`` uses, which
    itself refuses a key that is not a ``str``.  Two kinds of list or tuple
    are written whole, from one type scan of their items: one of more than
    ``_JOIN_MIN`` items, all of exactly type int (a residue list), in one
    ``join``; and one of rows, each exactly a list or tuple, all of one
    non-zero width and holding only cells of exactly type int (the cosets
    of a CM-type), in one ``%`` operation by :func:`_rows_text`.  Any other
    container writes its items of exactly type str, int, bool or None in
    its own loop and recurses for the rest, one frame per nesting level as
    in ``json``; subclasses of these types take the ``isinstance`` checks.
    A dict or a short flat list pays no type scan.
    """
    append = out.append
    if isinstance(obj, dict):
        keyed, head, close = True, "{", "}"
    elif isinstance(obj, (list, tuple)):
        keyed, head, close = False, "[", "]"
    elif isinstance(obj, str):
        return append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        return append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        return append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return append(head + close)
    inner = _NEWLINES[depth + 1]
    head += inner
    comma = "," + inner
    if not keyed and (len(obj) > _JOIN_MIN or type(obj[0]) in _ROWS):
        types = set(map(type, obj))
        if types == _INTS:
            return append(head + comma.join(map(int.__repr__, obj)) + _NEWLINES[depth] + close)
        if types <= _ROWS and (text := _rows_text(obj, depth)) is not None:
            return append(text)
    for x in sorted(obj) if keyed else obj:
        if keyed:
            head += encode_basestring_ascii(x) + ": "
            x = obj[x]
        t = type(x)
        if t is str:
            append(head + encode_basestring_ascii(x))
        elif t is int:
            append(head + int.__repr__(x))
        elif t is bool:
            append(head + ("true" if x else "false"))
        elif x is None:
            append(head + "null")
        else:
            append(head)
            _emit(x, depth + 1, out)
        head = comma
    append(_NEWLINES[depth] + close)


# ---------------------------------------------------------------------------
# Input validation.  Strict: unknown keys are rejected with their path.

def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InputError(f"{where}: missing key(s) {sorted(missing)}")
    if unknown:
        raise InputError(f"{where}: unknown key(s) {sorted(unknown)}")


def _require_int(obj: Any, where: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise InputError(f"{where}: expected an integer")
    return obj


_LEAF_KINDS = ("cyclotomic", "quadratic", "real_subfield_of")


@lru_cache(maxsize=None)
def _leaf_field(kind: str, value: int) -> AbelianField:
    """The field a leaf literal names; a constructor's ``ValueError`` is not cached."""
    if kind == "cyclotomic":
        return cyclotomic(value)
    if kind == "quadratic":
        return quadratic(value)
    return maximal_real_subfield(cyclotomic(value))


@lru_cache(maxsize=None)
def _compositum_field(parts: tuple[AbelianField, ...]) -> AbelianField:
    out = parts[0]
    for part in parts[1:]:
        out = compositum(out, part)
    return out


MAX_LITERAL_DEPTH = 200
"""Deepest nesting of ``compositum`` literals a job may hold.  It binds
before the stack on every supported Python: each level costs
:func:`_parse_literal` two frames (one from 3.12 on, where list
comprehensions are inlined) and :func:`_emit` two, so a job at the budget
uses about 400 of the 1,000 default frames, and its file, about 400
containers deep, is one that ``json.load`` reads."""


def parse_field_literal(obj: Any, where: str = "field") -> AbelianField:
    """Field literal: {"cyclotomic": m} | {"quadratic": d} |
    {"real_subfield_of": m} | {"compositum": [literal, ...]}.

    Fields are cached by literal value, never by ``where``, and failures are
    not cached, so every error names the path it was found at.  A literal
    nested deeper than :data:`MAX_LITERAL_DEPTH` names the path ``where`` of
    the outermost one.
    """
    return _parse_literal(obj, where, where, 1)


def _parse_literal(obj: Any, where: str, root: str, depth: int) -> AbelianField:
    if depth > MAX_LITERAL_DEPTH:
        raise InputError(f"{root}: nested too deeply (more than {MAX_LITERAL_DEPTH} field literals)")
    obj = _require_mapping(obj, where)
    if len(obj) != 1:
        raise InputError(f"{where}: field literal must have exactly one key")
    key, value = next(iter(obj.items()))
    try:
        if key in _LEAF_KINDS:
            return _leaf_field(key, _require_int(value, f"{where}.{key}"))
        if key == "compositum":
            if not isinstance(value, list) or not value:
                raise InputError(f"{where}.compositum: expected a non-empty list")
            return _compositum_field(tuple([
                _parse_literal(v, f"{where}.compositum[{i}]", root, depth + 1)
                for i, v in enumerate(value)
            ]))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    raise InputError(f"{where}: unknown field literal key {key!r}")


def _cm_field(obj: Any, where: str) -> AbelianField:
    """A field literal at ``where`` that must name a CM field."""
    K = parse_field_literal(obj, where)
    if not is_cm(K):
        raise InputError(f"{where}: not a CM field")
    return K


def _coordinate_residue(m: int, basis, coords: list, where: str, i: int) -> int:
    """The residue of label ``i``, a coordinate tuple over ``basis``.  Its
    path ``where[i]`` is built only for an error."""
    if len(coords) != len(basis):
        raise InputError(
            f"{where}[{i}]: coordinate tuple length {len(coords)} does not match "
            f"basis rank {len(basis)}"
        )
    x = 1
    for j, (a, (g, d)) in enumerate(zip(coords, basis)):
        if type(a) is not int:
            _require_int(a, f"{where}[{i}][{j}]")
        x = x * pow(g, a % d, m) % m
    return x


def declared_basis(K: AbelianField) -> tuple[tuple[int, int], ...]:
    """Invariant-factor basis of Gal(K/Q) used for coordinate input.

    For CM fields complex conjugation c = m - 1 replaces the first order-2
    generator g_i that it can, so half-systems written coordinate-wise
    keep conjugation as a plain coordinate flip.  It can exactly when c is
    outside N = <H, g_j : j != i>: the g_j are a basis of N/H, of index 2
    in G/H, and c has order 2, so then <N, c> = G and the swapped box is a
    basis, and otherwise it spans only N/H.  Being of order 2, c lies in N
    exactly when it is one of the products ``_socle_lines`` gives for the
    2-socle of N/H; x is c mod H when x c = m - x lies in H.
    """
    m, H = K.conductor, K.fixed_group
    basis = _galois_basis(K)
    if is_cm(K):
        for i, (_, d) in enumerate(basis):
            rest = basis[:i] + basis[i + 1:]
            if d == 2 and all(m - x not in H for x in _socle_lines(m, 2, rest)):
                return basis[:i] + ((m - 1, 2),) + basis[i + 1:]
    return basis


def parse_cm_type(K: AbelianField, labels: Any, where: str = "type") -> tuple[CMType, Optional[tuple]]:
    """CM-type from residue labels or coordinate tuples.

    Coordinates refer to the declared basis of Gal(K/Q), which is returned
    alongside so callers can echo it into the report.  Residue labels that
    are all plain ints pass in one check; paths such as ``type[3]`` are
    built only for an error.
    """
    if not isinstance(labels, list) or not labels:
        raise InputError(f"{where}: expected a non-empty list of labels")
    basis = None
    if all(type(e) is int for e in labels):
        residues = labels
    elif any(isinstance(e, list) for e in labels):
        basis = declared_basis(K)
        residues = []
        for i, e in enumerate(labels):
            if not isinstance(e, list):
                raise InputError(f"{where}[{i}]: mixing residues and coordinates")
            residues.append(_coordinate_residue(K.conductor, basis, e, where, i))
    else:
        residues = [_require_int(e, f"{where}[{i}]") for i, e in enumerate(labels)]
    try:
        return validate_cm_type(K, residues), basis
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_components(K_base: AbelianField, obj: Any, where: str):
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty list of components")
    comps = []
    for i, comp in enumerate(obj):
        comp = _require_mapping(comp, f"{where}[{i}]")
        _check_keys(comp, {"field", "type"}, set(), f"{where}[{i}]")
        K = _cm_field(comp["field"], f"{where}[{i}].field")
        T, _ = parse_cm_type(K, comp["type"], f"{where}[{i}].type")
        comps.append(T)
    try:
        return weil_datum(K_base, comps)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_assume(obj: Any, allowed: set[str], where: str) -> dict[str, bool]:
    if obj is None:
        return {}
    obj = _require_mapping(obj, where)
    _check_keys(obj, set(), allowed, where)
    for key, value in obj.items():
        if not isinstance(value, bool):
            raise InputError(f"{where}.{key}: expected a boolean")
    return dict(obj)


def validate_input(document: Any) -> JobSpec:
    """Strict validation of a job document {"command": ..., "payload": {...}}."""
    document = _require_mapping(document, "job")
    _check_keys(document, {"command"}, {"payload"}, "job")
    command = document["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise InputError(f"job.command: unknown command {command!r}")
    payload = _require_mapping(document.get("payload", {}), "payload")
    spec = _COMMANDS[command]
    _check_keys(payload, spec.required, spec.optional, "payload")
    return JobSpec(command, payload)


# ---------------------------------------------------------------------------
# Serialization helpers: Galois elements become residue lists only here.

def field_dict(K: AbelianField) -> dict:
    return {
        "conductor": K.conductor,
        # from format 0.2.0 on, the trivial group {0} of Q is written as [];
        # 0 lies in H only for m = 1
        "fixed_group": sorted(K.fixed_group) if K.conductor > 1 else [],
        "degree": K.degree,
        "is_cm": is_cm(K),
        "roots_of_unity": roots_of_unity_order(K),
    }


def _coset_lists(K: AbelianField, elements: list[int]) -> list[list[int]]:
    """Each element's coset, as :func:`~cmtwist.fields.coset` lists it: a new
    list per row, read from the field's table of sorted cosets."""
    if len(K.fixed_group) == 1:
        return [[g] for g in elements]
    rows = _coset_rows(K)
    return [list(rows[g]) for g in elements]


def _cmtype_list(T: CMType) -> list[list[int]]:
    return _coset_lists(T.field, sorted(T.psi))


def _mults_list(k: AbelianField, counts: dict[int, int]) -> list[dict]:
    sigmas = sorted(counts)
    return [{"coset": row, "n": counts[sigma]} for sigma, row in zip(sigmas, _coset_lists(k, sigmas))]


def _basis_list(basis) -> list[dict]:
    return [{"generator": g, "order": d} for g, d in basis]


# ---------------------------------------------------------------------------
# Command handlers.  Each returns the :class:`Conclusion` of its report.

def _run_field(payload: dict) -> Conclusion:
    K = parse_field_literal(payload["field"])
    factors = [d for _, d in _galois_basis(K)]
    results = {
        "field": field_dict(K),
        "invariant_factors": factors,
    }
    kind = "CM" if is_cm(K) else "totally real"
    statements = (
        f"conductor {K.conductor}, degree {K.degree}, {kind}",
        "Gal = " + (" x ".join(f"Z/{d}" for d in factors) or "trivial"),
    )
    return Conclusion(results, (), statements, True)


def _run_cmtype(payload: dict) -> Conclusion:
    K = _cm_field(payload["field"], "field")
    T, basis = parse_cm_type(K, payload["type"])
    stab, refl, inv, conj = reflex(T)
    results = {
        "field": field_dict(K),
        "type": _cmtype_list(T),
        "stabilizer": sorted(stab),
        "primitive": stab == K.fixed_group,
        "reflex_field": field_dict(refl),
        "reflex_type_inverse": _cmtype_list(inv),
        "reflex_type_conjugate": _cmtype_list(conj),
    }
    statements = [
        f"valid CM-type, {'primitive' if results['primitive'] else 'induced'}",
        f"reflex field has conductor {refl.conductor} and degree {refl.degree}",
    ]
    if basis is not None:
        results["coordinate_basis"] = _basis_list(basis)
        basis_text = ", ".join(f"generator {g} of order {d}" for g, d in basis)
        statements.insert(0, f"coordinate basis: {basis_text}")
    return Conclusion(results, (), tuple(statements), True)


_TWIST_X_ASSUME = {"end_field_equal", "phi_base_equal", "aut_valued", "base_central"}
_TWIST_E_ASSUME = {"hom_xy_zero", "end_fields_equal", "phi_base_equal"}


def _twist_report(datum: WeilDatum, twist: Conclusion) -> Conclusion:
    """A twist theorem's conclusion, its section nested under ``twist``."""
    return twist._replace(results={
        "base": field_dict(datum.base),
        "multiplicities": _mults_list(datum.base, datum.multiplicities),
        "weil_r": weil_r(datum),
        "twist": twist.results,
    })


def _run_twist_x(payload: dict) -> Conclusion:
    base = _cm_field(payload["base"], "base")
    datum = _parse_components(base, payload["components"], "components")
    char_obj = _require_mapping(payload["character"], "character")
    _check_keys(char_obj, {"order"}, {"label"}, "character")
    label = char_obj.get("label", "M")
    if not isinstance(label, str):
        raise InputError("character.label: expected a string")
    order = _require_int(char_obj["order"], "character.order")
    assume = _parse_assume(payload.get("assume"), _TWIST_X_ASSUME, "assume")
    return _twist_report(datum, twist_x(datum, order, label, **assume))


def _run_twist_e(payload: dict) -> Conclusion:
    base = _cm_field(payload["base"], "base")
    datum = _parse_components(base, payload["components"], "components")
    dim_x = _require_int(payload["dim_x"], "dim_x")
    dim_y = _require_int(payload["dim_y"], "dim_y")
    label = payload.get("label", "M")
    if not isinstance(label, str):
        raise InputError("label: expected a string")
    assume = _parse_assume(payload.get("assume"), _TWIST_E_ASSUME, "assume")
    return _twist_report(datum, twist_e(dim_x, dim_y, datum, extension_label=label, **assume))


def _run_discond(payload: dict) -> Conclusion:
    n = _require_int(payload["n"], "n")
    d = _require_int(payload["d"], "d")
    return Conclusion({"discond": discond_groups(n, d)}, (), (), True)


def _run_inertia(payload: dict) -> Conclusion:
    p = _require_int(payload["p"], "p")
    try:
        cert = kitself_certificate(p)
    except ValueError as exc:
        raise InputError(f"p: {exc}") from exc
    return cert._replace(results={"certificate": cert.results})


def _run_base_cert(payload: dict) -> Conclusion:
    cert = base_certificate(_require_int(payload["p"], "p"), _require_int(payload["q"], "q"))
    return cert._replace(results={"certificate": cert.results})


# ---------------------------------------------------------------------------
# Worked-example replays: ordinary jobs checked against a table of paper claims.

class _Example(NamedTuple):
    """A worked example: its jobs (command -> payload, whose keys the example's
    payload overrides), the values read from their reports (result key ->
    command, report attribute, keys), its claims (statement, keys into the
    results, expected value), its assumptions, and the paper's conclusions."""

    jobs: dict[str, dict]
    reads: dict[str, tuple]
    claims: tuple[tuple, ...]
    assumed: tuple[str, ...]
    conclusions: tuple[str, ...]


_K_41 = {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}
# 35^a 37^b (mod 51) for the paper's (a, b): 35 is conjugation, 37 has order 8
_TYPE_41 = {"field": _K_41, "type": [1, 5, 13, 26, 28, 32, 37, 44]}

EXAMPLE_41_ASSUMED = ("End(A) is the full ring of integers of K",
                      HYP_CENTRAL, HYP_END_A, HYP_PHI_BASE, HYP_AUT_VALUED)

EXAMPLE_41 = _Example(
    jobs={
        "field": {"field": _K_41},
        "cmtype": _TYPE_41,
        "twist-x": {"base": {"quadratic": -3}, "components": [_TYPE_41], "character": {"order": 3}},
    },
    reads={
        "invariant_factors": ("field", "results", "invariant_factors"),
        "primitive": ("cmtype", "results", "primitive"),
        "reflex_degree": ("cmtype", "results", "reflex_field", "degree"),
        "n_sigma": ("twist-x", "results", "multiplicities"),
        "weil_r": ("twist-x", "results", "weil_r"),
        "phiB_over_F": ("twist-x", "results", "twist", "conclusions", "phiB_over_F_exact"),
    },
    claims=(
        ("Gal(K/Q) = Z/2 x Z/8", "invariant_factors", [2, 8]),
        ("Phi is primitive", "primitive", True),
        # the reflex field is a subfield of K, so K when their degrees agree
        ("the reflex field of Phi is K", "reflex_degree", 16),
        ("n_sigma = 4 for both embeddings of k", "n_sigma",
         [{"coset": [1], "n": 4}, {"coset": [2], "n": 4}]),
        ("r = 8", "weil_r", 8),
        ("[F_Phi(B):F] = 3", "phiB_over_F", 3),
    ),
    assumed=EXAMPLE_41_ASSUMED,
    conclusions=("F_Phi(B) = M, [F_Phi(B):F] = 3",),
)

_TYPE_J = {"field": {"cyclotomic": 7}, "type": [1, 2, 3]}

EXAMPLE_42_ASSUMED = (CLASS_NUMBER_ASSUMPTION, GOOD_REDUCTION_ASSUMPTION,
                      "Hom(J,E^(d)) = 0", "endomorphism-field identities")

EXAMPLE_42 = _Example(
    jobs={
        "base-cert": {"p": 3, "q": 17},
        "cmtype": _TYPE_J,
        # J alone (r = 3, not of Weil type) does not conclude: only its n_sigma is read
        "twist-x": {"base": {"quadratic": -7}, "components": [_TYPE_J], "character": {"order": 2}},
        "twist-e": {"base": {"quadratic": -7},
                    "components": [_TYPE_J, {"field": {"quadratic": -7}, "type": [3]}],
                    "dim_x": 3, "dim_y": 1, "label": "L_d"},
    },
    reads={
        "base_certificate": ("base-cert", "results", "certificate"),
        "reflex_degree_J": ("cmtype", "results", "reflex_field", "degree"),
        "n_sigma_J": ("twist-x", "results", "multiplicities"),
        "n_sigma_product": ("twist-e", "results", "multiplicities"),
        "product_concluded": ("twist-e", "concluded"),
    },
    claims=(
        ("the reflex CM-field of the CM-type of J is K", "reflex_degree_J", 6),
        ("restriction multiplicities of J alone are (2, 1)", "n_sigma_J",
         [{"coset": [1, 2, 4], "n": 2}, {"coset": [3, 5, 6], "n": 1}]),
        ("appending the conjugate elliptic type balances them to (2, 2)", "n_sigma_product",
         [{"coset": [1, 2, 4], "n": 2}, {"coset": [3, 5, 6], "n": 2}]),
        ("the twist of E by d gives F_Phi(J x E^(d)) = L_d", "product_concluded", True),
        ("the base certificate gives K_Phi(A) = K = Q_Phi(A)", "base_certificate", "conclusion",
         "K_Phi(A) = K = Q_Phi(A)"),
    ),
    assumed=EXAMPLE_42_ASSUMED,
    conclusions=("K_Phi(A) = K", "Q_Phi(A^(d)) = L_d"),
)


def _run_example(table: _Example, payload: dict) -> Conclusion:
    """Run the example's jobs through :func:`run`, read its values from their
    reports, and record each claim as a checked hypothesis."""
    reports = {command: run(JobSpec(command, {k: payload.get(k, v) for k, v in job.items()}))
               for command, job in table.jobs.items()}
    results = {key: reduce(getitem, path, getattr(reports[command], attribute))
               for key, (command, attribute, *path) in table.reads.items()}
    hypotheses = tuple(Hypothesis(statement, "checked", reduce(getitem, path, results) == expected)
                       for statement, *path, expected in table.claims)
    hypotheses += tuple(Hypothesis(name, "assumed", True) for name in table.assumed)
    every = [h.name for h in hypotheses]
    statements, concluded = conclude(hypotheses, [(c, every) for c in table.conclusions])
    results["conclusions"] = list(statements)
    return Conclusion(results, hypotheses, statements, concluded)


class _Command(NamedTuple):
    """A command's handler, its required and optional payload keys, and its
    integer command-line flags, which are copied into the payload."""

    run: Callable[[dict], Conclusion]
    required: AbstractSet[str] = frozenset()
    optional: AbstractSet[str] = frozenset()
    flags: tuple[str, ...] = ()


_COMMANDS: dict[str, _Command] = {
    "field": _Command(_run_field, {"field"}),
    "cmtype": _Command(_run_cmtype, {"field", "type"}),
    "twist-x": _Command(_run_twist_x, {"base", "components", "character"}, {"assume"}),
    "twist-e": _Command(_run_twist_e, {"base", "components", "dim_x", "dim_y"},
                        {"label", "assume"}),
    "discond": _Command(_run_discond, {"n", "d"}, flags=("n", "d")),
    "inertia": _Command(_run_inertia, {"p"}, flags=("p",)),
    "base-cert": _Command(_run_base_cert, {"p", "q"}, flags=("p", "q")),
    "example-41": _Command(partial(_run_example, EXAMPLE_41)),
    "example-42": _Command(partial(_run_example, EXAMPLE_42), optional={"p", "q"},
                           flags=("p", "q")),
}


def run(job: JobSpec) -> Report:
    """Dispatch a validated job to its owning module and collect the report.

    A library ``ValueError`` that no handler mapped is a malformed job and
    becomes an :class:`InputError` with its message unchanged.  A
    hypothesis that does not hold is no error: it is a record of the
    report, which then does not conclude.
    """
    try:
        c = _COMMANDS[job.command].run(job.payload)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return Report(job.command, job.payload, *c)


# ---------------------------------------------------------------------------
# argparse front end.

def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="cmtwist",
        description="CM-type, character-twist, and inertia-certificate calculator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON job payload file")
        p.add_argument("--output", help="write the JSON report to this path")
        p.add_argument("--json", action="store_true",
                       help="print the full JSON report instead of a summary")
        for flag in spec.flags:
            p.add_argument(f"--{flag}", type=int)
    return parser


def _payload_from_args(args: argparse.Namespace) -> dict:
    flags = _COMMANDS[args.command].flags
    payload = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    if not args.input:
        return payload
    if payload:
        given = ", ".join(f"--{flag}" for flag in payload)
        raise InputError(f"{given} would be ignored: the payload comes from --input {args.input}")
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:
            # JSONDecodeError, UnicodeDecodeError and the int-to-str digit limit
            raise InputError(f"{args.input}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise InputError(f"{args.input}: nested too deeply ({exc})") from exc
    return _require_mapping(document, args.input)


def _summary_lines(report: Report) -> list[str]:
    lines = [f"command: {report.command}"]
    lines.extend(f"  {s}" for s in report.statements)
    assumed = "; ".join(h.name for h in report.hypotheses if h.kind == "assumed" and h.holds)
    failed = "; ".join(h.name for h in report.hypotheses if not h.holds)
    if assumed:
        lines.append("assumed: " + assumed)
    if failed:
        lines.append("failed: " + failed)
    lines.append("concluded" if report.concluded else "NOT CONCLUDED")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:       # 0 after --help or --version, 2 on a usage error
        return 1 if exc.code else 0
    try:
        report = run(validate_input({"command": args.command,
                                     "payload": _payload_from_args(args)}))
        # the summary path reads no bytes, so only --json or --output emits
        text = report.to_json() if args.json or args.output else None
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        sys.stdout.write(text)
    else:
        print("\n".join(_summary_lines(report)))
    return 0 if report.concluded else 2


if __name__ == "__main__":
    sys.exit(main())
