"""Command-line front end and JSON report emitter.

One job per invocation.  Reports are deterministic: identical jobs emit
byte-identical JSON (sorted keys, no timestamps).  Exit codes separate
the three ways a run can end: 0 when every conclusion was reached, 2 when
a hypothesis does not hold (a checked one failed, an assumed flag is
false, or a certificate check failed), 1 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import AbstractSet, Any, Callable, Optional

from . import __version__
from .cmtypes import (
    CMType,
    balance_product,
    is_weil_type,
    reflex_types,
    restriction_multiplicities,
    stabilizer,
    validate_cm_type,
    weil_datum,
    weil_r,
)
from .fields import (
    AbelianField,
    _fixed_field,
    compositum,
    coset,
    cyclotomic,
    is_cm,
    is_totally_real,
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
from .residues import invariant_factor_basis, invariant_factors, is_quotient_basis
from .twists import (
    HYP_AUT_VALUED,
    HYP_END_A,
    HYP_PHI_BASE,
    Conclusion,
    Hypothesis,
    HypothesisError,
    discond_groups,
    make_character,
    twist_e,
    twist_x,
)

class InputError(ValueError):
    """Malformed job document; message carries the offending field path."""


@dataclass(frozen=True)
class JobSpec:
    command: str
    payload: dict
    output_path: Optional[str] = None


@dataclass(frozen=True)
class Report:
    command: str
    payload: dict
    results: dict
    statements: tuple[str, ...]
    hypotheses: tuple[Hypothesis, ...]
    concluded: bool

    def to_document(self) -> dict:
        return {
            "command": self.command,
            "payload": self.payload,
            "results": self.results,
            "statements": list(self.statements),
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "concluded": self.concluded,
            "version": __version__,
        }

    def to_json(self) -> str:
        """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

        CPython's C encoder serves ``json.dumps`` only without ``indent``, so
        :func:`_emit` writes the indented form itself.
        """
        return _emit(self.to_document(), "\n") + "\n"


def _emit(obj: Any, newline: str) -> str:
    """JSON text of a report value, ``newline`` being "\\n" plus its indent.

    Accepts dict (``str`` keys, emitted sorted), list, tuple, str, int, bool
    and None, and raises ``TypeError`` on anything else.  Strings and keys go
    through the C ``encode_basestring_ascii`` that ``json.dumps`` uses, which
    itself refuses a key that is not a ``str``.  Loops, not comprehensions,
    so each nesting level costs one frame, as in ``json``.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = []
        for x in obj:
            items.append(_emit(x, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(encode_basestring_ascii(k) + ": " + _emit(obj[k], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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


MAX_LITERAL_DEPTH = 500
"""Deepest nesting of ``compositum`` literals a job may hold.  Up to Python
3.11 ``json.load`` refuses a file about 490 levels deep and parsing a deeper
document built in process runs out of stack; from 3.12 both may go deeper.
The budget makes the limit the same on every version."""


def parse_field_literal(obj: Any, where: str = "field") -> AbelianField:
    """Field literal: {"cyclotomic": m} | {"quadratic": d} |
    {"real_subfield_of": m} | {"compositum": [literal, ...]}.

    Fields are cached by literal value, never by ``where``, and failures are
    not cached, so every error names the path it was found at.  A literal
    nested deeper than :data:`MAX_LITERAL_DEPTH` raises ``RecursionError``,
    as one deeper than the stack does.
    """
    return _parse_literal(obj, where, 1)


def _parse_literal(obj: Any, where: str, depth: int) -> AbelianField:
    if depth > MAX_LITERAL_DEPTH:
        raise RecursionError(
            f"maximum recursion depth exceeded: more than {MAX_LITERAL_DEPTH} nested field literals")
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
            # a list comprehension, not a generator: from Python 3.12 it is
            # inlined, so each nesting level costs one frame
            return _compositum_field(tuple([
                _parse_literal(v, f"{where}.compositum[{i}]", depth + 1)
                for i, v in enumerate(value)
            ]))
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{where}: {exc}") from exc
    raise InputError(f"{where}: unknown field literal key {key!r}")


def _coordinate_residue(m: int, basis, coords, where: str) -> int:
    if len(coords) != len(basis):
        raise InputError(
            f"{where}: coordinate tuple length {len(coords)} does not match "
            f"basis rank {len(basis)}"
        )
    x = 1
    for a, (g, d) in zip(coords, basis):
        x = (x * pow(g, _require_int(a, where) % d, m)) % m
    return x


def declared_basis(K: AbelianField) -> tuple[tuple[int, int], ...]:
    """Invariant-factor basis of Gal(K/Q) used for coordinate input.

    For CM fields the order-2 generator is swapped to complex conjugation
    whenever that still gives a direct-sum basis, so half-systems written
    coordinate-wise keep conjugation as a plain coordinate flip.
    """
    basis = list(invariant_factor_basis(K.conductor, K.fixed_group))
    c_rep = K.conductor - 1
    if is_cm(K) and all(g != c_rep for g, _ in basis):
        for i, (_, d) in enumerate(basis):
            if d == 2:
                candidate = list(basis)
                candidate[i] = (c_rep, 2)
                if is_quotient_basis(K.conductor, K.fixed_group, candidate):
                    basis = candidate
                    break
    return tuple(basis)


def parse_cm_type(K: AbelianField, labels: Any, where: str = "type") -> tuple[CMType, Optional[tuple]]:
    """CM-type from residue labels or coordinate tuples.

    Coordinates refer to the declared basis of Gal(K/Q), which is returned
    alongside so callers can echo it into the report.
    """
    if not isinstance(labels, list) or not labels:
        raise InputError(f"{where}: expected a non-empty list of labels")
    uses_coords = any(isinstance(e, list) for e in labels)
    basis = None
    residues = []
    if uses_coords:
        basis = declared_basis(K)
        for i, e in enumerate(labels):
            if not isinstance(e, list):
                raise InputError(f"{where}[{i}]: mixing residues and coordinates")
            residues.append(_coordinate_residue(K.conductor, basis, e, f"{where}[{i}]"))
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
        K = parse_field_literal(comp["field"], f"{where}[{i}].field")
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
    _check_keys(document, {"command"}, {"payload", "output"}, "job")
    command = document["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise InputError(f"job.command: unknown command {command!r}")
    payload = _require_mapping(document.get("payload", {}), "payload")
    spec = _COMMANDS[command]
    _check_keys(payload, spec.required, spec.optional, "payload")
    output = document.get("output")
    if output is not None and not isinstance(output, str):
        raise InputError("job.output: expected a string path")
    return JobSpec(command, payload, output)


# ---------------------------------------------------------------------------
# Serialization helpers: Galois elements become residue lists only here.

def field_dict(K: AbelianField) -> dict:
    return {
        "conductor": K.conductor,
        # format 0.2.0 writes the trivial group {0} of Q as []
        "fixed_group": sorted(K.fixed_group - {0}),
        "degree": K.degree,
        "is_cm": is_cm(K),
        "is_totally_real": is_totally_real(K),
        "roots_of_unity": roots_of_unity_order(K),
    }


def _cmtype_list(T: CMType) -> list[list[int]]:
    return [list(t) for t in T.sorted_psi()]


def _mults_list(k: AbelianField, counts: dict[int, int]) -> list[dict]:
    return [{"coset": coset(k, sigma), "n": counts[sigma]} for sigma in sorted(counts)]


def _basis_list(basis) -> list[dict]:
    return [{"generator": g, "order": d} for g, d in basis]


# ---------------------------------------------------------------------------
# Command handlers.  Each returns the :class:`Conclusion` of its report.

def _run_field(payload: dict) -> Conclusion:
    K = parse_field_literal(payload["field"])
    factors = invariant_factors(K.conductor, K.fixed_group)
    results = {
        "field": field_dict(K),
        "invariant_factors": list(factors),
    }
    kind = "CM" if is_cm(K) else "totally real"
    statements = (
        f"conductor {K.conductor}, degree {K.degree}, {kind}",
        "Gal = " + (" x ".join(f"Z/{d}" for d in factors) or "trivial"),
    )
    return Conclusion(results, (), statements, True)


def _run_cmtype(payload: dict) -> Conclusion:
    K = parse_field_literal(payload["field"])
    T, basis = parse_cm_type(K, payload["type"])
    stab = stabilizer(T)
    refl = _fixed_field(K.conductor, stab)    # the reflex field
    inv, conj = reflex_types(T, refl)
    results = {
        "field": field_dict(K),
        "type": _cmtype_list(T),
        "valid": True,
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

def _run_twist_x(payload: dict) -> Conclusion:
    base = parse_field_literal(payload["base"], "base")
    datum = _parse_components(base, payload["components"], "components")
    char_obj = _require_mapping(payload["character"], "character")
    _check_keys(char_obj, {"order"}, {"label"}, "character")
    label = char_obj.get("label", "M")
    if not isinstance(label, str):
        raise InputError("character.label: expected a string")
    char = make_character(base, _require_int(char_obj["order"], "character.order"), label)
    assume = _parse_assume(payload.get("assume"), _TWIST_X_ASSUME, "assume")
    twist = twist_x(datum, char, **assume)
    return replace(twist, results={
        "base": field_dict(base),
        "multiplicities": _mults_list(base, restriction_multiplicities(datum)),
        "weil_r": twist.results["r"],
        "twist": twist.results,
    })


def _run_twist_e(payload: dict) -> Conclusion:
    base = parse_field_literal(payload["base"], "base")
    datum = _parse_components(base, payload["components"], "components")
    dim_x = _require_int(payload["dim_x"], "dim_x")
    dim_y = _require_int(payload["dim_y"], "dim_y")
    label = payload.get("label", "M")
    if not isinstance(label, str):
        raise InputError("label: expected a string")
    assume = _parse_assume(payload.get("assume"), _TWIST_E_ASSUME, "assume")
    twist = twist_e(dim_x, dim_y, base, datum, extension_label=label, **assume)
    return replace(twist, results={
        "base": field_dict(base),
        "multiplicities": _mults_list(base, restriction_multiplicities(datum)),
        "weil_r": weil_r(datum),
        "twist": twist.results,
    })


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
    return replace(cert, results={"certificate": cert.results})


def _run_base_cert(payload: dict) -> Conclusion:
    cert = base_certificate(_require_int(payload["p"], "p"), _require_int(payload["q"], "q"))
    return replace(cert, results={"certificate": cert.results})


# ---------------------------------------------------------------------------
# Worked-example replays.

EXAMPLE_41_TUPLES = ((0, 0), (0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 6))

EXAMPLE_41_ASSUMED = (
    "End(A) is the full ring of integers of K",
    HYP_END_A,
    HYP_PHI_BASE,
    HYP_AUT_VALUED,
)

EXAMPLE_42_ASSUMED = (
    CLASS_NUMBER_ASSUMPTION,
    GOOD_REDUCTION_ASSUMPTION,
    "Hom(J,E^(d)) = 0",
    "endomorphism-field identities",
)


def _example_hypotheses(records: tuple[Hypothesis, ...],
                        assumed: tuple[str, ...]) -> tuple[Hypothesis, ...]:
    """The checked records of the theorems an example runs, then the
    example's own assumptions, which stand in for theirs."""
    return tuple(h for h in records if h.kind == "checked") + tuple(
        Hypothesis(name, "assumed", True) for name in assumed)


def _example_41_basis(K: AbelianField) -> tuple[tuple[int, int], ...]:
    """Coordinate basis splitting Gal(K/Q) along the two cyclotomic strands.

    The order-2 generator is complex conjugation (acts only on the
    quadratic strand); the order-8 generator acts only on the real strand
    through the residue 3 mod 17.
    """
    m = K.conductor
    def crt(r3: int, r17: int) -> int:
        return next(x for x in range(1, m) if x % 3 == r3 and x % 17 == r17)
    return ((crt(2, 1), 2), (crt(1, 3), 8))


def _run_example_41(payload: dict) -> Conclusion:
    k = quadratic(-3)
    L = maximal_real_subfield(cyclotomic(17))
    K = compositum(k, L)
    factors = invariant_factors(K.conductor, K.fixed_group)
    basis = _example_41_basis(K)
    residues = [
        _coordinate_residue(K.conductor, basis, list(coords), "type")
        for coords in EXAMPLE_41_TUPLES
    ]
    T = validate_cm_type(K, residues)
    datum = weil_datum(k, [T])
    counts = restriction_multiplicities(datum)
    char = make_character(k, 3, "M")
    twist = twist_x(datum, char)
    degrees = twist.results["conclusions"]
    stab = stabilizer(T)
    primitive = stab == K.fixed_group
    reflex_is_K = _fixed_field(K.conductor, stab) == K
    results = {
        "field_K": field_dict(K),
        "field_k": field_dict(k),
        "field_L": field_dict(L),
        "invariant_factors": list(factors),
        "coordinate_basis": _basis_list(basis),
        "psi_coordinates": [list(t) for t in EXAMPLE_41_TUPLES],
        "psi_residues": sorted(residues),
        "cm_type_valid": True,
        "primitive": primitive,
        "reflex_field_is_K": reflex_is_K,
        "n_sigma": _mults_list(k, counts),
        "weil_type": is_weil_type(datum),
        "weil_r": twist.results["r"],
        "character": {"order": 3, "label": "M"},
        "twist": twist.results,
        "conclusion": f"F_Phi(B) = M, [F_Phi(B):F] = {degrees['phiB_over_F_exact']}",
    }
    statements = (
        "Gal(K/Q) = Z/2 x Z/8",
        "n_sigma = 4 for both embeddings of k",
    ) + twist.statements
    concluded = (
        factors == (2, 8)
        and primitive
        and reflex_is_K
        and set(counts.values()) == {4}
        and degrees["phiB_equals_M"]
    )
    return Conclusion(results, _example_hypotheses(twist.hypotheses, EXAMPLE_41_ASSUMED),
                      statements, concluded)


def _run_example_42(payload: dict) -> Conclusion:
    p = _require_int(payload.get("p", 3), "p")
    q = _require_int(payload.get("q", 17), "q")
    K = cyclotomic(7)
    T = validate_cm_type(K, [1, 2, 3])
    refl = _fixed_field(K.conductor, stabilizer(T))
    refl_inv, refl_conj = reflex_types(T, refl)
    k = quadratic(-7)
    datum_j = weil_datum(k, [T])
    counts_j = restriction_multiplicities(datum_j)
    balancing = balance_product(datum_j)
    if balancing is None:
        raise AssertionError("the single-factor datum must balance")
    datum = weil_datum(k, [T, balancing])
    counts = restriction_multiplicities(datum)
    cert = base_certificate(p, q)
    twist = twist_e(3, 1, k, datum, extension_label="L_d")
    concluded = cert.concluded and twist.concluded
    results = {
        "field_K": field_dict(K),
        "field_k": field_dict(k),
        "jacobian_model": "y^7 = x(1-x)",
        "elliptic_model": "y^2 + x*y = x^3 - x^2 - 2*x - 1",
        "cm_type_J": _cmtype_list(T),
        "reflex_field_is_K": refl == K,
        "reflex_type_inverse": _cmtype_list(refl_inv),
        "reflex_type_conjugate": _cmtype_list(refl_conj),
        "n_sigma_J": _mults_list(k, counts_j),
        "weil_type_J_alone": is_weil_type(datum_j),
        "balancing_type": _cmtype_list(balancing),
        "n_sigma_product": _mults_list(k, counts),
        "weil_type_product": is_weil_type(datum),
        "weil_r": weil_r(datum),
        "base_certificate": cert.results,
        "twist": twist.results,
        "conclusions": (
            ["K_Phi(A) = K", "Q_Phi(A^(d)) = L_d"] if concluded else []
        ),
    }
    statements = (
        "the reflex CM-field of the CM-type of J is K",
        "restriction multiplicities of J alone are (2, 1)",
        "appending the conjugate elliptic type balances them to (2, 2)",
    ) + cert.statements + twist.statements
    return Conclusion(results,
                      _example_hypotheses(cert.hypotheses + twist.hypotheses, EXAMPLE_42_ASSUMED),
                      statements, concluded)


@dataclass(frozen=True)
class _Command:
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
    "example-41": _Command(_run_example_41),
    "example-42": _Command(_run_example_42, optional={"p", "q"}, flags=("p", "q")),
}


def run(job: JobSpec) -> Report:
    """Dispatch a validated job to its owning module and collect the report.

    A library ``ValueError`` that no handler mapped is a malformed job and
    becomes an :class:`InputError`, and so does the ``RecursionError`` of a
    field literal nested deeper than :data:`MAX_LITERAL_DEPTH` or the stack
    allows (a document built in process never met ``json.load``'s depth
    limit); a :class:`HypothesisError` passes through.
    """
    try:
        c = _COMMANDS[job.command].run(job.payload)
    except (InputError, HypothesisError):
        raise
    except ValueError as exc:
        raise InputError(f"payload: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{job.command}: nested too deeply ({exc})") from exc
    return Report(job.command, job.payload, c.results, c.statements, c.hypotheses, c.concluded)


# ---------------------------------------------------------------------------
# argparse front end.

def _build_parser() -> argparse.ArgumentParser:
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
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except ValueError as exc:
                # JSONDecodeError, UnicodeDecodeError and the int-to-str digit
                # limit; a RecursionError (deep nesting) goes to main()
                raise InputError(f"{args.input}: invalid JSON ({exc})") from exc
        return _require_mapping(document, args.input)
    payload = {}
    for flag in _COMMANDS[args.command].flags:
        value = getattr(args, flag)
        if value is not None:
            payload[flag] = value
    return payload


def _summary_lines(report: Report) -> list[str]:
    lines = [f"command: {report.command}"]
    lines.extend(f"  {s}" for s in report.statements)
    assumed = "; ".join(h.name for h in report.hypotheses if h.kind == "assumed" and h.holds)
    failed = [h.name for h in report.hypotheses if not h.holds]
    if report.command == "inertia":
        # an inertia certificate's checks are not hypothesis records
        failed += [c["statement"] for c in report.results["certificate"]["checks"]
                   if not c["pass"]]
    if assumed:
        lines.append("assumed: " + assumed)
    if failed:
        lines.append("failed: " + "; ".join(failed))
    lines.append("concluded" if report.concluded else "NOT CONCLUDED")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _payload_from_args(args)
        job = validate_input(
            {"command": args.command, "payload": payload,
             **({"output": args.output} if args.output else {})}
        )
        report = run(job)
        # the summary path reads no bytes, so only --json or --output emits
        text = report.to_json() if args.json or job.output_path else None
        if job.output_path:
            with open(job.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (InputError, OSError, RecursionError) as exc:
        depth = exc if isinstance(exc, RecursionError) else exc.__cause__
        if isinstance(depth, RecursionError):
            # a job nested too deeply to load, parse or emit: name the file
            # it came from, if any, rather than the field path inside it
            exc = f"{args.input or args.command}: nested too deeply ({depth})"
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2

    if args.json:
        sys.stdout.write(text)
    else:
        print("\n".join(_summary_lines(report)))
    return 0 if report.concluded else 2


if __name__ == "__main__":
    sys.exit(main())
