"""Degree calculus for connectedness extensions of character twists.

Given a Weil-type datum and a finite-order character with values in the
acting CM field, the reports below record exactly what the group theory
forces about the twisted variety's connectedness extension: a divisor
bound gcd(n, 2r) refined through the roots of unity of the value field,
exact degrees when that bound collapses to 1 or 2, and nothing else.
The acting field is the datum's base k, so a character is given by its
order n alone (:func:`twist_x`), or is the quadratic one (:func:`twist_e`).

Each theorem is held as a table of rows (statement, names of the
hypotheses it rests on), and every hypothesis becomes a
:class:`Hypothesis` record.  A checked hypothesis is a predicate computed
here; an assumed one (endomorphism fields, connectedness of the untwisted
group, integrality of the character's automorphisms) is a caller's flag.
Either kind only records whether it holds: nothing raises when one fails.
:func:`conclude` keeps the rows whose hypotheses all hold, and a report
is concluded only when every hypothesis holds, so each report is an
honest conditional.  Every theorem returns one :class:`Conclusion`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple

from .cmtypes import WeilDatum, is_weil_type, weil_r
from .fields import roots_of_unity_order


class Hypothesis(NamedTuple):
    """A named hypothesis of a theorem: ``kind`` is "checked" when the
    program computes whether it holds, "assumed" when the caller asserts it."""

    name: str
    kind: str
    holds: bool


class Conclusion(NamedTuple):
    """What a theorem forces: ``results`` is its section of the report,
    ``statements`` what it states under ``hypotheses``, and ``concluded``
    is true only when every hypothesis holds."""

    results: dict
    hypotheses: tuple[Hypothesis, ...]
    statements: tuple[str, ...]
    concluded: bool


def conclude(hypotheses: Iterable[Hypothesis],
             theorem: Iterable[tuple[str, Iterable[str]]]) -> tuple[tuple[str, ...], bool]:
    """The statements of ``theorem`` whose hypotheses all hold, and whether
    every hypothesis holds.

    ``theorem`` is a table of rows (statement, names of the hypotheses the
    statement rests on); every name must be one of ``hypotheses``.

    >>> hyps = (Hypothesis("a", "checked", 8 % 2 == 0), Hypothesis("b", "assumed", False))
    >>> conclude(hyps, [("x", ["a"]), ("y", ["a", "b"])])
    (('x',), False)
    """
    holds = {h.name: h.holds for h in hypotheses}
    statements = tuple(s for s, names in theorem if all(holds[n] for n in names))
    return statements, all(holds.values())


HYP_R_EVEN = "r is even"
HYP_N_NOT_DIVIDING_R = "n does not divide r"
HYP_WEIL_TYPE = "(A, k, iota) is of Weil type"
HYP_VALUES_IN_K = "c takes values in k^x"
HYP_CENTRAL = "k embeds in the center of End0(A)"
HYP_END_A = "F = F(End(A))"
HYP_PHI_BASE = "F_Phi(A) = F"
HYP_AUT_VALUED = "iota(c) takes values in Aut(A)"
HYP_HOM_ZERO = "Hom(X, Y) = 0"
HYP_END_XY = "F = F(End(X)) = F(End(Y))"
HYP_DEG_K = "[k:Q] = 2 dim(Y)"
HYP_T_ODD = "dim(X) = t dim(Y) for some odd positive integer t"


def discond_groups(n: int, d: int) -> dict:
    """Split Gal(M/F) of order n into the two cyclic layers.

    ``d`` is the order of the intersection of the character image with the
    rational points of the untwisted envelope, supplied as a hypothesis.

    >>> discond_groups(3, 1)['gal_phiB_over_F']
    'Z/3'
    >>> discond_groups(6, 2)['gal_phiB_over_F']
    'Z/3'
    """
    for key, value in (("n", n), ("d", d)):
        if value < 1:
            raise ValueError(f"{key} = {value} must be positive")
    if n % d != 0:
        raise ValueError(f"d = {d} must divide n = {n}")
    return {"gal_phiB_over_F": f"Z/{n // d}", "gal_M_over_phiB": f"Z/{d}"}


def _leading_names(hypotheses: tuple[Hypothesis, ...]) -> list[str]:
    """What the two leading rows of either twist theorem rest on: every
    hypothesis but F_Phi(A) = F."""
    return [h.name for h in hypotheses if h.name != HYP_PHI_BASE]


def twist_x(
    D: WeilDatum,
    n: int,
    label: str = "M",
    *,
    end_field_equal: bool = True,
    phi_base_equal: bool = True,
    aut_valued: bool = True,
    base_central: bool = True,
) -> Conclusion:
    """Run the single-variety twist theorem on a Weil datum and a character
    of exact order n with values mu_n(k), k = D.base; ``label`` names the
    cyclic degree-n extension M the character cuts out.

    An order below 2 raises ``ValueError``.  The checked hypotheses n | w(k)
    (the values mu_n lie in k^x), r even, n not dividing r and the Weil
    balance are computed, the assumed ones are the flags, and both become
    records: a false one withholds every statement resting on it and
    leaves the report unconcluded, with ``None`` for each degree.

    >>> from .cmtypes import validate_cm_type, weil_datum
    >>> from .fields import quadratic
    >>> k = quadratic(-3)
    >>> D = weil_datum(k, [validate_cm_type(k, [1]), validate_cm_type(k, [2])])
    >>> twist_x(D, 3).results["conclusions"]["phiB_over_F_exact"]
    3
    """
    if n < 2:
        raise ValueError(f"character order must be at least 2, got {n}")
    w_k = roots_of_unity_order(D.base)
    r = weil_r(D)
    t = gcd(n, 2 * r)
    mu_bound = gcd(t, w_k)
    hypotheses = (
        # mu_n lies in k^x exactly when n | w(k)
        Hypothesis(HYP_VALUES_IN_K, "checked", w_k % n == 0),
        Hypothesis(HYP_R_EVEN, "checked", r % 2 == 0),
        Hypothesis(HYP_N_NOT_DIVIDING_R, "checked", r % n != 0),
        Hypothesis(HYP_WEIL_TYPE, "checked", is_weil_type(D)),
        Hypothesis(HYP_CENTRAL, "assumed", base_central),
        Hypothesis(HYP_END_A, "assumed", end_field_equal),
        Hypothesis(HYP_PHI_BASE, "assumed", phi_base_equal),
        Hypothesis(HYP_AUT_VALUED, "assumed", aut_valued),
    )
    leading = _leading_names(hypotheses)
    every = [h.name for h in hypotheses]
    theorem = [
        ("F = F(End(B))", leading),
        ("F != F_Phi(A) or F != F_Phi(B)", leading),
        (f"F_Phi(B) lies in {label} and "
         f"[{label}:F_Phi(B)] divides gcd(gcd(n, 2r), w(k)) = {mu_bound}", every),
    ]
    exact = phi_exact = None
    if mu_bound == 1:
        exact, phi_exact = 1, n
        theorem.append((f"F_Phi(B) = {label} and [F_Phi(B):F] = {n}", every))
    elif t == 2:
        # -1 is a homothety of the envelope and lies in the image (n even),
        # so the two-element bound is attained exactly.
        exact, phi_exact = 2, n // 2
        theorem.append((f"[{label}:F_Phi(B)] = 2 and [F_Phi(B):F] = {n // 2}", every))
    statements, concluded = conclude(hypotheses, theorem)
    # the degree rows rest on every hypothesis: they stand iff concluded
    results = {
        "t": t,
        "mu_bound": mu_bound,
        "conclusions": {
            "exact_m_over_phiB": exact if concluded else None,
            "phiB_over_F_exact": phi_exact if concluded else None,
        },
    }
    return Conclusion(results, hypotheses, statements, concluded)


def twist_e(
    dim_x: int,
    dim_y: int,
    D: WeilDatum,
    *,
    extension_label: str = "M",
    hom_xy_zero: bool = True,
    end_fields_equal: bool = True,
    phi_base_equal: bool = True,
) -> Conclusion:
    """Quadratic twist of the elliptic-type factor of a Weil-type product,
    by a character with values in k^x, k = D.base.

    A dimension below 1, or a datum whose dimension is not dim(X) + dim(Y),
    raises ``ValueError``.  The checked hypotheses [k:Q] = 2 dim(Y), t odd
    and the Weil balance are computed, and every hypothesis is recorded as
    in :func:`twist_x`.  By construction c takes values in k^x and is the
    non-trivial character of M/F, so neither fact is a record.
    """
    if dim_x < 1 or dim_y < 1:
        raise ValueError(
            f"dimensions must be positive, got dim(X) = {dim_x}, dim(Y) = {dim_y}")
    if D.dim != dim_x + dim_y:
        raise ValueError(
            f"datum dimension {D.dim} does not match dim(X) + dim(Y) = {dim_x + dim_y}"
        )
    t, rem = divmod(dim_x, dim_y)
    hypotheses = (
        Hypothesis(HYP_DEG_K, "checked", D.base.degree == 2 * dim_y),
        Hypothesis(HYP_T_ODD, "checked", rem == 0 and t % 2 == 1),
        Hypothesis(HYP_WEIL_TYPE, "checked", is_weil_type(D)),
        Hypothesis(HYP_HOM_ZERO, "assumed", hom_xy_zero),
        Hypothesis(HYP_END_XY, "assumed", end_fields_equal),
        Hypothesis(HYP_PHI_BASE, "assumed", phi_base_equal),
    )
    leading = _leading_names(hypotheses)
    statements, concluded = conclude(hypotheses, (
        ("F = F(End(B))", leading),
        ("F(End(A)) != F_Phi(A) or F(End(B)) != F_Phi(B)", leading),
        (f"F_Phi(B) = {extension_label}", [h.name for h in hypotheses]),
    ))
    return Conclusion({"t": t}, hypotheses, statements, concluded)
