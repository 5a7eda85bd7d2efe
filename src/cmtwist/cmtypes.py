"""CM-types on abelian CM fields and Weil-type product data.

Embeddings of an abelian field into the complex numbers are identified
with Galois elements, so a CM-type is a set of Galois elements containing
exactly one of each conjugate pair.  Restriction multiplicities n_sigma
are fiber counts of CM-types over the Galois group of a base CM field;
the Weil condition is their invariance under conjugation.  A datum is
checked and counted once, when :func:`weil_datum` builds it: it checks
that each component contains the base and stores the counts
``WeilDatum.multiplicities`` that :func:`is_weil_type` and the reports read.

A Galois element is the least residue of its coset of the fixed group, as
everywhere in :mod:`cmtwist.fields`: ``CMType.psi`` is a frozenset of
ints and the multiplicity keys are ints.  Products, conjugates and
restrictions are single lookups in the field's table ``rep`` of least
residues (``fields._coset_rep``): g*c is ``rep[g * c % m]``, the conjugate
of c is ``rep[(m - 1) * c % m]``, and c restricts to the subfield k as
``rep_k[c % m_k]``.  Elements become residue lists only in reports and
error messages.

A type fixes its reflex field, the fixed field of its stabilizer, so
:func:`reflex` takes the type alone and returns the stabilizer, the
reflex field and both reflex types.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .fields import (
    AbelianField,
    _coset_rep,
    _galois_basis,
    coset,
    field_from,
    galois_group,
    is_cm,
    is_subfield,
)
from .residues import _adjoin, _check_unit, _prime_divisors, _socle_lines, invariant_factor_basis


class CMType(NamedTuple):
    """A CM field with a half-system of its Galois group; equal only to a CM-type."""

    field: AbelianField
    psi: frozenset[int]

    def __repr__(self) -> str:
        reps = ",".join(str(g) for g in sorted(self.psi))
        return f"CMType({self.field!r}, reps=[{reps}])"

    def __eq__(self, other: object) -> bool:
        return type(other) is CMType and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


def validate_cm_type(K: AbelianField, psi: Iterable[int]) -> CMType:
    """Check that psi and its conjugate partition Gal(K/Q); return the CM-type.

    Elements of ``psi`` may be any unit residues mod m.

    >>> from .fields import cyclotomic
    >>> T = validate_cm_type(cyclotomic(7), [1, 2, 3])
    >>> [coset(T.field, g) for g in sorted(T.psi)]
    [[1], [2], [3]]
    """
    if not is_cm(K):
        raise ValueError(f"{K!r} is not a CM field")
    m, rep = K.conductor, _coset_rep(K)
    elements = frozenset(rep[_check_unit(m, x)] for x in psi)
    half = K.degree // 2
    if len(elements) != half:
        raise ValueError(f"half-system must have {half} elements, got {len(elements)}")
    for g in sorted(elements):
        if rep[(m - 1) * g % m] in elements:
            raise ValueError(
                f"not a half-system: {coset(K, g)} appears together with its conjugate"
            )
    return CMType(K, elements)


def stabilizer(T: CMType) -> frozenset[int]:
    """Stabilizer {g : g psi = psi}, returned as its preimage in (Z/m)^x.

    The preimage Stab is a subgroup of G = (Z/m)^x over the fixed group H,
    and g lies in it when g psi <= psi, both sets having |psi| elements.
    The search grows S = H inside Stab: it tests one element per line of
    each p-socle of G/S (:func:`~cmtwist.residues._socle_lines`) and
    adjoins the first that stabilizes psi.  When none does, Stab = S: else
    Stab/S has an element of prime order p (Cauchy), so it meets the
    p-socle of G/S in a nonzero subspace, and the tested element of a line
    in it would have passed.  An element that passes lies outside S, so S
    at least doubles: at most log2 |Stab/H| rounds, each testing
    sum_p (p^(r_p) - 1)/(p - 1) elements (r_p the p-rank of G/S) with
    |psi| lookups at most.  The primes p are those of the exponent d_r of
    G/S, above 1 as conjugation is never in Stab.  The first round reads
    the field's own basis.
    """
    K = T.field
    m, rep, psi = K.conductor, _coset_rep(K), T.psi
    S, basis = K.fixed_group, _galois_basis(K)
    while True:
        x = next((x for p in _prime_divisors(basis[-1][1])
                  for x in _socle_lines(m, p, basis)
                  if all(rep[x * c % m] in psi for c in psi)), None)
        if x is None:
            return S
        grown = set(S)
        _adjoin(m, grown, x)
        S = frozenset(grown)
        basis = invariant_factor_basis(m, S)


def reflex(T: CMType) -> tuple[frozenset[int], AbelianField, CMType, CMType]:
    """The stabilizer of T, its fixed field (the reflex field), and the
    reflex CM-types on it under both conventions.

    The first type restricts {sigma^-1 : sigma in psi} to the reflex field,
    the second the conjugate half-system.  The stabilizer is a subgroup,
    so :func:`~cmtwist.fields.field_from` takes it as it is.

    Both are CM-types by construction.  With G = Gal(K/Q), c complex
    conjugation and S the stabilizer, psi is a union of cosets of S, and c
    is not in S, because c psi is the complement of psi.  So the images of
    psi and c psi halve G/S, and the image of c, not 1, swaps them: the
    reflex field is CM and the image of c psi is a half-system.  Inversion
    permutes the cosets of S and commutes with c, so the image of psi^-1
    is a half-system too.

    >>> from .fields import cyclotomic
    >>> stab, refl, inv, conj = reflex(validate_cm_type(cyclotomic(7), [1, 2, 4]))
    >>> sorted(stab), refl.degree
    ([1, 2, 4], 2)
    >>> [coset(refl, g) for g in inv.psi], [coset(refl, g) for g in conj.psi]
    ([[1, 2, 4]], [[3, 5, 6]])
    """
    m = T.field.conductor
    stab = stabilizer(T)
    refl = field_from(m, stab)
    m_r, rep_r = refl.conductor, _coset_rep(refl)
    inverse = frozenset(rep_r[pow(c, -1, m) % m_r] for c in T.psi)
    conjugate = frozenset(rep_r[(m - 1) * c % m_r] for c in T.psi)
    return stab, refl, CMType(refl, inverse), CMType(refl, conjugate)


# ---------------------------------------------------------------------------
# Weil-type data: a base CM field k acting on a product of CM factors.

class WeilDatum(NamedTuple):
    """Base CM field k with CM factors (K_i, psi_i), each K_i containing k,
    and the fiber counts n_sigma of :func:`restriction_multiplicities`."""

    base: AbelianField
    components: tuple[CMType, ...]
    multiplicities: dict[int, int]

    @property
    def dim(self) -> int:
        return sum(T.field.degree for T in self.components) // 2


def weil_datum(base: AbelianField, components: Iterable[CMType]) -> WeilDatum:
    comps = tuple(components)
    if not is_cm(base):
        raise ValueError(f"base {base!r} is not a CM field")
    if not comps:
        raise ValueError("datum needs at least one component")
    for T in comps:
        if not is_subfield(base, T.field):
            raise ValueError(f"base is not a subfield of component {T.field!r}")
    return WeilDatum(base, comps, restriction_multiplicities(base, comps))


def weil_r(D: WeilDatum) -> int:
    """r = 2 dim(A) / [k:Q], which must come out a positive integer.

    >>> from .fields import cyclotomic, quadratic
    >>> weil_r(weil_datum(quadratic(-7), [validate_cm_type(cyclotomic(7), [1, 2, 4])]))
    3
    """
    r, rem = divmod(2 * D.dim, D.base.degree)
    if rem != 0 or r <= 0:
        raise ValueError(
            f"2*dim/[k:Q] = 2*{D.dim}/{D.base.degree} is not a positive integer"
        )
    return r


def restriction_multiplicities(k: AbelianField, components: Iterable[CMType]) -> dict[int, int]:
    """Fiber counts n_sigma: how many type elements restrict to each sigma.

    Each component's field must contain k, which is not checked here
    (:func:`weil_datum` checks it).  Keys run over Gal(k/Q) in ascending
    order; values sum to dim(A).

    >>> from .fields import cyclotomic, quadratic
    >>> restriction_multiplicities(quadratic(-7), [validate_cm_type(cyclotomic(7), [1, 2, 3])])
    {1: 2, 3: 1}
    """
    m_k, rep_k = k.conductor, _coset_rep(k)
    counts = dict.fromkeys(galois_group(k), 0)
    for T in components:
        for c in T.psi:
            counts[rep_k[c % m_k]] += 1
    return counts


def is_weil_type(D: WeilDatum) -> bool:
    """True when n_sigma = n_{sigma-bar} for every embedding of the base."""
    counts = D.multiplicities
    m, rep = D.base.conductor, _coset_rep(D.base)
    return all(counts[s] == counts[rep[(m - 1) * s % m]] for s in counts)
