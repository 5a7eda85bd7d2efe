"""CM-types on abelian CM fields and Weil-type product data.

Embeddings of an abelian field into the complex numbers are identified
with Galois elements, so a CM-type is a set of Galois elements containing
exactly one of each conjugate pair.  Restriction multiplicities n_sigma
are fiber counts of CM-types over the Galois group of a base CM field;
the Weil condition is their invariance under conjugation.

A Galois element is the least residue of its coset of the fixed group, as
everywhere in :mod:`cmtwist.fields`: ``CMType.psi`` is a frozenset of
ints and the multiplicity keys are ints.  Products, conjugates and
restrictions are single lookups in the field's table ``rep`` of least
residues (``fields._coset_rep``): g*c is ``rep[g * c % m]``, the conjugate
of c is ``rep[(m - 1) * c % m]``, and c restricts to the subfield k as
``rep_k[c % m_k]``.  So the stabilizer of psi costs |psi|^2 lookups.
Elements become residue lists only in reports and error messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .fields import (
    AbelianField,
    _coset_rep,
    coset,
    galois_group,
    is_cm,
    is_subfield,
)
from .residues import _check_unit


@dataclass(frozen=True)
class CMType:
    """A CM field together with a half-system of its Galois group."""

    field: AbelianField
    psi: frozenset[int]

    def sorted_psi(self) -> tuple[tuple[int, ...], ...]:
        """The cosets of psi as ascending residue tuples, by least residue."""
        return tuple(tuple(coset(self.field, g)) for g in sorted(self.psi))

    def __repr__(self) -> str:
        reps = ",".join(str(g) for g in sorted(self.psi))
        return f"CMType({self.field!r}, reps=[{reps}])"


def validate_cm_type(K: AbelianField, psi: Iterable[int]) -> CMType:
    """Check that psi and its conjugate partition Gal(K/Q); return the CM-type.

    Elements of ``psi`` may be any unit residues mod m.

    >>> from .fields import cyclotomic
    >>> validate_cm_type(cyclotomic(7), [1, 2, 3]).sorted_psi()
    ((1,), (2,), (3,))
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

    The preimage is the union of the stabilizing cosets, a subgroup
    containing the fixed group of the field.  A g with g psi = psi carries
    an element c0 of psi into psi, so only the |psi| candidates
    g = c c0^-1 (c in psi) are tested; g psi <= psi suffices because both
    sets have |psi| elements.
    """
    K = T.field
    m, rep, psi = K.conductor, _coset_rep(K), T.psi
    c0_inv = pow(next(iter(psi)), -1, m)
    stab = [g for g in (rep[c * c0_inv % m] for c in psi)
            if all(rep[g * c % m] in psi for c in psi)]
    return frozenset(g * h % m for g in stab for h in K.fixed_group)


def reflex_types(T: CMType, refl: AbelianField) -> tuple[CMType, CMType]:
    """Reflex CM-types of T on its reflex field ``refl``, under both conventions.

    The first restricts {sigma^-1 : sigma in psi} to ``refl``, the second
    the conjugate half-system; both are valid CM-types on ``refl``, the
    fixed field of :func:`stabilizer`.

    >>> from .fields import cyclotomic, field_from
    >>> T = validate_cm_type(cyclotomic(7), [1, 2, 4])
    >>> [R.sorted_psi() for R in reflex_types(T, field_from(7, stabilizer(T)))]
    [((1, 2, 4),), ((3, 5, 6),)]
    """
    K = T.field
    if not is_subfield(refl, K):
        raise ValueError("restriction target is not a subfield")
    m, m_r, rep_r = K.conductor, refl.conductor, _coset_rep(refl)
    inverse = (rep_r[pow(c, -1, m) % m_r] for c in T.psi)
    conjugate = (rep_r[(m - 1) * c % m_r] for c in T.psi)
    return validate_cm_type(refl, inverse), validate_cm_type(refl, conjugate)


# ---------------------------------------------------------------------------
# Weil-type data: a base CM field k acting on a product of CM factors.

@dataclass(frozen=True)
class WeilDatum:
    """Base CM field k with CM factors (K_i, psi_i), each K_i containing k."""

    base: AbelianField
    components: tuple[CMType, ...]

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
    return WeilDatum(base, comps)


def weil_r_from_dims(dim_a: int, base_degree: int) -> int:
    """r = 2 dim(A) / [k:Q], which must come out an integer.

    >>> weil_r_from_dims(8, 2)
    8
    """
    r, rem = divmod(2 * dim_a, base_degree)
    if rem != 0 or r <= 0:
        raise ValueError(
            f"2*dim/[k:Q] = 2*{dim_a}/{base_degree} is not a positive integer"
        )
    return r


def weil_r(D: WeilDatum) -> int:
    return weil_r_from_dims(D.dim, D.base.degree)


def restriction_multiplicities(D: WeilDatum) -> dict[int, int]:
    """Fiber counts n_sigma: how many type elements restrict to each sigma.

    Keys run over Gal(k/Q) in ascending order; values sum to dim(A).
    """
    k = D.base
    m_k, rep_k = k.conductor, _coset_rep(k)
    counts = dict.fromkeys(galois_group(k), 0)
    for T in D.components:
        if not is_subfield(k, T.field):
            raise ValueError("restriction target is not a subfield")
        for c in T.psi:
            counts[rep_k[c % m_k]] += 1
    return counts


def is_weil_type(D: WeilDatum) -> bool:
    """True when n_sigma = n_{sigma-bar} for every embedding of the base."""
    counts = restriction_multiplicities(D)
    m, rep = D.base.conductor, _coset_rep(D.base)
    return all(counts[s] == counts[rep[(m - 1) * s % m]] for s in counts)


def balance_product(D: WeilDatum) -> Optional[CMType]:
    """CM-type on the base field whose elliptic factor balances the datum.

    The base must be imaginary quadratic (the new factor is an elliptic
    curve with CM by it).  Returns the balancing choice of its two
    CM-types, or None when no single factor can balance.
    """
    k = D.base
    if k.degree != 2:
        raise ValueError("an elliptic factor requires an imaginary quadratic base")
    for sigma in galois_group(k):
        candidate = CMType(k, frozenset({sigma}))
        if is_weil_type(WeilDatum(k, D.components + (candidate,))):
            return candidate
    return None
