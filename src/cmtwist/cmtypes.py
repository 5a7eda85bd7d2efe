"""CM-types on abelian CM fields and Weil-type product data.

Embeddings of an abelian field into the complex numbers are identified
with Galois elements, so a CM-type is a set of cosets containing exactly
one of each conjugate pair.  Restriction multiplicities n_sigma are fiber
counts of CM-types over the Galois group of a base CM field; the Weil
condition is their invariance under conjugation.

Galois elements appear as frozenset cosets only where they meet the
caller: ``CMType.psi``, the multiplicity keys, and the residue sets the
reports print.  Every product, conjugate and comparison goes through the
field's cached residue-to-coset table (``fields._coset_index``) instead:
the coset of g*c is ``galois_group(K)[index[min(g) * min(c) % m]]`` and
complex conjugation sends c to the coset of (m - 1) * min(c).  So the
stabilizer of psi costs |psi|^2 lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .fields import (
    AbelianField,
    _coset_index,
    complex_conjugation,
    field_from,
    galois_group,
    is_cm,
    is_subfield,
    restrict_coset,
)
from .residues import Subgroup, coset_of


@dataclass(frozen=True)
class CMType:
    """A CM field together with a half-system of its Galois group."""

    field: AbelianField
    psi: frozenset[frozenset[int]]

    def sorted_psi(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(c)) for c in self.psi))

    def __repr__(self) -> str:
        reps = ",".join(str(min(c)) for c in sorted(self.psi, key=min))
        return f"CMType({self.field!r}, reps=[{reps}])"


@dataclass(frozen=True)
class ReflexType:
    """A CM-type on a reflex field, tagged with the convention that built it."""

    cm_type: CMType
    convention: str


def _as_coset(K: AbelianField, elt) -> frozenset[int]:
    if isinstance(elt, int):
        return coset_of(K.conductor, K.fixed_group, elt)
    c = frozenset(elt)
    canonical = coset_of(K.conductor, K.fixed_group, min(c))
    if c != canonical:
        raise ValueError(f"{sorted(c)} is not a coset of the fixed group")
    return c


def validate_cm_type(K: AbelianField, psi: Iterable) -> CMType:
    """Check that psi and its conjugate partition Gal(K/Q); return the CM-type.

    Elements of ``psi`` may be residues or explicit cosets.

    >>> from .fields import cyclotomic
    >>> validate_cm_type(cyclotomic(7), [1, 2, 3]).sorted_psi()
    ((1,), (2,), (3,))
    """
    if not is_cm(K):
        raise ValueError(f"{K!r} is not a CM field")
    cosets = frozenset(_as_coset(K, e) for e in psi)
    group = galois_group(K)
    if len(cosets) != len(group) // 2:
        raise ValueError(
            f"half-system must have {len(group) // 2} elements, got {len(cosets)}"
        )
    m, index = K.conductor, _coset_index(K)
    reps = sorted(min(c) for c in cosets)
    chosen = {index[r] for r in reps}
    for r in reps:
        if index[(m - 1) * r % m] in chosen:
            raise ValueError(
                f"not a half-system: {sorted(group[index[r]])} appears together with its conjugate"
            )
    return CMType(K, cosets)


def translate(T: CMType, g: frozenset[int]) -> CMType:
    """The CM-type g * psi (still a CM-type for any Galois element g)."""
    K = T.field
    m, group, index = K.conductor, galois_group(K), _coset_index(K)
    a = min(g)
    return CMType(K, frozenset(group[index[a * min(c) % m]] for c in T.psi))


def conjugate_type(T: CMType) -> CMType:
    return translate(T, complex_conjugation(T.field))


def stabilizer(T: CMType) -> Subgroup:
    """Stabilizer {g : g psi = psi}, returned as its preimage in (Z/m)^x.

    The preimage is the union of the stabilizing cosets, a subgroup
    containing the fixed group of the field.  A g with g psi = psi carries
    the first element c0 of psi into psi, so only the |psi| candidates
    g = c c0^-1 (c in psi) are tested; g psi <= psi suffices because both
    sets have |psi| elements.
    """
    K = T.field
    m, group, index = K.conductor, galois_group(K), _coset_index(K)
    reps = [min(c) for c in T.psi]
    chosen = {index[r] for r in reps}
    r0_inv = pow(reps[0], -1, m)
    residues: set[int] = set()
    for r in reps:
        g = r * r0_inv % m
        if all(index[g * s % m] in chosen for s in reps):
            residues |= group[index[g]]
    return Subgroup(m, frozenset(residues))


def is_primitive(T: CMType) -> bool:
    """True when only the identity stabilizes psi (induced from no subfield)."""
    return stabilizer(T).elements == T.field.fixed_group.elements


def reflex_field(T: CMType) -> AbelianField:
    """Fixed field of the stabilizer of psi.

    >>> from .fields import cyclotomic
    >>> reflex_field(validate_cm_type(cyclotomic(7), [1, 2, 4])).degree
    2
    """
    return field_from(T.field.conductor, stabilizer(T))


def reflex_type(T: CMType, convention: str = "inverse") -> ReflexType:
    """Reflex CM-type on the reflex field, under either convention.

    ``inverse`` restricts {sigma^-1 : sigma in psi} to the reflex field;
    ``conjugate`` restricts the conjugate half-system instead.  Both yield
    valid CM-types with the same reflex field; the result records which
    convention produced it.
    """
    if convention not in ("inverse", "conjugate"):
        raise ValueError(f"unknown convention {convention!r}")
    K = T.field
    m = K.conductor
    refl = reflex_field(T)
    if convention == "inverse":
        group, index = galois_group(K), _coset_index(K)
        source = (group[index[pow(min(c), -1, m)]] for c in T.psi)
    else:
        source = iter(conjugate_type(T).psi)
    restricted = frozenset(restrict_coset(K, refl, c) for c in source)
    return ReflexType(validate_cm_type(refl, restricted), convention)


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


def restriction_multiplicities(D: WeilDatum) -> dict[frozenset[int], int]:
    """Fiber counts n_sigma: how many type elements restrict to each sigma.

    Keys run over Gal(k/Q) in coset order; values sum to dim(A).
    """
    counts = {sigma: 0 for sigma in galois_group(D.base)}
    for T in D.components:
        for c in T.psi:
            counts[restrict_coset(T.field, D.base, c)] += 1
    return counts


def is_weil_type(D: WeilDatum) -> bool:
    """True when n_sigma = n_{sigma-bar} for every embedding of the base."""
    counts = restriction_multiplicities(D)
    k = D.base
    m, group, index = k.conductor, galois_group(k), _coset_index(k)
    return all(
        counts[sigma] == counts[group[index[(m - 1) * min(sigma) % m]]]
        for sigma in counts
    )


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


def _conjugate_pairs(K: AbelianField) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Gal(K/Q) as pairs (c, conjugate of c), c running in coset order."""
    m, group, index = K.conductor, galois_group(K), _coset_index(K)
    if m == 1:
        return [(group[0], group[0])]
    pairs = []
    seen: set[int] = set()
    for i, c in enumerate(group):
        if i not in seen:
            j = index[(m - 1) * min(c) % m]
            seen.update((i, j))
            pairs.append((c, group[j]))
    return pairs


def canonical_cm_type(K: AbelianField) -> CMType:
    """Some CM-type on K: the least representative of each conjugate pair."""
    return validate_cm_type(K, [c for c, _ in _conjugate_pairs(K)])


def all_cm_types(K: AbelianField) -> tuple[CMType, ...]:
    """Every CM-type on K (2^(degree/2) of them); degree kept desk-scale."""
    pairs = _conjugate_pairs(K)
    if len(pairs) > 12:
        raise ValueError("refusing to enumerate more than 2^12 CM-types")
    types = []
    for mask in range(1 << len(pairs)):
        psi = frozenset(
            pair[(mask >> i) & 1] for i, pair in enumerate(pairs)
        )
        types.append(CMType(K, psi))
    return tuple(types)
