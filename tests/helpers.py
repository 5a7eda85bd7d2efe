"""Shared corpus builders and brute-force oracles for the test suite."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

from cmtwist.cmtypes import (
    CMType,
    canonical_cm_type,
    conjugate_type,
    validate_cm_type,
    weil_datum,
)
from cmtwist.fields import (
    AbelianField,
    compositum,
    cyclotomic,
    field_from,
    is_cm,
    maximal_real_subfield,
    quadratic,
)
from cmtwist.residues import (
    Subgroup,
    all_subgroups,
    coset_order,
    quotient_cosets,
    subgroup_generated,
    unit_group,
)


# ---------------------------------------------------------------------------
# The big worked example: K = compositum of Q(sqrt(-3)) with the real
# subfield of the 17th cyclotomic field, and its half-system given by
# (a, b) coordinates along the two strands.

EXAMPLE41_TUPLES = ((0, 0), (0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 6))


def crt_residue_51(r3: int, r17: int) -> int:
    return next(x for x in range(1, 51) if x % 3 == r3 and x % 17 == r17)


def example41_field() -> AbelianField:
    return compositum(quadratic(-3), maximal_real_subfield(cyclotomic(17)))


def example41_residues() -> list[int]:
    # a acts on the quadratic strand through 2 mod 3, b on the real strand
    # through 3 mod 17; conjugation is exactly (1, 0).
    return [
        crt_residue_51(pow(2, a, 3), pow(3, b, 17)) for a, b in EXAMPLE41_TUPLES
    ]


def example41_type() -> CMType:
    return validate_cm_type(example41_field(), example41_residues())


# ---------------------------------------------------------------------------
# Field corpora.

@lru_cache(maxsize=None)
def cm_fields(max_conductor: int, max_degree: int) -> tuple[AbelianField, ...]:
    """All conductor-normalized abelian CM fields in the given box."""
    fields = set()
    for m in range(3, max_conductor + 1):
        for S in all_subgroups(m):
            F = field_from(m, S)
            if F.conductor == m and is_cm(F) and F.degree <= max_degree:
                fields.add(F)
    return tuple(
        sorted(fields, key=lambda F: (F.conductor, F.degree,
                                      F.fixed_group.sorted_elements()))
    )


def subgroups_two_generated(m: int) -> set[frozenset[int]]:
    """Distinct subgroups of (Z/m)^x generated by at most two elements."""
    cyclics = {subgroup_generated(m, [x]).elements for x in unit_group(m)}
    cyclics.add(frozenset({1}))
    subs = set(cyclics)
    for A, B in combinations(cyclics, 2):
        subs.add(subgroup_generated(m, A | B).elements)
    return subs


# ---------------------------------------------------------------------------
# Brute-force oracles.

def pairwise_closure_witness(m: int, elems: frozenset[int]):
    """A pair (a, b) of the set whose product mod m leaves it, or None."""
    for a in elems:
        for b in elems:
            if (a * b) % m not in elems:
                return a, b
    return None


def bfs_subgroup_generated(m: int, gens) -> frozenset[int]:
    """Subgroup generated by ``gens``: multiply every element by every generator."""
    gens = list(gens)
    elems = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % m
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def power_walk_coset_order(m: int, H_elems: frozenset[int], x: int) -> int:
    """Order of xH, by walking the powers of x until one lands in H."""
    e, y = 1, x
    while y not in H_elems:
        y = (y * x) % m
        e += 1
    return e


def peeled_quotient_basis(m: int, H_elems: frozenset[int]) -> list[tuple[int, int]]:
    """Basis of (Z/m)^x / H by peeling the least residue of maximal order.

    Orders by power walks, the enlarged subgroup by BFS; the recursive
    basis is lifted back so each generator keeps its order.  Orders come
    out non-increasing.
    """
    units = unit_group(m)
    if len(units) == len(H_elems):
        return []
    x, e = 1, 1
    for y in units:
        ey = power_walk_coset_order(m, H_elems, y)
        if ey > e:
            x, e = y, ey
    rest = peeled_quotient_basis(m, bfs_subgroup_generated(m, H_elems | {x}))
    x_inv = pow(x, -1, m)
    adjusted = []
    for y, ey in rest:
        t, c = pow(y, ey, m), 0
        while t not in H_elems:
            t = (t * x_inv) % m
            c += 1
        assert c % ey == 0
        adjusted.append(((y * pow(x_inv, c // ey, m)) % m, ey))
    return [(x, e)] + adjusted


def coset_box_is_basis(m: int, H: Subgroup, basis) -> bool:
    """Does the product box of ``basis`` meet every coset of H once?  By listing cosets."""
    box = [1]
    for g, d in basis:
        box = [(x * pow(g, a, m)) % m for x in box for a in range(d)]
    cosets = {frozenset((x * h) % m for h in H.elements) for x in box}
    return len(cosets) == len(box) == len(quotient_cosets(m, H))


def peeled_invariant_factor_basis(m: int, H: Subgroup) -> tuple[tuple[int, int], ...]:
    """The oracle basis in ``invariant_factor_basis`` order (d_1 | d_2 | ...)."""
    if m == 1:
        return ()
    return tuple(reversed(peeled_quotient_basis(m, H.elements)))


def abstract_order_histogram(factors) -> Counter:
    """Element-order multiset of Z/d_1 x ... x Z/d_r, by full enumeration."""
    hist: Counter = Counter()
    for tup in product(*[range(d) for d in factors]):
        o = 1
        for a, d in zip(tup, factors):
            o = lcm(o, d // gcd(a, d))
        hist[o] += 1
    return hist


def quotient_order_histogram(m: int, H: Subgroup) -> Counter:
    return Counter(coset_order(m, H, min(c)) for c in quotient_cosets(m, H))


def brute_stabilizer_subgroup(T: CMType) -> Subgroup:
    """Largest subgroup whose cosets tile the half-system, by enumeration."""
    m = T.field.conductor
    H = T.field.fixed_group
    psi_residues = frozenset().union(*T.psi)
    best = H.elements
    for S in all_subgroups(m):
        if not (S.elements >= H.elements):
            continue
        if len(S.elements) <= len(best):
            continue
        if all(
            frozenset((x * s) % m for s in S.elements) <= psi_residues
            for x in psi_residues
        ):
            best = S.elements
    return Subgroup(m, best)


# ---------------------------------------------------------------------------
# Synthetic Weil data: r conjugate-paired copies of a CM-type on the
# 2n-th cyclotomic field give a balanced datum with any even r and a value
# field whose roots of unity admit an exact order-n character.

@lru_cache(maxsize=None)
def _synthetic_base(n: int):
    k = cyclotomic(2 * n)
    psi = canonical_cm_type(k)
    return k, psi, conjugate_type(psi)


def synthetic_weil_datum(n: int, r: int):
    if r % 2 != 0:
        raise ValueError("synthetic data here are conjugate-paired, r must be even")
    k, psi, psibar = _synthetic_base(n)
    return k, weil_datum(k, (psi, psibar) * (r // 2))
