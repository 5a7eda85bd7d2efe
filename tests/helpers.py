"""Shared corpus builders and brute-force oracles for the test suite."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm, prod
from pathlib import Path

import sympy

import cmtwist
from cmtwist.cmtypes import CMType, WeilDatum, stabilizer, validate_cm_type, weil_datum
from cmtwist.fields import (
    AbelianField,
    _coset_rep,
    compositum,
    cyclotomic,
    field_from,
    galois_group,
    is_cm,
    maximal_real_subfield,
    quadratic,
)
from cmtwist.inertia import isprime
from cmtwist.residues import (
    _check_unit,
    _prime_divisors,
    group_order,
    invariant_factor_basis,
    subgroup_generated,
    unit_group,
)


def run_python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's
    ``cmtwist``, its output captured as text."""
    src = str(Path(cmtwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


# ---------------------------------------------------------------------------
# Subgroup enumeration of (Z/m)^x.

def cyclic_subgroups(m: int) -> set[frozenset[int]]:
    subs = {frozenset({1 % m})}
    for x in unit_group(m):
        subs.add(subgroup_generated(m, [x]))
    return subs


def _join_closure(m: int, gens: set[frozenset[int]]) -> set[frozenset[int]]:
    """The subgroups ``gens`` of (Z/m)^x and all their joins."""
    subs = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for S in frontier:
            for C in gens:
                if C <= S:
                    continue
                T = subgroup_generated(m, S | C)
                if T not in subs:
                    subs.add(T)
                    new.add(T)
        frontier = new
    return subs


@lru_cache(maxsize=None)
def all_subgroups(m: int) -> tuple[frozenset[int], ...]:
    """Every subgroup of (Z/m)^x, by saturating joins of cyclic subgroups."""
    subs = _join_closure(m, cyclic_subgroups(m))
    return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))


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

# Q as the pair (1, {0}): (Z/1)^x is the trivial group {0}.
RATIONALS = AbelianField(1, frozenset({0}))


@lru_cache(maxsize=None)
def cm_fields(max_conductor: int, max_degree: int) -> tuple[AbelianField, ...]:
    """All conductor-normalized abelian CM fields in the given box."""
    fields = set()
    for m in range(3, max_conductor + 1):
        for S in all_subgroups(m):
            F = field_from(m, S)
            if F.conductor == m and is_cm(F) and F.degree <= max_degree:
                fields.add(F)
    # sort by the ascending residue tuple: frozensets compare by inclusion
    return tuple(
        sorted(fields, key=lambda F: (F.conductor, F.degree,
                                      tuple(sorted(F.fixed_group))))
    )


def subgroups_two_generated(m: int) -> set[frozenset[int]]:
    """Distinct subgroups of (Z/m)^x generated by at most two elements."""
    cyclics = {subgroup_generated(m, [x]) for x in unit_group(m)}
    cyclics.add(frozenset({1}))
    subs = set(cyclics)
    for A, B in combinations(cyclics, 2):
        subs.add(subgroup_generated(m, A | B))
    return subs


# ---------------------------------------------------------------------------
# Brute-force oracles.

def gcd_scan_unit_group(m: int) -> tuple[int, ...]:
    """Units mod m, by a gcd test on every residue in [0, m)."""
    return tuple(x for x in range(m) if gcd(x, m) == 1)


def is_squarefree(d: int) -> bool:
    """Is d != 0 squarefree, by sympy's factorization of |d|."""
    return all(e == 1 for e in sympy.factorint(abs(d)).values())


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sympy.factorint(n).items())


def kronecker_scan_quadratic_kernel(d: int) -> frozenset[int]:
    """Kernel of the Kronecker character a -> (disc/a) of Q(sqrt(d)), from its
    definition on every unit a: multiplicative in a, Euler's criterion at an
    odd prime p, and (disc/2) = 1 for disc = +-1 mod 8, -1 for disc = +-3 mod 8."""
    disc = d if d % 4 == 1 else 4 * d

    @lru_cache(maxsize=None)
    def at_prime(p: int) -> int:
        if p == 2:
            return 1 if disc % 8 in (1, 7) else -1
        return 1 if pow(disc, (p - 1) // 2, p) == 1 else -1

    return frozenset(a for a in unit_group(abs(disc))
                     if prod(at_prime(p) ** e for p, e in _prime_powers(a)) == 1)


def _divisors(m: int) -> list[int]:
    """Divisors of m, ascending, by trial division up to sqrt(m)."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def divisor_scan_field(m: int, H: frozenset[int]) -> AbelianField:
    """Fixed field of a subgroup H of (Z/m)^x, at the least d | m whose
    reduction kernel, the units 1 + k*d of (Z/m)^x, lies in H."""
    d = next(d for d in _divisors(m)
             if all(x in H for x in range(1, m, d) if gcd(x, m) == 1))
    return AbelianField(d, frozenset(x % d for x in H))


def _lift(field: AbelianField, M: int) -> frozenset[int]:
    """Fixed group of the field viewed inside (Z/M)^x, by scanning every unit mod M."""
    m = field.conductor
    if M % m != 0:
        raise ValueError("can only lift along a divisor")
    H = field.fixed_group
    return frozenset(x for x in unit_group(M) if x % m in H)


def lift_compositum(K1: AbelianField, K2: AbelianField) -> AbelianField:
    """Compositum as the intersection of both fixed groups lifted to the lcm conductor."""
    M = lcm(K1.conductor, K2.conductor)
    return field_from(M, _lift(K1, M) & _lift(K2, M))


def pairwise_closure_witness(m: int, elems: frozenset[int]):
    """A pair (a, b) of the set whose product mod m leaves it, or None."""
    for a in elems:
        for b in elems:
            if (a * b) % m not in elems:
                return a, b
    return None


def _not_closed(m: int, a: int, b: int) -> ValueError:
    return ValueError(f"set not closed under multiplication mod {m}: {a}*{b}")


def _adjoin_within(m: int, group: set[int], g: int, within: frozenset[int]) -> None:
    """Grow ``group`` to <group, g> by coset extension, every new element
    inside ``within`` (g already is); the first one outside it raises
    ValueError naming two elements of ``within`` whose product is not in it."""
    powers, p = [], g
    while p not in group:
        if p not in within:
            raise _not_closed(m, powers[-1], g)
        powers.append(p)
        p = p * g % m
    base = tuple(group)
    new = [s * p % m for p in powers for s in base]
    if not within.issuperset(new):
        i = next(i for i, y in enumerate(new) if y not in within)
        raise _not_closed(m, base[i % len(base)], powers[i // len(base)])
    group.update(new)


def subgroup(m: int, elements) -> frozenset[int]:
    """The closure oracle: ``elements`` as a frozenset, if it is a subgroup
    of (Z/m)^x, else ValueError.

    The set is generated from its own elements in ascending order, and the
    first product that leaves the set is reported.  The library trusts
    every H it is given; this is what shows its constructors build
    subgroups.

    >>> sorted(subgroup(7, [4, 2, 1]))
    [1, 2, 4]
    """
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    elems = frozenset(elements)
    for x in elems:
        _check_unit(m, x)
    if 1 % m not in elems:
        raise ValueError("subgroup must contain 1")
    group = {1 % m}
    for x in sorted(elems):
        if x not in group:
            _adjoin_within(m, group, x, elems)
    return elems


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


def element_order(m: int, x: int) -> int:
    """Order of the unit residue x mod m, by walking its powers."""
    return power_walk_coset_order(m, frozenset({1 % m}), _check_unit(m, x))


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


def box_and_orders_is_basis(m: int, H: frozenset[int], basis) -> bool:
    """Does the product box of ``basis`` meet every coset of H once, with every
    g_i^(d_i) in H?  By listing cosets, so each g_i has order exactly d_i."""
    if any(pow(g, d, m) not in H for g, d in basis):
        return False
    box = [1]
    for g, d in basis:
        box = [(x * pow(g, a, m)) % m for x in box for a in range(d)]
    cosets = {frozenset((x * h) % m for h in H) for x in box}
    return len(cosets) == len(box) == len(quotient_cosets(m, H))


def swap_loop_declared_basis(K: AbelianField) -> tuple[tuple[int, int], ...]:
    """The declared basis by trial: the invariant-factor basis with complex
    conjugation put in place of the first order-2 generator for which the
    box of coset products still lists the quotient."""
    m, H = K.conductor, K.fixed_group
    basis = list(invariant_factor_basis(m, H))
    if is_cm(K) and all(g != m - 1 for g, _ in basis):
        for i, (_, d) in enumerate(basis):
            candidate = basis[:i] + [(m - 1, 2)] + basis[i + 1:]
            if d == 2 and box_and_orders_is_basis(m, H, candidate):
                return tuple(candidate)
    return tuple(basis)


def orders(basis) -> tuple[int, ...]:
    """The orders d_1 | d_2 | ... of a basis ((g_1, d_1), ...)."""
    return tuple(d for _, d in basis)


def peeled_invariant_factor_basis(m: int, H: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """The oracle basis in ``invariant_factor_basis`` order (d_1 | d_2 | ...)."""
    return tuple(reversed(peeled_quotient_basis(m, H)))


def full_scan_max_order_residue(m: int, H_elems: frozenset[int]) -> tuple[int, int]:
    """Least residue of maximal coset order in (Z/m)^x / H, scanning every unit
    unless one reaches the order |G/H| itself."""
    n = group_order(m) // len(H_elems)
    primes = _prime_divisors(n)
    best_x, best_e = 1, 1
    for x in unit_group(m):
        e = n
        for q in primes:
            while e % q == 0 and pow(x, e // q, m) in H_elems:
                e //= q
        if e > best_e:
            best_x, best_e = x, e
            if e == n:
                break
    return best_x, best_e


def subgroup_lattice_subfields(K: AbelianField) -> tuple[AbelianField, ...]:
    """Subfields of K from every subgroup of (Z/m)^x containing the fixed
    group H: the joins of the groups <H, x>, one per coset of H."""
    m, H = K.conductor, K.fixed_group
    over_H = {subgroup_generated(m, H | c) for c in quotient_cosets(m, H)}
    fields = {field_from(m, S) for S in _join_closure(m, over_H)}
    return tuple(sorted(fields, key=lambda F: (F.degree, F.conductor,
                                               tuple(sorted(F.fixed_group)))))


def abstract_order_histogram(factors) -> Counter:
    """Element-order multiset of Z/d_1 x ... x Z/d_r, by full enumeration."""
    hist: Counter = Counter()
    for tup in product(*[range(d) for d in factors]):
        o = 1
        for a, d in zip(tup, factors):
            o = lcm(o, d // gcd(a, d))
        hist[o] += 1
    return hist


def quotient_order_histogram(m: int, H: frozenset[int]) -> Counter:
    return Counter(power_walk_coset_order(m, H, min(c))
                   for c in quotient_cosets(m, H))


def reflex_field(T: CMType) -> AbelianField:
    """Fixed field of the stabilizer of psi, as ``cmtypes.reflex`` builds it."""
    return field_from(T.field.conductor, stabilizer(T))


def is_primitive(T: CMType) -> bool:
    """Does only the identity stabilize psi?  The report's ``primitive``."""
    return stabilizer(T) == T.field.fixed_group


def scan_stabilizer(T: CMType) -> frozenset[int]:
    """Stabilizer preimage by the candidate scan: a g with g psi = psi carries
    an element c0 of psi into psi, so each of the |psi| candidates
    g = c c0^-1 is tested against all of psi, |psi|^2 lookups in all."""
    K = T.field
    m, rep, psi = K.conductor, _coset_rep(K), T.psi
    c0_inv = pow(next(iter(psi)), -1, m)
    stab = [g for g in (rep[c * c0_inv % m] for c in psi)
            if all(rep[g * c % m] in psi for c in psi)]
    return frozenset(g * h % m for g in stab for h in K.fixed_group)


def brute_stabilizer_subgroup(T: CMType) -> frozenset[int]:
    """Largest subgroup whose cosets tile the half-system, by enumeration."""
    m = T.field.conductor
    H = T.field.fixed_group
    psi_residues = frozenset().union(*(coset_of(m, H, g) for g in T.psi))
    best = H
    for S in all_subgroups(m):
        if not (S >= H):
            continue
        if len(S) <= len(best):
            continue
        if all(
            frozenset((x * s) % m for s in S) <= psi_residues
            for x in psi_residues
        ):
            best = S
    return best


# ---------------------------------------------------------------------------
# Galois arithmetic on literal coset sets: the product of two cosets is the
# element-wise product set, which is the coset of any representative
# product.  Oracles for the least-residue lookups of ``fields`` and
# ``cmtypes``: each works on the sets and hands back least residues.

def coset_of(m: int, H: frozenset[int], x: int) -> frozenset[int]:
    _check_unit(m, x)
    return frozenset((x * h) % m for h in H)


def quotient_cosets(m: int, H: frozenset[int]) -> tuple[frozenset[int], ...]:
    """Cosets of H in (Z/m)^x, sorted by least representative.

    >>> quotient_cosets(7, frozenset({1, 2, 4}))
    (frozenset({1, 2, 4}), frozenset({3, 5, 6}))
    """
    seen: set[int] = set()
    cosets = []
    for x in unit_group(m):
        if x not in seen:
            c = coset_of(m, H, x)
            seen.update(c)
            cosets.append(c)
    return tuple(cosets)


def coset_mul(m: int, c1: frozenset[int], c2: frozenset[int]) -> frozenset[int]:
    return frozenset((a * b) % m for a in c1 for b in c2)


def coset_inv(m: int, c: frozenset[int]) -> frozenset[int]:
    return frozenset(pow(a, -1, m) for a in c)


def least(c: frozenset[int]) -> int:
    """The Galois element a coset set stands for."""
    return min(c)


def element_set(K: AbelianField, g: int) -> frozenset[int]:
    return coset_of(K.conductor, K.fixed_group, g)


def conjugation_set(K: AbelianField) -> frozenset[int]:
    return coset_of(K.conductor, K.fixed_group, K.conductor - 1)


def fixes_conjugation(K: AbelianField) -> bool:
    """K is totally real: complex conjugation m - 1 lies in H, so its coset is H."""
    return conjugation_set(K) == K.fixed_group


def lift_is_subfield(K1: AbelianField, K2: AbelianField) -> bool:
    """K1 <= K2 by comparing both fixed groups lifted to the lcm conductor."""
    M = lcm(K1.conductor, K2.conductor)
    return _lift(K1, M) >= _lift(K2, M)


def coset_mul_validate_cm_type(K: AbelianField, psi) -> CMType:
    """Half-system check with each conjugate formed by ``coset_mul``."""
    if not is_cm(K):
        raise ValueError(f"{K!r} is not a CM field")
    cosets = frozenset(element_set(K, e) for e in psi)
    half = len(quotient_cosets(K.conductor, K.fixed_group)) // 2
    if len(cosets) != half:
        raise ValueError(f"half-system must have {half} elements, got {len(cosets)}")
    conj = conjugation_set(K)
    for c in sorted(cosets, key=min):
        if coset_mul(K.conductor, conj, c) in cosets:
            raise ValueError(f"not a half-system: {least(c)} appears together with its conjugate")
    return CMType(K, frozenset(map(least, cosets)))


def coset_mul_conjugate_pairs(K: AbelianField) -> list[tuple[int, int]]:
    """Gal(K/Q) as pairs (g, conjugate of g), g running in coset order."""
    conj = conjugation_set(K)
    pairs = []
    seen: set[frozenset[int]] = set()
    for c in quotient_cosets(K.conductor, K.fixed_group):
        if c not in seen:
            cc = coset_mul(K.conductor, conj, c)
            seen.update((c, cc))
            pairs.append((least(c), least(cc)))
    return pairs


def all_cm_types(K: AbelianField) -> tuple[CMType, ...]:
    """Every CM-type on K, 2^(degree/2) of them: bit i of the mask picks
    the side of the i-th conjugate pair.  Mask 0 is :func:`canonical_cm_type`."""
    pairs = coset_mul_conjugate_pairs(K)
    return tuple(validate_cm_type(K, [p[(mask >> i) & 1] for i, p in enumerate(pairs)])
                 for mask in range(1 << len(pairs)))


def canonical_cm_type(K: AbelianField) -> CMType:
    """The CM-type of the least residue of each conjugate pair."""
    return validate_cm_type(K, [g for g, _ in coset_mul_conjugate_pairs(K)])


def coset_mul_translate(T: CMType, g: int) -> CMType:
    K = T.field
    G = element_set(K, g)
    return CMType(K, frozenset(least(coset_mul(K.conductor, G, element_set(K, c)))
                               for c in T.psi))


def coset_mul_conjugate_type(T: CMType) -> CMType:
    return coset_mul_translate(T, T.field.conductor - 1)


def coset_mul_stabilizer(T: CMType) -> frozenset[int]:
    """Union of the Galois elements g with g psi = psi, trying every g."""
    K = T.field
    m = K.conductor
    psi = {element_set(K, c) for c in T.psi}
    residues: set[int] = set()
    for g in quotient_cosets(m, K.fixed_group):
        if {coset_mul(m, g, c) for c in psi} == psi:
            residues |= g
    return frozenset(residues)


def coset_mul_restriction_multiplicities(k: AbelianField, components) -> dict[int, int]:
    """n_sigma, restricting each type element by the coset of its least residue."""
    counts = {least(sigma): 0 for sigma in quotient_cosets(k.conductor, k.fixed_group)}
    for T in components:
        assert lift_is_subfield(k, T.field)
        for c in T.psi:
            counts[least(coset_of(k.conductor, k.fixed_group, c % k.conductor))] += 1
    return counts


def coset_mul_is_weil_type(k: AbelianField, components) -> bool:
    counts = coset_mul_restriction_multiplicities(k, components)
    conj = conjugation_set(k)
    return all(
        counts[s] == counts[least(coset_mul(k.conductor, conj, element_set(k, s)))]
        for s in counts
    )


def appended_balance_product(D: WeilDatum):
    """The elliptic factor that balances D, by appending each CM-type of the
    quadratic base in turn and testing the longer datum; None if neither does."""
    for sigma in quotient_cosets(D.base.conductor, D.base.fixed_group):
        candidate = CMType(D.base, frozenset({least(sigma)}))
        if coset_mul_is_weil_type(D.base, D.components + (candidate,)):
            return candidate
    return None


def coset_rows(m: int, H: frozenset[int], residues=None) -> list[list[int]]:
    """The cosets of H that the residues meet, every coset if none are
    given, each as an ascending list, by least residue: how reports write
    a set of Galois elements."""
    if residues is None:
        return [sorted(c) for c in quotient_cosets(m, H)]
    return sorted(sorted(c) for c in {coset_of(m, H, x % m) for x in residues})


def induced_cm_type(K: AbelianField, T_small: CMType) -> CMType:
    """The CM-type of K lying over ``T_small`` on a CM subfield of K."""
    k = T_small.field
    psi = [
        g for g in galois_group(K)
        if least(coset_of(k.conductor, k.fixed_group, g % k.conductor)) in T_small.psi
    ]
    return validate_cm_type(K, psi)


# ---------------------------------------------------------------------------
# Synthetic Weil data: r conjugate-paired copies of a CM-type on the
# 2n-th cyclotomic field give a balanced datum with any even r and a value
# field whose roots of unity admit an exact order-n character.

@lru_cache(maxsize=None)
def _synthetic_base(n: int):
    k = cyclotomic(2 * n)
    psi = canonical_cm_type(k)
    return k, psi, coset_mul_conjugate_type(psi)


def synthetic_weil_datum(n: int, r: int):
    if r % 2 != 0:
        raise ValueError("synthetic data here are conjugate-paired, r must be even")
    k, psi, psibar = _synthetic_base(n)
    return k, weil_datum(k, (psi, psibar) * (r // 2))


# ---------------------------------------------------------------------------
# F_p[x] / (x^6 + x^5 + ... + x + 1): coefficients as 6-tuples, x^7 = 1.
# Multiply with exponents mod 7, then cancel the degree-6 coefficient
# against the modulus.  The oracle behind the Frobenius table of the
# inertia certificates.

# Seed for the sampled half of the ring-map comparison; the basis vectors
# are always tested, so sampling never decides correctness alone.
SAMPLE_SEED = 0x2457


def _reduce7(p: int, c7: list[int]) -> tuple[int, ...]:
    top = c7[6]
    return tuple((c7[i] - top) % p for i in range(6))


def _mul(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    c7 = [0] * 7
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    k = (i + j) % 7
                    c7[k] = (c7[k] + ai * bj) % p
    return _reduce7(p, c7)


def _pow(p: int, a: tuple[int, ...], e: int) -> tuple[int, ...]:
    result = (1, 0, 0, 0, 0, 0)
    base = a
    while e:
        if e & 1:
            result = _mul(p, result, base)
        base = _mul(p, base, base)
        e >>= 1
    return result


def _apply_sigma(p: int, i: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Ring map induced by x -> x^i (a field automorphism for i in 1..6)."""
    c7 = [0] * 7
    for j, aj in enumerate(a):
        k = (i * j) % 7
        c7[k] = (c7[k] + aj) % p
    return _reduce7(p, c7)


def galois_vs_frobenius(p: int, i: int, trials: int = 12) -> bool:
    """Does x -> x^i agree with u -> u^(p^d), d the discrete log of i base p?

    Both maps are checked on the full power basis 1, x, ..., x^5 (which
    already decides agreement, both being ring maps) and on ``trials``
    seeded pseudo-random elements on top.
    """
    if not isprime(p) or p == 7:
        raise ValueError(f"p must be a prime other than 7, got {p}")
    if element_order(7, p % 7) != 6:
        raise ValueError(
            f"the degree-six cyclotomic modulus is reducible mod {p}"
        )
    if p % 7 != 3:
        raise ValueError(f"p = 3 (mod 7) required, got {p} = {p % 7} (mod 7)")
    if not 1 <= i <= 6:
        raise ValueError(f"i must lie in 1..6, got {i}")
    d = next(d for d in range(6) if pow(p, d, 7) == i)
    exponent = p**d
    rng = random.Random(f"{SAMPLE_SEED}:{p}:{i}")
    elements = [tuple(1 if k == j else 0 for k in range(6)) for j in range(6)]
    elements += [
        tuple(rng.randrange(p) for _ in range(6)) for _ in range(trials)
    ]
    return all(
        _apply_sigma(p, i, a) == _pow(p, a, exponent) for a in elements
    )


def unit_generator_check() -> dict:
    """-1 - zeta reduces to -2 = 5 (mod 7), a generator of (Z/7)^x.

    Also re-derives the unit identity 1 - x^2 = (x - 1)(-1 - x) by exact
    polynomial multiplication, so the element really is a unit upstairs.
    """
    value = (-1 - 1) % 7
    order = element_order(7, value)
    # (x - 1) * (-1 - x) expanded in Z[x]
    left = [-1, 1]          # x - 1
    right = [-1, -1]        # -1 - x
    prod = [0, 0, 0]
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            prod[i + j] += a * b
    return {
        "reduction_value_mod_7": value,
        "reduction_order": order,
        "unit_identity_holds": prod == [1, 0, -1],  # 1 - x^2
    }


# ---------------------------------------------------------------------------
# Report serialization.

def report_document(report) -> dict:
    """The document a report's JSON encodes, its fields in the report's schema."""
    return {
        "command": report.command,
        "payload": report.payload,
        "results": report.results,
        "statements": list(report.statements),
        "hypotheses": [h._asdict() for h in report.hypotheses],
        "concluded": report.concluded,
        "version": cmtwist.__version__,
    }


def dumps_oracle(doc) -> str:
    """Report text as ``json.dumps`` writes it, the form ``Report.to_json``
    must reproduce byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
