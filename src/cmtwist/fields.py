"""Abelian number fields as subfields of cyclotomic fields.

A field is a pair (conductor m, fixed group H <= (Z/m)^x): the field is
the fixed field of H acting on the m-th cyclotomic field, and m is always
normalized to be minimal.  H is the frozenset of its residues mod m, as
everywhere in :mod:`cmtwist.residues`, so compositum, subfield tests and
real subfields reduce to set arithmetic.  Every field passes through the
one normalizer :func:`field_from`, which trusts H to be closed: each
caller builds it as a subgroup (from generators in :func:`cyclotomic`,
:func:`quadratic` and :func:`maximal_real_subfield`, as an intersection
of lifts in :func:`compositum`, as a stabilizer in
:func:`cmtwist.cmtypes.reflex`), so closure is never checked.

A Galois element of K is one int: the least residue of its coset of H,
so Gal(K/Q) is the ascending tuple :func:`galois_group` and the private
table ``_coset_rep(K)`` sends every residue mod m to the least residue of
its coset.  The product of g and h is ``rep[g * h % m]`` and complex
conjugation sends g to ``rep[(m - 1) * g % m]``.  The rationals are the
pair (1, {0}), since 0 is the one residue mod 1 and a unit: Gal(Q/Q) =
(Z/1)^x = {0} needs no case of its own.  :func:`coset` expands one unit
to its coset's residues, ascending.  Reports that list the coset of every
element of a field with a fixed group of more than one element read the
private table ``_coset_rows(K)`` instead, built once per field in one pass
over (Z/m)^x, which holds every element's coset as an ascending tuple.  A
cyclotomic field, where each coset is the element alone, needs no table.

Every constructor refuses a conductor above :data:`MAX_CONDUCTOR` before
any unit-group work: that work is linear in phi(m) at best, and an
unbounded conductor from a job document would otherwise run without end.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .residues import (
    _check_unit,
    _prime_divisors,
    _unit_generators,
    group_order,
    invariant_factor_basis,
    subgroup_generated,
    unit_group,
)


# Largest conductor any constructor accepts.  A full `field` job on
# cyclotomic(999983), the largest prime conductor inside it, takes about
# 0.0005 s in process, on cyclotomic(720720) 0.025 s and on
# quadratic(-249999) 0.07 s (0.08, 0.11 and 0.15 s as cold `cmtwist field`
# processes; 2-vCPU host, Python 3.11).
MAX_CONDUCTOR = 10**6


def _check_conductor(m: int) -> None:
    if m > MAX_CONDUCTOR:
        raise ValueError(
            f"conductor {m} exceeds the budget MAX_CONDUCTOR = {MAX_CONDUCTOR}"
        )


class AbelianField(NamedTuple):
    """Fixed field of ``fixed_group`` inside the ``conductor``-th cyclotomic field.

    Instances are always conductor-normalized, so equality is structural.
    A field equals only a field, never a plain tuple, since fields are
    ``lru_cache`` keys.  Build them with :func:`cyclotomic`,
    :func:`quadratic`, :func:`field_from`, or the lattice operations below.
    """

    conductor: int
    fixed_group: frozenset[int]

    @property
    def degree(self) -> int:
        return group_order(self.conductor) // len(self.fixed_group)

    def __repr__(self) -> str:
        # messages write the trivial group {0} of Q as {}, as reports write it as []
        h = ",".join(str(x) for x in sorted(self.fixed_group) if x)
        return f"AbelianField(conductor={self.conductor}, fixed={{{h}}})"

    def __eq__(self, other: object) -> bool:
        return type(other) is AbelianField and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


def field_from(m: int, H: Iterable[int]) -> AbelianField:
    """Conductor-normalized fixed field of a subgroup H of (Z/m)^x.

    H is trusted to be closed, as everywhere in :mod:`cmtwist.residues`;
    only the conductor budget and 1 in H are checked, and H is stored as
    a frozenset.  The conductor is the least d | m whose reduction kernel
    ker(m -> d), the units 1 + k*d of (Z/m)^x, lies in H.  The set S of
    such d is closed under multiples, whose kernels are smaller, and under
    gcd: by CRT, ker(m -> gcd(a, b)) = ker(m -> a) * ker(m -> b), a product
    inside H when both factors are.  So S is the set of multiples of the
    conductor f that divide m.  Starting from m2 = m (in S, as 1 is in H),
    the loop divides m2 by each prime p of m while m2/p stays in S; that
    stops exactly when p divides m2 as often as it divides f, and later
    primes leave the power of p alone, so it ends at f.  The image of H
    mod f is the image of a subgroup.

    >>> field_from(21, frozenset({1, 8})) == cyclotomic(7)
    True
    """
    _check_conductor(m)
    H = frozenset(H)
    if 1 % m not in H:
        raise ValueError(f"a subgroup of (Z/{m})^x must contain {1 % m}")
    m2 = m
    for p in _prime_divisors(m):
        while m2 % p == 0 and all(x in H for x in range(1, m, m2 // p) if gcd(x, m) == 1):
            m2 //= p
    if m2 == m:
        return AbelianField(m, H)
    return AbelianField(m2, frozenset(x % m2 for x in H))


def cyclotomic(m: int) -> AbelianField:
    """The m-th cyclotomic field, conductor-normalized.

    >>> cyclotomic(14).conductor
    7
    >>> cyclotomic(1).degree
    1
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return field_from(m, frozenset({1 % m}))


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, by trial division.

    >>> factorint(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorint(1)
    {}
    """
    if n < 1:
        raise ValueError(f"can only factor a positive integer, got {n}")
    factors = {}
    for p in _prime_divisors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        factors[p] = e
    return factors


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for any integer a and odd n > 0, by binary reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def quadratic(d: int) -> AbelianField:
    """The quadratic field adjoining a square root of squarefree d.

    Conductor is m = |disc| and the fixed group is the kernel of the
    discriminant's Kronecker character chi, a homomorphism (Z/m)^x -> +-1.
    chi is evaluated only on the generators of (Z/m)^x: the kernel is
    generated by the generators of value +1, the squares of those of value
    -1, and g0*g for the first generator g0 of value -1 and each later one
    g.  A product of generators lies in the kernel exactly when its
    exponents on the value -1 generators sum to an even number, and these
    elements generate every such product.

    For squarefree d other than 0 and 1, disc is a fundamental discriminant
    and chi is primitive of order 2 mod m: its kernel has index 2 and holds
    the units 1 mod m2 for no proper m2 | m, so the field has degree 2 and
    conductor m, and some generator lies in ``minus``.  On positive n,
    chi(n) is the Kronecker symbol (disc/n): periodic mod m, and the Jacobi
    symbol at odd n.  A generator g is even only for odd m, when g + m is odd.

    >>> sorted(quadratic(-7).fixed_group)
    [1, 2, 4]
    >>> quadratic(-3).conductor
    3
    """
    if d in (0, 1):
        raise ValueError("d must be a squarefree integer other than 0 and 1")
    disc = d if d % 4 == 1 else 4 * d
    m = abs(disc)
    _check_conductor(m)
    if any(e > 1 for e in factorint(abs(d)).values()):
        raise ValueError(f"{d} is not squarefree")
    kernel_gens, minus = [], []
    for g in _unit_generators(m):
        (kernel_gens if jacobi_symbol(disc, g if g % 2 else g + m) == 1 else minus).append(g)
    kernel_gens += [g * g % m for g in minus]
    kernel_gens += [minus[0] * g % m for g in minus[1:]]
    return field_from(m, subgroup_generated(m, kernel_gens))


def compositum(K1: AbelianField, K2: AbelianField) -> AbelianField:
    """Smallest abelian field containing both arguments.

    Its fixed group in (Z/M)^x, M = lcm(m1, m2), is the subgroup of units x
    with x mod m1 in H1 and x mod m2 in H2.  The walk runs over the residues
    h + k*m1 (h in H1, 0 <= k < M/m1) of the factor with fewer of them and
    keeps those that reduce into H2 mod m2; each kept x is a unit, since it
    is prime to m1 and to m2.

    >>> compositum(quadratic(-3), cyclotomic(7)).degree
    12
    """
    M = lcm(K1.conductor, K2.conductor)
    _check_conductor(M)
    K1, K2 = sorted((K1, K2), key=lambda K: len(K.fixed_group) * (M // K.conductor))
    m1, m2, H2 = K1.conductor, K2.conductor, K2.fixed_group
    return field_from(M, frozenset(
        x for h in K1.fixed_group for x in range(h, M, m1) if x % m2 in H2
    ))


def is_subfield(K1: AbelianField, K2: AbelianField) -> bool:
    """True when K1 is contained in K2.

    Conductors are minimal, so K1 <= K2 forces m1 | m2: K1 would otherwise
    lie in the cyclotomic field of conductor gcd(m1, m2) < m1.  Given
    m1 | m2, K1 <= K2 exactly when the fixed group H2 of K2 lies in the
    lift of H1 to (Z/m2)^x, that is when every h in H2 reduces mod m1 into
    H1.  That costs |H2| membership tests.

    >>> is_subfield(quadratic(-7), cyclotomic(7))
    True
    """
    m1 = K1.conductor
    if K2.conductor % m1 != 0:
        return False
    H1 = K1.fixed_group
    return all(h % m1 in H1 for h in K2.fixed_group)


def is_cm(K: AbelianField) -> bool:
    """CM = imaginary; abelian fields of degree > 1 are real or CM, never mixed."""
    return K.degree > 1 and K.conductor - 1 not in K.fixed_group


def maximal_real_subfield(K: AbelianField) -> AbelianField:
    """Fixed field of complex conjugation.

    >>> maximal_real_subfield(cyclotomic(7)).degree
    3
    """
    m = K.conductor
    return field_from(m, subgroup_generated(m, K.fixed_group | {m - 1}))


@lru_cache(maxsize=None)
def _coset_rep(K: AbelianField) -> tuple[int, ...]:
    """Least residue of the coset of each residue mod m; 0 off the units.

    >>> _coset_rep(quadratic(-7))
    (0, 1, 1, 3, 1, 3, 3)
    """
    m = K.conductor
    rep = [0] * m
    for x in unit_group(m):
        if not rep[x]:
            for h in K.fixed_group:
                rep[x * h % m] = x
    return tuple(rep)


@lru_cache(maxsize=None)
def galois_group(K: AbelianField) -> tuple[int, ...]:
    """Gal(K/Q) as the least residues of the cosets of the fixed group, ascending.

    >>> galois_group(quadratic(-7)), galois_group(cyclotomic(1))
    ((1, 3), (0,))
    """
    rep = _coset_rep(K)
    return tuple(x for x in unit_group(K.conductor) if rep[x] == x)


# Cached under a private name, as perfbench pins the public cached functions.
@lru_cache(maxsize=None)
def _galois_basis(K: AbelianField) -> tuple[tuple[int, int], ...]:
    """Invariant-factor basis of Gal(K/Q), peeled once per field: the field
    report reads its orders, and the stabilizer search and the declared
    basis start from it."""
    return invariant_factor_basis(K.conductor, K.fixed_group)


@lru_cache(maxsize=None)
def _coset_rows(K: AbelianField) -> dict[int, tuple[int, ...]]:
    """Each Galois element's coset, an ascending tuple, keyed by the element.

    One pass over the ascending unit group appends each unit to the row of
    its least coset residue, so every row comes out sorted.

    >>> _coset_rows(quadratic(-7))
    {1: (1, 2, 4), 3: (3, 5, 6)}
    """
    rep = _coset_rep(K)
    rows: dict[int, list[int]] = {}
    for x in unit_group(K.conductor):
        g = rep[x]
        if g == x:
            rows[g] = [x]
        else:
            rows[g].append(x)
    return {g: tuple(row) for g, row in rows.items()}


def coset(K: AbelianField, g: int) -> list[int]:
    """The residues mod m of the coset of the unit g, ascending, as a new list.

    One coset costs |H| products, not the table of :func:`_coset_rows`,
    so an error message that names one element stays cheap on a large field.

    >>> coset(quadratic(-7), 3), coset(quadratic(-7), 5)
    ([3, 5, 6], [3, 5, 6])
    >>> coset(quadratic(-7), 0)
    Traceback (most recent call last):
    ...
    ValueError: 0 is not a unit residue mod 7
    """
    m = K.conductor
    _check_unit(m, g)
    return sorted(g * h % m for h in K.fixed_group)


@lru_cache(maxsize=None)
def roots_of_unity_order(K: AbelianField) -> int:
    """The number w(K) of roots of unity in K (always even).

    For N | m, h in (Z/m)^x sends zeta_N to zeta_N^h, so zeta_N lies in K
    exactly when every h in the fixed group H is 1 mod N; the largest such
    N is g = gcd(m, h - 1 for h in H).  Any root of unity zeta_N in K
    generates a cyclotomic field of conductor N, or N/2 when N = 2 mod 4,
    and that conductor divides m; so N | 2m, zeta_N lies in the group
    generated by zeta_g and -1, and w(K) = lcm(2, g).  The running gcd
    only falls, so w(K) = 2 as soon as it reaches 1 or 2, and the rest of
    H is not read.

    >>> roots_of_unity_order(quadratic(-3))
    6
    >>> roots_of_unity_order(cyclotomic(7))
    14
    >>> roots_of_unity_order(quadratic(-7))
    2
    """
    g = K.conductor
    for h in K.fixed_group:
        g = gcd(g, h - 1)
        if g <= 2:
            return 2
    return g if g % 2 == 0 else 2 * g
