"""Finite abelian group arithmetic inside unit groups (Z/m)^x.

Everything at desk scale: a subgroup is the frozenset of its residues,
read against the modulus m that the caller already holds, and invariant
factors come from peeling maximal-order elements.  No matrix
Smith-form machinery.  The order of (Z/m)^x is phi(m), counted from the
primes of m; the group is listed only where a table is really walked (the
coset table and Galois group in :mod:`cmtwist.fields`), by a sieve: a byte
mask over [0, m) with the multiples of each prime divisor of m cleared by
slice assignment, so no residue is tested in Python.  A subgroup is
generated by coset extension, <S, g> = S u gS u g^2 S u ..., so building
it costs about its size; a coset xH of maximal order is found by the
cofactor test (x^(e/q) outside H for each prime q of the exponent e),
never from walking powers.  Each integer is factored once, by a private
cache that phi(m), the unit generators, the peel and the conductor
search of :mod:`cmtwist.fields` share.  Peeling stops as soon as one
coset's order equals |G/H|: the quotient is then cyclic and that coset
alone is its basis, so the full group <x, H> is never built.

A peeled basis ((g_1, d_1), ..., (g_r, d_r)) is a basis by construction
(:func:`invariant_factor_basis` has the proof).  A field's basis is peeled
once (``fields._galois_basis``) and serves every question about it: its
orders are the invariant factors of the field report, and subgroup
questions are answered from its socle rather than by listing G/H.  A
nontrivial subgroup of G/H holds an element of some prime order p, and
:func:`_socle_lines` meets each line of elements of order p once, in
(p^(r_p) - 1)/(p - 1) products for p-rank r_p.  The CM-type stabilizer and
the declared basis of the CLI are found this way, at a cost that never
grows with |G| or |G/H|.  The brute-force versions of these kernels live
in the test suite as oracles.

Group elements are plain residues (ints in [0, m) coprime to the
modulus), and a subgroup H is a ``frozenset`` of them.  No type marks a
set as closed, and nothing here checks closure: :func:`subgroup_generated`
builds a closed set, and every function that takes an H trusts it (the
closure check is a test oracle).  An element of a quotient (Z/m)^x / H,
such as a Galois element of an abelian field, is one int too: the least
residue of its coset, from the table in :mod:`cmtwist.fields`.  No coset
is ever held as a set.  The one residue mod 1 is 0, and gcd(0, 1) = 1,
so (Z/1)^x = {0} with identity 1 % 1 = 0, and needs no case of its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from math import gcd, lcm
from typing import Iterable, Iterator


@lru_cache(maxsize=None)
def unit_group(m: int) -> tuple[int, ...]:
    """All residues in [0, m) coprime to m, sorted.

    >>> unit_group(7)
    (1, 2, 3, 4, 5, 6)
    >>> unit_group(1)
    (0,)
    >>> len(unit_group(51))
    32
    """
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    mask = bytearray(b"\x01") * m
    for p in _prime_divisors(m):
        mask[::p] = bytes(len(range(0, m, p)))
    return tuple(compress(range(m), mask))


def group_order(m: int) -> int:
    """Order phi(m) of (Z/m)^x, from the primes dividing m."""
    return _totient(m)


# Cached under a private name: the public cached functions are exactly the
# tables whose hit ratios perfbench reports, and phi(m) is not one of them.
@lru_cache(maxsize=None)
def _totient(m: int) -> int:
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    n = m
    for p in _prime_divisors(m):
        n -= n // p
    return n


def _check_unit(m: int, x: int) -> int:
    if not (0 <= x < m) or gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit residue mod {m}")
    return x


def _adjoin(m: int, S: frozenset[int], g: int) -> frozenset[int]:
    """The subgroup <S, g>, by coset extension, as a new frozenset.

    <S, g> is the union of the cosets g^i S for i below the first power of
    g that lies in S.  ``S`` itself is left as it is.
    """
    powers, p = [], g
    while p not in S:
        powers.append(p)
        p = p * g % m
    if len(S) == 1:     # S = {1}: the cosets g^i S are the powers themselves
        return S.union(powers)
    return S.union(s * p % m for p in powers for s in S)


def subgroup_generated(m: int, gens: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup of (Z/m)^x containing ``gens``.

    >>> sorted(subgroup_generated(7, [2]))
    [1, 2, 4]
    >>> sorted(subgroup_generated(51, [16]))
    [1, 16]
    >>> subgroup_generated(7, [])
    frozenset({1})
    """
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    group = frozenset({1 % m})
    for g in gens:
        if _check_unit(m, g) not in group:
            group = _adjoin(m, group, g)
    return group


# ---------------------------------------------------------------------------
# Invariant factors of (Z/m)^x / H by peeling: an element of maximal order
# in a finite abelian group generates a direct summand, so peel it off and
# recurse on the quotient, lifting the recursive basis back with the usual
# order-preserving adjustment.

# Cached under a private name, as perfbench pins the public cached functions.
# The package factors conductors, p - 1 and group orders, all bounded by
# fields.MAX_CONDUCTOR, so the cache stays small.
@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending, by trial division.

    Cached, so each integer is factored once per process; the result is a
    tuple, as cached values must not be mutated.
    """
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@lru_cache(maxsize=None)
def _unit_generators(m: int) -> tuple[int, ...]:
    """Generators of (Z/m)^x, one or two per prime power q || m, joined by CRT.

    For odd p, (Z/p^e)^x is cyclic, generated by the least primitive root g
    mod p, or by g + p when g^(p-1) = 1 mod p^2.  (Z/2^e)^x is generated by
    -1 and 5 (by -1 alone for e = 2, and is trivial for e = 1).  Each local
    generator becomes the residue that is 1 mod m/q.
    """
    gens = []
    for p in _prime_divisors(m):
        q = p
        while m % (q * p) == 0:
            q *= p
        if p == 2:
            local = [q - 1, 5][:q.bit_length() - 2]
        else:
            order_primes = _prime_divisors(p - 1)
            g = next(g for g in range(2, p)
                     if all(pow(g, (p - 1) // r, p) != 1 for r in order_primes))
            local = [g + p if pow(g, p - 1, p * p) == 1 else g]
        rest = m // q
        for g in local:
            gens.append((g + q * ((1 - g) * pow(q, -1, rest) % rest)) % m)
    return tuple(gens)


def _max_order_residue(m: int, H: frozenset[int]) -> tuple[int, int]:
    """Least residue whose coset has maximal order in (Z/m)^x / H, and that order.

    The maximal order is the exponent of G/H, the lcm of the orders of the
    images of generators of (Z/m)^x.  A generator's order divides n = |G/H|
    and comes from stripping each prime q off n while a power of it stays
    in H.  Every coset's order divides the exponent e, so xH has order e
    exactly when x^(e/q) lies outside H for each prime q of e: one power
    per prime.  Some coset has order e, so the ascending scan returns the
    first residue of that order.
    """
    n = group_order(m) // len(H)
    primes = _prime_divisors(n)

    def order(x: int) -> int:
        e = n
        for q in primes:
            while e % q == 0 and pow(x, e // q, m) in H:
                e //= q
        return e

    exponent = lcm(*(order(g) for g in _unit_generators(m)))
    cofactors = [exponent // q for q in _prime_divisors(exponent)]
    for x in range(m):
        if gcd(x, m) == 1:
            for c in cofactors:
                if pow(x, c, m) in H:
                    break
            else:
                return x, exponent


def _socle_lines(m: int, p: int, basis) -> Iterator[int]:
    """One residue per line of the p-socle of G/H, from a basis of G/H.

    An element of order p of Z/d_1 + ... + Z/d_r has coordinates a_i d_i/p
    with a in F_p^r, a_i = 0 where p does not divide d_i, so those of G/H
    are the nonzero products of y_i^(a_i), y_i = g_i^(d_i/p).  Normalizing
    a (its first nonzero coordinate is 1) meets each line once, and memory
    stays O(r) whatever their number.
    """
    ys = [pow(g, d // p, m) for g, d in basis if d % p == 0]
    for k, y in enumerate(ys):
        for tail in product(range(p), repeat=len(ys) - k - 1):
            x = y
            for z, a in zip(ys[k + 1:], tail):
                x = x * pow(z, a, m) % m
            yield x


def invariant_factor_basis(m: int, H: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Residues generating (Z/m)^x / H as a direct sum of cyclic groups.

    Returns ((g_1, d_1), ..., (g_r, d_r)) with d_1 | d_2 | ... | d_r and the
    map (a_1, ..., a_r) -> prod g_i^{a_i} * H a bijection onto the quotient.
    The chain is built in ascending order: the basis of G/<x, H> comes
    first, lifted, and x, of maximal order, goes last.

    Proof, by induction on |G/H|, G = (Z/m)^x: let x have maximal order e
    in G/H, the exponent of G/H.  For each (y, e_y) of the basis mod
    <x, H>, write y^(e_y) = x^c mod H.  The order of y in G/H is
    e_y * e/gcd(e, c) and divides e, so e_y | c, and the lift y x^(-c/e_y)
    is y mod <x, H> with e_y-th power in H: its order is exactly e_y.  An
    element of the kernel of (a, b) -> x^a prod lift^b H has b = 0 by
    induction, then e | a.  The orders multiply to |<x, H>/H| |G/<x, H>| =
    |G/H|, so the map is a bijection.  Each e_y divides e, and induction
    gives the rest of the chain d_1 | d_2 | ....

    >>> invariant_factor_basis(8, frozenset({1}))
    ((5, 2), (3, 2))
    >>> invariant_factor_basis(51, subgroup_generated(51, [16]))
    ((47, 2), (5, 8))
    """
    n = group_order(m) // len(H)
    if n == 1:
        return ()
    x, e = _max_order_residue(m, H)
    if e == n:
        return ((x, e),)
    x_inv = pow(x, -1, m)
    lifted = []
    for y, ey in invariant_factor_basis(m, _adjoin(m, H, x)):
        # y^ey lands in <x, H>; write it as x^c mod H, then cancel x^(c/ey)
        t, c = pow(y, ey, m), 0
        while t not in H:
            t = t * x_inv % m
            c += 1
        lifted.append((y * pow(x_inv, c // ey, m) % m, ey))
    return (*lifted, (x, e))
