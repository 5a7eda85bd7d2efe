"""Small exact arithmetic of the benchmark's own.

The generator and the checker use these instead of ``cmtwist`` so that a
report is judged by code the program under test does not share.
"""

from __future__ import annotations

from math import gcd

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def factor(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n by trial division (n stays desk-scale)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    """Euler's totient.

    >>> [phi(n) for n in (1, 7, 12, 51)]
    [1, 6, 4, 32]
    """
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first twenty prime bases.

    Deterministic below 3.3e24 (the first thirteen bases suffice there);
    above that a composite would have to be a strong pseudoprime to all
    twenty bases.

    >>> [n for n in range(30) if is_probable_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 that is r1 mod m1 and r2 mod m2 (coprime moduli)."""
    if gcd(m1, m2) != 1:
        raise ValueError("moduli must be coprime")
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
