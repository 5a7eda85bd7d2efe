"""Inertia-order certificates for the degree-six cyclotomic field at inert primes.

For a prime p = 3 (mod 7) the connectedness-base argument needs a handful
of exact facts: the inertia subgroup at p inside the p-division field has
order (p^6 - 1)/(p^2 + p + 1); the Frobenius powers p^3, p^4, p^5 realize
the Galois elements of exponents 6, 4, 5; and neither p^2 + p + 1 nor
p^2 - 1 is divisible by 7.  All of them follow from the congruence, so a
certificate checks the congruence alone, states the arithmetic at p as
witnesses resting on it, and concludes exactly when it holds.  The
witnesses are formulas in p: the one number they name, the inertia
order, is written once, in the certificate's results.

Primality is decided here too, with the standard library only: trial
division by the primes below 50, then Miller-Rabin to the first 13 primes
from 2^64 to 3.3e24, where it is proven (Sorenson and Webster, Math. Comp.
86, 2017), and the strong Baillie-PSW test elsewhere (Baillie and
Wagstaff, Math. Comp. 35, 1980).  That test has no counterexample below
2^64, where it has been checked exhaustively (Baillie, Fiori and
Wagstaff, Math. Comp. 90, 2021), and none is known above 3.3e24, so a
certificate at a prime from 3.3e24 on rests on an assumed record that
the prime is one.  Primes have at most MAX_PRIME_BITS bits: there
:func:`isprime` takes about 0.11 s in process, and the largest number a
report prints, the inertia order, below p^4, has at most 2,866 digits,
within CPython's default limit of 4,300.
"""

from __future__ import annotations

from math import isqrt

from .fields import jacobi_symbol
from .twists import Conclusion, Hypothesis, conclude


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# (bound, bases): from 2^64 up to bound, the least strong pseudoprime to
# the first 13 primes, the strong probable-prime test to those bases
# decides primality.
_MR_BASES = (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES[:13])

# isprime takes about 0.11 s at this bit length (Python 3.11, 2-vCPU host),
# and the inertia order, below p^4, prints in at most 2,866 digits.
MAX_PRIME_BITS = 2380


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin: is odd n, above every base, a strong probable prime to each?"""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
            if x == 1:
                return False
        else:
            return False
    return True


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 47.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes when
    U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s.

    The test runs on a chain with Q = 1.  Q is a unit mod n: a prime l
    dividing Q and n is odd and at most |Q| < |D|, so the earlier candidate
    +-l (+-9 when l = 3) has symbol 0 and has already rejected n.  Let
    P' = Q^-1 - 2 and W_j = V_j(P', 1), whose roots are a^2/Q and b^2/Q for
    the roots a, b of x^2 - x + Q, so that V_2j = Q^j W_j.  With
    h = (d + 1)/2, a + b = 1 and ab = Q,

        D U_d = (a - b)(a^d - b^d) = V_2h - Q V_(2h-2) = Q^h (W_h - W_(h-1)),
        V_d = (a + b)(a^d + b^d) = V_2h + Q V_(2h-2) = Q^h (W_h + W_(h-1)),
        V_(d 2^r) = Q^(d 2^(r-1)) W_(d 2^(r-1))  for r >= 1.

    D and Q are units mod n, so the test reads W alone: a ladder carries
    (W_k, W_(k+1)) to k = h - 1, then W_d = W_h W_(h-1) - P' and
    W_2j = W_j^2 - 2.
    """
    if isqrt(n) ** 2 == n:
        return False        # no D has (D/n) = -1
    D = 5
    while (j := jacobi_symbol(D, n)) != -1:
        if j == 0:
            return False    # 1 < gcd(D, n) <= |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    P1 = (pow(Q, -1, n) - 2) % n               # P'
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    w, w1 = 2, P1                              # k = 0
    for bit in bin(d >> 1)[2:]:
        if bit == "1":                         # k -> 2k + 1
            w, w1 = (w * w1 - P1) % n, (w1 * w1 - 2) % n
        else:                                  # k -> 2k
            w, w1 = (w * w - 2) % n, (w * w1 - P1) % n
    if w1 == w or w1 + w == n:
        return True
    w = (w * w1 - P1) % n                      # W_d
    for _ in range(s - 1):
        if w == 0:
            return True
        w = (w * w - 2) % n
    return False


def isprime(n: int) -> bool:
    """Is n prime?  Proven below 3.3e24, strong Baillie-PSW above.

    >>> [n for n in range(30) if isprime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> isprime(3215031751), isprime(2**89 - 1)
    (False, True)
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 53 * 53:
        return True
    bound, bases = _MR_BASES
    if 1 << 64 <= n < bound:
        return _strong_probable_prime(n, bases)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


# ---------------------------------------------------------------------------
# Certificates.

CLASS_NUMBER_ASSUMPTION = "class number 1"
GOOD_REDUCTION_ASSUMPTION = "good reduction outside 7"

# The arithmetic at p that p = 3 (mod 7) proves, written as formulas in p.
_WITNESSES = (
    "(p^6 - 1)/(p^2 + p + 1) = inertia_order",
    "gcd(p^6 - 1, p^3 (p^2 + p + 1)) = p^2 + p + 1",
    "(p^3, p^4, p^5) = (6, 4, 5) (mod 7)",
    "(p^2 + p + 1, p^2 - 1) = (6, 1) (mod 7)",
)


def _probable_primes(**primes: int) -> tuple[Hypothesis, ...]:
    """An assumed record for each named prime at or above psi_13, the bound
    of :data:`_MR_BASES`, where :func:`isprime` proves nothing: its verdict
    there is a strong Baillie-PSW probable prime."""
    return tuple(Hypothesis(f"{key} is prime (strong Baillie-PSW probable prime)", "assumed", True)
                 for key, n in primes.items() if n >= _MR_BASES[0])


def kitself_certificate(p: int) -> Conclusion:
    """Check p = 3 (mod 7) at a prime p other than 7; conclude K' = K if it holds.

    p has at most MAX_PRIME_BITS bits, and its primality is decided once,
    here, by isprime: a proof below 3.3e24, and above it only a strong
    Baillie-PSW probable prime, which an assumed record then names.  The
    congruence is the one checked record.  When it holds, the arithmetic at
    p is stated as witnesses resting on it (and on the primality record,
    when there is one): they are statements and not checks because the
    congruence proves each of them.  For every p, q = p^2 + p + 1 divides
    p^3 - 1 = (p - 1) q, so #(I_p) = (p^6 - 1)/q = (p - 1)(p^3 + 1) is an
    integer, and p^6 - 1 is prime to p, so gcd(p^6 - 1, p^3 q) = q.  The
    residues mod 7 of p^3, p^4, p^5, p^2 + p + 1 and p^2 - 1 depend on p
    mod 7 alone; at 3 they are 6, 4, 5, 6 and 1, so 7 divides neither of
    the last two.  The witnesses name no number that depends on p.

    >>> kitself_certificate(3).results["conclusion"]
    "K' = K"
    >>> kitself_certificate(2).statements
    ()
    """
    if p.bit_length() > MAX_PRIME_BITS:
        raise ValueError(f"more than MAX_PRIME_BITS = {MAX_PRIME_BITS} bits")
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if p == 7:
        raise ValueError("must differ from 7")
    congruence = Hypothesis("p = 3 (mod 7)", "checked", p % 7 == 3)
    primality = _probable_primes(p=p)
    hypotheses = (congruence, Hypothesis(CLASS_NUMBER_ASSUMPTION, "assumed", True), *primality)
    rests_on = [congruence.name, *(h.name for h in primality)]
    statements, concluded = conclude(hypotheses, [(w, rests_on) for w in _WITNESSES])
    results = {
        "p": p,
        "inertia_order": (p - 1) * (p**3 + 1) if congruence.holds else None,
        "conclusion": "K' = K" if concluded else None,
    }
    return Conclusion(results, hypotheses, statements, concluded)


def base_certificate(p: int, q: int) -> Conclusion:
    """Certify K_Phi(A) = K from inertia certificates at two distinct primes.

    The two per-prime certificates are checked hypotheses, and every
    statement rests on both of them, on both assumptions and on the
    primality record of each prime at or above 3.3e24, so a failed
    certificate withholds them all.  A prime that
    :func:`kitself_certificate` refuses raises its ``ValueError`` prefixed
    with the argument's name, ``p`` or ``q``, and q = p is refused as ``q``.

    >>> base_certificate(3, 17).results["conclusion"]
    'K_Phi(A) = K = Q_Phi(A)'
    >>> base_certificate(3, 2).statements
    ()
    """
    if p == q:
        raise ValueError("q: must differ from p")
    certs = []
    for key, prime in (("p", p), ("q", q)):
        try:
            certs.append(kitself_certificate(prime))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    cert_p, cert_q = certs
    hypotheses = (
        Hypothesis(f"K' = K at p = {p}", "checked", cert_p.concluded),
        Hypothesis(f"K' = K at q = {q}", "checked", cert_q.concluded),
        Hypothesis(CLASS_NUMBER_ASSUMPTION, "assumed", True),
        Hypothesis(GOOD_REDUCTION_ASSUMPTION, "assumed", True),
        *_probable_primes(p=p, q=q),
    )
    every = [h.name for h in hypotheses]
    statements, concluded = conclude(hypotheses, (
        ("K_Phi(A) lies in K(A_n) for every n >= 3", every),
        ("K(A_p) intersect K(A_q) is unramified over K away from 7", every),
        ("no intermediate field survives the inertia bound at either prime", every),
    ))
    results = {
        "certificate_p": cert_p.results,
        "certificate_q": cert_q.results,
        "conclusion": "K_Phi(A) = K = Q_Phi(A)" if concluded else None,
    }
    return Conclusion(results, hypotheses, statements, concluded)
