"""Seeded job streams, one per workload.

Each job is ``{"doc": <job document>, "expect": <what the checker needs>}``.
Only ``doc`` is sent to the program.  ``expect`` holds the outcome class
(the CLI exit code: 0 concluded, 1 input error, 2 hypothesis failure) and
the facts the generator knows by construction, computed with ``arith``.

Sizes stay inside what the program finishes today: conductors and
quadratic discriminants are capped at ``MAX_CONDUCTOR``.  Larger inputs
(say ``{"quadratic": -1234567}``) run for minutes because nothing in the
program bounds them yet; they are left out openly, not dropped after the
fact, and belong in the benchmark once the program has size budgets.
"""

from __future__ import annotations

import random

from arith import crt, is_probable_prime, legendre, phi

MAX_CONDUCTOR = 5005
WORKLOADS = ("field-ladder", "cm-twist", "certificates")


def generate(workload: str, seed: int) -> list[dict]:
    """The job stream of ``workload`` for ``seed``; same seed, same stream."""
    builders = {
        "field-ladder": _field_ladder,
        "cm-twist": _cm_twist,
        "certificates": _certificates,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = builders[workload](rng)
    rng.shuffle(jobs)
    return jobs


def _job(command: str, payload: dict, expect: dict) -> dict:
    return {"doc": {"command": command, "payload": payload}, "expect": expect}


# ---------------------------------------------------------------------------
# field-ladder: one `field` job per rung of a ladder of Euler-phi targets.
# The cost of a field job follows phi(conductor) and the shape of the unit
# group, so every rung fixes both: the literal kind and a small cofactor f
# cycle along the ladder, and the seed only picks the prime p that puts
# phi(f * p) near the rung's target.  Conductors are f * p, mostly distinct.

LADDER_RUNGS = 120
LADDER_PHI = (32, 2000)       # phi(51) up to conductors near 5000 (f * p)
LADDER_SHAPE = 1.6            # rung density ~ phi^-shape: most rungs small
LADDER_TOLERANCE = 0.02
P90_BAND = (0.84, 0.96)
LADDER_KINDS = ("cyclotomic", "real_subfield_of", "quadratic", "compositum")
# Cofactors per kind.  For quadratic rungs f fixes the discriminant's shape
# (p*, 3p, 4p, 8p); for composita f is the conductor of the first part.
COFACTORS = {
    "cyclotomic": (1, 3, 4, 5, 8, 9, 12),
    "real_subfield_of": (1, 4, 3, 5, 9, 8, 12),
    "quadratic": (1, 3, 4, 8),
    "compositum": (3, 4, 5, 8, 12),
}
QUADRATIC_OF = {3: -3, 4: -1, 5: 5, 8: -2, 12: 3}    # discriminant +-f


def ladder_targets() -> list[float]:
    """Quantiles of the rung density.  The rungs from 84% to 96% share the
    90% target, so the 90th-percentile latency falls in a dense band of
    similar jobs rather than in the gap between two sparse top rungs."""
    lo, hi = LADDER_PHI
    e = 1.0 - LADDER_SHAPE
    out = []
    for i in range(LADDER_RUNGS):
        u = (i + 0.5) / LADDER_RUNGS
        u = 0.9 if P90_BAND[0] <= u <= P90_BAND[1] else u
        out.append((lo**e + u * (hi**e - lo**e)) ** (1.0 / e))
    return out


def _rung_prime(rng: random.Random, f: int, target: float, used: set[int]):
    """A prime p >= 5, coprime to f, with phi(f*p) near target and f*p unused
    (``used`` is per literal kind)."""
    tol = LADDER_TOLERANCE
    while tol < 0.5:
        lo = int(target * (1 - tol) / phi(f)) + 1
        hi = int(target * (1 + tol) / phi(f)) + 1
        pool = [p for p in range(max(lo, 5), hi + 1)
                if f % p and is_probable_prime(p) and 51 <= f * p <= MAX_CONDUCTOR
                and f * p not in used]
        if pool:
            return rng.choice(pool)
        tol *= 1.5
    return None


def _quadratic_literal(f: int, p: int, rng: random.Random) -> int:
    """Squarefree d whose discriminant has absolute value f * p."""
    if f == 8:
        return rng.choice((2, -2)) * p
    core = p if f in (1, 4) else 3 * p
    sign = 1 if core % 4 == 1 else -1          # d = 1 (mod 4): disc = d
    return sign * core if f in (1, 3) else -sign * core   # d = 3 (mod 4): disc = 4d


def _field_ladder(rng: random.Random) -> list[dict]:
    used: dict[str, set[int]] = {kind: set() for kind in LADDER_KINDS}
    jobs = []
    for i, target in enumerate(ladder_targets()):
        kind = LADDER_KINDS[i % len(LADDER_KINDS)]
        cofactors = COFACTORS[kind]
        j = i // len(LADDER_KINDS)
        for k in range(len(cofactors)):
            f = cofactors[(j + k) % len(cofactors)]
            p = _rung_prime(rng, f, target, used[kind])
            if p is not None:
                break
        else:
            raise AssertionError(f"no conductor for rung {i}")
        m = f * p
        used[kind].add(m)
        if kind == "quadratic":
            d = _quadratic_literal(f, p, rng)
            literal, degree, cm = {"quadratic": d}, 2, d < 0
        elif kind == "compositum":
            if j % 2:
                first, degree = {"cyclotomic": f}, phi(f) * (p - 1) // 2
            else:
                first, degree = {"quadratic": QUADRATIC_OF[f]}, p - 1
            parts = [first, {"real_subfield_of": p}]
            rng.shuffle(parts)
            literal, cm = {"compositum": parts}, j % 2 == 1 or QUADRATIC_OF[f] < 0
        else:
            literal = {kind: m}
            degree, cm = (phi(m), True) if kind == "cyclotomic" else (phi(m) // 2, False)
        jobs.append(_job("field", {"field": literal}, {
            "exit": 0, "check": "field",
            "conductor": m, "degree": degree, "is_cm": cm,
        }))
    return jobs


# ---------------------------------------------------------------------------
# cm-twist: CM-type and twist jobs over a small, heavily repeated set of CM
# fields.  The generator knows each field's Galois group by construction:
#
# * cyclotomic(p), p prime: Gal = (Z/p)^x, cyclic; conjugation is -1, and a
#   coordinate is an exponent of the declared generator, so conjugation is
#   the shift by (p-1)/2 and the quadratic residues are the even exponents.
# * compositum(quadratic(-3), real_subfield_of(p)): conductor 3p, a residue
#   x is the pair (x mod 3, +-x mod p), and only the mod-3 part restricts to
#   k = Q(sqrt(-3)).  When (p-1)/2 is even the declared basis is
#   (conjugation, order (p-1)/2), so coordinates (a, b) pair up along a.

CYCLOTOMIC_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SQRT_M3_PRIMES = (5, 13, 17, 29, 41, 97)          # K = Q(sqrt -3) * Q(zeta_p)^+
TWIST_E_PRIMES = (7, 11, 19, 23, 31, 43, 47)      # p = 3 (mod 4): Q(sqrt -p) in Q(zeta_p)
# twist-x components (primes p of Q(sqrt -3) * Q(zeta_p)^+) and character
# orders; r = dim = sum (p-1)/2, so (17), (5), (29), (41) and (5, 29) can
# conclude with n = 3 or 6 while (13) and (97) cannot.
TWIST_X_DATA = ((17,), (5,), (29,), (41,), (13,), (97,), (17, 5), (5, 29), (41, 17))
CM_TWIST_COUNTS = {"cmtype": 150, "twist-x": 90, "twist-e": 60}

# The job mix is a fixed schedule (field, label style, variant by job
# index); the seed draws the CM-types, labels and order, so the cost of a
# stream barely moves from seed to seed.


def _sqrt_m3_field(p: int) -> dict:
    return {"compositum": [{"quadratic": -3}, {"real_subfield_of": p}]}


def _residue_for(p: int, s: int, c: int, rng: random.Random) -> int:
    """A residue mod 3p that is s mod 3 and +-c mod p (either sign)."""
    return crt(s, 3, c if rng.random() < 0.5 else p - c, p)


def _cyclotomic_type(p: int, rng: random.Random, coords: bool) -> list:
    """Random half-system on Q(zeta_p), one label from each conjugate pair:
    exponents of the declared generator, or residues."""
    half = (p - 1) // 2
    if coords:
        return [a + half * rng.randrange(2) for a in range(half)]
    return [x if rng.random() < 0.5 else p - x for x in range(1, half + 1)]


def _sqrt_m3_residues(p: int, signs: list[int], rng: random.Random) -> list[int]:
    return [_residue_for(p, s, c, rng) for c, s in zip(range(1, (p - 1) // 2 + 1), signs)]


def _cmtype_job(rng: random.Random, i: int) -> dict:
    fields = [("cyclotomic", p) for p in CYCLOTOMIC_PRIMES] + [("sqrt-3", p) for p in SQRT_M3_PRIMES]
    kind, p = fields[i % len(fields)]
    half = (p - 1) // 2
    invalid = i % 6 == 5
    if kind == "cyclotomic":
        coords = (i // len(fields)) % 2 == 0
        picks = _cyclotomic_type(p, rng, coords)
        labels = [[e] for e in picks] if coords else picks
        field, m, degree, fixed = {"cyclotomic": p}, p, p - 1, 1

        def conj(x):
            return [(x[0] + half) % (p - 1)] if coords else p - x
    else:
        coords = half % 2 == 0 and (i // len(fields)) % 2 == 0
        if coords:
            labels = [[rng.randrange(2), b] for b in range(half)]
        else:
            labels = _sqrt_m3_residues(p, [rng.choice((1, 2)) for _ in range(half)], rng)
        field, m, degree, fixed = _sqrt_m3_field(p), 3 * p, p - 1, 2

        def conj(x):
            return [1 - x[0], x[1]] if coords else 3 * p - x
    if invalid:
        # a conjugate pair: in place of another element, or on top
        extra = conj(labels[0])
        labels = labels[:-1] + [extra] if (i // 6) % 2 else labels + [extra]
    rng.shuffle(labels)
    return _job("cmtype", {"field": field, "type": labels}, {
        "exit": 1 if invalid else 0, "check": "cmtype",
        "conductor": m, "degree": degree, "fixed_order": fixed,
        "labels": labels, "coords": coords,
    })


def _twist_x_job(rng: random.Random, i: int) -> dict:
    """Twist of a Weil-type datum over k = Q(sqrt -3) (w(k) = 6)."""
    primes = TWIST_X_DATA[i % len(TWIST_X_DATA)]
    variant = ("ok", "ok", "unbalanced", "ok", "bad_order", "ok", "ok", "not_central", "ok",
               "ok")[(i // len(TWIST_X_DATA)) % 10]
    components, dim, balance = [], 0, 0
    for p in primes:
        half = (p - 1) // 2
        signs = [1] * half if variant == "unbalanced" else [1] * (half // 2) + [2] * (half - half // 2)
        rng.shuffle(signs)
        res = _sqrt_m3_residues(p, signs, rng)
        rng.shuffle(res)
        components.append({"field": _sqrt_m3_field(p), "type": res})
        dim += half
        balance += sum(1 if s == 1 else -1 for s in signs)
    n = (3, 6)[i % 2] if variant != "bad_order" else (4, 5, 9)[i % 3]
    r = dim        # r = 2 dim / [k:Q]
    ok = n in (3, 6) and r % 2 == 0 and r % n != 0 and balance == 0
    payload = {"base": {"quadratic": -3}, "components": components,
               "character": {"order": n, "label": rng.choice(("M", "L"))}}
    if variant == "not_central":
        payload["assume"] = {"base_central": False}
        ok = False
    elif i % 3 == 0:
        payload["assume"] = {"end_field_equal": True, "aut_valued": True}
    return _job("twist-x", payload, {
        "exit": 0 if ok else 2, "check": "twist", "dim": dim, "r": r,
    })


def _twist_e_job(rng: random.Random, i: int) -> dict:
    """J x E over k = Q(sqrt -p): a half-system on Q(zeta_p) plus an elliptic
    type on k that balances (or, in the failing variants, does not)."""
    p = TWIST_E_PRIMES[i % len(TWIST_E_PRIMES)]
    variant = ("ok", "ok", "unbalanced", "ok", "bad_dims", "ok", "ok", "hom_nonzero", "ok",
               "ok")[(i // len(TWIST_E_PRIMES)) % 10]
    half = (p - 1) // 2                      # odd, since p = 3 (mod 4)
    coords = (i // len(TWIST_E_PRIMES)) % 2 == 0
    while True:
        picks = _cyclotomic_type(p, rng, coords)
        # coordinates are exponents of a primitive root: even = residue
        qr = sum(1 for x in picks if (x % 2 == 0 if coords else legendre(x, p) == 1))
        excess = 2 * qr - half               # n_id - n_conj before the elliptic factor
        if abs(excess) == 1:
            break
    elliptic = 1 if excess < 0 else p - 1    # 1: identity coset; -1 is a non-residue
    if variant == "unbalanced":
        elliptic = p - 1 if elliptic == 1 else 1
    dim_x, dim_y = half, 1
    if variant == "bad_dims":
        dim_x, dim_y = half - 1, 2           # [k:Q] != 2 dim(Y), raised before dims are summed
    payload = {
        "base": {"quadratic": -p},
        "components": [
            {"field": {"cyclotomic": p}, "type": [[e] for e in picks] if coords else picks},
            {"field": {"quadratic": -p}, "type": [elliptic]},
        ],
        "dim_x": dim_x, "dim_y": dim_y,
    }
    if variant == "hom_nonzero":
        payload["assume"] = {"hom_xy_zero": False}
    elif i % 3 == 0:
        payload["label"] = "L_d"
    return _job("twist-e", payload, {
        "exit": 0 if variant == "ok" else 2, "check": "twist", "dim": half + 1, "r": half + 1,
    })


def _cm_twist(rng: random.Random) -> list[dict]:
    builders = {"cmtype": _cmtype_job, "twist-x": _twist_x_job, "twist-e": _twist_e_job}
    return [build(rng, i) for kind, build in builders.items()
            for i in range(CM_TWIST_COUNTS[kind])]


# ---------------------------------------------------------------------------
# certificates: inertia and base certificates at seeded primes of every
# size class, the cyclic layer split, and the two worked examples.

PRIME_BITS = ((2, 10), (20, 40), (60, 100))      # small, medium, up to ~1e30
CERT_COUNTS = {"inertia": 600, "base-cert": 300, "discond": 200,
               "example-41": 40, "example-42": 60}


def _prime(rng: random.Random, bits: tuple[int, int], residue: int | None) -> int:
    """A random prime of the size class; = residue (mod 7), or != 3 and != 0."""
    lo, hi = bits
    while True:
        n = rng.randrange(2 ** lo, 2 ** hi) | 1
        if residue is not None:
            n += (residue - n) % 7
            n += 7 * (n % 2 == 0)
        elif n % 7 in (0, 3):
            continue
        if is_probable_prime(n):
            return n


def _composite(rng: random.Random, bits: tuple[int, int]) -> int:
    lo, hi = bits
    a = _prime(rng, (max(2, lo // 2), max(3, hi // 2)), None)
    return a * rng.choice((3, 5, 9, 11, 13, 15, 25))


def _cert_prime(rng: random.Random, ok: bool, i: int) -> int:
    return _prime(rng, PRIME_BITS[i % len(PRIME_BITS)], 3 if ok else None)


def _certificates(rng: random.Random) -> list[dict]:
    jobs = []
    for i in range(CERT_COUNTS["inertia"]):
        kind = i % 6            # 0-3 concluded, 4 congruence fails, 5 not prime
        bits = PRIME_BITS[(i // 6) % len(PRIME_BITS)]
        if kind == 5:
            p = _composite(rng, bits)
        else:
            p = _prime(rng, bits, 3 if kind < 4 else None)
        jobs.append(_job("inertia", {"p": p}, {
            "exit": 1 if kind == 5 else (0 if kind < 4 else 2),
            "check": "inertia", "p": p,
        }))
    for i in range(CERT_COUNTS["base-cert"]):
        kind = i % 5            # 0-2 concluded, 3 one congruence fails, 4 q not prime
        p = _cert_prime(rng, True, i)
        q = p
        while q == p:
            q = _cert_prime(rng, kind != 3, i // 5)
        if kind == 4:
            q = _composite(rng, PRIME_BITS[i % len(PRIME_BITS)])
        if rng.random() < 0.5:
            p, q = q, p
        jobs.append(_job("base-cert", {"p": p, "q": q}, {
            "exit": 1 if kind == 4 else (0 if kind < 3 else 2),
            "check": "base-cert", "p": p, "q": q,
        }))
    for i in range(CERT_COUNTS["discond"]):
        n = rng.randrange(2, 10 ** (2, 6, 12)[i % 3])
        divisors = [d for d in range(1, min(n, 10**4) + 1) if n % d == 0]
        if i % 4 == 3:
            d = next(x for x in range(2, n + 2) if n % x != 0)
        else:
            d = rng.choice(divisors)
        jobs.append(_job("discond", {"n": n, "d": d}, {
            "exit": 0 if n % d == 0 else 1, "check": "discond", "n": n, "d": d,
        }))
    for _ in range(CERT_COUNTS["example-41"]):
        jobs.append(_job("example-41", {}, {"exit": 0, "check": "example-41"}))
    for i in range(CERT_COUNTS["example-42"]):
        payload = {}
        if i % 3:
            ok = i % 3 == 1
            p = _cert_prime(rng, True, i)
            q = p
            while q == p:
                q = _cert_prime(rng, ok, i // 3)
            payload = {"p": p, "q": q}
        else:
            ok = True
        jobs.append(_job("example-42", payload, {
            "exit": 0 if ok else 2, "check": "example-42",
            "p": payload.get("p", 3), "q": payload.get("q", 17),
        }))
    return jobs
