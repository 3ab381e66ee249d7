"""Integer primality and factorization for exact-value display.

Trial division over a sieved prime table handles the smooth constants
arising from the volume formulas directly; a deterministic Miller-Rabin
test (witness set valid below 3.317e24) certifies large cofactors, and
Brent-cycle Pollard rho splits the rare composite leftovers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .values import FactorizedPiRational, PiRational, PrimeFactorization

_SIEVE_BOUND = 100_000


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(_SIEVE_BOUND)

# Deterministic witness set for n < 3.317e24 (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed to split {n}")


def factor_int(n: int) -> PrimeFactorization:
    """Full prime factorization of a positive integer."""
    if n <= 0:
        raise ValueError("factor_int expects a positive integer")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return PrimeFactorization(tuple(sorted(factors.items())))


def factorize(x: PiRational | Fraction | int) -> FactorizedPiRational:
    """Factor the rational coefficient of ``x`` into primes.

    Returns the sign, the factorizations of |p| and q, and the pi power.
    Raises on a zero coefficient (sign would be meaningless), and on a
    radical or a half-integer pi power, which a factored coefficient
    would silently drop.
    """
    if not isinstance(x, PiRational):
        x = PiRational(Fraction(x))
    if x.radicand != 1 or x.pi_twice % 2:
        raise ValueError(f"cannot factorize {x.format()}: it has a radical "
                         "or a half-integer pi power")
    p, q = x.numerator, x.denominator
    if p == 0:
        raise ValueError("cannot factorize a zero coefficient")
    sign = 1 if p > 0 else -1
    num = PrimeFactorization() if abs(p) == 1 else factor_int(abs(p))
    den = PrimeFactorization() if q == 1 else factor_int(q)
    return FactorizedPiRational(sign, num, den, x.pi_power)
