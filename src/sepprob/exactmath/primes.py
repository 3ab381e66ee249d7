"""Integer primality and factorization for exact-value display.

Trial division over a sieved prime table handles the smooth constants
arising from the volume formulas directly; Miller-Rabin, with a strong
Lucas test past 3.317e24, certifies large cofactors, and Brent-cycle
Pollard rho splits the rare composite leftovers.
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

# Deterministic witness set below the bound, the least strong pseudoprime to
# all thirteen bases (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases ``_MR_WITNESSES``, and from
    ``MR_DETERMINISTIC_BOUND`` up a strong Lucas test too (Baillie-PSW).
    Proven below the bound; above it only believed, as no composite that
    passes Baillie-PSW is known."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d 2^r, d odd
    d = (n - 1) >> r
    for a in _MR_WITNESSES:  # strong probable prime: a^d = 1 or a^(d 2^j) = -1
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** j, n) != n - 1 for j in range(r)):
            return False
    return n < MR_DETERMINISTIC_BOUND or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            sign = -sign if n % 8 in (3, 5) else sign
        sign = -sign if a % 4 == 3 == n % 4 else sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n with no factor up to 41,
    with Selfridge's parameters: D the first of 5, -7, 9, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes
    iff U_d = 0 or V_(d 2^j) = 0 (mod n) for some j < s."""
    if math.isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (jac := _jacobi(D, n)) != -1:
        if jac == 0:  # D shares a factor with n
            return False
        D = 2 - D if D < 0 else -D - 2
    Q, half, s = (1 - D) // 4, (n + 1) // 2, ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n  # index 1; each bit doubles it, a set bit adds 1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


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
