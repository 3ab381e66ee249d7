"""Exact value types for closed-form volumes and probabilities.

All closed-form results handled by this package are rational multiples of
powers of pi, occasionally carrying a square-root radical (sqrt(N)
normalization factors, or half-integer powers of 2 and pi).  One small
immutable type covers every case and keeps the arithmetic exact end to
end, so that printed denominators and prime factorizations can be compared
digit for digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath


def square_free_split(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * r`` with ``r`` square-free; return ``(s, r)``.

    Radicands here are a matrix dimension times a power of 2, so naive
    extraction is fine.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, r = 1, n
    d = 2
    while d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            s *= d
        d += 1
    return s, r


@dataclass(frozen=True)
class PiRational:
    """Exact value ``c * pi**(pi_twice/2) * sqrt(radicand)``.

    ``coefficient`` is a reduced Fraction; ``pi_twice`` counts powers of
    sqrt(pi), so rational multiples of integer powers of pi have an even
    ``pi_twice`` and ``radicand == 1``.  The radicand is kept square-free:
    any square factor moves into the coefficient on construction, so the
    radical is carried symbolically, never rounded.  Both exponent fields
    are keyword-only, so ``PiRational(c, a)`` cannot be misread as
    ``pi**(a/2)``.
    """

    coefficient: Fraction
    pi_twice: int = field(default=0, kw_only=True)
    radicand: int = field(default=1, kw_only=True)

    def __post_init__(self):
        s, r = square_free_split(self.radicand)
        if s != 1:
            object.__setattr__(self, "coefficient", self.coefficient * s)
            object.__setattr__(self, "radicand", r)
        if self.coefficient == 0:
            object.__setattr__(self, "pi_twice", 0)
            object.__setattr__(self, "radicand", 1)

    @property
    def numerator(self) -> int:
        return self.coefficient.numerator

    @property
    def denominator(self) -> int:
        return self.coefficient.denominator

    @property
    def pi_power(self) -> int:
        """Exponent of pi (valid when ``pi_twice`` is even)."""
        if self.pi_twice % 2:
            raise ValueError("pi exponent is half-integer; use pi_twice")
        return self.pi_twice // 2

    def value(self, dps: int = 50) -> mpmath.mpf:
        """Numeric value at ``dps`` significant digits."""
        with mpmath.workdps(dps + 10):
            v = (mpmath.mpf(self.numerator) / self.denominator
                 * mpmath.pi ** (mpmath.mpf(self.pi_twice) / 2)
                 * mpmath.sqrt(self.radicand))
            return +v

    def __float__(self) -> float:
        return float(self.value(30))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiRational(Fraction(other))
        if not isinstance(other, PiRational):
            return NotImplemented
        return PiRational(self.coefficient * other.coefficient,
                          pi_twice=self.pi_twice + other.pi_twice,
                          radicand=self.radicand * other.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiRational(Fraction(other))
        if not isinstance(other, PiRational):
            return NotImplemented
        # sqrt(a)/sqrt(b) = sqrt(a*b)/b
        return PiRational(self.coefficient / (other.coefficient * other.radicand),
                          pi_twice=self.pi_twice - other.pi_twice,
                          radicand=self.radicand * other.radicand)

    def format(self) -> str:
        """Render as ``p/q*pi^a*sqrt(r*pi)`` (omitting trivial parts)."""
        c = self.coefficient
        parts = [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"]
        half, odd = divmod(self.pi_twice, 2)
        if half:
            parts.append("pi" if half == 1 else f"pi^{half}")
        if odd and self.radicand != 1:
            parts.append(f"sqrt({self.radicand}*pi)")
        elif odd:
            parts.append("sqrt(pi)")
        elif self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        return "*".join(parts)


@dataclass(frozen=True)
class PrimeFactorization:
    """Ordered list of ``(prime, exponent)`` pairs with nonzero exponents."""

    factors: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def value(self) -> Fraction:
        """Reconstruct the exact rational this factorization represents."""
        num = math.prod(p ** e for p, e in self.factors if e > 0)
        den = math.prod(p ** -e for p, e in self.factors if e < 0)
        return Fraction(num, den)

    def format(self) -> str:
        if not self.factors:
            return "1"
        bits = []
        for p, e in self.factors:
            bits.append(str(p) if e == 1 else f"{p}^{e}")
        return "*".join(bits)


@dataclass(frozen=True)
class FactorizedPiRational:
    """Result of factoring a :class:`PiRational`: sign, factored p and q, pi power."""

    sign: int
    numerator: PrimeFactorization
    denominator: PrimeFactorization
    pi_power: int

    def value(self) -> PiRational:
        coeff = self.sign * self.numerator.value() / self.denominator.value()
        return PiRational(coeff, pi_twice=2 * self.pi_power)
