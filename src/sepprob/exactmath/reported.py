"""Audit of previously reported volume constants against exact recomputation.

The literature source for these volumes prints each value twice: as a
decimal denominator and as a prime factorization.  Recomputing everything
with exact arithmetic exposes two internal inconsistencies in the reported
separable-volume entries (one decimal, one factorization).  Those are
deliberately *reported*, never silently corrected: both printed forms are
kept alongside the exact value, with flags saying which side disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formulas import volume_lebesgue
from .values import PiRational, PrimeFactorization


@dataclass(frozen=True)
class ReportedVolume:
    """One reported volume constant and its exact recomputation."""

    label: str
    printed_denominator: int
    printed_numerator: int
    printed_factorization: PrimeFactorization   # of numerator/denominator jointly
    exact: PiRational
    decimal_matches: bool
    factorization_matches: bool

    @property
    def consistent(self) -> bool:
        return self.decimal_matches and self.factorization_matches


def _pf(*pairs: tuple[int, int]) -> PrimeFactorization:
    return PrimeFactorization(tuple(pairs))


# (label, total-volume args, separability probability (1 for a total
#  volume), printed numerator, printed denominator, printed factorization of
#  the coefficient (numerator primes with positive exponents, denominator
#  primes with negative ones))
_ROWS = [
    ("complex N=4 volume", ("C", 4), 1, 1, 108972864000,
     _pf((2, -9), (3, -5), (5, -3), (7, -2), (11, -1), (13, -1))),
    ("complex N=6 volume", ("C", 6), 1, 1, 298991549953302804677854494720000000,
     _pf((2, -24), (3, -12), (5, -7), (7, -5), (11, -3), (13, -2), (17, -2),
         (19, -1), (23, -1), (29, -1), (31, -1))),
    ("real l=2 volume", ("R", 2), 1, 1, 967680,
     _pf((2, -10), (3, -3), (5, -1), (7, -1))),
    ("real l=3 volume", ("R", 3), 1, 1, 1730063650258944000,
     _pf((2, -23), (3, -6), (5, -3), (7, -2), (11, -1), (13, -1), (17, -1), (19, -1))),
    ("quaternionic N=4 volume", ("H", 4), 1, 1, 315071454005160652800000,
     _pf((2, -15), (3, -10), (5, -5), (7, -3), (11, -2), (13, -2), (17, -1),
         (19, -1), (23, -1))),
    ("complex N=4 separable volume", ("C", 4), Fraction(8, 33), 1, 449513064000,
     _pf((2, -6), (3, -6), (5, -3), (7, -2), (11, -2), (13, -1))),
    # reported decimal denominator repeats the total-volume value verbatim,
    # inconsistent with its own (correct) factorization
    ("complex N=6 separable volume", ("C", 6), Fraction(27, 1000), 1,
     298991549953302804677854494720000000,
     _pf((2, -27), (3, -9), (5, -10), (7, -5), (11, -3), (13, -2), (17, -2),
         (19, -1), (23, -1), (29, -1), (31, -1))),
    ("real l=2 separable volume", ("R", 2), Fraction(29, 64), 29, 61931520,
     _pf((29, 1), (2, -16), (3, -3), (5, -1), (7, -1))),
    # reported factorization is inconsistent with the reported decimal and
    # with multiplying the total volume by 26/323
    ("quaternionic N=4 separable volume", ("H", 4), Fraction(26, 323), 1,
     3914156909371803494400000,
     _pf((2, -14), (3, -10), (5, -5), (7, -3), (11, -2), (13, -2), (17, -1),
         (19, -1), (23, -1))),
]


def reported_value_audit() -> list[ReportedVolume]:
    """Recompute every reported volume constant and flag the mismatches.

    Exactly two rows come back inconsistent: the complex N=6 separable
    volume (stale decimal) and the quaternionic N=4 separable volume
    (wrong factorization).  All total volumes and the remaining separable
    ones check out on both sides.
    """
    rows = []
    for label, args, prob, num, den, printed in _ROWS:
        exact = volume_lebesgue(*args) * prob
        rows.append(ReportedVolume(label, den, num, printed, exact,
                                   exact.coefficient == Fraction(num, den),
                                   printed.value() == exact.coefficient))
    return rows
