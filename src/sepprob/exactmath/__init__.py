"""Exact and high-precision evaluation of the closed-form catalog."""

from .formulas import (
    CatalogMiss,
    chi_catalog,
    master_chi,
    milz_strunz_volume,
    p_2qubits,
    p_2quaterbits,
    p_2rebits,
    u_closed,
    volume_hs,
    volume_lebesgue,
)
from .primes import factor_int, factorize, is_prime
from .reported import ReportedVolume, reported_value_audit
from .values import FactorizedPiRational, PiRational, PrimeFactorization

__all__ = [
    "CatalogMiss",
    "FactorizedPiRational",
    "PiRational",
    "PrimeFactorization",
    "ReportedVolume",
    "chi_catalog",
    "factor_int",
    "factorize",
    "is_prime",
    "master_chi",
    "milz_strunz_volume",
    "p_2qubits",
    "p_2quaterbits",
    "p_2rebits",
    "reported_value_audit",
    "u_closed",
    "volume_hs",
    "volume_lebesgue",
]
