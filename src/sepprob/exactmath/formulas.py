"""Closed-form volumes, separability probabilities, and chi functions.

Every operation here evaluates a fixed formula catalog exactly (big-integer
rationals, radicals carried symbolically) or, where a result is genuinely
irrational, to a requested number of digits via mpmath.  Gamma ratios with
half-integer arguments are telescoped into Pochhammer-style products so
that rational answers come out as exact rationals; the stray sqrt(pi)
factors cancel identically.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import spence

from .. import hyper
from .values import PiRational


class CatalogMiss(LookupError):
    """Requested (d, k) has no closed form; use quadrature.chi_numeric."""


# ---------------------------------------------------------------------------
# gamma-function plumbing over exact rationals
# ---------------------------------------------------------------------------

def gamma_half_exact(twice: int) -> PiRational:
    """Gamma(twice/2) exactly: a rational, times sqrt(pi) when ``twice`` is odd.

    ``twice`` must be a positive integer.
    """
    if twice <= 0:
        raise ValueError("gamma argument must be positive")
    if twice % 2 == 0:
        return PiRational(Fraction(math.factorial(twice // 2 - 1)))
    m = (twice - 1) // 2  # Gamma(m + 1/2)
    return PiRational(Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)),
                      pi_twice=1)


def _require_int(name: str, value) -> int:
    if int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# volume formulas
# ---------------------------------------------------------------------------

def volume_lebesgue(field: str, n: int) -> PiRational:
    """Lebesgue-measure volume of the n x n density matrices over a field.

    ``field`` is "C", "R" or "H"; for "R" the argument is the
    half-dimension l (matrix size 2l).  The complex and quaternionic cases
    take the matrix dimension N directly.
    """
    f = field.upper()
    if f == "C":
        if n < 2:
            raise ValueError("complex case requires N >= 2")
        num = math.prod(math.factorial(i) for i in range(1, n))
        return PiRational(Fraction(num, math.factorial(n * n - 1)), pi_twice=n * (n - 1))
    if f == "R":
        l = n
        if l < 1:
            raise ValueError("real case requires l >= 1")
        coeff = (Fraction(math.factorial(2 * l), 2 ** (l * l + l))
                 / math.factorial(l) / math.factorial(2 * l * l + l - 1))
        coeff *= math.prod(math.factorial(2 * i) for i in range(1, l))
        return PiRational(coeff, pi_twice=2 * l * l)
    if f == "H":
        if n < 2:
            raise ValueError("quaternionic case requires N >= 2")
        coeff = Fraction(math.factorial(2 * n - 2), math.factorial(2 * n * n - n - 1))
        coeff *= math.prod(math.factorial(2 * i) for i in range(1, n - 1))
        return PiRational(coeff, pi_twice=2 * (n * n - n))
    raise ValueError(f"unsupported field tag {field!r}")


def volume_hs(field: str, n: int) -> PiRational:
    """Hilbert-Schmidt volume of the N x N density matrices over R or C.

    The sqrt(N) normalization (and any half-integer powers of 2 and pi in
    the real case) is carried symbolically.
    """
    f = field.upper()
    if n < 2:
        raise ValueError("requires N >= 2")
    if f == "C":
        coeff = Fraction(2 ** (n * (n - 1) // 2))
        coeff *= math.prod(math.factorial(i - 1) for i in range(1, n + 1))
        coeff /= math.factorial(n * n - 1)
        return PiRational(coeff, pi_twice=n * (n - 1), radicand=n)
    if f == "R":
        # sqrt(N) 2^N (2pi)^(N(N-1)/4) Gamma((N+1)/2) prod Gamma(1+i/2)
        #   / (Gamma(N(N+1)/2) Gamma(1/2))
        t = n * (n - 1) // 2
        lead = PiRational(Fraction(2 ** n), pi_twice=t, radicand=n * 2 ** t)
        gammas = math.prod(gamma_half_exact(i + 2) for i in range(1, n + 1))
        return (lead * gamma_half_exact(n + 1) * gammas
                / (gamma_half_exact(n * (n + 1)) * gamma_half_exact(1)))
    raise ValueError(f"unsupported field tag {field!r} (HS volumes cover R and C)")


def milz_strunz_volume(m: int, r: float) -> tuple[PiRational, float]:
    """Conjectured HS volume of 2 x m states at fixed qubit Bloch radius r.

    Returns the exact r = 0 value (sqrt(m) carried symbolically) and the
    radial profile factor ``(1 - r^2)^(2(m^2-1))`` evaluated at r.
    """
    if m < 2:
        raise ValueError("requires m >= 2")
    if not 0.0 <= r <= 1.0:
        raise ValueError("Bloch radius must lie in [0, 1]")
    # sqrt(m) 2^(6m^2-m-23/2) pi^(2m^2-m-3/2) prod_{k<=2m} Gamma(k)
    #   Gamma(2m^2+1/2) / (Gamma(4m^2) Gamma(2m^2-1))
    lead = PiRational(Fraction(1), pi_twice=2 * (2 * m * m - m) - 3,
                      radicand=m * 2 ** (2 * (6 * m * m - m) - 23))
    gammas = math.prod(gamma_half_exact(2 * k) for k in range(1, 2 * m + 1))
    v0 = (lead * gammas * gamma_half_exact(4 * m * m + 1)
          / (gamma_half_exact(8 * m * m) * gamma_half_exact(4 * m * m - 2)))
    profile = (1.0 - r * r) ** (2 * (m * m - 1))
    return v0, profile


# ---------------------------------------------------------------------------
# induced-measure separability probabilities (two-level x two-level systems)
# ---------------------------------------------------------------------------

def p_2qubits(k: int) -> Fraction:
    """Exact complex two-qubit separability probability at induced order k."""
    k = _require_int("k", k)
    if k < -2:
        raise ValueError("formula domain is k >= -2")
    g = gamma_half_exact(2 * k + 7).coefficient   # Gamma(k + 7/2) / sqrt(pi)
    num = 3 * 4 ** (k + 3) * (2 * k * (k + 7) + 25)
    frac = num * g * math.factorial(2 * k + 8) / Fraction(math.factorial(3 * k + 12))
    return 1 - frac


def p_2rebits(k: int) -> Fraction:
    """Exact real (two-rebit) separability probability at induced order k."""
    k = _require_int("k", k)
    if k < -1:
        raise ValueError("formula domain is k >= -1")
    g = gamma_half_exact(4 * k + 9).coefficient   # Gamma(2k + 9/2) / sqrt(pi)
    frac = (4 ** (k + 1) * (8 * k + 15) * math.factorial(k + 1) * g
            / Fraction(math.factorial(3 * k + 6)))
    return 1 - frac


def p_2quaterbits(k: int) -> Fraction:
    """Exact quaternionic (two-quaterbit) separability probability at order k."""
    k = _require_int("k", k)
    if k < 0:
        raise ValueError("formula domain is k >= 0")
    poly = k * (k * (2 * k * (k + 21) + 355) + 1452) + 2430
    g = gamma_half_exact(2 * k + 13).coefficient  # Gamma(k + 13/2) / sqrt(pi)
    frac = (4 ** (k + 6) * poly * g * math.factorial(2 * k + 14)
            / Fraction(3 * math.factorial(3 * k + 21)))
    return 1 - frac


# ---------------------------------------------------------------------------
# the interpolation formula u(eta)
# ---------------------------------------------------------------------------

def _u_numerator(eta: mpmath.mpf) -> mpmath.mpf:
    a = -3 * eta * (eta + 4) * ((eta - 6) * eta - 15)
    b = (mpmath.mpf(16) ** (2 * eta + 3) * ((eta - 10) * eta - 5)
         * mpmath.gamma(eta + mpmath.mpf(3) / 2)
         * mpmath.gamma(eta + mpmath.mpf(5) / 2) ** 3
         * mpmath.rgamma(4 * eta + 5)
         / (mpmath.pi ** 2 * (2 * eta + 3)))
    return -(a + b + 60)


def u_closed(eta, dps: int = 50) -> mpmath.mpf:
    """Interpolated two-qubit separability probability u(eta), eta > -3/2.

    The denominator 3 (eta-1)^2 eta^2 has removable zeros at eta = 0 and 1;
    there the analytic limit is taken via a second-order expansion of the
    numerator.  The result carries at least ``dps`` significant digits.
    """
    if eta <= -1.5:
        raise ValueError("domain is eta > -3/2")
    with mpmath.workdps(max(dps, 15) + 25):
        e = mpmath.mpf(eta)
        if e in (0, 1):
            # numerator has a double zero; u = N''(eta0)/6 by the expansion
            # of 3 (eta-1)^2 eta^2 around either zero
            q = max(dps, 15) // 2 + 8
            with mpmath.workdps(max(dps, 15) + 3 * q + 20):
                h = mpmath.mpf(10) ** (-q)
                c2 = (_u_numerator(e + h) + _u_numerator(e - h)
                      - 2 * _u_numerator(e)) / (2 * h * h)
                out = c2 / 3
            return +out
        return _u_numerator(e) / (3 * (e - 1) ** 2 * e ** 2)


# ---------------------------------------------------------------------------
# the chi-function catalog and the master formula
# ---------------------------------------------------------------------------

def _eps_domain(eps) -> tuple[np.ndarray, bool]:
    """eps as a float array, and whether it was given as a scalar; refuses
    any eps outside [0, 1], NaN included."""
    eps_arr = np.asarray(eps, dtype=float)
    if not np.all((eps_arr >= 0) & (eps_arr <= 1)):
        raise ValueError("eps must lie in [0, 1]")
    return eps_arr, np.isscalar(eps) or eps_arr.ndim == 0


def chi_catalog(d: int, k, eps, family: str = "full"):
    """Closed-form separability function chi_{d,k}(eps).

    Catalog coverage: d = 2 for any rational k > -3 (general closed form);
    d = 4 for k in {0, 1} (k = 0 is :func:`master_chi`); and the X-state
    reduction eps**d for any d (``family="xstate"``).  Anything else raises
    :class:`CatalogMiss` to signal that the numeric constrained integration
    must be used.

    Accepts scalar or ndarray eps; returns the same shape.  Refuses eps
    outside [0, 1], NaN included, with ValueError.
    """
    eps_arr, scalar = _eps_domain(eps)
    if family == "xstate":
        out = eps_arr ** d
        return float(out) if scalar else out
    if family != "full":
        raise ValueError(f"unknown family {family!r}")
    e2 = eps_arr * eps_arr
    if d == 2:
        kf = float(k)
        if kf <= -3:
            raise CatalogMiss("d=2 closed form requires k > -3")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ((-kf + e2 - 3) * (1 - e2) ** (kf + 1) + kf + 3) / (kf + 3)
        return float(out) if scalar else out
    if d == 4:
        if k == 0:
            return master_chi(4, eps)
        if k != 1:
            raise CatalogMiss(f"no quaternionic closed form for k={k}")
        out = e2 * e2 * (-9 * e2 ** 3 + 55 * e2 * e2 - 125 * e2 + 100) / 21
        return float(out) if scalar else out
    raise CatalogMiss(f"no catalog entry for d={d}")


def master_chi_coefficients(d: int, k: int = 0) -> list[Fraction]:
    """Exact coefficients c_n of the terminating series eps^d sum c_n eps^(2n),
    even d and integer k >= 0:

        d! (d+k)!^2 / ((d/2)! (d/2+k)!)
            * 3F2_reg(-d/2-k, d/2, d; d/2+1, 3d/2+k+1; eps^2).

    The series stops after its h + k + 1 terms (h = d/2), which are built
    from the term ratio.  Half of it is :func:`master_term` for even d.
    """
    if d < 2 or d % 2:
        raise ValueError("terminating master series requires even d >= 2")
    h = d // 2
    # regularized term n: (-h-k)_n (h)_n (d)_n / ((h+n)! (3h+k+n)! n!)
    c = Fraction(math.factorial(d) * math.factorial(d + k) ** 2,
                 math.factorial(h) ** 2 * math.factorial(h + k)
                 * math.factorial(3 * h + k))
    coeffs = [c]
    for n in range(h + k):
        c *= Fraction((n - h - k) * (h + n) * (d + n),
                      (h + n + 1) * (3 * h + k + n + 1) * (n + 1))
        coeffs.append(c)
    return coeffs


def master_term(d: int, k: int, eps):
    """The closed term of chi_{d,k}(eps), for integers d >= 1 and k >= 0:

        eps^d d! (d+k)!^2 / (2 (d/2)! (d/2+k)!)
            * 3F2_reg(-d/2-k, d/2, d; d/2+1, 3d/2+k+1; eps^2),

    half the master formula taken to order k: the first part of
    ``quadrature.extended_master_parts``, and at k = 0 half of
    :func:`master_chi`.  Even d terminates (Horner's rule over
    :func:`master_chi_coefficients`).  The two-rebit term, d = 1 and
    k = 0, is :func:`_two_rebit_term` on all of [0, 1).  Every other odd
    d and k is summed for eps < 1 by :func:`sepprob.hyper.hyp3f2_reg_series`.
    At k = 0, against the tests' 50-digit values (to eps = 0.999999 at
    d = 1, 3, 1 - 1e-12 above), its worst relative errors were 8.4e-16
    (d = 1, 3), 8.9e-16 (5), 1.8e-15 (7), 1.0e-14 (9), 2.5e-14 (11) and
    8.5e-14 (13).  At eps = 1 the series is the well-poised
    3F2(d, d/2, -d/2-k; 1 + d/2, 1 + 3d/2 + k; 1),
    which Dixon's theorem sums so that the term is exactly 1/2 for all (d, k).
    The term never decreases in eps (its region grows), so it is clipped at
    1/2, which rounding exceeds just below eps = 1 (by up to 1.6e-13).  An
    odd-d series past float64's range (k >= 170 at d = 1) is refused.

    Accepts scalar or ndarray eps; returns the same shape.  Refuses eps
    outside [0, 1], NaN included, with ValueError.
    """
    d = _require_int("d", d)
    k = _require_int("k", k)
    if d < 1 or k < 0:
        raise ValueError("requires d >= 1 and k >= 0")
    eps_arr, scalar = _eps_domain(eps)
    out = np.full_like(eps_arr, 0.5)  # Dixon's sum at eps = 1
    summed = eps_arr < 1.0
    e = eps_arr[summed]
    e2 = e * e
    if (d, k) == (1, 0):
        out[summed] = _two_rebit_term(e)
    elif d % 2 == 0:
        acc = np.zeros_like(e2)
        for c in reversed(master_chi_coefficients(d, k)):
            acc = acc * e2 + float(c / 2)
        out[summed] = e ** d * acc
    else:
        a = (-d / 2 - k, d / 2, float(d))
        b = (d / 2 + 1, 3 * d / 2 + k + 1)
        # the scale rounds the exact integer over a float once.  Where the
        # series' first term 1/(Gamma(b1) Gamma(b2)) underflows, the scale,
        # over 5 times its reciprocal there, overflows: one OverflowError
        # marks every (d, k) whose series float64 cannot hold
        try:
            scale = float(math.factorial(d) * math.factorial(d + k) ** 2
                          / Fraction(2 * math.gamma(d / 2 + 1) * math.gamma(d / 2 + k + 1)))
            out[summed] = e ** d * scale * hyper.hyp3f2_reg_series(a, b, e2)
        except OverflowError:
            raise ValueError(f"the odd-d series of d={d}, k={k} leaves float64's range") from None
    out = np.minimum(out, 0.5)
    return float(out) if scalar else out


# below it the subtraction in the closed form loses digits, and the Maclaurin
# polynomial's first _TWO_REBIT_TERMS terms leave a tail under 1.5e-17 relative
_TWO_REBIT_CLOSED_FROM, _TWO_REBIT_TERMS = 0.25, 10
_TWO_REBIT_COEFFS = [float(Fraction(1, (1 - 2 * n) * (2 * n + 1) ** 2 * (2 * n + 3)))
                     for n in range(_TWO_REBIT_TERMS)]


def _two_rebit_term(eps: np.ndarray) -> np.ndarray:
    """master_term(1, 0, eps) for eps in [0, 1), in closed form:

        (16/pi^2) eps sum_n eps^(2n) / ((1 - 2n) (2n + 1)^2 (2n + 3))
          = (1/pi^2) [4 chi_2(eps) + ((1 - eps^2)/eps) ((1 + eps^2) artanh(eps)/eps - 1)],

    with Legendre's chi_2(x) = (Li_2(x) - Li_2(-x))/2 = sum x^m/m^2 over odd
    m, and Li_2(x) = spence(1 - x).  Below 1/4 the Maclaurin polynomial is
    summed by Horner's rule: with z = eps^2 <= 1/16 the sum is at least 0.33
    and its tail past n = N at most |r_N| z^N/(1 - z), so 10 terms leave
    under 1.5e-17 of it; the tests hold it to 1e-15 of 50-digit 3F2 values
    (2.4e-16 measured).  From 1/4 up the artanh form serves, within 2e-15
    of 40-digit values.

    Proof.  Gamma(3/2)^2 = pi/4 makes the scale 2/pi, and the n-th term of
    3F2_reg(-1/2, 1/2, 1; 3/2, 5/2; eps^2) is
    -8 eps^(2n) / (pi (2n-1) (2n+1)^2 (2n+3)), which gives the sum.  With
    m = 2n + 1,

        1/((m-2) m^2 (m+2)) = 1/(16 (m-2)) - 1/(16 (m+2)) - 1/(4 m^2),

    and summed against eps^(2n) the three parts are eps artanh(eps) - 1,
    (artanh(eps) - eps)/eps^3 and chi_2(eps)/eps.  So the term is
    (1/pi^2) [4 chi_2 + (artanh - eps)/eps^2 - eps^2 artanh + eps], which
    regroups as above.  Both summands are nonnegative, and the one
    subtraction, (1 + eps^2) artanh(eps)/eps - 1 >= 4 eps^2/3, is well
    conditioned for eps >= 1/4.
    """
    out = np.empty_like(eps)
    small = eps < _TWO_REBIT_CLOSED_FROM
    e = eps[small]
    out[small] = 16.0 / math.pi ** 2 * e * polyval(e * e, _TWO_REBIT_COEFFS)
    e = eps[~small]
    chi2 = (spence(1.0 - e) - spence(1.0 + e)) / 2
    rest = (1.0 - e * e) / e * ((1.0 + e * e) * np.arctanh(e) / e - 1.0)
    out[~small] = (4.0 * chi2 + rest) / math.pi ** 2
    return out


def master_chi(d: int, eps):
    """Hilbert-Schmidt master formula chi_{d,0}(eps) for positive integer d:
    twice :func:`master_term` at k = 0, so exactly 1 at eps = 1 and never
    above it."""
    return 2 * master_term(d, 0, eps)
