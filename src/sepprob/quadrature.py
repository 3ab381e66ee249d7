"""Deterministic integration for the chi-function framework.

Three integration problems live here:

* the (d, k)-parameterized double-integral separability probability over
  the ordered square -1 <= y <= x <= 1 with weight
  (1-x^2)^(d+k) (1-y^2)^(d+k) (x-y)^d, and its eta-interpolated variant;
* chi_{d,k}(eps) for every d >= 1, integer k >= 0 and an array of eps by
  the extended master decomposition: the closed term (half the order-k
  master 3F2, ``exactmath.formulas.master_term``) plus the integral over
  the region where the partial transpose's positivity constraint binds,
  its innermost variable in closed form (a finite positive sum), on a
  triangle;
* a quasi-random 3D oracle of the raw constrained integral, on Sobol
  points built here (three Joe-Kuo dimensions, one random digital shift).

Endpoint weight singularities (fractional exponents > -1) are absorbed by
Gauss-Jacobi rules; the integrable blowup some chi functions have as the
two arguments coalesce (eps -> 1) is flattened by a square-root
substitution of the inner variable near the diagonal, which every chi
takes.  A chi function is any callable of eps, vectorised over arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .exactmath import chi_catalog, master_chi
from .exactmath.formulas import _eps_domain, master_term


def chi_from_catalog(d: int, k):
    """The closed-form catalog entry as a function of eps (raises
    CatalogMiss if absent)."""
    chi_catalog(d, k, 0.5)  # probe coverage early
    return lambda e: chi_catalog(d, k, e)


def chi_from_master(d: int):
    """The (k = 0) master formula as a function of eps: a polynomial for
    even d, a closed form at d = 1, and the 3F2 series for other odd d."""
    return lambda e: master_chi(d, e)


@lru_cache(maxsize=128)
def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=128)
def _gj(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    return roots_jacobi(n, alpha, beta)


def _triangle_nodes(exponent: float, d_power: int, chi, n_outer: int,
                    n_inner: int) -> float:
    """The ordered-square ratio integral of chi on its one node set.

    The numerator is sum(weight * chi(eps)) and the denominator
    sum(weight).  The weight (1-x^2)^exponent is absorbed into the outer
    Gauss-Jacobi rule.  The inner integral over y in [-1, x] splits at the
    midpoint m: on [-1, m] the substitution 1 + y = (1+m) s^2 makes chi
    factors eps^d smooth for odd d and turns the (1+y)^exponent weight
    into a Jacobi one in s; on [m, x] the substitution y = x - (x-m) t^2
    flattens any integrable singularity of chi at the diagonal eps = 1.
    """
    eta = exponent
    x, wx = _gj(n_outer, eta, eta)
    # segment 1: y in [-1, m], m = (x-1)/2; with 1+y = (1+m) s^2,
    # int u^eta g du = 2 int s^(2 eta + 1) g(s^2) ds -> Jacobi(0, 2 eta + 1)
    tj, wj = _gj(n_inner, 0.0, 2.0 * eta + 1.0)
    s = (tj + 1.0) / 2.0
    y1 = -1.0 + ((1.0 + x[:, None]) / 2.0) * s[None, :] ** 2
    seg1_scale = ((1.0 + x) / 2.0) ** (1.0 + eta) * 2.0 ** (-2.0 * eta - 1.0)
    w1 = seg1_scale[:, None] * wj[None, :] * (1.0 - y1) ** eta \
        * (x[:, None] - y1) ** d_power
    # segment 2: y in [m, x], y = x - h t^2 with h = x - m = (x+1)/2
    t, wt = _gl01(n_inner)
    h = (1.0 + x[:, None]) / 2.0
    y2 = x[:, None] - h * t ** 2
    w2 = wt * 2.0 * h * t * ((1.0 - y2) * (1.0 + y2)) ** eta * (h * t ** 2) ** d_power
    y = np.concatenate([y1, y2], axis=1)
    w = np.concatenate([w1, w2], axis=1) * wx[:, None]
    e2 = (1.0 - x[:, None]) * (1.0 + y) / ((1.0 + x[:, None]) * (1.0 - y))
    eps = np.sqrt(np.clip(e2, 0.0, 1.0))
    del y1, w1, y2, w2, y, e2  # else they stay live, ~1.5 MB, while chi runs
    vals = np.asarray(chi(eps.ravel()), dtype=float)
    return float(np.dot(w.ravel(), vals)) / float(np.sum(w))


def sep_prob_general(d: int, k, chi, n_outer: int = 200,
                     n_inner: int = 120) -> float:
    """Separability probability for division-ring dimension d and order k.

    Evaluates the ratio of the two ordered-square double integrals with
    weight exponent d + k and diagonal power d, the chi function applied
    to the singular-value ratio sqrt((1-x)(1+y)/((1+x)(1-y))).  ``chi``
    is any function of eps, vectorised over arrays.
    """
    if d not in (1, 2, 4):
        raise ValueError("d must be 1, 2 or 4")
    exponent = float(d + k)
    if exponent <= -1.0:
        raise ValueError("requires d + k > -1 for integrability")
    return _triangle_nodes(exponent, d, chi, n_outer, n_inner)


def u_eta(eta, chi, n_outer: int = 200, n_inner: int = 120) -> float:
    """The interpolated two-qubit probability at weight exponent eta.

    eta = 2 is the Hilbert-Schmidt case and eta = -1/2 the sqrt(x) operator
    monotone one.  At eta = -1 both integrals diverge and their ratio tends
    to zero; that documented limit is returned directly.
    """
    if eta == -1:
        return 0.0
    if eta < -1:
        raise ValueError("requires eta >= -1")
    return _triangle_nodes(float(eta), 2, chi, n_outer, n_inner)


# ---------------------------------------------------------------------------
# chi_{d,k} by the extended master decomposition
# ---------------------------------------------------------------------------

def _log_chi_norm(d: int, k: int) -> float:
    """Log of the normalizing constant: the unconstrained-positivity integral
    with the k-th determinant power, divided out of the constrained numerator."""
    return (3 * math.lgamma(d / 2) + math.lgamma(k + 1) + math.lgamma(d / 2 + k + 1)
            - 2 * math.lgamma(d + k + 1) - math.log(8.0))


def _numeric_k(k) -> int:
    """The integer k of a numeric chi_{d,k}, refusing any other."""
    if k < 0 or int(k) != k:
        raise ValueError("numeric path requires integer k >= 0")
    return int(k)


# the region-B rule's Gauss nodes per axis, for every caller, and points per step
_PT_NODES, _PT_CHUNK = 32, 1 << 18


def _beta_lower(d: int, k: int, a, b, gap):
    """a^(k+d/2) I_{b/a}(d/2, k+1) for 0 <= b <= a, a > 0, with gap = a - b:

        b^(d/2) sum_{j=0..k} ((d/2)_j / j!) a^(k-j) gap^j,

    the regularized incomplete beta of integer second parameter as a finite
    sum.  Given gap computed directly, every term is nonnegative, so the sum
    cannot cancel at any k.
    """
    c = [Fraction(1)]
    for j in range(k):
        c.append(c[-1] * Fraction(d + 2 * j, 2 * j + 2))
    x, acc = gap / a, np.zeros_like(a)
    for cj in reversed(c):  # Horner's rule in place: polyval's temporaries cost 3x
        acc *= x
        acc += float(cj)
    return a ** k * b ** (d / 2) * acc


def _pt_region(d: int, k: int, eps: np.ndarray, nodes: int) -> np.ndarray:
    """T2 of :func:`extended_master_parts` at each eps of a 1D array."""
    alpha = 0.5 * (d % 2)
    x, wx = _gj(nodes * (1 + k // 64), alpha, 0.0)  # the turn near sigma ~ 1/sqrt(k)
    s = (x[:, None] + 1.0) / 2.0
    t, wt = _gl01(nodes)
    w = (wx[:, None] * 2.0 ** (-1.0 - alpha) * (1.0 - s) ** -alpha * s * wt
         * (s * s * t) ** (d - 1)).ravel()
    r2, s2 = ((s * t) ** 2).ravel(), np.repeat(s * s, nodes)
    s2_r2 = (s * s * (1.0 - t * t)).ravel()
    out = np.empty_like(eps)
    step = max(_PT_CHUNK // w.size, 1)
    for lo in range(0, eps.size, step):
        e2 = eps[lo:lo + step, None] ** 2
        # a - b = (sigma^2 - r^2)(1 - eps^2), taken as a product: never negative
        inner = _beta_lower(d, k, (1.0 - r2) * (1.0 - e2 * s2), (1.0 - e2 * r2) * (1.0 - s2),
                            s2_r2 * (1.0 - e2))
        inner *= w
        out[lo:lo + step] = inner.sum(axis=1)
    # (1/2) B(d/2, k+1) over the normalizing constant
    log_c = (math.lgamma(d / 2) + math.lgamma(k + 1) - math.lgamma(d / 2 + k + 1)
             - math.log(2.0) - _log_chi_norm(d, k))
    return eps ** d * math.exp(log_c) * out


def extended_master_parts(d: int, k: int, eps, nodes: int = _PT_NODES):
    """The two summands T1 + T2 = chi_{d,k}(eps), for integers d >= 1 and
    k >= 0 and eps in [0, 1], an array or a scalar (then two floats).

    The constrained unit-cube integral splits along r23 = eps r14.  T1,
    region A (r23 <= eps r14, where the state's own constraint binds), is
    ``master_term(d, k, eps)``.  T2, region B (where the partial
    transpose's binds), is integrated over Y = r14 r23 in
    [eps r14^2, eps r14], r14 in [0, 1], for every d: the one orientation
    that reproduces the k = 0 half-identity, each part then half the d-th
    master formula.  With r23 = eps sigma, r = r14, it runs over the
    triangle 0 <= r <= sigma <= 1.  The innermost integral, over r24^2 in
    [0, b] with b <= a, is (1/2) a^(k+d/2) B(d/2, k+1) I_{b/a}(d/2, k+1),
    whose incomplete beta is a finite sum of k + 1 nonnegative terms
    (:func:`_beta_lower`).  For odd d, b holds the one half power,
    (1 - sigma)^(1/2): sigma takes Gauss-Jacobi with that weight
    (Gauss-Legendre for even d), and r Gauss-Legendre on [0, sigma],
    ``nodes`` each, sigma ``nodes`` times 1 + k // 64 (:func:`chi_numeric`
    states the accuracy).
    """
    t1 = master_term(d, _numeric_k(k), eps)  # refuses d and eps outside the domain
    t2 = _pt_region(d, int(k), np.ravel(eps).astype(float), nodes).reshape(np.shape(eps))
    return (t1, float(t2)) if np.ndim(eps) == 0 else (t1, t2)


def chi_numeric(d: int, k: int, eps, nodes: int = _PT_NODES):
    """chi_{d,k}(eps) as the sum of :func:`extended_master_parts`, clipped to
    at most 1, as a probability is; a float for a scalar eps.

    At the default nodes, on 201 eps in [0, 1], d = 2 is within 5e-14 of
    the catalog for k <= 60 and within 2e-13 at k = 90 and 120, where the
    sigma axis has twice the nodes.  At k = 0, d = 1, 3 and 5 are within
    1.2e-15 of the master formula to eps = 0.95, and d = 1 within 2.7e-10
    at eps = 1 - 3.9e-8.
    """
    t1, t2 = extended_master_parts(d, k, eps, nodes)
    return min(t1 + t2, 1.0) if np.ndim(eps) == 0 else np.minimum(t1 + t2, 1.0)


# chi_{d,k} by the extended master decomposition is chi_numeric
extended_master = chi_numeric


# the first three Joe-Kuo dimensions as (degree s, inner coefficients a, m_1..m_s):
# van der Corput, x + 1 and x^2 + x + 1; words of 30 bits
_SOBOL_DIMS = ((0, 0, (1,)), (1, 0, (1,)), (2, 1, (1, 3)))
_SOBOL_BITS = 30


def _sobol_words(n: int) -> np.ndarray:
    """The first n points of the unscrambled 3D Sobol sequence, natural order,
    as a (3, n) array of 30-bit words (the point is word / 2^30).

    Direction number b is m_b 2^(30 - b), m_b by the Joe-Kuo recurrence
    m_b = m_(b-s) ^ (m_(b-s) << s) ^ xor_j a_j m_(b-j) << j (m_b = 1 for van
    der Corput).  Points are built by doubling, x[2^b + i] = x[i] ^ v_b; the
    first 2^m are the same set as the Gray-code order's.
    """
    v = np.empty((3, _SOBOL_BITS), dtype=np.uint32)
    for row, (s, a, m) in zip(v, _SOBOL_DIMS):
        m = list(m)
        while len(m) < _SOBOL_BITS:
            mb = m[-s] ^ (m[-s] << s) if s else 1
            for j in range(1, s):
                if a >> (s - 1 - j) & 1:
                    mb ^= m[-j] << j
            m.append(mb)
        row[:] = [mb << (_SOBOL_BITS - 1 - b) for b, mb in enumerate(m)]
    bits = (n - 1).bit_length()
    x = np.zeros((3, 1 << bits), dtype=np.uint32)
    for b in range(bits):
        np.bitwise_xor(x[:, :1 << b], v[:, b:b + 1], out=x[:, 1 << b:2 << b])
    return x[:, :n]


def chi_numeric_qmc(d: int, k: int, eps, n_points: int = 1 << 18,
                    seed: int = 20240701):
    """Quasi-random 3D oracle for chi_{d,k}(eps): the raw constrained
    integral over [0,1]^3, no reduction; a float for a scalar eps, else an
    array, every eps on the one point set.  Retained as an independent
    cross-check of the deterministic path.

    The points are the first ``n_points`` (1 to 2^30) of the 3D Sobol
    sequence (:func:`_sobol_words`) under one random digital shift: each
    coordinate's 30-bit word is XORed with a word drawn from
    ``np.random.default_rng(seed)``, and word w is the point (w + 1/2) / 2^30.
    At the default 2^18 points, over seeds 1 to 40 at (d, k, eps) =
    (2, 0, 0.5), (2, 1, 0.5), (4, 0, 0.7) and (2, 2, 0.9), the error's
    standard deviation against the catalog was 1.9e-4, 1.3e-4, 4.1e-4 and
    1.6e-5, and the worst single error 1.0e-3.
    """
    k = _numeric_k(k)
    eps_arr, scalar = _eps_domain(eps)
    if not isinstance(n_points, (int, np.integer)) or not 0 < n_points <= 1 << _SOBOL_BITS:
        raise ValueError(f"n_points must be an integer from 1 to 2^{_SOBOL_BITS}")
    shift = np.random.default_rng(seed).integers(1 << _SOBOL_BITS, size=(3, 1),
                                                  dtype=np.uint32)
    r14, r23, r24 = ((_sobol_words(n_points) ^ shift) + 0.5) / (1 << _SOBOL_BITS)
    r24_2 = r24 * r24
    a = (1.0 - r14 * r14) * (1.0 - r23 * r23)
    weight = (r14 * r23 * r24) ** (d - 1) * np.clip(a - r24_2, 0.0, None) ** k
    out = np.empty_like(eps_arr)
    for i, e in np.ndenumerate(eps_arr):
        e2 = e * e
        # r24^2 < b = (1 - eps^2 r14^2)(1 - r23^2 / eps^2), times eps^2: no division
        feasible = ((r23 < e) & (r24_2 < a)
                    & (e2 * r24_2 < (1.0 - e2 * r14 * r14) * (e2 - r23 * r23)))
        out[i] = np.mean(np.where(feasible, weight, 0.0))
    out /= math.exp(_log_chi_norm(d, k))
    return float(out) if scalar else out
