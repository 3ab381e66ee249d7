"""Deterministic integration for the chi-function framework.

Three integration problems live here:

* the (d, k)-parameterized double-integral separability probability over
  the ordered square -1 <= y <= x <= 1 with weight
  (1-x^2)^(d+k) (1-y^2)^(d+k) (x-y)^d, and its eta-interpolated variant;
* chi_{d,k}(eps) for every d >= 1 and integer k >= 0 by the extended
  master decomposition: the closed term (half the order-k master 3F2,
  ``exactmath.formulas.master_term``) plus the 2D integral over the
  region where the partial transpose's positivity constraint binds, its
  innermost variable integrated in closed (incomplete-beta) form;
* a quasi-random 3D oracle of the raw constrained integral.

Endpoint weight singularities (fractional exponents > -1) are absorbed by
Gauss-Jacobi rules; the integrable blowup some chi functions have as the
two arguments coalesce (eps -> 1) is flattened by a square-root
substitution of the inner variable near the diagonal, which every chi
takes.  A chi function is any callable of eps, vectorised over arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .exactmath import chi_catalog, master_chi
from .exactmath.formulas import master_term


def chi_from_catalog(d: int, k):
    """The closed-form catalog entry as a function of eps (raises
    CatalogMiss if absent)."""
    chi_catalog(d, k, 0.5)  # probe coverage early
    return lambda e: chi_catalog(d, k, e)


def chi_from_master(d: int):
    """The (k = 0) master formula as a function of eps: a polynomial for
    even d, and for odd d the 3F2 series, save d = 1 on eps >= 1/4, which
    is in closed form."""
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

def _chi_norm(d: int, k: int) -> float:
    """Normalizing constant: the unconstrained-positivity integral with the
    k-th determinant power, divided out of the constrained numerator."""
    return (math.gamma(d / 2) ** 3 * math.gamma(k + 1) * math.gamma(d / 2 + k + 1)
            / (8.0 * math.gamma(d + k + 1) ** 2))


def _numeric_k(k, eps: float) -> int:
    """The integer k of a numeric chi_{d,k}(eps), refusing k or eps outside
    the domain of the constrained integral."""
    if k < 0 or int(k) != k:
        raise ValueError("numeric path requires integer k >= 0")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return int(k)


# Gauss-Legendre nodes per axis of the region-B rule, for every caller
_PT_NODES = 120


def _pt_region(d: int, k: int, eps: float, nodes: int) -> float:
    """The unnormalised chi_{d,k} integral over region B, r23 in [eps r, eps],
    where the partial transpose's constraint binds."""
    t, wt = _gl01(nodes)
    r = t[:, None]
    wr = wt[:, None]
    c = t[None, :]
    wc = wt[None, :]
    sigma = r + (1.0 - r) * c
    a2 = (1.0 - r * r) * (1.0 - (eps * sigma) ** 2)
    b2 = (1.0 - (eps * r) ** 2) * (1.0 - sigma * sigma)
    q = np.zeros_like(a2)
    for j in range(k + 1):
        q += (math.comb(k, j) * (-1.0) ** j / (2 * j + d)
              * a2 ** (k - j) * b2 ** (j + d / 2))
    integrand_b = (r * eps * sigma) ** (d - 1) * q * eps * (1.0 - r)
    return float(np.sum(wr * wc * integrand_b))


def extended_master_parts(d: int, k: int, eps: float,
                          nodes: int = _PT_NODES) -> tuple[float, float]:
    """The two summands T1 + T2 = chi_{d,k}(eps), for integers d >= 1 and
    k >= 0 and eps in [0, 1].

    The constrained unit-cube integral splits along r23 = eps r14.  T1,
    region A (r23 <= eps r14, where the state's own constraint binds), is
    ``master_term(d, k, eps)``.  T2, region B (where the partial
    transpose's binds), is integrated over Y = r14 r23 in
    [eps r14^2, eps r14], r14 in [0, 1], for every d: the one orientation
    that reproduces the k = 0 half-identity, each part then half the d-th
    master formula.  Its innermost coordinate has a closed binomial
    antiderivative; the 2D rest takes a tensor Gauss-Legendre rule of
    ``nodes`` per axis.
    """
    k = _numeric_k(k, eps)
    return master_term(d, k, eps), _pt_region(d, k, eps, nodes) / _chi_norm(d, k)


def chi_numeric(d: int, k: int, eps: float, nodes: int = _PT_NODES) -> float:
    """chi_{d,k}(eps) as the sum of :func:`extended_master_parts`, clipped to
    at most 1, as a probability is.

    Even d makes the region-B integrand polynomial, so the rule converges
    to roundoff.  Odd d leaves the factor (1 - r)^(1/2) (1 - c)^(1/2) in it,
    and the error falls only algebraically in ``nodes`` (about 1e-7 at 120).
    """
    t1, t2 = extended_master_parts(d, k, eps, nodes)
    return min(t1 + t2, 1.0)


# chi_{d,k} by the extended master decomposition is chi_numeric
extended_master = chi_numeric


def chi_numeric_qmc(d: int, k: int, eps: float, n_points: int = 1 << 18,
                    seed: int = 20240701) -> float:
    """Quasi-random 3D oracle for chi_{d,k}(eps): the raw constrained
    integral over [0,1]^3, no reduction.  Accuracy ~1e-3; retained as an
    independent cross-check of the deterministic path."""
    k = _numeric_k(k, eps)
    if eps == 0.0:
        return 0.0
    # imported here: scipy.stats costs ~1 s, and only this oracle needs it
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=3, scramble=True, seed=seed)
    pts = sampler.random(n_points)
    r14, r23, r24 = pts[:, 0], pts[:, 1], pts[:, 2]
    a = (1.0 - r14 * r14) * (1.0 - r23 * r23)
    b = (1.0 - (eps * r14) ** 2) * (1.0 - (r23 / eps) ** 2)
    feasible = (r24 * r24 < a) & (r24 * r24 < b) & (r23 < eps)
    weight = (r14 * r23 * r24) ** (d - 1) * np.clip(a - r24 * r24, 0.0, None) ** k
    return float(np.mean(np.where(feasible, weight, 0.0))) / _chi_norm(d, k)
