"""The regularized 3F2 series of the odd-d closed term, in float64.

:func:`sepprob.exactmath.formulas.master_term`, the master formula taken
to order k, does not terminate for odd division-ring dimension d, so its
series is summed over an array of arguments in [0, 1).  Three parts of it
have closed forms instead: the z = 1 endpoint (Dixon's theorem), the
terminating even-d series (exact coefficients, ``master_chi_coefficients``)
and the two-rebit term, d = 1 and k = 0, on eps >= 1/4 (artanh and
Legendre's chi_2).  The series serves every other odd (d, k), the
two-rebit term below eps = 1/4, and the tests as the reference that the
two-rebit closed form is pinned to.

The series is summed a block of terms per numpy step, not a term per
Python step.  Inside a block a cumulative product of ratio*z gives the
terms and a cumulative sum the partial sums S; each argument stops at its
first term whose tail bound is at most ``SERIES_RTOL``*|S|: float64 unit
roundoff, so the truncated tail is no larger than the rounding of S
itself.  The bound is the geometric one, |t|*r/(1-r), or where smaller the
algebraic one below.  The kept terms of a block are
summed pairwise and the block sums are added with their rounding error
carried, so the value agrees with 50-digit mpmath to about 1e-15 relative
even after several hundred thousand terms.  Arguments are processed in chunks of
``SERIES_CHUNK`` on a term-block schedule fixed by the term index alone, so
memory stays bounded and each value is independent of the batch it is in.

"Regularized" means each term is divided by Gamma(b + n) for the lower
parameters, so lower-parameter poles are harmless.

The algebraic tail bound.  Near z = 1 the terms decay like n^-p z^n with
p = b1 + b2 + 1 - (a1 + a2 + a3), far more slowly than any geometric bound
with r = z admits, so that bound alone sums hundreds of thousands of terms
to no effect.  For the master formula's parameters a = (-h, h, 2h),
b = (h + 1, 3h + 1), h > 0, where p = 2h + 3, take c = 2h + 1.  Past the
numerator root, n > h, the step ratio t_(n+1)/t_n = R(n) z satisfies

    R(n) < ((n + c) / (n + c + 1))^p.

Proof: with N = n + c, log(1 + x) >= x/(1 + x) gives

    -log R(n) = log(1 + (h+1)/(n-h)) + log(1 + 1/(n+h)) + log(1 + (h+1)/(n+2h))
             >= (h+1)/(N-2h) + 1/(N-h) + (h+1)/(N+h),

and by the convexity of 1/x, 1/(N-2h) + 1/(N+h) >= 2/(N-h/2) > 2/N, so the
sum exceeds (2h+3)/N = p/N >= p log(1 + 1/N) = -log((N/(N+1))^p).  So from
a term t_m past the root on, t_(m+j) <= t_m ((m+c)/(m+c+j))^p, and summing
under the integral of x^-p bounds the tail after t_m by
|t_m| (m + c)/(p - 1).  Other parameters, the order k >= 1 terms among
them, keep the geometric bound alone.
"""

from __future__ import annotations

import math

import numpy as np

SERIES_RTOL = 2.0 ** -53  # float64 unit roundoff
SERIES_CHUNK = 128
MAX_TERMS = 2_000_000


def hyp3f2_reg_series(a: tuple[float, float, float], b: tuple[float, float],
                      z: np.ndarray) -> np.ndarray:
    """Regularized 3F2 summed in term blocks over an array of z in [0, 1).

    The arguments are sorted, so that those needing many terms share
    chunks, and summed ``SERIES_CHUNK`` at a time.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z >= 1.0) or np.any(z < 0.0):
        raise ValueError("series evaluation requires 0 <= z < 1")
    order = np.argsort(z, axis=None)
    flat = z.ravel()[order]
    out = np.empty_like(flat)
    for lo in range(0, flat.size, SERIES_CHUNK):
        out[order[lo:lo + SERIES_CHUNK]] = _series_chunk(
            a, b, flat[lo:lo + SERIES_CHUNK])
    return out.reshape(z.shape)


def _series_chunk(a, b, z):
    out = np.empty_like(z)
    idx = np.arange(z.size)  # elements still summing
    t = np.full(z.shape, 1.0 / (math.gamma(b[0]) * math.gamma(b[1])))
    total = t.copy()
    comp = np.zeros_like(t)  # rounding error of the block additions
    zz = z[:, None]
    roots = max(abs(a[0]), abs(a[1]), abs(a[2]))
    # the algebraic tail bound (module notes), c = 2h + 1 and p = 2h + 3: after
    # the term m it is (m + c)/(p - 1), below the geometric z/(1 - z) only
    # while n = m - 1 < (2h + 2)(z/(1 - z) - 1)
    h = a[1]
    zmax = float(z.max())
    algebraic_until = -1.0
    if h > 0 and tuple(a) == (-h, h, 2 * h) and tuple(b) == (h + 1, 3 * h + 1):
        algebraic_until = (2 * h + 2) * (zmax / (1.0 - zmax) - 1.0)
    n0 = 0
    while idx.size and n0 < MAX_TERMS:
        # blocks double from 32 to 1024 terms, so most elements stop within
        # the first one and a block of a full chunk holds at most 2**17 terms
        size = min(max(32, n0), 1024, MAX_TERMS - n0)
        n = np.arange(n0, n0 + size, dtype=float)
        ratio = ((a[0] + n) * (a[1] + n) * (a[2] + n)
                 / ((b[0] + n) * (b[1] + n) * (n + 1.0)))
        terms = ratio * zz
        terms[:, 0] *= t
        np.cumprod(terms, axis=1, out=terms)
        bound = np.cumsum(terms, axis=1)
        bound += total[:, None]
        np.abs(bound, out=bound)
        bound *= SERIES_RTOL
        # past all numerator roots the step ratio increases toward z from
        # below, so r = max(z, current ratio*z) bounds every later step; the
        # cap r' = (m + c)/(m + c + p - 1) makes r'/(1 - r') the algebraic
        # bound after the term m = n + 1
        cap = 1.0 - 1e-12
        if n0 < algebraic_until:
            cap = (n + (2 * h + 2)) / (n + (4 * h + 4))
        tail = np.minimum(zz * np.maximum(1.0, np.abs(ratio)), cap)
        tail /= 1.0 - tail
        tail *= np.abs(terms)
        certified = ~(tail > bound)
        del tail, bound  # frees 2 of the block's 3 float arrays before the masking
        certified[:, n <= roots] = False
        stops = certified.any(axis=1)
        last = np.where(stops, certified.argmax(axis=1), size - 1)
        terms[np.arange(size) > last[:, None]] = 0.0
        block = terms.sum(axis=1)
        s = total + block  # TwoSum: comp gathers what s rounds away
        bv = s - total
        comp += (total - (s - bv)) + (block - bv)
        total = s
        out[idx[stops]] = total[stops] + comp[stops]
        live = ~stops
        idx, t, zz = idx[live], terms[live, -1], zz[live]
        total, comp = total[live], comp[live]
        n0 += size
    if idx.size:
        raise ArithmeticError("3F2 series failed to converge within MAX_TERMS")
    return out
