"""The regularized 3F2 series of the odd-d closed term, in float64.

:func:`sepprob.exactmath.formulas.master_term`, the master formula taken
to order k, does not terminate for odd division-ring dimension d, so its
series is summed over an array of arguments in [0, 1).  Three parts of it
have closed forms instead: the z = 1 endpoint (Dixon's theorem), the
terminating even-d series (exact coefficients, ``master_chi_coefficients``)
and the two-rebit term, d = 1 and k = 0, on all of [0, 1) (its Maclaurin
polynomial below eps = 1/4, artanh and Legendre's chi_2 from there).  The
series serves every other odd (d, k), and the tests as the reference that
the two-rebit closed form is pinned to.

The series is summed a block of terms per numpy step, not a term per
Python step.  Inside a block a cumulative product of ratio*z gives the
terms and a cumulative sum the partial sums S; each argument stops at its
first term t whose geometric tail bound |t|*r/(1-r), r = max(z, |ratio|*z),
is at most ``SERIES_RTOL``*|S|: float64 unit roundoff, so the truncated
tail is no larger than the rounding of S itself.  The kept terms of a block
are summed pairwise and the block sums are added with their rounding error
carried.  Near eps = 1 the error grows with d: at k = 0 the worst relative
error rose from 8.4e-16 at d = 1 to 8.5e-14 at d = 13 (``master_term``).

Arguments are processed in chunks of ``SERIES_CHUNK`` on a term-block
schedule fixed by the term index alone, so memory stays bounded and each
value is independent of the batch it is in.

"Regularized" means each term is divided by Gamma(b + n) for the lower
parameters, so lower-parameter poles are harmless.
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
        # below, so r = max(z, current ratio*z) bounds every later step
        tail = np.minimum(zz * np.maximum(1.0, np.abs(ratio)), 1.0 - 1e-12)
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
