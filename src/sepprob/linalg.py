"""Dense Hermitian linear algebra for stacks of small bipartite density matrices.

Everything here is sized for n <= 64 (in practice 4-10): the partial
transpose as an index swap, and the singular-value ratio of the block
quotient D2^(1/2) D1^(-1/2) that drives the chi-function analyses.  Both
operate on stacks of matrices, as the Monte Carlo paths use them.
"""

from __future__ import annotations

import numpy as np


def partial_transpose_batch(rhos: np.ndarray, dA: int, dB: int,
                            side: str = "B") -> np.ndarray:
    """Partial transpose of a stack (..., n, n) over B, the only ``side``
    accepted; over A it is the full transpose of this."""
    if side != "B":
        raise ValueError("side must be 'B'")
    shape = rhos.shape
    n = dA * dB
    r = rhos.reshape(shape[:-2] + (dA, dB, dA, dB))
    r = r.transpose(*range(r.ndim - 4), -4, -1, -2, -3)
    return np.ascontiguousarray(r.reshape(shape[:-2] + (n, n)))


def epsilon_ratio_batch_2x2(rhos: np.ndarray) -> np.ndarray:
    """Singular-value ratio eps = sigma_min/sigma_max of D2^(1/2) D1^(-1/2)
    for stacks of 4 x 4 states split (2, 2).

    D1 and D2 are the upper-left and lower-right 2 x 2 diagonal blocks.  The
    squared singular values are the roots lam of det(D2 - lam D1) = 0, so
    eps = sqrt(lam_min / lam_max), solved per sample in closed form.  Samples
    with a non-positive-definite block (a measure-zero event) come back as
    NaN.  For positive-definite blocks the roots are real, so a negative
    discriminant is rounding at a double root (D2 = c D1) and clamps to 0.
    """
    d1 = rhos[:, :2, :2]
    d2 = rhos[:, 2:, 2:]
    det1 = (d1[:, 0, 0] * d1[:, 1, 1] - np.abs(d1[:, 0, 1]) ** 2).real
    det2 = (d2[:, 0, 0] * d2[:, 1, 1] - np.abs(d2[:, 0, 1]) ** 2).real
    beta = (d2[:, 0, 0] * d1[:, 1, 1] + d2[:, 1, 1] * d1[:, 0, 0]
            - 2 * (d2[:, 0, 1] * d1[:, 0, 1].conj()).real).real
    disc = beta * beta - 4 * det1 * det2
    good = (det1 > 0) & (det2 > 0) & (beta > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(np.maximum(disc, 0.0))
        ratio = (beta - root) / (beta + root)
        eps = np.sqrt(np.clip(ratio, 0.0, 1.0))
    return np.where(good, eps, np.nan)
