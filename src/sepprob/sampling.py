"""Seeded generation of random density matrices under induced measures.

The full-family sampler draws rho = W / tr W for W a Wishart matrix: the
Gram matrix G G* of a standard Gaussian n x cols matrix G over the field
(real and imaginary parts N(0, 1) over C).  The induced measure of order k
weights the flat (Hilbert-Schmidt, k = 0) measure by det(rho)^k, which
fixes the column count per field: over C the density of the construction
is det(rho)^(cols - n), so cols = n + k; over R it is
det(rho)^((cols - n - 1)/2), so cols = n + 1 + 2k.  Negative k produces
the documented rank deficits.

W is not formed from G.  The LQ decomposition G = L Q, with Q unitary,
gives W = L L*, and its factor L has the Bartlett law: L is lower
trapezoidal, n x r with r = min(n, cols), with independent entries

- on the diagonal, L_ii = sqrt(2 Gamma(beta (cols - i) / 2)) for i < r,
  beta = 2 over C and 1 over R (a chi variable of beta (cols - i) degrees
  of freedom, scaled like a modulus of G's entries);
- below it, standard normals over the field, as in G.

The one path covers every k, rank-deficient k < 0 included.  It draws r
gammas and beta (n r - r (r + 1) / 2) normals per state, where G takes
beta n cols normals: 9 gammas and 72 normals against 162 normals for
C 3x3.

States are drawn ``GRAM_BLOCK`` at a time.  Within a block of m matrices
the draws come in this order: the diagonal gammas as an (r, m) array
(diagonal index major), then row by row for i = 1, ..., n - 1 the min(i, r)
entries of row i as a (min(i, r), m) array of normals (over C each entry
takes two consecutive normals, real part first).  W is built a column at a
time from the rows of L, its trace is summed from the same squares, and
the block is divided by it in place.  A block is laid out (n, n, m), matrix
index last, so every write runs along the block and the classifier reads
the block as it is (``criteria.classify_blocks``); ``sample_batch`` stacks
the blocks as (count, n, n) for callers that want whole matrices.  The
layout does not touch the draws or their order.

X-states follow the det(rho)^k-weighted flat law on their matrix slice
(diagonal plus anti-diagonal), drawn exactly and without rejection: the
weight factors into a Dirichlet diagonal and independent Beta laws for the
anti-diagonal entries.  ``_x_state_draws`` returns a chunk's diagonals
and anti-diagonals, which the Monte Carlo runner classifies as they are
(``criteria.classify_x_states``).  Matrices are assembled from them
(``_x_state_matrices``) only where something reads them: the whole stack
in ``sample_batch``, and the rows that classifier leaves to its reference
path.  ``sample_blocks`` draws the full family alone.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_id, counter), so any partition of the work across threads or
processes reproduces bit-identical samples.  Normal variates are standard
double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAMPLER_VERSION = 3  # bump whenever the map from Philox draws to samples changes
GRAM_BLOCK = 1024  # matrices per block of Bartlett draws and Gram product


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: field, dimension, split, induced order, family, seed."""

    field: str
    n: int
    split: tuple[int, int]
    k: int = 0
    family: str = "full"
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if self.field not in ("R", "C"):
            raise ValueError("field must be 'R' or 'C'")
        if self.split[0] * self.split[1] != self.n:
            raise ValueError("split must multiply to n")
        # the RandomStream key ranges, refused before any run opens its files
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} must satisfy 0 <= seed < 2**64")
        if not 0 <= self.stream_id < 2**32:
            raise ValueError(f"stream_id {self.stream_id} must fit in 32 bits")
        if self.family == "full":
            if wishart_columns(self.field, self.n, self.k) < 1:
                raise ValueError("induced construction needs >= 1 Wishart column")
        elif self.family == "x_state":
            if self.n not in (4, 6, 9):
                raise ValueError("X-state family covers n in {4, 6, 9}")
            if self.k < 0:
                raise ValueError("X-state family requires k >= 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")


def wishart_columns(field: str, n: int, k: int) -> int:
    """Column count realizing the det(rho)^k-weighted (order-k) measure."""
    return n + k if field == "C" else n + 1 + 2 * k


class RandomStream:
    """One independent, reproducible stream of a counter-based generator.

    Streams with distinct (seed, stream_id, counter) keys are statistically
    independent; identical keys reproduce identical draws bit for bit.
    ``seed`` must fit in 64 bits and ``stream_id`` and ``counter`` in 32.
    """

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} must satisfy 0 <= seed < 2**64")
        if not (0 <= stream_id < 2**32 and 0 <= counter < 2**32):
            raise ValueError("stream_id and counter must fit in 32 bits")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.counter = int(counter)
        key = np.array([self.seed, (self.stream_id << 32) | self.counter],
                       dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))


def sample_blocks(spec: SamplerSpec, stream: RandomStream, count: int):
    """Yield (lo, w) for each ``GRAM_BLOCK`` of ``count`` states of the full
    family, w of shape (n, n, m) holding states lo, ..., lo + m - 1 (matrix
    index last); any other family is refused.

    Draws each block's Bartlett factors in the order the module notes give,
    builds W = L L* a column at a time and divides it by its trace.  The
    buffers, ``w`` included, are reused by the next block of the same size.
    """
    if spec.family != "full":
        raise ValueError(f"sample_blocks draws the full family, not {spec.family!r}")
    rng = stream.generator
    n, cols = spec.n, wishart_columns(spec.field, spec.n, spec.k)
    r = min(n, cols)
    cplx = spec.field == "C"
    dtype = complex if cplx else float
    shape = (cols - np.arange(r)) / (1.0 if cplx else 2.0)  # beta (cols - i) / 2
    w = None
    for lo in range(0, count, GRAM_BLOCK):
        m = min(GRAM_BLOCK, count - lo)
        if w is None or w.shape[-1] != m:
            # L, matrix index last; only its lower triangle is written or read
            low = np.zeros((n, r, m), dtype=dtype)
            prod = np.empty((n, r, m), dtype=dtype)
            w = np.empty((n, n, m), dtype=dtype)
        gam = rng.standard_gamma(shape[:, None], (r, m))
        draws = low.view(float)  # over C, (re, im) pairs along the last axis
        for i in range(1, n):
            rng.standard_normal(out=draws[i, :min(i, r)])
        for i in range(r):
            low[i, i] = np.sqrt(2.0 * gam[i])
        tr = np.zeros(m)
        for j in range(n):
            c = min(j + 1, r)
            col = w[j:, j]
            np.multiply(low[j:, :c], low[j, :c].conj(), out=prod[j:, :c]).sum(axis=1, out=col)
            if cplx:  # z * conj(z) keeps a rounding-level imaginary part
                col[0].imag = 0.0
            tr += col[0].real
            np.conjugate(col[1:], out=w[j, j + 1:])
        if not np.all(tr > 0.0):  # pragma: no cover - probability zero
            raise ArithmeticError("Wishart draw with non-positive trace")
        w.view(float)[...] /= np.repeat(tr, 2) if cplx else tr
        yield lo, w


def _x_dirichlet_alpha(field: str, n: int) -> np.ndarray:
    """Diagonal marginal of flat measure on the X-slice.

    Integrating the anti-diagonal entries out of the flat slice measure
    leaves prod_i sqrt(p_i p_j) over the pairs (field R; p_i p_j for C),
    i.e. a Dirichlet with alpha 3/2 (R) or 2 (C) on paired coordinates and
    1 on the unpaired center of odd n.
    """
    alpha = np.full(n, 1.5 if field == "R" else 2.0)
    if n % 2:
        alpha[n // 2] = 1.0
    return alpha


def _x_state_draws(spec: SamplerSpec, stream: RandomStream, count: int):
    """The diagonals and anti-diagonals of ``count`` X-states (nonzero
    entries on the two diagonals only): ``(diag, z)``, diag of shape
    (count, n) and z of shape (count, n // 2), z[:, i] the entry at
    (i, n - 1 - i) of pair i.

    Draws the det(rho)^k-weighted flat law on the X-slice exactly, for
    every k >= 0, in one pass with no rejection.  On the slice, det(rho) is
    the product over pairs (i, j) of p_i p_j - |z|^2, times the centre
    p_c of odd n, so the weight factors.  Writing z = sqrt(p_i p_j) t (R)
    or |z|^2 = p_i p_j s (C) leaves independent pieces:

    - the diagonal ~ Dirichlet(alpha + k), alpha from :func:`_x_dirichlet_alpha`;
    - R: (1 + t)/2 ~ Beta(k + 1, k + 1), drawn as X/(X + Y) with X, Y
      independent Gamma(k + 1);
    - C: s ~ Beta(1, k + 1), drawn by inversion as 1 - U^(1/(k+1)), with a
      uniform phase.

    The whole chunk's diagonals are drawn first, then its anti-diagonals.
    """
    rng = stream.generator
    n, k = spec.n, spec.k
    i = np.arange(n // 2)  # pair (i, j) holds the anti-diagonal entry z
    j = n - 1 - i
    diag = rng.dirichlet(_x_dirichlet_alpha(spec.field, n) + k, size=count)
    bound = np.sqrt(diag[:, i] * diag[:, j])
    if spec.field == "C":
        s = 1.0 - rng.random((count, i.size)) ** (1.0 / (k + 1))
        angle = rng.uniform(0.0, 2 * np.pi, (count, i.size))
        z = bound * np.sqrt(s) * np.exp(1j * angle)
    else:
        x, y = rng.standard_gamma(k + 1.0, (2, count, i.size))
        z = bound * ((x - y) / (x + y))
    return diag, z


def _x_state_matrices(diag: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The X-states of :func:`_x_state_draws` rows ``(diag, z)`` as a stack
    of shape (m, n, n), of z's dtype."""
    m, n = diag.shape
    i = np.arange(n // 2)
    rows = np.arange(n)
    out = np.zeros((m, n, n), dtype=z.dtype)
    out[:, rows, rows] = diag
    out[:, i, n - 1 - i] = z
    out[:, n - 1 - i, i] = z.conj()
    return out


def sample_batch(spec: SamplerSpec, stream: RandomStream, count: int) -> np.ndarray:
    """Stack of ``count`` states of the spec's family, shape (count, n, n):
    the blocks of :func:`sample_blocks`, matrix index first, or the
    X-states of :func:`_x_state_draws`.

    Real-field output is a float64 array; complex-field is complex128.
    """
    if spec.family == "x_state":
        return _x_state_matrices(*_x_state_draws(spec, stream, count))
    out = np.empty((count, spec.n, spec.n), dtype=complex if spec.field == "C" else float)
    for lo, w in sample_blocks(spec, stream, count):
        out[lo:lo + w.shape[-1]] = w.transpose(2, 0, 1)
    return out
