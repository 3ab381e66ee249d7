"""Seeded generation of random density matrices under induced measures.

The full-family sampler is the Ginibre construction rho = G G* / tr(G G*)
with G a standard Gaussian n x cols matrix over the field.  The induced
measure of order k weights the flat (Hilbert-Schmidt, k = 0) measure by
det(rho)^k, which fixes the column count per field: over C the density of
the construction is det(rho)^(cols - n), so cols = n + k; over R it is
det(rho)^((cols - n - 1)/2), so cols = n + 1 + 2k.  Negative k produces
the documented rank deficits.  X-states are drawn flat on their matrix
slice (diagonal plus anti-diagonal), with an extra det(rho)^k thinning
step for induced measures.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_id, counter), so any partition of the work across threads or
processes reproduces bit-identical samples.  Normal variates are standard
double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix

X_REJECTION_CAP = 10**6  # proposal rounds before the sampler gives up
SAMPLER_VERSION = 1  # bump whenever the map from Philox draws to samples changes


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
        if self.family == "full":
            if ginibre_columns(self.field, self.n, self.k) < 1:
                raise ValueError("induced construction needs >= 1 Ginibre column")
        elif self.family == "x_state":
            if self.n not in (4, 6, 9):
                raise ValueError("X-state family covers n in {4, 6, 9}")
            if self.k < 0:
                raise ValueError("X-state family requires k >= 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")


def ginibre_columns(field: str, n: int, k: int) -> int:
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


def stream_for(spec: SamplerSpec, counter: int = 0) -> RandomStream:
    """The stream a spec designates, at a given chunk counter."""
    return RandomStream(spec.seed, spec.stream_id, counter)


def _ginibre_batch(rng: np.random.Generator, field: str, n: int, cols: int,
                   count: int) -> np.ndarray:
    if field == "C":
        g = rng.standard_normal((count, n, cols))
        g = g + 1j * rng.standard_normal((count, n, cols))
    else:
        g = rng.standard_normal((count, n, cols))
    return g


def sample_induced_batch(spec: SamplerSpec, stream: RandomStream,
                         count: int) -> np.ndarray:
    """Stack of ``count`` induced-measure density matrices, shape (count, n, n).

    Real-field output is a float64 array; complex-field is complex128.
    The measure-zero zero-trace event is resampled.
    """
    if spec.family != "full":
        raise ValueError("induced sampler serves the full family")
    rng = stream.generator
    n, cols = spec.n, ginibre_columns(spec.field, spec.n, spec.k)
    g = _ginibre_batch(rng, spec.field, n, cols, count)
    w = g @ g.conj().swapaxes(-1, -2)
    tr = np.trace(w, axis1=-2, axis2=-1).real
    bad = tr <= 0.0
    while np.any(bad):  # pragma: no cover - probability zero in float64
        idx = np.flatnonzero(bad)
        g = _ginibre_batch(rng, spec.field, n, cols, idx.size)
        w[idx] = g @ g.conj().swapaxes(-1, -2)
        tr[idx] = np.trace(w[idx], axis1=-2, axis2=-1).real
        bad[idx] = tr[idx] <= 0.0
    rho = w / tr[:, None, None]
    if spec.field == "R":
        return rho.real
    return rho


def sample_induced(spec: SamplerSpec, stream: RandomStream | None = None) -> DensityMatrix:
    """One induced-measure density matrix (PSD, unit trace, rank bounded by
    the Ginibre column count)."""
    if stream is None:
        stream = stream_for(spec)
    rho = sample_induced_batch(spec, stream, 1)[0]
    return DensityMatrix(spec.field, spec.n, spec.split, rho)


def _x_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, n - 1 - i) for i in range(n // 2)]


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


def sample_x_state_batch(spec: SamplerSpec, stream: RandomStream,
                         count: int) -> np.ndarray:
    """Stack of ``count`` X-states (nonzero entries on the two diagonals only).

    k = 0 realizes flat (Lebesgue) measure on the X-slice exactly, by
    construction: the diagonal is drawn from the slice's own marginal (see
    :func:`_x_dirichlet_alpha`) and each anti-diagonal entry uniformly on
    its feasible interval/disk |z_i|^2 <= p_i p_j, so no feasibility
    rejection is needed.  k >= 1 thins by det(rho)^k against the global
    maximum n^-n, which is exact and unbiased.

    The equivalent all-rejection sampler (flat proposals on a superset) is
    kept as :func:`sample_x_state_batch_rejection` and cross-checked in the
    test suite.
    """
    if spec.family != "x_state":
        raise ValueError("X-state sampler serves the x_state family")
    rng = stream.generator
    n, k = spec.n, spec.k
    pairs = _x_pairs(n)
    npair = len(pairs)
    cdtype = complex if spec.field == "C" else float
    out = np.zeros((count, n, n), dtype=cdtype)
    alpha = _x_dirichlet_alpha(spec.field, n)
    got = 0
    proposed = 0
    det_max = float(n) ** (-n)
    for _ in range(X_REJECTION_CAP):
        if got >= count:
            break
        # deterministic adaptive batch: a pure function of the draws so far
        rate = got / proposed if proposed else 1.0
        need = count - got
        chunk = int(min(4_000_000, max(4096, need, 1.25 * need / max(rate, 1e-6))))
        proposed += chunk
        diag = rng.dirichlet(alpha, size=chunk)
        pp = np.stack([diag[:, i] * diag[:, j] for i, j in pairs], axis=1)
        bound = np.sqrt(pp)
        if spec.field == "C":
            radius = bound * np.sqrt(rng.uniform(0.0, 1.0, (chunk, npair)))
            angle = rng.uniform(0.0, 2 * np.pi, (chunk, npair))
            z = radius * np.exp(1j * angle)
        else:
            z = bound * rng.uniform(-1.0, 1.0, (chunk, npair))
        if k > 0:
            det = np.prod(pp - np.abs(z) ** 2, axis=1)
            if n % 2:
                det = det * diag[:, n // 2]
            u = rng.uniform(0.0, 1.0, chunk)
            ok = u < np.clip(det / det_max, 0.0, 1.0) ** k
        else:
            ok = np.ones(chunk, dtype=bool)
        idx = np.flatnonzero(ok)[: count - got]
        take = idx.size
        if take:
            sl = slice(got, got + take)
            rows = np.arange(n)
            out[sl, rows, rows] = diag[idx]
            for col, (i, j) in enumerate(pairs):
                out[sl, i, j] = z[idx, col]
                out[sl, j, i] = np.conj(z[idx, col])
            got += take
    else:
        raise RuntimeError(
            f"X-state rejection cap hit after {X_REJECTION_CAP} rounds "
            f"({got}/{count} accepted); k={k} may be too large for n={n}")
    return out


def sample_x_state_batch_rejection(spec: SamplerSpec, stream: RandomStream,
                                   count: int) -> np.ndarray:
    """Reference X-state sampler: flat proposals on a superset plus rejection.

    Diagonal from Dirichlet(1, ..., 1), anti-diagonal entries uniform on
    [-1/2, 1/2] (R) or the radius-1/2 disk (C), rejecting unless every
    2 x 2 (p_i, z; z*, p_j) block is PSD.  Identical in law to
    :func:`sample_x_state_batch` but far slower at large n; retained as a
    distribution oracle for tests.
    """
    if spec.family != "x_state":
        raise ValueError("X-state sampler serves the x_state family")
    rng = stream.generator
    n, k = spec.n, spec.k
    pairs = _x_pairs(n)
    npair = len(pairs)
    cdtype = complex if spec.field == "C" else float
    out = np.zeros((count, n, n), dtype=cdtype)
    got = 0
    proposed = 0
    det_max = float(n) ** (-n)
    for _ in range(X_REJECTION_CAP):
        if got >= count:
            break
        rate = got / proposed if proposed else 1.0
        need = count - got
        chunk = int(min(4_000_000, max(4096, need, 1.25 * need / max(rate, 1e-6))))
        proposed += chunk
        diag = rng.dirichlet(np.ones(n), size=chunk)
        if spec.field == "C":
            radius = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, (chunk, npair)))
            angle = rng.uniform(0.0, 2 * np.pi, (chunk, npair))
            z = radius * np.exp(1j * angle)
        else:
            z = rng.uniform(-0.5, 0.5, (chunk, npair))
        pp = np.stack([diag[:, i] * diag[:, j] for i, j in pairs], axis=1)
        ok = np.all(np.abs(z) ** 2 <= pp, axis=1)
        if k > 0:
            det = np.prod(np.clip(pp - np.abs(z) ** 2, 0.0, None), axis=1)
            if n % 2:
                det = det * diag[:, n // 2]
            u = rng.uniform(0.0, 1.0, chunk)
            ok &= u < np.clip(det / det_max, 0.0, 1.0) ** k
        idx = np.flatnonzero(ok)[: count - got]
        take = idx.size
        if take:
            sl = slice(got, got + take)
            rows = np.arange(n)
            out[sl, rows, rows] = diag[idx]
            for col, (i, j) in enumerate(pairs):
                out[sl, i, j] = z[idx, col]
                out[sl, j, i] = np.conj(z[idx, col])
            got += take
    else:
        raise RuntimeError("X-state rejection cap hit")
    return out


def sample_x_state(spec: SamplerSpec, stream: RandomStream | None = None) -> DensityMatrix:
    """One X-state density matrix under the flat or det^k-weighted slice law."""
    if stream is None:
        stream = stream_for(spec)
    rho = sample_x_state_batch(spec, stream, 1)[0]
    return DensityMatrix(spec.field, spec.n, spec.split, rho)


def sample_batch(spec: SamplerSpec, stream: RandomStream, count: int) -> np.ndarray:
    """Dispatch to the family-appropriate batch sampler."""
    if spec.family == "full":
        return sample_induced_batch(spec, stream, count)
    return sample_x_state_batch(spec, stream, count)
