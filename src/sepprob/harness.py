"""Monte Carlo experiment runner with mergeable tallies and reports.

Work is cut into fixed 65536-sample chunks on a (stream, chunk) grid; each
chunk draws from its own counter-keyed Philox stream, so the result for a
given (seed, streams, samples) triple is bit-identical no matter how many
worker processes execute the grid.  Both Monte Carlo runs, PPT experiments
and empirical chi fits, go through one grid runner, serial or on one
process pool.  Each chunk returns a row of integer counts; the row is the
only record: experiment rows are appended to a JSON-lines checkpoint as
they arrive, and results are field-wise sums over rows.

Interval reporting uses the Wald normal approximation (matching the
conventions of the published estimates this reproduces) at ``CI_LEVEL``,
with an exact Clopper-Pearson fallback in the rare-hit regime.  A rate
conditioned on an empty event (no PPT samples, an empty chi bin) reports
NaN with a [NaN, NaN] interval.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import zip_longest

import mpmath
import numpy as np
import scipy
from scipy.special import betaincinv, ndtri

from .criteria import classify_blocks, classify_x_states, ppt_blocks
from .exactmath import CatalogMiss, chi_catalog, is_prime
from .linalg import epsilon_ratio_batch_2x2
from .quadrature import chi_numeric
from .sampling import SAMPLER_VERSION, RandomStream, SamplerSpec, _x_state_draws, sample_blocks

CHUNK_SAMPLES = 65_536
CI_LEVEL = 0.95
CP_FALLBACK_HITS = 30  # below this many hits (or misses), Wald is unreliable
CANDIDATE_CAP = 200_000  # conjecture_search refuses a lattice with more candidates
# an experiment chunk row's counts, in row order; tallies are their sums
_COUNTS = ("samples", "ppt_hits", "johnston_hits", "det_gt_hits_given_ppt",
           "neg_eig_histogram")


def _sum_rows(rows, keys: tuple[str, ...] = _COUNTS) -> dict:
    """Field-wise sum of rows over ``keys``: integers add, and lists add
    element by element, the shorter padded with zeros."""
    total = {}
    for row in rows:
        for key in keys:
            if isinstance(row[key], list):
                total[key] = [a + b for a, b in
                              zip_longest(total.get(key, ()), row[key], fillvalue=0)]
            else:
                total[key] = total.get(key, 0) + row[key]
    return total


def build_info() -> dict:
    from . import __version__
    return {
        "sepprob": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sampler_version": SAMPLER_VERSION,
        "normals": "float64 (standard double precision)",
    }


@dataclass
class TrialTally:
    """Mergeable Monte Carlo counts with seed provenance.

    ``neg_eig_histogram[i]`` counts samples whose partial transpose had
    exactly i negative eigenvalues; johnston hits are PPT-conditioned by
    construction, and the determinant-inequality count is restricted to
    PPT samples.  Merging is field-wise addition; wall time is additive
    CPU bookkeeping and excluded from equality comparisons.
    """

    samples: int = 0
    ppt_hits: int = 0
    johnston_hits: int = 0
    det_gt_hits_given_ppt: int = 0
    neg_eig_histogram: list[int] = field(default_factory=list)
    seed: int = 0
    stream_ids: list[int] = field(default_factory=list)
    wall_time: float = 0.0

    def merge(self, other: "TrialTally") -> "TrialTally":
        if self.samples and other.samples and self.seed != other.seed:
            raise ValueError("refusing to merge tallies from different seeds")
        return TrialTally(
            **_sum_rows((vars(self), vars(other))),
            seed=self.seed if self.samples else other.seed,
            stream_ids=sorted(set(self.stream_ids) | set(other.stream_ids)),
            wall_time=self.wall_time + other.wall_time,
        )

    def counts_dict(self) -> dict:
        """The deterministic content (everything except wall time)."""
        return {**_sum_rows([vars(self)]),  # a one-row sum: the counts, copied
                "seed": self.seed, "stream_ids": list(self.stream_ids)}


@dataclass
class ExperimentConfig:
    """A full experiment: sampler spec, sample budget, parallelism, output."""

    sampler: SamplerSpec
    target_samples: int
    streams: int = 8
    threads: int = 1
    checkpoint: str | None = None


def stream_quotas(total: int, streams: int) -> list[int]:
    """Round-robin assignment: stream i serves samples j with j % streams == i."""
    base, extra = divmod(total, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def pool_size(threads: int, pending: int, cores: int) -> int:
    """Worker processes for a grid: min(threads, pending chunks, usable cores).

    One means the grid runs serially, in this process.
    """
    return max(1, min(threads, pending, cores))


def _check_threads(threads: int) -> None:
    """Refuse a worker count below one (:func:`pool_size` would clamp it)."""
    if threads < 1:
        raise ValueError(f"threads {threads} must be at least 1")


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_grid(total: int, streams: int) -> list[tuple[int, int, int]]:
    """(stream_id, chunk_index, chunk_samples) covering the whole budget."""
    if total < 1:
        raise ValueError("need at least 1 sample")
    if not 1 <= streams <= 2**31:
        raise ValueError("streams out of range")
    grid = []
    for s, quota in enumerate(stream_quotas(total, streams)):
        idx = 0
        while quota > 0:
            take = min(CHUNK_SAMPLES, quota)
            grid.append((s, idx, take))
            quota -= take
            idx += 1
    return grid


def _experiment_chunk(spec: SamplerSpec, stream_id: int, chunk_index: int,
                      count: int) -> dict:
    stream = RandomStream(spec.seed, stream_id, chunk_index)
    if spec.family == "x_state":  # closed form from the draws, no matrices
        out = classify_x_states(*_x_state_draws(spec, stream, count), *spec.split)
    else:
        out = classify_blocks(sample_blocks(spec, stream, count), count, *spec.split)
    hits = [int(np.count_nonzero(v))
            for v in (out["is_ppt"], out["johnston"], out["det_gt"] & out["is_ppt"])]
    hist = np.bincount(out["neg_pt_eigs"], minlength=spec.n + 1).tolist()
    return {"stream_id": stream_id, "chunk_index": chunk_index,
            **dict(zip(_COUNTS, [count, *hits, hist]))}


def _run_grid(chunk_fn, spec: SamplerSpec, grid, threads: int):
    """Yield ``chunk_fn(spec, stream_id, chunk_index, count)`` for each grid
    entry, in completion order: serially in this process when
    :func:`pool_size` allows one worker, otherwise on one process pool."""
    workers = pool_size(threads, len(grid), _usable_cores())
    if workers <= 1:
        yield from (chunk_fn(spec, s, c, n) for s, c, n in grid)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk_fn, spec, s, c, n) for s, c, n in grid]
        yield from (fut.result() for fut in as_completed(futures))


def _checkpoint_fingerprint(cfg: ExperimentConfig) -> dict:
    """Everything that decides a checkpoint's rows, for its header line."""
    from . import __version__
    spec = cfg.sampler
    return {
        "field": spec.field,
        "split": list(spec.split),
        "k": spec.k,
        "family": spec.family,
        "seed": spec.seed,
        "streams": cfg.streams,
        "target_samples": cfg.target_samples,
        "chunk_samples": CHUNK_SAMPLES,
        "sampler_version": SAMPLER_VERSION,
        "sepprob": __version__,
    }


def _check_chunk_row(path: str, line_no: int, row, fingerprint: dict,
                     grid: dict[tuple[int, int], int]) -> None:
    """Refuse a parsed checkpoint line unless it is a chunk row of this run:
    nonnegative integer keys and counts, n + 1 histogram bins for n x n
    states, bin 0 holding the PPT hits, of which the Johnston and det_gt hits
    are a part; (stream, chunk, samples) on ``grid``; and a histogram that
    sums to the samples."""
    row = row if isinstance(row, dict) else {}
    s, c, samples, ppt, johnston, det_gt, hist = (
        row.get(key) for key in ("stream_id", "chunk_index", *_COUNTS))
    if not (isinstance(hist, list) and len(hist) == math.prod(fingerprint["split"]) + 1
            and all(type(v) is int and v >= 0
                    for v in [s, c, samples, ppt, johnston, det_gt, *hist])
            and hist[0] == ppt >= max(johnston, det_gt)):
        raise ValueError(f"checkpoint {path} line {line_no} is not a chunk row")
    if grid.get((s, c)) != samples:
        raise ValueError(
            f"checkpoint {path} holds stream {s} chunk {c} with {samples} samples, "
            f"which is not on this run's chunk grid ({fingerprint['target_samples']} "
            f"samples over {fingerprint['streams']} streams)")
    if sum(hist) != samples:
        raise ValueError(
            f"checkpoint {path} holds stream {s} chunk {c} whose histogram counts "
            f"{sum(hist)} states, not its {samples} samples")


def _load_checkpoint(path: str, fingerprint: dict,
                     grid: list[tuple[int, int, int]]) -> dict[tuple[int, int], dict]:
    """Completed chunk rows keyed by (stream_id, chunk_index).

    The first line is a header, ``{"fingerprint": ...}``, written by
    :func:`run_experiment`; a file whose header is missing or differs from
    ``fingerprint`` raises ``ValueError``.  An unparsable last line, as a
    crash mid-write leaves it, is dropped with a warning and cut from the
    file, so that the next line appended starts on a line of its own.  An
    unparsable line anywhere else raises, and so, once the header matches,
    does a line that is not a chunk row of this run's ``grid``
    (:func:`_check_chunk_row`).  A file of blank lines alone is emptied, so
    that the header is written first.
    """
    done = {}
    if not os.path.exists(path):
        return done
    rows = {}  # by line number
    with open(path, "rb+") as fh:
        lines = fh.readlines()
        header = None
        complete = 0  # byte length of the lines accepted so far
        for i, line in enumerate(lines):
            if line.strip():
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    if i < len(lines) - 1:
                        raise
                    warnings.warn(f"dropping the torn last line of checkpoint {path}")
                    fh.truncate(complete)
                    break
                if header is None:
                    header = row
                else:
                    rows[i + 1] = row
            complete += len(line)
        else:
            if lines and not lines[-1].endswith(b"\n"):
                fh.write(b"\n")
        if header is None:
            fh.truncate(0)
    if header is None:
        return done
    theirs = header.get("fingerprint") if isinstance(header, dict) else None
    if not isinstance(theirs, dict):
        raise ValueError(f"checkpoint {path} has no fingerprint header")
    diffs = [f"{key} {theirs.get(key)!r} there, {value!r} here"
             for key, value in fingerprint.items() if theirs.get(key) != value]
    if diffs:
        raise ValueError(f"checkpoint {path} was written for another config or "
                         f"chunk grid: {'; '.join(diffs)}")
    on_grid = {(s, c): n for s, c, n in grid}
    for line_no, row in rows.items():
        _check_chunk_row(path, line_no, row, fingerprint, on_grid)
        done[(row["stream_id"], row["chunk_index"])] = row
    return done


def run_experiment(cfg: ExperimentConfig) -> tuple[TrialTally, dict]:
    """Run (or resume) an experiment; returns the tally summed from its chunk
    rows, and a report.

    Deterministic for fixed (seed, streams, target_samples): the chunk grid
    and each chunk's Philox key are independent of the thread count.
    """
    t0 = time.perf_counter()
    _check_threads(cfg.threads)
    grid = _chunk_grid(cfg.target_samples, cfg.streams)
    fingerprint = _checkpoint_fingerprint(cfg)
    done = _load_checkpoint(cfg.checkpoint, fingerprint, grid) if cfg.checkpoint else {}
    pending = [g for g in grid if (g[0], g[1]) not in done]
    rows = list(done.values())

    ckpt_fh = open(cfg.checkpoint, "a") if cfg.checkpoint else None
    try:
        if ckpt_fh and ckpt_fh.tell() == 0:
            ckpt_fh.write(json.dumps({"fingerprint": fingerprint}) + "\n")
            ckpt_fh.flush()
        for row in _run_grid(_experiment_chunk, cfg.sampler, pending, cfg.threads):
            rows.append(row)
            if ckpt_fh:
                ckpt_fh.write(json.dumps(row) + "\n")
                ckpt_fh.flush()
    finally:
        if ckpt_fh:
            ckpt_fh.close()

    tally = TrialTally(
        **_sum_rows(rows),
        seed=cfg.sampler.seed,
        stream_ids=sorted({row["stream_id"] for row in rows}),
        wall_time=time.perf_counter() - t0,
    )
    return tally, experiment_report(cfg, tally)


def experiment_report(cfg: ExperimentConfig, tally: TrialTally) -> dict:
    """The run's estimate with its CI, and the PPT-conditioned Johnston and
    det(rho^PT) > det(rho) rates; ``det_gt`` carries the determinantal
    equipartition split with its own CI."""
    spec = cfg.sampler
    n, h = tally.samples, tally.ppt_hits
    det_hits = tally.det_gt_hits_given_ppt
    return {
        "system": f"{spec.split[0]}x{spec.split[1]}",
        "field": spec.field,
        "k": spec.k,
        "family": spec.family,
        "samples": n,
        "ppt_hits": h,
        "estimate": h / n if n else float("nan"),
        "ci": _conditional_ci(n, h),
        "johnston": {
            "hits": tally.johnston_hits,
            "rate": tally.johnston_hits / h if h else float("nan"),
        },
        "det_gt": {
            "hits": det_hits,
            "rate": det_hits / h if h else float("nan"),
            "ci": _conditional_ci(h, det_hits),
        },
        "neg_eig_histogram": list(tally.neg_eig_histogram),
        "seed": spec.seed,
        "streams": cfg.streams,
        "wall_time_s": tally.wall_time,
        "build_info": build_info(),
    }


def wald_ci(samples: int, hits: int) -> tuple[float, float]:
    """Binomial confidence interval at ``CI_LEVEL``: Wald, with exact
    fallback near 0 or n.

    The Wald form p +- z sqrt(p(1-p)/n) reproduces the published intervals;
    with fewer than 30 hits (or misses) it degenerates, so the exact
    Clopper-Pearson interval (beta quantiles) is substituted there.
    """
    if samples < 1 or not 0 <= hits <= samples:
        raise ValueError("need 0 <= hits <= samples, samples >= 1")
    alpha = 1.0 - CI_LEVEL
    if hits < CP_FALLBACK_HITS or samples - hits < CP_FALLBACK_HITS:
        lo = 0.0 if hits == 0 else float(betaincinv(hits, samples - hits + 1, alpha / 2))
        hi = 1.0 if hits == samples else float(betaincinv(hits + 1, samples - hits, 1 - alpha / 2))
        return lo, hi
    p = hits / samples
    half = float(ndtri(1.0 - alpha / 2)) * math.sqrt(p * (1.0 - p) / samples)
    return p - half, p + half


def _conditional_ci(samples: int, hits: int) -> list[float]:
    """:func:`wald_ci`, or [nan, nan] for an empty condition."""
    return list(wald_ci(samples, hits)) if samples else [float("nan")] * 2


# ---------------------------------------------------------------------------
# empirical chi estimation
# ---------------------------------------------------------------------------

def _chifit_chunk(spec: SamplerSpec, stream_id: int, chunk_index: int,
                  count: int, bins: int) -> dict:
    eps = np.empty(count)
    stream = RandomStream(spec.seed, stream_id, chunk_index)

    def blocks():  # each block's epsilon ratio, read before it is classified
        for lo, w in sample_blocks(spec, stream, count):
            eps[lo:lo + w.shape[-1]] = epsilon_ratio_batch_2x2(w.transpose(2, 0, 1))
            yield lo, w

    is_ppt = ppt_blocks(blocks(), count, 2, 2)
    good = np.isfinite(eps)
    idx = np.minimum((eps[good] * bins).astype(int), bins - 1)
    totals = np.bincount(idx, minlength=bins)
    hits = np.bincount(idx[is_ppt[good]], minlength=bins)
    return {
        "stream_id": stream_id,
        "chunk_index": chunk_index,
        "totals": totals.tolist(),
        "hits": hits.tolist(),
        "discarded": int(np.count_nonzero(~good)),
    }


def estimate_chi_empirical(field: str, k: int, bins: int, samples: int,
                           seed: int = 0, streams: int = 8, threads: int = 1) -> dict:
    """Binned conditional PPT rate vs the singular-value ratio, for 2x2.

    Returns per-bin totals, rates, confidence intervals, the reference
    chi at the bin midpoint and residuals.  The reference is the catalog's
    where it has one, else ``chi_numeric``'s for k >= 0 (the real field,
    d = 1), else NaN.  Bin i of b holds eps in [i/b, (i+1)/b); the last
    bin also holds eps = 1.
    """
    if bins < 10:
        raise ValueError("need at least 10 bins")
    _check_threads(threads)
    spec = SamplerSpec(field=field, n=4, split=(2, 2), k=k, seed=seed)
    grid = _chunk_grid(samples, streams)
    sums = _sum_rows(_run_grid(partial(_chifit_chunk, bins=bins), spec, grid, threads),
                     ("totals", "hits", "discarded"))

    d = 2 if field == "C" else 1
    rows = []
    for i in range(bins):
        lo_edge, hi_edge = i / bins, (i + 1) / bins
        mid = (lo_edge + hi_edge) / 2
        nb, hb = sums["totals"][i], sums["hits"][i]
        rate = hb / nb if nb else float("nan")
        ci = _conditional_ci(nb, hb)
        try:
            ref = chi_catalog(d, k, mid)
        except CatalogMiss:
            ref = chi_numeric(d, k, mid) if k >= 0 else float("nan")
        rows.append({
            "bin_lo": lo_edge, "bin_hi": hi_edge, "n": nb, "rate": rate,
            "ci_lo": ci[0], "ci_hi": ci[1], "chi_ref": ref,
            "residual": rate - ref if nb else float("nan"),
        })
    return {"field": field, "k": k, "bins": bins, "samples": samples,
            "seed": seed, "streams": streams, "discarded": sums["discarded"],
            "rows": rows, "build_info": build_info()}


# ---------------------------------------------------------------------------
# conjecture search over smooth rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureCandidate:
    """A rational p/q inside the target interval with smooth denominator."""

    numerator: int
    denominator: int
    prime_support: tuple[int, ...]
    score: int

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


def _integer_nth_root(n: int, e: int) -> int:
    if n < 0:
        raise ValueError
    r = int(round(n ** (1.0 / e)))
    while r > 0 and r**e > n:
        r -= 1
    while (r + 1) ** e <= n:
        r += 1
    return r


def is_perfect_power(n: int) -> bool:
    """True if n = m**e for integers m >= 1, e >= 2 (1 counts)."""
    if n < 1:
        return False
    if n == 1:
        return True
    for e in range(2, n.bit_length() + 1):
        r = _integer_nth_root(n, e)
        if r**e == n:
            return True
    return False


def _smooth_values(primes: tuple[int, ...], max_value: int, max_exp: int) -> list[int]:
    values = [1]
    for p in primes:
        extended = []
        for v in values:
            pe = 1
            for _ in range(max_exp):
                pe *= p
                if v * pe > max_value:
                    break
                extended.append(v * pe)
        values.extend(extended)
    return sorted(values)


def conjecture_search(lo, hi, primes, max_denominator: int,
                      max_exponent: int) -> list[ConjectureCandidate]:
    """All reduced p/q in [lo, hi] with q smooth over ``primes``, ranked.

    The score favors the structured rationals the literature gravitates
    toward: fewer distinct primes in q, a short numerator, and a bonus when
    p or q is a perfect power (pure prime powers like 3^8 and 2^13 score
    well).  Lower score ranks first; ties break on (q, p).  Enumeration is
    exhaustive over the smooth-denominator lattice, so any admissible
    rational in the interval is guaranteed to appear.
    """
    lo_f = lo if isinstance(lo, Fraction) else Fraction(str(lo))
    hi_f = hi if isinstance(hi, Fraction) else Fraction(str(hi))
    if hi_f < lo_f:
        raise ValueError("empty interval")
    primes = tuple(sorted(set(int(p) for p in primes)))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    out = []
    for q in _smooth_values(primes, max_denominator, max_exponent):
        p_min = -((-lo_f.numerator * q) // lo_f.denominator)  # ceil(lo*q)
        p_max = (hi_f.numerator * q) // hi_f.denominator      # floor(hi*q)
        for p in range(max(p_min, 1), p_max + 1):
            if math.gcd(p, q) != 1:
                continue
            support = tuple(pr for pr in primes if q % pr == 0)
            score = (len(support) + len(str(p))
                     - int(is_perfect_power(p)) - int(is_perfect_power(q)))
            out.append(ConjectureCandidate(p, q, support, score))
            if len(out) > CANDIDATE_CAP:
                raise ValueError(
                    "candidate cap exceeded; narrow the interval or the lattice")
    out.sort(key=lambda c: (c.score, c.denominator, c.numerator))
    return out
