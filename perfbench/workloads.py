"""The benchmark's workloads: their operations, checks and traced replay.

Each workload is a list of operations on sepprob's public API.  An
operation is one ``run_experiment`` or ``estimate_chi_empirical`` job, one
checkpoint resume, one replayed job, or one deterministic evaluation; each
is timed on its own and checked against a reference after its clock stops.
Operations belong to the workload's primary or secondary table, whose
per-pass times are the benchmark's two headline metrics.

The workload seed reaches the program only through the generated configs:
Monte Carlo job seeds, and the evaluation points of the quadrature table.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import statistics
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import mpmath
import numpy as np

from sepprob import quadrature as qd
from sepprob.criteria import classify_batch
from sepprob.exactmath import (
    chi_catalog,
    factorize,
    master_chi,
    p_2qubits,
    p_2quaterbits,
    p_2rebits,
    reported_value_audit,
    u_closed,
    volume_lebesgue,
)
from sepprob.harness import (
    CHUNK_SAMPLES,
    ExperimentConfig,
    TrialTally,
    conjecture_search,
    estimate_chi_empirical,
    run_experiment,
    stream_quotas,
    wald_ci,
)
from sepprob.linalg import epsilon_ratio_batch_2x2, partial_transpose_batch
from sepprob.sampling import RandomStream, SamplerSpec, sample_batch

from measure import OpLog, Span, Tracer, percentile, philox_words

BENCH_DIR = Path(__file__).resolve().parent
MASTER_REFS = BENCH_DIR / "master_refs.json"

CHIFIT_BINS = 50
SIGMAS = 4.0          # Monte Carlo checks: |estimate - reference| <= 4 sigma
MIN_BIN_HITS = 10     # chi-fit bins checked only where the normal law holds
TRACE_CHUNKS = 100    # replayed chunks, so ten lie beyond the p90
REF_DPS = 60


def job_seed(seed: int, index: int) -> int:
    """The seed of a workload's index-th job, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McJob:
    """One Monte Carlo job: a run_experiment call, or a chi-fit when chifit."""

    name: str
    field: str
    split: tuple[int, int]
    k: int
    family: str = "full"
    ref: float | None = None      # exact PPT probability, when one is known
    floor: float = 0.0            # absolute tolerance floor for the reference check
    table: str = "primary"
    chifit: bool = False

    def spec(self, seed: int) -> SamplerSpec:
        return SamplerSpec(field=self.field, n=self.split[0] * self.split[1],
                           split=self.split, k=self.k, family=self.family, seed=seed)


@dataclass(frozen=True)
class McWorkload:
    """Monte Carlo jobs of ``streams`` streams with one full chunk each.

    ``order`` lists the job indices of one pass; a job listed more than
    once is timed more than once, and its table takes the median.
    """

    name: str
    jobs: tuple[McJob, ...]
    threads: int
    checkpoint: bool
    streams: int
    order: tuple[int, ...]

    @property
    def samples(self) -> int:
        return self.streams * CHUNK_SAMPLES

    def replay_plan(self) -> list[tuple[int, int, McJob]]:
        """(repeat, index, job): the jobs in order, repeated until TRACE_CHUNKS
        or more chunks are replayed."""
        n = len(self.jobs)
        return [(r // n, r % n, self.jobs[r % n])
                for r in range(math.ceil(TRACE_CHUNKS / self.streams))]


# mc_qudit: 8 streams, the default of `sepprob estimate`, so 8 chunks queue
# on each call's process pool; the one secondary job runs at the start, in
# the middle and at the end of a pass.
MC_QUDIT = McWorkload("mc_qudit", (
    McJob("C 2x3 k=0", "C", (2, 3), 0, ref=27 / 1000),
    McJob("C 2x4 k=0", "C", (2, 4), 0, ref=16 / 12375),
    McJob("R 2x4 k=0", "R", (2, 4), 0, ref=201 / 8192),
    McJob("C 3x3 k=0", "C", (3, 3), 0, ref=323 / 3161088),
    McJob("C 2x3 k=-2", "C", (2, 3), -2, ref=0.000167, floor=4e-5, table="secondary"),
), threads=min(2, len(os.sched_getaffinity(0))),  # processes <= cores
   checkpoint=True, streams=8, order=(4, 0, 1, 4, 2, 3, 4))

# mc_qubit: serial, where the chunks per call do not change the time per
# sample, so 2 streams let several passes fit in a run.
MC_QUBIT = McWorkload("mc_qubit", (
    McJob("C 2x2 k=0", "C", (2, 2), 0, ref=8 / 33),
    McJob("R 2x2 k=0", "R", (2, 2), 0, ref=29 / 64),
    McJob("X R 2x2 k=1", "R", (2, 2), 1, family="x_state"),
    McJob("X R 2x3 k=1", "R", (2, 3), 1, family="x_state"),
    McJob("chi-fit C k=1", "C", (2, 2), 1, table="secondary", chifit=True),
), threads=1, checkpoint=False, streams=2, order=(0, 1, 2, 3, 4))

X_PAIR = ("X R 2x2 k=1", "X R 2x3 k=1")  # equal PPT rates (no closed form)


def _chifit_counts(table: dict) -> dict:
    """Per-bin totals and hits, recovered exactly from an estimate_chi_empirical table."""
    rows = table["rows"]
    return {"totals": [r["n"] for r in rows],
            "hits": [round(r["rate"] * r["n"]) if r["n"] else 0 for r in rows],
            "discarded": table["discarded"]}


def _job_counts(job: McJob, value) -> dict:
    return _chifit_counts(value) if job.chifit else value[0].counts_dict()


def _sigma_err(est: float, ref: float, n: int, floor: float) -> float:
    """|est - ref| in units of the 4-sigma (or floor) tolerance, times SIGMAS."""
    sigma = math.sqrt(ref * (1.0 - ref) / n)
    return SIGMAS * abs(est - ref) / max(SIGMAS * sigma, floor)


def _chifit_err(table: dict) -> float:
    """Largest |residual| / sigma over bins where both hits and misses are
    expected at least MIN_BIN_HITS times, times SIGMAS over the per-bin bound.

    The bound is Bonferroni-corrected: over m checked bins the chance that
    any one exceeds it by chance is that of one 4-sigma check.
    """
    worst, m = 0.0, 0
    for r in table["rows"]:
        n, ref = r["n"], r["chi_ref"]
        if n * ref >= MIN_BIN_HITS and n * (1.0 - ref) >= MIN_BIN_HITS:
            worst = max(worst, abs(r["residual"]) / math.sqrt(ref * (1.0 - ref) / n))
            m += 1
    if m == 0:
        return math.inf
    normal = statistics.NormalDist()
    tail = 2.0 * normal.cdf(-SIGMAS) / m  # two-sided chance per bin
    return SIGMAS * worst / normal.inv_cdf(1.0 - tail / 2.0)


def mc_check(wl: McWorkload, job: McJob, value, done: dict, first: dict | None) -> float:
    """Error of one job's result, in sigmas; inf on a determinism or shape fault."""
    earlier = first[job.name] if first else (
        _job_counts(job, done[job.name]) if done.get(job.name) is not None else None)
    if earlier is not None and _job_counts(job, value) != earlier:
        return math.inf  # a repeated job must reproduce its first run exactly
    if job.chifit:
        if sum(r["n"] for r in value["rows"]) + value["discarded"] != wl.samples:
            return math.inf
        return _chifit_err(value)
    tally, report = value
    if tally.samples != wl.samples:
        return math.inf
    if job.ref is not None:
        return _sigma_err(report["estimate"], job.ref, tally.samples, job.floor)
    if job.name == X_PAIR[1]:
        other = done[X_PAIR[0]][0]
        pooled = (tally.ppt_hits + other.ppt_hits) / (tally.samples + other.samples)
        sigma = math.sqrt(pooled * (1 - pooled) * (1 / tally.samples + 1 / other.samples))
        return abs(tally.ppt_hits / tally.samples - other.ppt_hits / other.samples) / sigma
    return 0.0


def _job_call(wl: McWorkload, job: McJob, seed: int, ckpt: Path | None) -> Callable:
    if job.chifit:
        return partial(estimate_chi_empirical, job.field, job.k, CHIFIT_BINS, wl.samples,
                       seed=seed, streams=wl.streams, threads=wl.threads)
    cfg = ExperimentConfig(sampler=job.spec(seed), target_samples=wl.samples,
                           streams=wl.streams, threads=wl.threads,
                           checkpoint=str(ckpt) if ckpt else None)
    return partial(run_experiment, cfg)


def _ckpt_path(ckpt_dir: Path | None, job: McJob) -> Path | None:
    if ckpt_dir is None or job.chifit:
        return None
    return ckpt_dir / (job.name.replace(" ", "_").replace("=", "") + ".jsonl")


def mc_pass(wl: McWorkload, seed: int, log: OpLog, ckpt_dir: Path | None,
            first: dict | None) -> dict:
    """One pass over the workload's jobs; returns each job's counts."""
    done: dict[str, Any] = {}
    for i in wl.order:
        job = wl.jobs[i]
        ckpt = _ckpt_path(ckpt_dir, job)
        if ckpt is not None:
            ckpt.unlink(missing_ok=True)  # a fresh run, not a resume
        value = log.run(job.name, _job_call(wl, job, job_seed(seed, i), ckpt),
                        lambda v, job=job: mc_check(wl, job, v, done, first), SIGMAS)
        if done.get(job.name) is None:
            done[job.name] = value
    return {job.name: _job_counts(job, done[job.name])
            for job in wl.jobs if done[job.name] is not None}


def mc_resume(wl: McWorkload, seed: int, log: OpLog, ckpt_dir: Path,
              fresh: dict) -> None:
    """Re-run every checkpointed job over its completed checkpoint."""
    for i, job in enumerate(wl.jobs):
        ckpt = _ckpt_path(ckpt_dir, job)
        if ckpt is None:
            continue
        log.run(f"resume {job.name}", _job_call(wl, job, job_seed(seed, i), ckpt),
                lambda v, job=job: 0.0 if v[0].counts_dict() == fresh.get(job.name)
                else math.inf, 0.0)


def replay_job(wl: McWorkload, job: McJob, seed: int,
               job_id: str) -> tuple[list[Span], dict]:
    """Replay one job's chunk grid serially through sepprob's public calls.

    Mirrors the harness's chunk functions step by step, with a span around
    each layer.  The partial transpose is timed by a separate probe after
    each chunk, outside the chunk span, so chunk spans hold only the work
    the program does.
    """
    tracer = Tracer(job_id)
    spec = job.spec(seed)
    d_a, d_b = spec.split
    tally = TrialTally(seed=seed)
    totals = np.zeros(CHIFIT_BINS, dtype=np.int64)
    hits = np.zeros(CHIFIT_BINS, dtype=np.int64)
    discarded = 0
    with tracer.span("job"):
        for s, quota in enumerate(stream_quotas(wl.samples, wl.streams)):
            for c, start in enumerate(range(0, quota, CHUNK_SAMPLES)):
                n = min(CHUNK_SAMPLES, quota - start)
                with tracer.span("harness.chunk"):
                    with tracer.span("sampling") as sp:
                        stream = RandomStream(seed, s, c)
                        words0 = philox_words(stream.generator.bit_generator)
                        rhos = sample_batch(replace(spec, stream_id=s), stream, n)
                        sp.counts = {"samples": n, "words": philox_words(
                            stream.generator.bit_generator) - words0}
                    if job.chifit:
                        with tracer.span("linalg.epsilon") as sp:
                            eps = epsilon_ratio_batch_2x2(rhos)
                            good = np.isfinite(eps)
                            sp.counts = {"samples": n,
                                         "discarded": int(np.count_nonzero(~good))}
                    with tracer.span("criteria") as sp:
                        out = classify_batch(rhos, d_a, d_b)
                        sp.counts = {"samples": n,
                                     "ppt": int(np.count_nonzero(out["is_ppt"]))}
                    with tracer.span("harness.tally"):
                        if job.chifit:
                            idx = np.minimum((eps[good] * CHIFIT_BINS).astype(int),
                                             CHIFIT_BINS - 1)
                            totals += np.bincount(idx, minlength=CHIFIT_BINS)
                            hits += np.bincount(idx[out["is_ppt"][good]],
                                                minlength=CHIFIT_BINS)
                            discarded += int(np.count_nonzero(~good))
                        else:
                            hist = np.bincount(out["neg_pt_eigs"], minlength=spec.n + 1)
                            tally = tally.merge(TrialTally(
                                samples=n,
                                ppt_hits=int(np.count_nonzero(out["is_ppt"])),
                                johnston_hits=int(np.count_nonzero(out["johnston"])),
                                det_gt_hits_given_ppt=int(np.count_nonzero(
                                    out["det_gt"] & out["is_ppt"])),
                                neg_eig_histogram=hist.tolist(),
                                seed=seed, stream_ids=[s]))
                with tracer.span("linalg.pt") as sp:
                    partial_transpose_batch(rhos, d_a, d_b, side="B")
                    sp.counts = {"samples": n}
    if job.chifit:
        counts = {"totals": totals.tolist(), "hits": hits.tolist(), "discarded": discarded}
    else:
        counts = tally.counts_dict()
    return tracer.spans, counts


def mc_replay(wl: McWorkload, seed: int, log: OpLog, fresh: dict) -> list[Span]:
    """Replay TRACE_CHUNKS or more chunks on ``wl.threads`` spawned workers.

    Every replayed job must reproduce the untraced tally bit for bit; a
    mismatch or an exception counts as a failed operation.
    """
    spans: list[Span] = []
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=wl.threads, mp_context=ctx,
                             initializer=warm_up, initargs=(wl.name,)) as pool:
        futures = {pool.submit(replay_job, wl, job, job_seed(seed, i), f"r{r}/{job.name}"): job
                   for r, i, job in wl.replay_plan()}
        for fut in as_completed(futures):
            job = futures[fut]
            try:
                job_spans, counts = fut.result()
            except Exception as exc:  # a replay that raises is a failed operation
                log.record(f"replay {job.name}", 0.0, math.inf, 0.0,
                           f"{type(exc).__name__}: {exc}")
                continue
            spans.extend(job_spans)
            log.record(f"replay {job.name}", job_spans[0].duration,
                       0.0 if counts == fresh.get(job.name) else math.inf, 0.0)
    return spans


def mc_layer_metrics(wl: McWorkload, spans: list[Span], log: OpLog) -> dict:
    """Per-layer figures from the replay spans and the untraced operation log."""
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    chunk_ms = [1e3 * s.duration for s in spans if s.name == "harness.chunk"]
    chunk_total = sum(chunk_ms) / 1e3
    samples = count("sampling", "samples")
    eps_samples = count("linalg.epsilon", "samples")
    roots = [s for s in spans if s.parent is None]
    # the replay's wall less its partial-transpose probes, which the
    # program does not run, spread over the worker processes
    traced_wall = (max(s.end for s in roots) - min(s.start for s in roots)
                   - total("linalg.pt") / wl.threads)
    untraced = sum(log.median_wall(job.name) for _, _, job in wl.replay_plan())
    resumes = [r.wall for r in log.records if r.name.startswith("resume ")]
    return {
        "sampling.us_per_sample": 1e6 * total("sampling") / samples,
        "sampling.share": total("sampling") / chunk_total,
        "sampling.words_per_sample": count("sampling", "words") / samples,
        "linalg.pt_us_per_sample": 1e6 * total("linalg.pt") / count("linalg.pt", "samples"),
        "linalg.epsilon_us_per_sample":
            1e6 * total("linalg.epsilon") / eps_samples if eps_samples else 0.0,
        "linalg.epsilon_discard_frac":
            count("linalg.epsilon", "discarded") / eps_samples if eps_samples else 0.0,
        "criteria.us_per_sample": 1e6 * total("criteria") / count("criteria", "samples"),
        "criteria.share": total("criteria") / chunk_total,
        "criteria.ppt_frac": count("criteria", "ppt") / count("criteria", "samples"),
        "harness.chunk_p50_ms": percentile(chunk_ms, 50),
        "harness.chunk_p90_ms": percentile(chunk_ms, 90),
        "harness.parallel_eff": chunk_total / (wl.threads * untraced),
        "harness.resume_ms": 1e3 * statistics.median(resumes) if resumes else 0.0,
        "trace.overhead_frac": traced_wall / untraced - 1.0,
    }


# ---------------------------------------------------------------------------
# deterministic workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetOp:
    """One deterministic evaluation: fn() checked by check(value) <= tol."""

    name: str
    layer: str
    table: str
    fn: Callable[[], Any]
    check: Callable[[Any], float]
    tol: float


def _abs_err(ref: float) -> Callable[[float], float]:
    return lambda v: abs(v - ref)


def _exact(ref) -> Callable[[Any], float]:
    return lambda v: 0.0 if v == ref else 1.0


def _mp_err(ref_fn: Callable[[], mpmath.mpf], relative: bool = False) -> Callable:
    def err(v):
        with mpmath.workdps(REF_DPS):
            ref = ref_fn()
            diff = abs(mpmath.mpf(v) - ref)
            return float(diff / abs(ref) if relative else diff)
    return err


def series_ops() -> list[DetOp]:
    """master_chi at odd d on the stored grid, and the odd-d quadrature."""
    refs = json.loads(MASTER_REFS.read_text())["values"]
    ops = [DetOp(f"master_chi({d}, {eps})",
                 "hyper.endpoint" if float(eps) == 1.0 else "hyper.series", "primary",
                 partial(master_chi, int(d), float(eps)),
                 _mp_err(partial(mpmath.mpf, ref), relative=True), 1e-12)
           for d, grid in refs.items() for eps, ref in grid.items()]
    ops.append(DetOp("sep_prob_general(1, 0, master[1])", "quadrature.odd", "primary",
                     lambda: qd.sep_prob_general(1, 0, qd.chi_from_master(1)),
                     _abs_err(29 / 64), 1e-8))
    return ops


VOLUMES = {
    ("C", 4): (Fraction(1, 108972864000),
               ((2, 9), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1))),
    ("R", 2): (Fraction(1, 967680), ((2, 10), (3, 3), (5, 1), (7, 1))),
    ("R", 3): (Fraction(1, 1730063650258944000),
               ((2, 23), (3, 6), (5, 3), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1))),
    ("H", 4): (Fraction(1, 315071454005160652800000),
               ((2, 15), (3, 10), (5, 5), (7, 3), (11, 2), (13, 2), (17, 1), (19, 1),
                (23, 1))),
}
P_EXACT = [(p_2qubits, -2, Fraction(0)), (p_2qubits, -1, Fraction(1, 14)),
           (p_2qubits, 0, Fraction(8, 33)), (p_2qubits, 1, Fraction(61, 143)),
           (p_2qubits, 2, Fraction(259, 442)), (p_2rebits, 0, Fraction(29, 64)),
           (p_2quaterbits, 0, Fraction(26, 323)), (p_2quaterbits, 1, Fraction(3736, 22287))]
AUDIT_FLAGGED = {"complex N=6 separable volume", "quaternionic N=4 separable volume"}
PUBLISHED_CI = (2_900_000_000, 78_293_301)  # the interval that pinned 27/1000


def _volume(field: str, n: int):
    v = volume_lebesgue(field, n)
    return v.coefficient, factorize(v).denominator.factors


def _conjecture_top():
    lo, hi = wald_ci(*PUBLISHED_CI)
    top = conjecture_search(f"{lo:.7f}", f"{hi:.7f}", [2, 3, 5], 10 ** 6, 40)[0]
    return top.numerator, top.denominator


def quad_ops(seed: int) -> list[DetOp]:
    """Quadrature identities, catalog values, u(eta) and the conjecture search.

    The seed picks the eps at which the numeric chi paths meet the
    catalog, the eta at which u_closed meets quadrature, and the QMC seed.
    """
    rng = np.random.default_rng([seed, 3])
    eps = float(rng.uniform(0.1, 1.0))
    eta = float(rng.uniform(0.0, 3.0))
    qmc_seed = int(rng.integers(2 ** 32))
    chi2 = qd.chi_from_catalog(2, 0)
    pi = math.pi
    ops = [
        DetOp(f"sep_prob_general({d}, {k})", "quadrature.sep_prob", "secondary",
              partial(qd.sep_prob_general, d, k, qd.chi_from_catalog(d, k)),
              _abs_err(ref), 1e-8)
        for d, k, ref in ((2, 1, 61 / 143), (2, 2, 259 / 442), (4, 1, 3736 / 22287))]
    ops += [
        DetOp(f"u_eta({e}, chi[2,{k}])", "quadrature.sep_prob", "secondary",
              partial(qd.u_eta, e, qd.chi_from_catalog(2, k)), _abs_err(ref), 1e-8)
        for e, k, ref in ((2, 0, 8 / 33), (-0.5, 0, 1 - 256 / (27 * pi ** 2)),
                          (1, 0, 41471 / 105 - 40 * pi ** 2),
                          (-0.5, Fraction(-5, 2), (21 * pi - 64) / (21 * pi)))]
    ops += [
        DetOp(f"chi_numeric({d}, {k}, eps)", "quadrature.chi_numeric", "secondary",
              partial(qd.chi_numeric, d, k, eps), _abs_err(chi_catalog(d, k, eps)), 1e-6)
        for d, k in ((2, 0), (2, 1), (2, 2), (4, 0), (4, 1))]
    ops += [
        DetOp(f"extended_master(2, {k}, eps)", "quadrature.extended_master", "secondary",
              partial(qd.extended_master, 2, k, eps), _abs_err(chi_catalog(2, k, eps)), 1e-6)
        for k in (1, 2)]
    ops.append(DetOp("extended_master_parts(2, 0, eps) half", "quadrature.extended_master",
                     "secondary", lambda: qd.extended_master_parts(2, 0, eps)[1],
                     _abs_err(master_chi(2, eps) / 2), 1e-6))
    ops.append(DetOp("chi_numeric_qmc(2, 1, eps)", "quadrature.qmc", "secondary",
                     partial(qd.chi_numeric_qmc, 2, 1, eps, seed=qmc_seed),
                     _abs_err(chi_catalog(2, 1, eps)), 1e-3))
    ops += [DetOp(f"{fn.__name__}({k})", "exactmath.catalog", "secondary",
                  partial(fn, k), _exact(want), 0.0) for fn, k, want in P_EXACT]
    ops += [DetOp(f"volume_lebesgue({f}, {n}) factorized", "exactmath.catalog", "secondary",
                  partial(_volume, f, n), _exact(want), 0.0)
            for (f, n), want in VOLUMES.items()]
    ops.append(DetOp("reported_value_audit()", "exactmath.catalog", "secondary",
                     lambda: {r.label for r in reported_value_audit() if not r.consistent},
                     _exact(AUDIT_FLAGGED), 0.0))
    ops += [
        DetOp("u_closed(2)", "exactmath.u_closed", "secondary", partial(u_closed, 2, 50),
              _mp_err(lambda: mpmath.mpf(8) / 33), 1e-50),
        DetOp("u_closed(-0.5)", "exactmath.u_closed", "secondary",
              partial(u_closed, -0.5, 50),
              _mp_err(lambda: 1 - mpmath.mpf(256) / (27 * mpmath.pi ** 2)), 1e-50),
        DetOp("u_closed(1)", "exactmath.u_closed", "secondary", partial(u_closed, 1, 50),
              _mp_err(lambda: mpmath.mpf(41471) / 105 - 40 * mpmath.pi ** 2), 1e-40),
    ]
    ops += [DetOp(f"u_closed({name}) vs u_eta", "exactmath.u_closed", "secondary",
                  partial(u_closed, e, 50),
                  lambda v, e=e: abs(float(v) - qd.u_eta(e, chi2)), 1e-8)
            for name, e in (("0", 0), ("eta", eta))]
    ops.append(DetOp("conjecture_search(published CI)", "harness.conjecture", "secondary",
                     _conjecture_top, _exact((27, 1000)), 0.0))
    return ops


def det_pass(groups: list[list[DetOp]], log: OpLog, tracer: Tracer | None = None) -> None:
    """Run groups of operations; with a tracer, each group in a span named
    after its table, with a span per call inside."""
    for group in groups:
        with tracer.span(group[0].table) if tracer else nullcontext():
            for op in group:
                log.run(op.name, op.fn, op.check, op.tol,
                        around=partial(tracer.span, op.layer) if tracer else None)


def det_layer_metrics(ops: list[DetOp], spans: list[Span], traced: list,
                      untraced_s: float) -> dict:
    """Per-layer figures from one traced pass: its spans, its op records, and
    the untraced pass time it is set against."""
    def total(layer):
        return sum(s.duration for s in spans if s.name == layer)

    def worst(layers):
        names = {op.name for op in ops if op.layer in layers}
        return max(r.err for r in traced if r.name in names)

    series = [s.duration for s in spans if s.name == "hyper.series"]
    traced_wall = sum(r.wall for r in traced)
    return {
        "hyper.master_odd_s": sum(series),
        "hyper.master_odd_max_ms": 1e3 * max(series),
        "hyper.endpoint_ms": 1e3 * total("hyper.endpoint"),
        "hyper.max_rel_err": worst({"hyper.series", "hyper.endpoint"}),
        "quadrature.odd_sep_prob_s": total("quadrature.odd"),
        "quadrature.sep_prob_ms": 1e3 * total("quadrature.sep_prob"),
        "quadrature.chi_numeric_ms": 1e3 * total("quadrature.chi_numeric"),
        "quadrature.extended_master_ms": 1e3 * total("quadrature.extended_master"),
        "quadrature.qmc_ms": 1e3 * total("quadrature.qmc"),
        "quadrature.max_abs_err": worst({"quadrature.odd", "quadrature.sep_prob",
                                         "quadrature.chi_numeric",
                                         "quadrature.extended_master"}),
        "exactmath.catalog_ms": 1e3 * total("exactmath.catalog"),
        "exactmath.u_closed_ms": 1e3 * total("exactmath.u_closed"),
        "harness.conjecture_ms": 1e3 * total("harness.conjecture"),
        "trace.overhead_frac": traced_wall / untraced_s - 1.0,
    }


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

WARM_SAMPLES = 64


def warm_up(workload: str) -> None:
    """First calls into every code path a workload times, at toy sizes.

    Loads lazy imports and LAPACK/mpmath/scipy state; it does not fill the
    full-size quadrature node caches, which every fresh process pays for.
    """
    if workload == "deterministic":
        master_chi(1, 0.5)
        master_chi(1, 1.0)
        master_chi(2, 0.5)
        qd.sep_prob_general(2, 1, qd.chi_from_catalog(2, 1), n_outer=8, n_inner=8)
        qd.chi_numeric(2, 1, 0.5, nodes=8)
        qd.extended_master(2, 1, 0.5, nodes=8)
        qd.chi_numeric_qmc(2, 1, 0.5, n_points=64)
        u_closed(2, 20)
        p_2qubits(0)
        _volume("R", 2)
        reported_value_audit()
        conjecture_search("0.26", "0.27", [2], 100, 4)
        return
    wl = MC_QUDIT if workload == "mc_qudit" else MC_QUBIT
    for job in wl.jobs:
        spec = job.spec(0)
        rhos = sample_batch(spec, RandomStream(0), WARM_SAMPLES)
        classify_batch(rhos, *spec.split)
        partial_transpose_batch(rhos, *spec.split)
        if job.chifit:
            epsilon_ratio_batch_2x2(rhos)
            estimate_chi_empirical(job.field, job.k, 10, WARM_SAMPLES, threads=1)
    run_experiment(ExperimentConfig(sampler=wl.jobs[0].spec(0),
                                    target_samples=WARM_SAMPLES, streams=1))
