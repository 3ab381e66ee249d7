"""sepprob benchmark: one workload per call, the result as the last stdout line.

Run from the repository root:

    python3 perfbench/run.py --workload mc_qudit --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

    mc_qudit       run_experiment on C 2x3 k=0, C 2x4, R 2x4, C 3x3 (primary)
                   and C 2x3 k=-2 (secondary); 2 worker processes, with
                   checkpoints, then one resume pass over them
    mc_qubit       run_experiment on C 2x2, R 2x2, X-state R 2x2 k=1 and
                   R 2x3 k=1 (primary); estimate_chi_empirical C k=1, 50 bins
                   (secondary); serial
    deterministic  odd-d master_chi grid and the odd-d quadrature (primary);
                   quadrature identities, catalog, u(eta), volumes and the
                   conjecture search (secondary)

``--trace 0`` times the set-up, runs untraced passes for about
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs the
same untraced passes without timing the set-up, then a traced replay, and
prints the per-layer metrics.  Each run writes its
result with provenance to perfbench/out/, and a traced run its spans too.
Every operation is checked; ``failed`` counts those that raised or missed
their reference.
"""

import os

# One BLAS thread per process: a workload runs at most nproc processes.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing.resource_tracker  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import OpLog, Tracer, write_spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("mc_qudit", "mc_qubit", "deterministic")
SETUP_REPS = 5
QUAD_REPS = 2  # rounds of the quadrature table after each series call


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_workloads():
    """Import the workloads against this checkout's src/, never an installed copy."""
    if not (SRC / "sepprob" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sepprob source under {SRC}")
    sys.path.insert(0, str(SRC))
    import sepprob
    if Path(sepprob.__file__).resolve().parent != SRC / "sepprob":
        raise SystemExit(f"benchmark: imported sepprob from {sepprob.__file__}")
    import workloads
    return workloads


def setup_walls(workload: str) -> list[float]:
    """Walls of fresh processes that import sepprob and warm the workload up."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.warm_up({workload!r})")
    walls = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120)
        walls.append(time.perf_counter() - t0)
    return walls


def timed_passes(run_pass, seconds: float) -> int:
    """Run passes until about ``seconds`` have gone; returns how many ran."""
    t0 = time.perf_counter()
    n = 0
    while True:
        run_pass(n)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / n >= seconds:
            return n


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def provenance(workload: str, seed: int, threads: int) -> dict:
    import mpmath
    import numpy
    import scipy
    import sepprob
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sepprob").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)),
        "worker_processes": threads,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "sepprob": sepprob.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def tables(log: OpLog, ops) -> dict:
    """Per table: the sum of each operation's median wall time."""
    return {f"{table}_s": sum(log.median_wall(op.name) for op in ops if op.table == table)
            for table in ("primary", "secondary")}


def run_mc(W, wl, args, log: OpLog) -> tuple[dict, dict, int]:
    """Untraced passes (and the resume pass), then the replay when tracing."""
    ckpt_dir = OUT / "ckpt" if wl.checkpoint else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    first: dict = {}

    def one_pass(i):
        counts = W.mc_pass(wl, args.seed, log, ckpt_dir, first if i else None)
        if i == 0:
            first.update(counts)

    try:
        passes = timed_passes(one_pass, args.seconds)
        if ckpt_dir:
            W.mc_resume(wl, args.seed, log, ckpt_dir, first)
    finally:
        if ckpt_dir:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    summary = tables(log, wl.jobs)
    layer = {}
    if args.trace:
        spans = W.mc_replay(wl, args.seed, log, first)
        write_spans(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl", spans)
        layer = W.mc_layer_metrics(wl, spans, log)
    return summary, layer, passes


def run_det(W, args, log: OpLog) -> tuple[dict, dict, int]:
    series, quad = W.series_ops(), W.quad_ops(args.seed)
    ops = series + quad
    # the quadrature table is ~1% of a pass, so it runs QUAD_REPS times
    # after every series call and its medians span the whole run
    groups = [g for op in series for g in [[op]] + [quad] * QUAD_REPS]
    passes = timed_passes(lambda i: W.det_pass(groups, log), args.seconds)
    summary = tables(log, ops)
    layer = {}
    if args.trace:
        untraced_s = sum(log.median_wall(op.name) for op in ops)
        n0 = len(log.records)
        tracer = Tracer("pass")
        W.det_pass([series, quad], log, tracer=tracer)
        write_spans(OUT / f"deterministic-seed{args.seed}.spans.jsonl", tracer.spans)
        layer = W.det_layer_metrics(ops, tracer.spans, log.records[n0:], untraced_s)
    return summary, layer, passes


def stop_resource_tracker() -> None:
    """Stop the resource tracker that spawned worker pools start, and wait
    for it, so that no process of the run outlives it."""
    multiprocessing.resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_resource_tracker()


def run(argv=None) -> int:
    args = parse_args(argv)
    W = import_workloads()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    wl = {"mc_qudit": W.MC_QUDIT, "mc_qubit": W.MC_QUBIT}.get(args.workload)

    setup = [] if args.trace else setup_walls(args.workload)
    W.warm_up(args.workload)
    log = OpLog()
    if wl is None:
        summary, layer, passes = run_det(W, args, log)
    else:
        summary, layer, passes = run_mc(W, wl, args, log)
    e2e = {}
    if setup:
        e2e = {**summary, "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb()}
    if args.trace:
        listed = contract["per_layer"]
        # a layer this workload does not exercise reads 0
        values = {**{m["name"]: 0.0 for m in listed}, **layer}
    else:
        listed, values = contract["end_to_end"], e2e
    if set(values) != {m["name"] for m in listed}:
        raise SystemExit("benchmark: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in listed})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    summary["failed_frac"] = log.failed_frac

    record = {
        "provenance": provenance(args.workload, args.seed, wl.threads if wl else 1),
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "setup_walls_s": setup, "end_to_end": e2e,
        "summary": summary, "per_layer": layer,
        "attempted": log.attempted, "failed": log.failed,
        "failures": [vars(r) for r in log.records if not r.ok],
        "ops": {name: {"runs": len(log.walls(name)), "median_s": log.median_wall(name),
                       "max_err": max(r.err for r in log.records if r.name == name),
                       "tol": next(r.tol for r in log.records if r.name == name)}
                for name in dict.fromkeys(r.name for r in log.records)},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for name, value in {**summary, **e2e, **layer}.items():
        print(f"{name:32s} {value:.6g}")
    print(f"passes {passes}, operations {log.attempted}, failed {log.failed}")
    for rec in record["failures"]:
        print(f"FAILED {rec['name']}: err {rec['err']:.3g} > tol {rec['tol']:.3g} {rec['note']}")
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
