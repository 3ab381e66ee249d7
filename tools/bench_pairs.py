"""Alternating parent/change benchmark pairs, written as a BENCH_<label>.json record.

Each side is a git revision (a commit, or the tree ``git write-tree`` makes of
the index).  The script extracts each with ``git archive`` into a temporary
directory and runs ``perfbench/run.py --trace 0`` there, one seed per pair,
swapping the side that runs first each pair; the run length is the benchmark's
own default.  A run whose verdict line reads ``"correct": false`` stops the
script with a non-zero status, naming the workload, seed and side, before any
record is written; so does a run that exits non-zero or prints no JSON result.
Run from inside the repository, one call per workload:

    python3 tools/bench_pairs.py --parent <rev> --change <rev> \\
        --workload mc_qubit --seeds 6101-6110 --label <label> \\
        --change-note "<what the change does>" --out BENCH_<label>.json

The record names each side's object id and the id of its ``src`` tree, and a
record already at ``--out`` keeps its other workloads.  The metrics, and
whether lower or higher is better, are the end-to-end ones the change's
BENCHMARK.json lists.  A pair is won by the side that reads better; ties
count for neither.  Quartiles interpolate linearly (numpy.percentile 25/75).
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'6101-6110' or '6101,6103,6107'."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def git(*args: str) -> str:
    return subprocess.run(("git",) + args, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, into: Path) -> dict:
    """Write the files of ``rev`` under ``into``; returns the ids the record names."""
    archive = subprocess.run(["git", "archive", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return {"rev": git("rev-parse", rev), "src_tree": git("rev-parse", f"{rev}:src")}


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run: correct, attempted, failed,
    metrics.  A run that exits non-zero or ends on no JSON line stops the
    script, naming the run, its exit code and the last lines of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = "\n".join(out.stderr.strip().splitlines()[-10:])
    raise SystemExit(f"{workload} seed {seed} {checkout.name}: exit code "
                     f"{out.returncode}, no JSON result; no record written\n{tail}")


def summarise(runs: dict[str, list[float]], better: str) -> dict:
    """Per-side median and quartiles, pair wins, and the median gap over the
    parent's interquartile range, signed so that a gain reads positive."""
    sign = 1.0 if better == "lower" else -1.0
    out = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(runs[side], n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs[side]}
    gains = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
    parent, change = out["parent"], out["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = sign * (parent["median"] - change["median"])
    out["change_wins"] = sum(g > 0 for g in gains)
    out["parent_wins"] = sum(g < 0 for g in gains)
    out["median_gap_over_parent_iqr"] = gap / iqr if iqr else None
    out["relative_change"] = change["median"] / parent["median"] - 1.0
    return out


def run_pairs(checkouts: dict[str, Path], workload: str, seeds: list[int],
              metrics: list[dict]) -> dict:
    values = {m["name"]: {side: [] for side in SIDES} for m in metrics}
    attempted = dict.fromkeys(SIDES, 0)
    failed = dict.fromkeys(SIDES, 0)
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_side(checkouts[side], workload, seed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} {side}: the run reports "
                                 "incorrect results; no record written")
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            for name in values:
                values[name][side].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{n} {v[side][-1]:.4g}" for n, v in values.items()),
                  file=sys.stderr, flush=True)
    return {"pairs": len(seeds), "seeds": seeds,
            "failed_operations": failed, "attempted_operations": attempted,
            "metrics": {m["name"]: summarise(values[m["name"]], m["better"])
                        for m in metrics}}


def machine() -> dict:
    import numpy
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"vcpus": cores, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--change-note", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:  # a side's quartiles need two runs
        ap.error(f"--seeds names {len(args.seeds)} seed(s); at least two are needed")

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        sides = {side: extract(getattr(args, side), checkouts[side]) for side in SIDES}
        contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        row = run_pairs(checkouts, args.workload, args.seeds, contract["end_to_end"])
    row["sides"] = sides
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({
        "label": args.label,
        "change": args.change_note,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0",
        "method": ("alternating parent/change pairs, the side run first swapped each "
                   "pair; each side runs from a git archive of the revision in its "
                   "workload's 'sides'; quartiles by linear interpolation "
                   "(numpy.percentile 25/75); a pair is won by the side that reads "
                   "better, ties count for neither"),
        "machine": machine(),
    })
    record.setdefault("workloads", {})[args.workload] = row
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
