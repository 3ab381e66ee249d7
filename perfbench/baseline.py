"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each untraced run is ``run.py --workload W --seed s --trace 0`` with seeds
1..runs and BENCHMARK.json's run_seconds; one traced run at seed 1 adds
the per-layer metrics and the provenance.  For every metric the summary
holds the values, their quartiles and the spread, the inter-quartile
distance as a share of the median, next to the metric's bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']} "
          f"failed {result['failed']} " + " ".join(
              f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
              if not trace), flush=True)
    return result


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seconds = contract["run_seconds"]
    seeds = range(1, args.runs + 1)
    summary = {}
    for workload in (w["name"] for w in contract["workloads"]):
        results = [run(workload, s, seconds, 0) for s in seeds]
        entry = {"seeds": list(seeds),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        for m in contract["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread(values), "bound": m["bound"], "values": values}
            print(f"  {m['name']:14s} median {med:.4g} spread {spread(values):.4f} "
                  f"(bound {m['bound']})", flush=True)
        traced = run(workload, 1, seconds, 1)
        entry["per_layer_seed"] = 1
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        result = BENCH / "out" / f"{workload}-seed1-trace1.json"
        entry["provenance"] = json.loads(result.read_text())["provenance"]
        summary[workload] = entry
    if args.out:
        args.out.write_text(json.dumps({"run_seconds": seconds, "workloads": summary},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
