"""Monte Carlo PPT probabilities at desk scale.

Reproduces the flavor of the big published runs with 10^6 samples per
system: draw random density matrices from the induced measures (Bartlett
factors of Wishart matrices), test the partial transpose, and compare
against the conjectured exact rationals.
The tallies are bit-reproducible for a fixed (seed, streams) regardless
of thread count.
"""

import math
import os

from sepprob.harness import ExperimentConfig, run_experiment
from sepprob.sampling import SamplerSpec

THREADS = os.cpu_count() or 1
SAMPLES = 10 ** 6

targets = [
    ("C", (2, 2), 0, 8 / 33, "8/33"),
    ("R", (2, 2), 0, 29 / 64, "29/64"),
    ("C", (2, 3), 0, 27 / 1000, "27/1000 (conjectured)"),
    ("R", (2, 3), 0, 860 / 6561, "860/6561 (conjectured)"),
    ("C", (2, 3), 1, 0.0777402, "reported estimate"),
]

print(f"{SAMPLES:,} samples per row, {THREADS} worker(s)\n")
print("system field k   estimate     95% CI                  reference")
for field, split, k, ref, label in targets:
    spec = SamplerSpec(field=field, n=split[0] * split[1], split=split,
                       k=k, seed=42)
    cfg = ExperimentConfig(sampler=spec, target_samples=SAMPLES,
                           streams=16, threads=THREADS)
    tally, report = run_experiment(cfg)
    lo, hi = report["ci"]
    sigma = math.sqrt(ref * (1 - ref) / SAMPLES)
    z = (report["estimate"] - ref) / sigma
    print(f"{report['system']}    {field}    {k:+d}  {report['estimate']:.6f}"
          f"   [{lo:.6f}, {hi:.6f}]   {ref:.6f} = {label}  (z = {z:+.2f})")

print("\nPer-sample sub-criteria from the last run (C 2x3 k=1):")
print("  PPT hits:                 ", report["ppt_hits"])
print("  Johnston spectrum test:   ", report["johnston"]["hits"],
      f"({report['johnston']['rate']:.2e} of PPT; the published run saw 19 "
      f"of 13.3M)")
print("  det(PT) > det(rho) | PPT: ", f"{report['det_gt']['rate']:.4f}",
      "(1/2 for k=0; drops with k)")
print("  negative-eigenvalue histogram:", report["neg_eig_histogram"])
