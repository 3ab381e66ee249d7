"""X-state probabilities and the determinantal split of separable states.

Two of the more surprising reported regularities, checked by simulation:
the flat-measure X-state PPT probability is 16/(3 pi^2) for the real
4x4, 6x6 and 9x9 families alike (2/5 in the complex 4x4 case), and among
separable states exactly half satisfy det(rho^PT) > det(rho) under
Hilbert-Schmidt measure, a balance that breaks under induced measures.
"""

import math
import os

from sepprob.harness import ExperimentConfig, run_experiment
from sepprob.sampling import SamplerSpec

THREADS = os.cpu_count() or 1
SAMPLES = 300_000

print("=== flat-measure X-state PPT probabilities ===")
ref_r = 16 / (3 * math.pi ** 2)
for field, split, ref in [("C", (2, 2), 0.4), ("R", (2, 2), ref_r),
                          ("R", (2, 3), ref_r), ("R", (3, 3), ref_r)]:
    spec = SamplerSpec(field=field, n=split[0] * split[1], split=split,
                       k=0, family="x_state", seed=8)
    cfg = ExperimentConfig(sampler=spec, target_samples=SAMPLES,
                           streams=8, threads=THREADS)
    _, report = run_experiment(cfg)
    print(f"{field} {report['system']}: {report['estimate']:.5f} "
          f"(reference {ref:.5f})")

print("\n=== induced-measure equality across X-state families (k=1) ===")
for split in ((2, 2), (2, 3)):
    spec = SamplerSpec(field="R", n=split[0] * split[1], split=split,
                       k=1, family="x_state", seed=8)
    cfg = ExperimentConfig(sampler=spec, target_samples=SAMPLES,
                           streams=8, threads=THREADS)
    _, report = run_experiment(cfg)
    print(f"R {report['system']} k=1: {report['estimate']:.5f}")
print("(no closed form in the text; the equality itself is the claim)")

print("\n=== determinantal equipartition ===")
for field, k in [("R", 0), ("C", 0), ("C", 1), ("C", 2)]:
    spec = SamplerSpec(field=field, n=6, split=(2, 3), k=k, seed=8)
    cfg = ExperimentConfig(sampler=spec, target_samples=SAMPLES,
                           streams=8, threads=THREADS)
    _, report = run_experiment(cfg)
    det = report["det_gt"]
    lo, hi = det["ci"]
    print(f"{field} 2x3 k={k}: det(PT)>det fraction among separable = "
          f"{det['rate']:.4f}  ({det['hits']}/{report['ppt_hits']}, "
          f"95% CI [{lo:.4f}, {hi:.4f}])")
print("(k=0 sits at 1/2; the reported induced-measure values are 0.3117 at")
print(" k=1 and 0.2263 at k=2)")
