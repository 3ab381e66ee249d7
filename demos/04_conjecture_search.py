"""From a confidence interval to an exact-value candidate.

Replays the discovery workflow: run (or quote) a Monte Carlo estimate,
form its Wald interval, then enumerate every rational inside it whose
denominator is smooth over a small prime set, ranked so that structured
candidates (short numerators, pure prime powers) come first.
"""

from sepprob.harness import conjecture_search, wald_ci

print("=== qubit-qutrit: the interval that pinned 27/1000 ===")
lo, hi = wald_ci(2_900_000_000, 78_293_301)
print(f"estimate 0.026997690, 95% CI [{lo:.7f}, {hi:.7f}]")
cands = conjecture_search(f"{lo:.7f}", f"{hi:.7f}", [2, 3, 5], 10 ** 6, 40)
print(f"{len(cands)} candidates with {{2,3,5}}-smooth denominators; top five:")
for c in cands[:5]:
    print(f"  {c.numerator}/{c.denominator} = {c.value:.9f}  "
          f"support={c.prime_support} score={c.score}")

print("\n=== rebit-retrit: 860/6561 inside the reported interval ===")
lo, hi = wald_ci(3_530_000_000, 462_704_503)
print(f"95% CI [{lo:.6f}, {hi:.6f}]")
cands = conjecture_search(f"{lo:.6f}", f"{hi:.6f}", [2, 3, 5], 10 ** 5, 12)
for c in cands[:5]:
    print(f"  {c.numerator}/{c.denominator} = {c.value:.9f}  "
          f"support={c.prime_support} score={c.score}")

print("\n=== 2x4 case: a 16/12375-style search over {2,3,5,11} ===")
cands = conjecture_search("0.00129235", "0.00129351", [2, 3, 5, 11], 10 ** 6, 40)
for c in cands[:5]:
    print(f"  {c.numerator}/{c.denominator} = {c.value:.10f}  "
          f"support={c.prime_support} score={c.score}")
