"""The chi-function framework, three independent ways.

For each (d, k) the separability function chi_{d,k}(eps) is available
from the closed-form catalog, from deterministic constrained integration
over the unit cube, and (for k = 0) from the hypergeometric master
formula; feeding any of them through the weighted double integral returns
the known separability probabilities.  The extended master decomposition
(closed 3F2 term plus a 2D integral) is checked against the catalog too.
The demo exits non-zero if a printed probability misses its exact value by
more than 1e-8.
"""

import sys

import numpy as np

from sepprob import quadrature as qd
from sepprob.exactmath import chi_catalog, master_chi, u_closed

PROB_TOL = 1e-8
misses = []

print("=== chi_{d,k}(eps): catalog vs constrained integration vs master ===")
eps_grid = np.array([0.2, 0.5, 0.8, 1.0])
for d, k in [(2, 0), (2, 1), (4, 0), (4, 1)]:
    cat = chi_catalog(d, k, eps_grid)
    num = qd.chi_numeric(d, k, eps_grid)
    line = f"d={d} k={k}:  catalog {np.array2string(cat, precision=6)}"
    line += f"  |numeric-catalog| < {np.max(np.abs(num - cat)):.1e}"
    if k == 0:
        mas = master_chi(d, eps_grid)
        line += f"  |master-catalog| < {np.max(np.abs(mas - cat)):.1e}"
    print(line)
print("quasi-random 3D oracle, d=2 k=1 eps=0.5:",
      f"{qd.chi_numeric_qmc(2, 1, 0.5):.5f} (catalog {chi_catalog(2, 1, 0.5):.5f})")

print("\n=== probabilities from the weighted double integral ===")
cases = [
    ("HS two-rebit   29/64  ", 1, 0, qd.chi_from_master(1), 29 / 64),
    ("HS two-qubit   8/33   ", 2, 0, qd.chi_from_master(2), 8 / 33),
    ("HS quaterbit   26/323 ", 4, 0, qd.chi_from_master(4), 26 / 323),
    ("induced k=1    61/143 ", 2, 1, qd.chi_from_catalog(2, 1), 61 / 143),
    ("induced k=2    259/442", 2, 2, qd.chi_from_catalog(2, 2), 259 / 442),
    ("quat.  k=1 3736/22287 ", 4, 1, qd.chi_from_catalog(4, 1), 3736 / 22287),
]
for label, d, k, chi, ref in cases:
    val = qd.sep_prob_general(d, k, chi)
    print(f"{label}: {val:.12f}  (err {abs(val - ref):.1e})")
    if abs(val - ref) > PROB_TOL:
        misses.append(label.strip())

print("\n=== the eta interpolation ===")
chi2 = qd.chi_from_catalog(2, 0)
for eta in (-1, -0.5, 0, 1, 2, 3):
    val = qd.u_eta(eta, chi2)
    print(f"u({eta:>4}) = {val:.10f}")
    if abs(val - float(u_closed(eta))) > PROB_TOL:
        misses.append(f"u({eta})")

print("\n=== extended master decomposition (sum of 3F2 term + 2D integral) ===")
print("T2 runs over Y in [eps*r14^2, eps*r14], r14 in [0, 1], for every d")
for e in (0.25, 0.5, 0.75, 1.0):
    t1, t2 = qd.extended_master_parts(2, 0, e)
    print(f"k=0 eps={e:4}: T1={t1:.8f} T2={t2:.8f} "
          f"(each = master/2 = {master_chi(2, e)/2:.8f})")
for d, k, e in [(2, 1, 0.5), (2, 2, 0.5), (4, 1, 0.7)]:
    got = qd.extended_master(d, k, e)
    print(f"d={d} k={k} eps={e}: T1+T2 = {got:.10f} vs catalog "
          f"{chi_catalog(d, k, e):.10f}")
got = qd.extended_master(1, 0, 0.5)
print(f"d=1 k=0 eps=0.5: T1+T2 = {got:.10f} vs master {master_chi(1, 0.5):.10f}")

print("\n=== X-state reduction ===")
for d in (1, 2, 4):
    print(f"chi_x(d={d}, 0.5) = {chi_catalog(d, 0, 0.5, family='xstate')}")

if misses:
    sys.exit(f"missed the exact value by more than {PROB_TOL:g}: {', '.join(misses)}")
