"""Acceptance suite: one test per criterion, at the stated tolerances.

Monte Carlo runs are shared between criteria (the equipartition and
induced-measure checks reuse the same tallies), all seeded, so the suite
is deterministic.  Criterion 7 (extended rare-event runs at 1e8 samples)
is marked slow and deselected by default; run it with `pytest -m slow`.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from sepprob import quadrature as qd
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
    ExperimentConfig,
    estimate_chi_empirical,
    run_experiment,
    wald_ci,
)
from sepprob.sampling import SamplerSpec

from conftest import WORKERS

SEED = 20260810
STREAMS = 16

_cache: dict = {}


def mc_run(field, split, k, samples, family="full", seed=SEED):
    key = (field, split, k, samples, family, seed)
    if key not in _cache:
        spec = SamplerSpec(field=field, n=split[0] * split[1], split=split,
                           k=k, family=family, seed=seed)
        cfg = ExperimentConfig(sampler=spec, target_samples=samples,
                               streams=STREAMS, threads=WORKERS)
        _cache[key] = run_experiment(cfg)
    return _cache[key]


def binomial_4sigma(reference: float, samples: int) -> float:
    return 4.0 * math.sqrt(reference * (1.0 - reference) / samples)


def announce(num: int, detail: str) -> None:
    print(f"\ncriterion {num:2d} PASS: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_exact_formula_suite():
    expected = {-2: Fraction(0), -1: Fraction(1, 14), 0: Fraction(8, 33),
                1: Fraction(61, 143), 2: Fraction(259, 442)}
    for k, want in expected.items():
        assert p_2qubits(k) == want, k
    assert p_2rebits(0) == Fraction(29, 64)
    assert p_2quaterbits(0) == Fraction(26, 323)
    assert p_2quaterbits(1) == Fraction(3736, 22287)
    announce(1, "p_2qubits k=-2..2, p_2rebits(0), p_2quaterbits(0,1) all "
                "exactly equal to the published rationals")


def test_criterion_02_volume_suite():
    printed = {
        ("C", 4): (Fraction(1, 108972864000),
                   ((2, 9), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1))),
        ("R", 2): (Fraction(1, 967680), ((2, 10), (3, 3), (5, 1), (7, 1))),
        ("R", 3): (Fraction(1, 1730063650258944000),
                   ((2, 23), (3, 6), (5, 3), (7, 2), (11, 1), (13, 1),
                    (17, 1), (19, 1))),
        ("H", 4): (Fraction(1, 315071454005160652800000),
                   ((2, 15), (3, 10), (5, 5), (7, 3), (11, 2), (13, 2),
                    (17, 1), (19, 1), (23, 1))),
    }
    for (field, n), (coeff, factors) in printed.items():
        v = volume_lebesgue(field, n)
        assert v.coefficient == coeff, (field, n)
        assert factorize(v).denominator.factors == factors, (field, n)
    flagged = {r.label for r in reported_value_audit() if not r.consistent}
    assert flagged == {"complex N=6 separable volume",
                       "quaternionic N=4 separable volume"}
    announce(2, "four printed volumes and factorizations reproduced; the two "
                "documented discrepancies reported, not corrected")


def test_criterion_03_quadrature_identities():
    assert abs(qd.sep_prob_general(2, 1, qd.chi_from_catalog(2, 1)) - 61 / 143) < 1e-8
    assert abs(qd.sep_prob_general(2, 2, qd.chi_from_catalog(2, 2)) - 259 / 442) < 1e-8
    assert abs(qd.sep_prob_general(4, 1, qd.chi_from_catalog(4, 1)) - 3736 / 22287) < 1e-8
    chi2 = qd.chi_from_catalog(2, 0)
    assert abs(qd.u_eta(2, chi2) - 8 / 33) < 1e-8
    assert abs(qd.u_eta(-0.5, chi2) - (1 - 256 / (27 * math.pi ** 2))) < 1e-8
    assert abs(qd.u_eta(1, chi2) - (41471 / 105 - 40 * math.pi ** 2)) < 1e-8
    assert qd.u_eta(-1, chi2) == 0.0
    chi_m52 = qd.chi_from_catalog(2, Fraction(-5, 2))
    assert abs(qd.u_eta(-0.5, chi_m52)
               - (21 * math.pi - 64) / (21 * math.pi)) < 1e-8
    # quadrature legs: chi_numeric itself through the ordered-square integral
    for d, k, exact, tol in [(1, 0, p_2rebits(0), 1e-9), (1, 1, p_2rebits(1), 1e-11),
                             (4, 2, p_2quaterbits(2), 1e-13), (1, 2, p_2rebits(2), 1e-13),
                             (1, 3, p_2rebits(3), 1e-13), (1, 4, p_2rebits(4), 1e-13)]:
        got = qd.sep_prob_general(d, k, partial(qd.chi_numeric, d, k),
                                  n_outer=100, n_inner=60)
        assert abs(got - float(exact)) < tol, (d, k, got)
    announce(3, "61/143, 259/442, 3736/22287, u(2), u(-1/2), u(1), u(-1), "
                "and the k=-5/2 variant all within 1e-8; p_2rebits(0), p_2rebits(1) "
                "from chi_numeric within 1e-9, 1e-11; p_2quaterbits(2) and "
                "p_2rebits(2..4) within 1e-13")


def test_criterion_04_master_formula_equivalence():
    eps = np.linspace(0.0, 1.0, 99)
    dev2 = np.max(np.abs(master_chi(2, eps) - chi_catalog(2, 0, eps)))
    e2 = eps * eps
    quaternionic = e2 * e2 * (15 * e2 * e2 - 64 * e2 + 84) / 35   # chi_{4,0}
    dev4 = max(np.max(np.abs(master_chi(4, eps) - quaternionic)),
               np.max(np.abs(chi_catalog(4, 0, eps) - quaternionic)))
    assert dev2 < 1e-12 and dev4 < 1e-12
    worst_half = 0.0
    worst_point = 0.0
    for e in np.arange(0.05, 1.001, 0.05):
        t1, t2 = qd.extended_master_parts(2, 0, float(e))
        half = master_chi(2, float(e)) / 2
        worst_half = max(worst_half, abs(t2 - half))
        for k in (1, 2):
            got = qd.extended_master(2, k, float(e))
            worst_point = max(worst_point, abs(got - chi_catalog(2, k, float(e))))
    assert worst_half < 1e-6
    assert worst_point < 1e-6
    announce(4, f"master vs catalog dev {max(dev2, dev4):.1e} (<1e-12); "
                f"extended k=0 half-identity dev {worst_half:.1e}, "
                f"chi_21/chi_22 dev {worst_point:.1e} (<1e-6)")


def test_criterion_05_chi_numeric_vs_catalog():
    worst = 0.0
    for d, k in [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]:
        for e in np.arange(0.1, 1.01, 0.1):
            worst = max(worst, abs(qd.chi_numeric(d, k, float(e))
                                   - chi_catalog(d, k, float(e))))
    assert worst < 1e-6
    announce(5, f"constrained integration matches the catalog on the eps "
                f"grid, worst dev {worst:.1e} (<1e-6)")


HS_SUITE = [
    ("C", (2, 2), 8 / 33, 10 ** 6, "8/33"),
    ("R", (2, 2), 29 / 64, 10 ** 6, "29/64"),
    ("C", (2, 3), 27 / 1000, 10 ** 7, "27/1000"),
    ("R", (2, 3), 860 / 6561, 10 ** 7, "860/6561"),
    ("C", (2, 4), 16 / 12375, 10 ** 7, "16/12375"),
    ("R", (2, 4), 201 / 8192, 10 ** 7, "201/8192"),
]


@pytest.mark.parametrize("field,split,ref,samples,label", HS_SUITE)
def test_criterion_06_monte_carlo_hs_suite(field, split, ref, samples, label):
    tally, report = mc_run(field, split, 0, samples)
    tol = binomial_4sigma(ref, samples)
    assert abs(report["estimate"] - ref) < tol, (label, report["estimate"])
    announce(6, f"{field} {split[0]}x{split[1]} k=0: {report['estimate']:.7f} "
                f"vs {label}={ref:.7f} (|dev| < 4 sigma = {tol:.1e})")


RARE_SUITE = [
    ("C", (2, 5), 125 / 4790016, "125/4790016"),
    ("R", (2, 5), 29058 / 9765625, "29058/9765625"),
    ("C", (3, 3), 323 / 3161088, "323/3161088"),
]


@pytest.mark.slow
@pytest.mark.parametrize("field,split,ref,label", RARE_SUITE)
def test_criterion_07_rare_event_extended_runs(field, split, ref, label):
    samples = 10 ** 8
    tally, report = mc_run(field, split, 0, samples)
    tol = binomial_4sigma(ref, samples)
    assert abs(report["estimate"] - ref) < tol, (label, report["estimate"])
    announce(7, f"{field} {split[0]}x{split[1]}: {report['estimate']:.3e} vs "
                f"{label}={ref:.3e} at 1e8 samples ({tally.ppt_hits} hits)")


X_SUITE = [
    ("C", (2, 2), 2 / 5, "2/5"),
    ("R", (2, 2), 16 / (3 * math.pi ** 2), "16/(3 pi^2)"),
    ("R", (2, 3), 16 / (3 * math.pi ** 2), "16/(3 pi^2)"),
    ("R", (3, 3), 16 / (3 * math.pi ** 2), "16/(3 pi^2)"),
]


@pytest.mark.parametrize("field,split,ref,label", X_SUITE)
def test_criterion_08_x_state_suite(field, split, ref, label):
    samples = 10 ** 6
    tally, report = mc_run(field, split, 0, samples, family="x_state")
    tol = binomial_4sigma(ref, samples)
    assert abs(report["estimate"] - ref) < tol, (label, report["estimate"])
    announce(8, f"x-state {field} {split[0]}x{split[1]}: "
                f"{report['estimate']:.5f} vs {label}={ref:.5f} (4 sigma)")


def test_criterion_08_x_state_induced_equality():
    # the reported cross-dimension equality, generalized to k = 1; no
    # closed form is available in the text, so this is a property test
    samples = 10 ** 6
    _, r22 = mc_run("R", (2, 2), 1, samples, family="x_state")
    _, r23 = mc_run("R", (2, 3), 1, samples, family="x_state")
    p1, p2 = r22["estimate"], r23["estimate"]
    pooled = (r22["ppt_hits"] + r23["ppt_hits"]) / (2 * samples)
    sigma = math.sqrt(pooled * (1 - pooled) * 2 / samples)
    assert abs(p1 - p2) < 3 * sigma, (p1, p2, sigma)
    announce(8, f"x-state induced k=1 equality: 2x2 R {p1:.5f} vs 2x3 R "
                f"{p2:.5f}, |diff| < 3 sigma = {3*sigma:.2e}")


def test_criterion_09_equipartition_hs():
    for field in ("R", "C"):
        tally, report = mc_run(field, (2, 3), 0, 10 ** 7)
        rate = report["det_gt"]["rate"]
        sigma = math.sqrt(0.25 / tally.ppt_hits)
        assert abs(rate - 0.5) < 4 * sigma, (field, rate)
        announce(9, f"{field} 2x3 k=0 det-inequality split {rate:.5f} "
                    f"(=1/2 within 4 sigma)")


def test_criterion_09_equipartition_induced():
    for k, ref in ((1, 0.3117), (2, 0.2263)):
        tally, report = mc_run("C", (2, 3), k, 10 ** 7)
        rate = report["det_gt"]["rate"]
        assert abs(rate - ref) < 0.01, (k, rate)
        announce(9, f"C 2x3 k={k} det-inequality rate {rate:.4f} vs "
                    f"{ref} (+-0.01)")


INDUCED_POINTS = [
    (2, 0.1581, 0.001),
    (1, 0.0777, 0.001),
    (-1, 0.00488, 0.0003),
    (-2, 0.000167, 0.00004),
]


@pytest.mark.parametrize("k,ref,tol", INDUCED_POINTS)
def test_criterion_10_induced_qubit_qutrit_points(k, ref, tol):
    tally, report = mc_run("C", (2, 3), k, 10 ** 7)
    assert abs(report["estimate"] - ref) < tol, (k, report["estimate"])
    announce(10, f"C 2x3 k={k}: {report['estimate']:.6f} vs {ref} (+-{tol})")


def test_criterion_11_empirical_chi_fit():
    table = estimate_chi_empirical("C", 1, 50, 10 ** 7, seed=SEED,
                                   streams=STREAMS, threads=WORKERS)
    populated = [r for r in table["rows"] if r["n"] >= 10 ** 4]
    assert populated, "no bins with 1e4 samples"
    worst = max(abs(r["residual"]) for r in populated)
    assert worst < 0.01, worst
    announce(11, f"chi fit (C, k=1, 50 bins, 1e7): worst residual {worst:.4f} "
                 f"over {len(populated)} populated bins (<0.01); the adopted "
                 f"block-quotient ratio convention stands")


def test_criterion_12_reproducibility_across_threads():
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=0, seed=SEED)
    counts = []
    for threads in (1, 4, 8):
        cfg = ExperimentConfig(sampler=spec, target_samples=300_000,
                               streams=8, threads=threads)
        tally, _ = run_experiment(cfg)
        counts.append(tally.counts_dict())
    assert counts[0] == counts[1] == counts[2]
    announce(12, "bit-identical tallies across thread counts 1, 4, 8")


def test_acceptance_wald_intervals_match_published():
    # collateral check used throughout: the CI convention is the Wald one
    lo, hi = wald_ci(2_900_000_000, 78_293_301)
    assert (round(lo, 7), round(hi, 7)) == (0.0269918, 0.0270036)


def test_acceptance_u_closed_digits():
    import mpmath
    with mpmath.workdps(60):
        assert abs(u_closed(2) - mpmath.mpf(8) / 33) < mpmath.mpf(10) ** -50
