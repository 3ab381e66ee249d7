"""Integration engine: probability ratios, chi_numeric, extended master."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sepprob import quadrature as qd
from sepprob.exactmath import chi_catalog, master_chi

GRID = np.arange(0.1, 1.01, 0.1)


# ---------------------------------------------------------------------------
# double-integral probability ratios
# ---------------------------------------------------------------------------

def test_sep_prob_reproduces_induced_rationals():
    assert qd.sep_prob_general(2, 1, qd.chi_from_catalog(2, 1)) == \
        pytest.approx(61 / 143, abs=1e-10)
    assert qd.sep_prob_general(2, 2, qd.chi_from_catalog(2, 2)) == \
        pytest.approx(259 / 442, abs=1e-10)
    assert qd.sep_prob_general(4, 1, qd.chi_from_catalog(4, 1)) == \
        pytest.approx(3736 / 22287, abs=1e-10)


def test_sep_prob_master_reproduces_hs_values():
    assert qd.sep_prob_general(1, 0, qd.chi_from_master(1)) == \
        pytest.approx(29 / 64, abs=1e-8)
    assert qd.sep_prob_general(2, 0, qd.chi_from_master(2)) == \
        pytest.approx(8 / 33, abs=1e-8)
    assert qd.sep_prob_general(4, 0, qd.chi_from_master(4)) == \
        pytest.approx(26 / 323, abs=1e-8)


def test_u_eta_reference_values():
    chi2 = qd.chi_from_catalog(2, 0)
    assert qd.u_eta(2, chi2) == pytest.approx(8 / 33, abs=1e-10)
    assert qd.u_eta(-0.5, chi2) == pytest.approx(1 - 256 / (27 * math.pi ** 2), abs=1e-10)
    assert qd.u_eta(1, chi2) == pytest.approx(41471 / 105 - 40 * math.pi ** 2, abs=1e-10)
    assert qd.u_eta(-1, chi2) == 0.0
    chi_m52 = qd.chi_from_catalog(2, Fraction(-5, 2))
    assert qd.u_eta(-0.5, chi_m52) == \
        pytest.approx((21 * math.pi - 64) / (21 * math.pi), abs=1e-8)


def test_a_plain_chi_that_blows_up_at_one_gets_the_accurate_rule():
    # (1 - eps^2)^(k+1) at k = -5/2 is infinite at eps = 1; no wrapper marks it
    val = qd.u_eta(-0.5, lambda e: chi_catalog(2, Fraction(-5, 2), e))
    assert abs(val - (21 * math.pi - 64) / (21 * math.pi)) < 1e-12


def test_u_eta_closed_form_cross_validation():
    # the quadrature route against the independent closed-form evaluation
    from sepprob.exactmath import u_closed
    chi2 = qd.chi_from_catalog(2, 0)
    for eta in (-0.75, -0.25, 0.5, 1.5, 3.0, 4.0):
        assert qd.u_eta(eta, chi2) == pytest.approx(float(u_closed(eta)), abs=1e-9)


def test_u_eta_domain():
    with pytest.raises(ValueError):
        qd.u_eta(-1.2, qd.chi_from_catalog(2, 0))
    with pytest.raises(ValueError):
        qd.sep_prob_general(3, 0, qd.chi_from_catalog(2, 0))


def test_quadrature_node_doubling_convergence():
    chi = qd.chi_from_catalog(2, 1)
    coarse = qd.sep_prob_general(2, 1, chi, n_outer=100, n_inner=60)
    fine = qd.sep_prob_general(2, 1, chi, n_outer=200, n_inner=120)
    assert abs(fine - coarse) < 1e-9  # well under 10x the advertised error


# ---------------------------------------------------------------------------
# chi_numeric and its oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)])
def test_chi_numeric_matches_catalog(d, k):
    for eps in GRID:
        assert qd.chi_numeric(d, k, float(eps)) == \
            pytest.approx(chi_catalog(d, k, float(eps)), abs=1e-6)


def test_chi_numeric_spot_values():
    assert qd.chi_numeric(2, 0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert qd.chi_numeric(2, 1, 0.5) == pytest.approx(0.47265625, abs=1e-10)
    assert qd.chi_numeric(2, 0, 0.0) == 0.0
    # quaternionic HS value at the midpoint of the eps range
    ref = (1 / 35) * 0.5 ** 4 * (15 * 0.5 ** 4 - 64 * 0.5 ** 2 + 84)
    assert qd.chi_numeric(4, 0, 0.5) == pytest.approx(ref, abs=1e-10)


def test_chi_numeric_rejects_bad_input():
    with pytest.raises(ValueError):
        qd.chi_numeric(2, -1, 0.5)
    with pytest.raises(ValueError):
        qd.chi_numeric(2, 0, 1.5)
    for eps in (1.5, -0.5):
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
            qd.chi_numeric_qmc(2, 0, eps, n_points=64)


def test_chi_numeric_monotone_in_k():
    # strictly increasing in k at fixed eps < 1, like the catalog
    # polynomials (chi_{2,0}(0.6) = 0.4368 < chi_{2,1}(0.6) = 0.6273 < ...)
    for d in (2, 4):
        for eps in (0.3, 0.6, 0.9):
            vals = [qd.chi_numeric(d, k, eps) for k in range(4)]
            assert all(b > a for a, b in zip(vals, vals[1:])), (d, eps, vals)
            catalog = [chi_catalog(2, k, eps) for k in range(4)]
            assert all(b > a for a, b in zip(catalog, catalog[1:]))


def test_chi_numeric_never_exceeds_one():
    # T1 + T2 rounded up to 1 + 9e-14 (d = 13, k = 3) near eps = 1, and to
    # 1 + 2.7e-10 at d = 1 (the odd-d rule's error); chi is a probability
    for eps in (1 - 1e-16, 1 - 1e-15, 1 - 1e-13, 1 - 1e-12, 1 - 1e-10, 1.0):
        for d in range(1, 14):
            for k in range(4):
                assert qd.chi_numeric(d, k, eps) <= 1.0, (d, k, eps)
                assert qd.extended_master_parts(d, k, eps)[0] <= 0.5, (d, k, eps)


def test_chi_numeric_odd_d_against_master():
    # odd d has algebraic (half-power) integrands; tolerance is looser
    for eps in (0.3, 0.5, 0.8):
        assert qd.chi_numeric(1, 0, eps, nodes=400) == \
            pytest.approx(master_chi(1, eps), abs=1e-6)


def test_chi_numeric_large_k_matches_catalog():
    # region B's innermost integral is a finite sum of nonnegative terms:
    # nothing to cancel as k grows, no gamma function to overflow; from
    # k = 64 the sigma axis takes more nodes, and 0.1 is near the worst eps
    for k in (20, 40, 60, 90, 120):
        for eps in (0.1, 0.3, 0.8, 0.999):
            assert abs(qd.chi_numeric(2, k, eps) - chi_catalog(2, k, eps)) < 1e-12, (k, eps)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 20, 120])
def test_region_b_finite_sum_matches_betainc(k):
    # scipy's incomplete beta as the oracle of the finite sum that replaced it
    from scipy.special import betainc
    rng = np.random.default_rng([22, k])
    a = np.concatenate([rng.random(400), [1.0, 1.0, 0.5]])
    b = a * np.concatenate([rng.random(400), [0.0, 1.0, 1.0]])
    for d in range(1, 7):
        got = qd._beta_lower(d, k, a, b, a - b)
        ref = a ** (k + d / 2) * betainc(d / 2, k + 1, b / a)
        normal = ref > 1e-280  # the relative error of a subnormal product means nothing
        assert np.all(np.abs(got[normal] - ref[normal]) <= 1e-13 * ref[normal]), (d, k)
        assert np.all(got[~normal] < 1e-270), (d, k)


def test_chi_numeric_array_equals_scalar_calls():
    rng = np.random.default_rng(21)
    # more values than one vectorised step of the region-B rule holds
    eps = np.concatenate([rng.random(300), [0.0, 0.5, 1.0]])
    for d, k in [(1, 0), (1, 2), (2, 3), (3, 1), (4, 1)]:
        whole = qd.chi_numeric(d, k, eps)
        one_by_one = np.array([qd.chi_numeric(d, k, float(e)) for e in eps])
        assert np.array_equal(whole, one_by_one), (d, k)
        t1, t2 = qd.extended_master_parts(d, k, eps.reshape(-1, 3))
        assert t1.shape == t2.shape == (101, 3)
        assert np.array_equal(np.minimum(t1 + t2, 1.0).ravel(), whole)
    assert type(qd.chi_numeric(2, 1, 0.5)) is float
    assert all(type(t) is float for t in qd.extended_master_parts(1, 1, 0.5))


def test_chi_numeric_odd_d_against_master_formula():
    # the Gauss-Jacobi axis absorbs the one half power of odd d
    for d in (1, 3, 5):
        for eps in (0.05, 0.3, 0.5, 0.8, 0.9, 0.95):
            assert abs(qd.chi_numeric(d, 0, eps) - master_chi(d, eps)) < 1e-13, (d, eps)


def test_chi_numeric_qmc_oracle_agrees():
    for (d, k, eps) in [(2, 0, 0.5), (2, 1, 0.5), (4, 0, 0.7), (2, 2, 0.9)]:
        v = qd.chi_numeric_qmc(d, k, eps)
        assert v == pytest.approx(chi_catalog(d, k, eps), abs=1e-3)


def test_chi_numeric_qmc_seed_scatter():
    # 24 digital shifts at the oracle test's four points: each within 2e-3
    # of the catalog, and their root-mean-square error within 8e-4
    for (d, k, eps) in [(2, 0, 0.5), (2, 1, 0.5), (4, 0, 0.7), (2, 2, 0.9)]:
        err = np.array([qd.chi_numeric_qmc(d, k, eps, seed=s) for s in range(1001, 1025)]) \
            - chi_catalog(d, k, eps)
        assert np.max(np.abs(err)) < 2e-3, (d, k, eps)
        assert np.sqrt(np.mean(err ** 2)) < 8e-4, (d, k, eps)


def test_sobol_words_match_scipy_unscrambled():
    from scipy.stats import qmc
    for m in (1, 10, 14):
        ours = qd._sobol_words(2 ** m) / 2.0 ** 30
        theirs = qmc.Sobol(d=3, scramble=False).random(2 ** m)
        assert set(map(tuple, ours.T)) == set(map(tuple, theirs)), m


def test_chi_numeric_qmc_refuses_bad_n_points():
    # refused before any point is allocated; 2^30 is the words' resolution
    for n in (0, -1, 2.5, 64.0, (1 << 30) + 1):
        with pytest.raises(ValueError, match="n_points"):
            qd.chi_numeric_qmc(2, 0, 0.5, n_points=n)


def test_chi_numeric_qmc_tiny_eps_raises_no_warning():
    # the eps constraint is tested without dividing by eps, which overflowed;
    # no point has r23 below 2^-31, so none is feasible
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (1e-300, 1e-160):
            assert qd.chi_numeric_qmc(2, 0, eps, n_points=4096) == 0.0, eps


def test_chi_numeric_qmc_array_equals_scalar_calls():
    eps = np.array([[0.0, 0.2, 0.5], [0.7, 0.9, 1.0]])
    got = qd.chi_numeric_qmc(2, 1, eps, n_points=4096, seed=7)
    assert got.shape == eps.shape
    assert got.tolist() == [[qd.chi_numeric_qmc(2, 1, e, n_points=4096, seed=7) for e in row]
                            for row in eps.tolist()]
    assert type(qd.chi_numeric_qmc(2, 1, 0.5, n_points=64)) is float


def test_chi_xstate():
    assert chi_catalog(1, 0, 0.5, family="xstate") == 0.5
    assert chi_catalog(2, 0, 1.0, family="xstate") == 1.0
    assert chi_catalog(4, 0, 0.0, family="xstate") == 0.0
    for family in ("xstate", "full"):
        for eps in (1.5, -0.5, np.array([0.5, 1.0 + 1e-12])):
            with pytest.raises(ValueError, match="eps must lie in"):
                chi_catalog(2, 1, eps, family=family)


# ---------------------------------------------------------------------------
# extended master decomposition
# ---------------------------------------------------------------------------

def test_extended_master_k0_half_identity():
    for eps in GRID:
        t1, t2 = qd.extended_master_parts(2, 0, float(eps))
        half = master_chi(2, float(eps)) / 2
        assert t1 == pytest.approx(half, abs=1e-6)
        assert t2 == pytest.approx(half, abs=1e-6)
    t1, t2 = qd.extended_master_parts(4, 0, 0.6)
    assert t1 == pytest.approx(master_chi(4, 0.6) / 2, abs=1e-6)
    assert t2 == pytest.approx(master_chi(4, 0.6) / 2, abs=1e-6)


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (4, 1), (2, 3), (4, 2)])
def test_extended_master_reproduces_chi(d, k):
    for eps in GRID:
        ref = (chi_catalog(d, k, float(eps)) if (d, k) != (2, 3) and (d, k) != (4, 2)
               else qd.chi_numeric(d, k, float(eps)))
        assert qd.extended_master(d, k, float(eps)) == pytest.approx(ref, abs=1e-6)


def _region_a(d, k, eps, nodes=400):
    """chi_{d,k}'s normalised integral over region A, r23 in [0, eps r14],
    where the state's own constraint binds, by tensor Gauss-Legendre: the
    oracle of the closed term T1.  The innermost coordinate is integrated
    in closed form; odd d leaves a half power in the integrand."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, wt = (x + 1.0) / 2.0, w / 2.0
    r, c = t[:, None], t[None, :]
    rt = eps * r * c
    a = (1.0 - r * r) * (1.0 - rt * rt)
    ca = math.gamma(d / 2) * math.gamma(k + 1) / (2.0 * math.gamma(d / 2 + k + 1))
    num = np.sum(wt[:, None] * wt[None, :]
                 * (r * rt) ** (d - 1) * ca * a ** (k + d / 2) * (eps * r))
    norm = (math.gamma(d / 2) ** 3 * math.gamma(k + 1) * math.gamma(d / 2 + k + 1)
            / (8.0 * math.gamma(d + k + 1) ** 2))
    return float(num) / norm


def test_extended_master_t1_is_the_closed_form_of_region_a():
    # the half-power integrands of (d, k) = (1, 0) and (3, 0) leave the
    # oracle, not the closed term, the inaccurate side
    loose = {(1, 0): 1e-8, (3, 0): 1e-12}
    for d in range(1, 7):
        for k in range(5):
            for eps in (0.1, 0.37, 0.83, 1.0):
                t1 = qd.extended_master_parts(d, k, eps)[0]
                assert t1 == pytest.approx(_region_a(d, k, eps),
                                           abs=loose.get((d, k), 1e-13)), (d, k, eps)


def test_extended_master_accepts_odd_d_and_refuses_bad_input():
    for eps in (0.3, 0.5, 0.8):
        assert qd.extended_master(1, 0, eps) == pytest.approx(master_chi(1, eps), abs=1e-6)
    assert qd.extended_master(1, 2, 0.5) > qd.extended_master(1, 1, 0.5)
    assert qd.extended_master(2, 0, 0.0) == 0.0
    for d, k, eps in [(2, -1, 0.5), (2, 0.5, 0.5), (2, 0, 1.5), (2, 0, -0.1), (0, 0, 0.5)]:
        with pytest.raises(ValueError):
            qd.extended_master(d, k, eps)
