"""Exact formula catalog: volumes, probabilities, u(eta), chi, primes."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sepprob import exactmath as em
from sepprob.exactmath import (
    CatalogMiss,
    PiRational,
    chi_catalog,
    factor_int,
    factorize,
    is_prime,
    master_chi,
    milz_strunz_volume,
    p_2qubits,
    p_2quaterbits,
    p_2rebits,
    reported_value_audit,
    u_closed,
    volume_hs,
    volume_lebesgue,
)
from sepprob.exactmath.formulas import gamma_half_exact, master_chi_coefficients, master_term

# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

PRINTED_VOLUMES = [
    ("C", 4, Fraction(1, 108972864000), 6),
    ("R", 2, Fraction(1, 967680), 4),
    ("R", 3, Fraction(1, 1730063650258944000), 9),
    ("C", 6, Fraction(1, 298991549953302804677854494720000000), 15),
    ("H", 4, Fraction(1, 315071454005160652800000), 12),
]


@pytest.mark.parametrize("field,n,coeff,pi_power", PRINTED_VOLUMES)
def test_volume_lebesgue_printed_values(field, n, coeff, pi_power):
    v = volume_lebesgue(field, n)
    assert v.coefficient == coeff
    assert v.pi_power == pi_power


def test_volume_lebesgue_rejects_bad_input():
    with pytest.raises(ValueError):
        volume_lebesgue("C", 1)
    with pytest.raises(ValueError):
        volume_lebesgue("Q", 4)
    with pytest.raises(ValueError):
        volume_lebesgue("R", 0)


def test_volume_hs_complex_n2():
    v = volume_hs("C", 2)
    assert v.coefficient == Fraction(1, 3)
    assert v.pi_twice == 2 and v.radicand == 2  # sqrt(2) * pi / 3


@pytest.mark.parametrize("field,n", [("C", 2), ("C", 3), ("C", 4), ("C", 6),
                                     ("R", 2), ("R", 3), ("R", 4), ("R", 5)])
def test_volume_hs_matches_float_oracle(field, n):
    # independent route: direct mpmath evaluation of the defining formula
    with mpmath.workdps(40):
        if field == "C":
            ref = (mpmath.sqrt(n) * (2 * mpmath.pi) ** (n * (n - 1) / 2)
                   * mpmath.fprod([mpmath.gamma(i) for i in range(1, n + 1)])
                   / mpmath.gamma(n * n))
        else:
            ref = (mpmath.sqrt(n) * 2 ** n
                   * (2 * mpmath.pi) ** (n * (n - 1) / 4.0)
                   * mpmath.gamma((n + 1) / 2.0)
                   * mpmath.fprod([mpmath.gamma(1 + i / 2.0) for i in range(1, n + 1)])
                   / (mpmath.gamma(n * (n + 1) / 2) * mpmath.gamma(0.5)))
        got = volume_hs(field, n).value(35)
        assert abs(got - ref) < abs(ref) * mpmath.mpf(10) ** -30


def test_gamma_half_exact_matches_mpmath():
    with mpmath.workdps(40):
        for t in range(1, 61):
            g = gamma_half_exact(t)
            assert g.pi_twice == t % 2 and g.radicand == 1, t
            got = g.value(40)
            ref = mpmath.gamma(mpmath.mpf(t) / 2)
            assert abs(got - ref) < ref * mpmath.mpf(10) ** -35, t


@pytest.mark.parametrize("m", range(2, 7))
def test_milz_strunz_volume_matches_float_oracle(m):
    # direct mpmath evaluation of the r = 0 formula
    # sqrt(m) 2^(6m^2-m-23/2) pi^(2m^2-m-3/2) prod_{k<=2m} Gamma(k)
    #   Gamma(2m^2+1/2) / (Gamma(4m^2) Gamma(2m^2-1))
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        ref = (mpmath.sqrt(m) * mpmath.mpf(2) ** (6 * m * m - m - 23 * half)
               * mpmath.pi ** (2 * m * m - m - 3 * half)
               * mpmath.fprod([mpmath.gamma(k) for k in range(1, 2 * m + 1)])
               * mpmath.gamma(2 * m * m + half)
               / (mpmath.gamma(4 * m * m) * mpmath.gamma(2 * m * m - 1)))
        got = milz_strunz_volume(m, 0.0)[0].value(35)
        assert abs(got - ref) < abs(ref) * mpmath.mpf(10) ** -30


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_hs_to_lebesgue_normalization_complex(n):
    ratio = volume_hs("C", n) / volume_lebesgue("C", n)
    assert ratio == PiRational(Fraction(2 ** (n * (n - 1) // 2)), radicand=n)


def test_volume_hs_real_positive():
    v = volume_hs("R", 2)
    assert float(v) > 0


# ---------------------------------------------------------------------------
# induced-measure probabilities
# ---------------------------------------------------------------------------

def test_p_2qubits_exact_values():
    expected = {-2: Fraction(0), -1: Fraction(1, 14), 0: Fraction(8, 33),
                1: Fraction(61, 143), 2: Fraction(259, 442)}
    for k, val in expected.items():
        assert p_2qubits(k) == val
    with pytest.raises(ValueError):
        p_2qubits(-3)


def test_p_2rebits_exact_values():
    assert p_2rebits(0) == Fraction(29, 64)
    k1 = p_2rebits(1)
    assert Fraction(29, 64) < k1 < 1
    # independent oracle: high-precision Gamma evaluation, rationalized
    with mpmath.workdps(40):
        ref = 1 - (4 ** 2 * (8 + 15) * mpmath.gamma(3) * mpmath.gamma(2 + mpmath.mpf(9) / 2)
                   / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(10)))
        assert abs(mpmath.mpf(k1.numerator) / k1.denominator - ref) < mpmath.mpf(10) ** -30
    assert abs(float(p_2rebits(50)) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        p_2rebits(-2)


def test_p_2quaterbits_exact_values():
    assert p_2quaterbits(0) == Fraction(26, 323)
    assert p_2quaterbits(1) == Fraction(3736, 22287)
    k2 = p_2quaterbits(2)
    with mpmath.workdps(50):
        poly = 2 * (2 * (2 * 2 * (2 + 21) + 355) + 1452) + 2430
        ref = 1 - (4 ** 8 * poly * mpmath.gamma(2 + mpmath.mpf(13) / 2) * mpmath.gamma(19)
                   / (3 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(28)))
        assert abs(mpmath.mpf(k2.numerator) / k2.denominator - ref) < mpmath.mpf(10) ** -35
    with pytest.raises(ValueError):
        p_2quaterbits(-1)


def test_probability_sequences_monotone_and_bounded():
    for fn, k0 in ((p_2qubits, 0), (p_2rebits, 0), (p_2quaterbits, 0)):
        vals = [fn(k) for k in range(k0, 21)]
        assert all(0 <= v <= 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# u(eta)
# ---------------------------------------------------------------------------

def test_u_closed_reference_points():
    with mpmath.workdps(60):
        assert abs(u_closed(2) - mpmath.mpf(8) / 33) < mpmath.mpf(10) ** -50
        ref_m = 1 - mpmath.mpf(256) / (27 * mpmath.pi ** 2)
        assert abs(u_closed(-0.5) - ref_m) < mpmath.mpf(10) ** -50
        ref_1 = mpmath.mpf(41471) / 105 - 40 * mpmath.pi ** 2
        assert abs(u_closed(1) - ref_1) < mpmath.mpf(10) ** -40
        assert u_closed(-1) == 0


def test_u_closed_continuity_at_removable_points():
    # two-sided numeric limits against the analytic-limit implementation
    with mpmath.workdps(60):
        for eta0 in (0, 1):
            center = u_closed(eta0, dps=50)
            h = mpmath.mpf(10) ** -25
            above = u_closed(eta0 + h, dps=50)
            below = u_closed(eta0 - h, dps=50)
            assert abs(above - center) < mpmath.mpf(10) ** -20
            assert abs(below - center) < mpmath.mpf(10) ** -20


def test_u_closed_domain():
    with pytest.raises(ValueError):
        u_closed(-1.5)


# ---------------------------------------------------------------------------
# chi catalog and master formula
# ---------------------------------------------------------------------------

def test_chi_catalog_values():
    assert chi_catalog(2, 0, 0.5) == pytest.approx(0.3125, abs=1e-15)
    assert chi_catalog(2, 1, 1.0) == pytest.approx(1.0, abs=1e-15)
    ref_41 = (1 / 21) * 0.5 ** 4 * (-9 * 0.5 ** 6 + 55 * 0.5 ** 4 - 125 * 0.5 ** 2 + 100)
    assert chi_catalog(4, 1, 0.5) == pytest.approx(ref_41, abs=1e-15)
    assert chi_catalog(3, 0, 0.5, family="xstate") == pytest.approx(0.125)


def test_chi_catalog_generic_reproduces_named_polynomials():
    eps = np.linspace(0.0, 1.0, 99)
    named = {
        0: eps ** 2 * (4 - eps ** 2) / 3,
        1: eps ** 2 * (3 - eps ** 2) ** 2 / 4,
        2: eps ** 2 * (-eps ** 6 + 8 * eps ** 4 - 18 * eps ** 2 + 16) / 5,
    }
    for k, poly in named.items():
        assert np.max(np.abs(chi_catalog(2, k, eps) - poly)) < 1e-14


def test_chi_catalog_half_integer_entry():
    eps = 0.6
    ref = 2 * ((eps ** 2 - 0.5) / (1 - eps ** 2) ** 1.5 + 0.5)
    assert chi_catalog(2, Fraction(-5, 2), eps) == pytest.approx(ref, rel=1e-14)


def test_chi_catalog_boundary_normalization():
    for d, k in [(2, 0), (2, 1), (2, 2), (2, 5), (4, 0), (4, 1)]:
        assert chi_catalog(d, k, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert chi_catalog(d, k, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_chi_catalog_misses():
    with pytest.raises(CatalogMiss):
        chi_catalog(4, 2, 0.5)
    with pytest.raises(CatalogMiss):
        chi_catalog(1, 0, 0.5)
    with pytest.raises(CatalogMiss):
        chi_catalog(2, -3, 0.5)


def test_master_chi_even_matches_catalog():
    eps = np.linspace(0.0, 1.0, 99)
    assert np.max(np.abs(master_chi(2, eps) - chi_catalog(2, 0, eps))) < 1e-12
    e2 = eps * eps
    quaternionic = e2 * e2 * (15 * e2 * e2 - 64 * e2 + 84) / 35   # chi_{4,0}
    assert np.max(np.abs(master_chi(4, eps) - quaternionic)) < 1e-12
    assert np.max(np.abs(chi_catalog(4, 0, eps) - quaternionic)) < 1e-12
    assert master_chi(2, 1.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_master_chi_coefficients_match_mpmath_3f2(d):
    # the terminating series against mpmath's own 3F2 at z = 3/10:
    # scale * 3F2(-h-k, h, d; h+1, 3h+k+1; z) / (Gamma(h+1) Gamma(3h+k+1))
    h = d // 2
    z = Fraction(3, 10)
    with mpmath.workdps(50):
        for k in range(4):
            coeffs = master_chi_coefficients(d, k)
            got = sum(c * z ** n for n, c in enumerate(coeffs))
            scale = Fraction(math.factorial(d) * math.factorial(d + k) ** 2,
                             math.factorial(h) * math.factorial(h + k))
            ref = (mpmath.mpf(scale.numerator) / scale.denominator
                   * mpmath.hyp3f2(-h - k, h, d, h + 1, 3 * h + k + 1,
                                   mpmath.mpf(3) / 10)
                   / (mpmath.gamma(h + 1) * mpmath.gamma(3 * h + k + 1)))
            got_mp = mpmath.mpf(got.numerator) / got.denominator
            assert abs(got_mp - ref) < abs(ref) * mpmath.mpf(10) ** -40


def test_master_chi_odd_normalization():
    assert master_chi(1, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert master_chi(1, 0.0) == 0.0
    # series and endpoint paths agree approaching 1
    assert master_chi(1, 0.999999) == pytest.approx(1.0, abs=1e-6)


# 50-digit mpmath values of chi_{d,0}(eps) for odd d (mpmath 1.3.0, dps 60)
MASTER_CHI_50_DIGITS = {
    1: {
        0.5: "0.53116769457156905599854309391389718505474487719994",
        0.9: "0.91547779395973813845561084151583609235999182845658",
        0.99: "0.99185491081935192599927263088769706494739098070229",
        0.999: "0.99918902698727052979786196004263400488434288123575",
        0.999999: "0.99999918943012555685964774973159237631902769239689",
        1.0: "1.0",
    },
    3: {
        0.5: "0.19339132504766438995570240049453027422657690325697",
        0.9: "0.82065805005090496474227420565560406689116487949804",
        0.99: "0.98262343970071284173959649549097354186474741493703",
        0.999: "0.99826992254590000626378748833200407880036093143359",
        0.999999: "0.99999827078426784896093454851072322175925461549624",
        1.0: "1.0",
    },
}


@pytest.mark.parametrize("d", [1, 3])
def test_master_chi_odd_matches_50_digit_values(d):
    for eps, ref in MASTER_CHI_50_DIGITS[d].items():
        exact = mpmath.mpf(ref)
        got = master_chi(d, eps)
        assert abs(got - exact) / exact <= 1e-15, (d, eps, got)


# 50-digit values of chi_{d,0}(eps) for odd d >= 5 at the float eps below,
# from mpmath 1.3.0's hyp3f2 (dps 60) and, independently, from the partial
# fractions of the 3F2 term summed as artanh and Legendre chi_2 (dps 110);
# the two agree in every digit
MASTER_CHI_ODD_EPS = (0.3, 0.6, 0.9, 0.99, 0.999, 0.999999,
                      1 - 1e-8, 1 - 1e-10, 1 - 1e-12)
MASTER_CHI_ODD_50_DIGITS = {
    5: (
        "0.0074060425041981424929092326514516696890711291752073",
        "0.17484630840908630500757529513161957414192428571961",
        "0.75870421319108652698878717438716914375865638745894",
        "0.97646488455602736670323773100035359177549757076544",
        "0.99765661603373969317271452723453763212071856156249",
        "0.99999765778186544757793149217591059049523248664819",
        "0.99999997657783013139151871703573917884516551168879",
        "0.99999999976577828427063014300022327916799986101418",
        "0.99999999999765783485048626949796250315659986715049",
    ),
    7: (
        "0.0012849725689929033148120701903942927129088037000446",
        "0.10146109636438237202954438824931763733135042963913",
        "0.71044600293565988762328249014396420720747747253303",
        "0.97156219906831563483031744974308906017870376241354",
        "0.99716827629089807360014536264991509920246628606703",
        "0.99999716968326118601431959788982404943223245462866",
        "0.99999997169684648045073211807368016756479274654974",
        "0.99999999971696844420954467629858156263784334639701",
        "0.99999999999716974728786033125348196366450384215188",
    ),
    9: (
        "0.00023041045142397680168410509083781787021722993867323",
        "0.060364584322871319328843767572934125651086780564664",
        "0.67011194735610964572443496844360788820847163951753",
        "0.96737435447624015414597212859247094156981641029666",
        "0.99675105525671554562578757662595045500288511419995",
        "0.99999675266740555335638617404144511179452861351963",
        "0.99999996752668996748633230343536074345727053245243",
        "0.99999999967526687604546078266850356208977168038123",
        "0.99999999999675274086584759574629191337169180325317",
    ),
    11: (
        "0.000042179383912149542832829741973920476543531640564918",
        "0.036495314734321644061189229618260930981036526300651",
        "0.63511599996926925905619684697012398164261504388223",
        "0.96366084454483108649151666539387306237307232013818",
        "0.99638101631605348297238514988371684792437352394289",
        "0.99999638280969708214337577647418648110636292777890",
        "0.99999996382811469505578885130787793148846288319990",
        "0.99999999963828112062986441957186453783695010829412",
        "0.99999999999638289152419670926905253746519203741665",
    ),
    13: (
        "0.0000078320873096531495767399694183105772919578592808538",
        "0.022314159815527857649290740002384673742583844616760",
        "0.60404173400308859738256486669469956345866077845791",
        "0.96029099181423506454036257946860695381079454445903",
        "0.99604515436052957964394386259424215667337249985763",
        "0.99999604711156146218247315497381206122444266716189",
        "0.99999996047113498375108759989645732969860416550891",
        "0.99999999960471132107409057203118684492926460063321",
        "0.99999999999604720098264785050872587438536205114441",
    ),
}


@pytest.mark.parametrize("d", [5, 7, 9, 11, 13])
def test_master_chi_higher_odd_d_meets_its_stated_accuracy(d):
    # the series' rounding grows with d near eps = 1 (the hyper module notes)
    tol = 3e-15 if d <= 7 else 2e-13
    for eps, ref in zip(MASTER_CHI_ODD_EPS, MASTER_CHI_ODD_50_DIGITS[d]):
        exact = mpmath.mpf(ref)
        got = master_chi(d, eps)
        assert abs(got - exact) / exact <= tol, (d, eps, got)


def test_master_chi_never_exceeds_one():
    # twice the term rounded up to 1 + 1.4e-13 (d = 13) and 1 + 1.3e-14
    # (d = 10) just below eps = 1; chi is a probability
    eps = np.append(1.0 - np.logspace(-16, -1, 3000), np.nextafter(1.0, 0.0))
    for d in range(5, 14):
        assert np.max(master_chi(d, eps)) <= 1.0, d
        assert master_chi(d, float(eps[-1])) <= 1.0, d


@pytest.mark.parametrize("d", range(1, 10))
def test_master_chi_is_one_at_the_endpoint(d):
    # Dixon's theorem sums the odd-d series at eps = 1 to exactly 1
    assert master_chi(d, 1.0) == 1.0
    assert np.array_equal(master_chi(d, np.array([0.5, 1.0]))[1:], [1.0])


def test_master_chi_odd_array_equals_scalar_calls():
    from sepprob.hyper import SERIES_CHUNK
    rng = np.random.default_rng(7)
    # three chunks once sorted at d = 3: the arguments near 1, which need up
    # to about 7,700 terms, lie on both sides of the second boundary; at
    # d = 1 every eps takes the closed form, the polynomial below 1/4
    eps = np.sqrt(np.concatenate([
        rng.random(SERIES_CHUNK + 37),
        1.0 - 10.0 ** rng.uniform(-6, -1, SERIES_CHUNK - 11),
        [0.0, 0.25, 0.999999 ** 2],
    ]))
    for d in (1, 3):
        whole = master_chi(d, eps)
        one_by_one = np.array([master_chi(d, float(e)) for e in eps])
        assert np.array_equal(whole, one_by_one)
        grid = eps[:eps.size // 5 * 5].reshape(-1, 5)
        assert np.array_equal(master_chi(d, grid), whole[:grid.size].reshape(-1, 5))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_master_term_odd_d_matches_mpmath_3f2(d, k):
    # the non-terminating order-k series against mpmath's 3F2 at 50 digits,
    # and Dixon's 1/2 at eps = 1
    with mpmath.workdps(50):
        h = mpmath.mpf(d) / 2
        scale = (math.factorial(d) * math.factorial(d + k) ** 2
                 / (2 * mpmath.gamma(h + 1) * mpmath.gamma(h + k + 1)
                    * mpmath.gamma(h + 1) * mpmath.gamma(3 * h + k + 1)))
        for eps in (0.3, 0.7, 0.95, 0.99, 1.0):
            e = mpmath.mpf(eps)
            ref = e ** d * scale * mpmath.hyp3f2(-h - k, h, d, h + 1, 3 * h + k + 1, e * e)
            got = master_term(d, k, eps)
            assert abs(got - ref) <= 1e-15 * ref, (eps, got, ref)
    assert master_term(d, k, 1.0) == 0.5
    assert np.array_equal(master_term(d, k, np.array([0.0, 1.0])), [0.0, 0.5])


def test_master_term_odd_d_at_large_k():
    # d + k >= 99 overflowed (d+k)!^2 as a float; the series' terms leave
    # float64's range only from k = 170 at d = 1
    with mpmath.workdps(50):
        h = mpmath.mpf(1) / 2
        scale = (mpmath.factorial(101) ** 2
                 / (2 * mpmath.gamma(h + 1) ** 2 * mpmath.gamma(h + 101)
                    * mpmath.gamma(3 * h + 101)))
        for eps in (0.3, 0.7, 0.95):
            e = mpmath.mpf(eps)
            ref = e * scale * mpmath.hyp3f2(-h - 100, h, 1, h + 1, 3 * h + 101, e * e)
            got = master_term(1, 100, eps)
            assert abs(got - ref) <= 1e-13 * ref, (eps, got, ref)
    for d, k in [(1, 170), (1, 400), (101, 0)]:
        with pytest.raises(ValueError, match="leaves float64's range"):
            master_term(d, k, 0.5)


def _two_rebit_40_digits(eps) -> mpmath.mpf:
    # chi_1(eps) from Li_2 and artanh, the closed form _two_rebit_term sums
    e = mpmath.mpf(eps)
    chi2 = (mpmath.polylog(2, e) - mpmath.polylog(2, -e)) / 2
    rest = (1 - e * e) / e * ((1 + e * e) * mpmath.atanh(e) / e - 1)
    return 2 * (4 * chi2 + rest) / mpmath.pi ** 2


def test_two_rebit_closed_form_matches_40_digit_values():
    rng = np.random.default_rng(16)
    eps = np.concatenate([rng.uniform(0.25, 1.0, 180), 1.0 - rng.uniform(0.0, 1e-7, 20)])
    eps = eps[eps < 1.0]
    got = master_chi(1, eps)
    with mpmath.workdps(40):
        # the closed form is the 3F2 series
        h = mpmath.mpf(1) / 2
        for e in map(mpmath.mpf, (0.25, 0.6, 0.99)):
            series = 32 * e * mpmath.hyp3f2(-h, h, 1, h + 1, 3 * h + 1, e * e) / (3 * mpmath.pi ** 2)
            assert abs(_two_rebit_40_digits(e) / series - 1) < mpmath.mpf(10) ** -35
        for e, value in zip(eps, got):
            ref = _two_rebit_40_digits(e)
            assert abs(value - ref) / ref <= 2e-15, (e, value)


def test_legendre_chi2_matches_40_digit_values():
    # Landen's identity keeps the series at z <= sqrt(2) - 1: within 1e-15
    # relative on [1/4, 1 - 1e-12], across the switch included
    from sepprob.exactmath.formulas import _legendre_chi2
    rng = np.random.default_rng(27)
    switch = math.sqrt(2) - 1
    x = np.concatenate([[0.25, switch], np.nextafter(switch, [0.0, 1.0]),
                        rng.uniform(0.25, 1.0, 300), 1.0 - np.logspace(-12, -1, 60)])
    got = _legendre_chi2(x)
    with mpmath.workdps(40):
        for e, value in zip(x, got):
            e = mpmath.mpf(e)
            ref = (mpmath.polylog(2, e) - mpmath.polylog(2, -e)) / 2
            assert abs(value - ref) <= 1e-15 * ref, (e, value)


def test_two_rebit_closed_form_meets_the_series_at_one_quarter():
    from sepprob.exactmath.formulas import _TWO_REBIT_CLOSED_FROM, _two_rebit_term
    from sepprob.hyper import hyp3f2_reg_series
    assert _TWO_REBIT_CLOSED_FROM == 0.25
    below = np.nextafter(0.25, 0.0)
    for eps in (0.25, below):
        scale = 1 / (2 * math.gamma(1.5) * math.gamma(1.5))  # master_term's, 2/pi
        series = eps * scale * hyp3f2_reg_series((-0.5, 0.5, 1.0), (1.5, 2.5),
                                                 np.array([eps * eps]))[0]
        closed = _two_rebit_term(np.array([eps]))[0]
        assert abs(closed - series) <= 2e-15 * series
        assert master_term(1, 0, eps) == closed


def test_two_rebit_maclaurin_polynomial_matches_50_digit_3f2():
    from sepprob.exactmath.formulas import _TWO_REBIT_TERMS
    # the tail past the kept terms, |r_N| z^N / (1 - z) at z = 1/16, over
    # the sum's lower bound 0.33, is below a quarter of float64's roundoff
    n = _TWO_REBIT_TERMS
    r_n = Fraction(1, abs((1 - 2 * n) * (2 * n + 1) ** 2 * (2 * n + 3)))
    assert r_n * Fraction(1, 16) ** n / Fraction(15, 16) / Fraction(33, 100) < Fraction(1, 2 ** 55)
    # the 3F2 itself, not the artanh form, which cancels at tiny eps
    rng = np.random.default_rng(22)
    eps = np.concatenate([rng.uniform(0.0, 0.25, 200),
                          [1e-300, 1e-20, 1e-8, np.nextafter(0.25, 0.0)]])
    got = master_term(1, 0, eps)
    with mpmath.workdps(50):
        h = mpmath.mpf(1) / 2
        for e, value in zip(eps, got):
            e = mpmath.mpf(e)
            ref = 16 * e * mpmath.hyp3f2(-h, h, 1, h + 1, 3 * h + 1, e * e) / (3 * mpmath.pi ** 2)
            assert abs(value - ref) <= 1e-15 * ref, (e, value)


def test_two_rebit_partial_fractions():
    for m in range(1, 42, 2):
        assert (Fraction(1, 16 * (m - 2)) - Fraction(1, 16 * (m + 2)) - Fraction(1, 4 * m * m)
                == Fraction(1, (m - 2) * m * m * (m + 2)))


def test_master_chi_rejects_bad_eps():
    # the odd-d series, the even-d polynomial and the catalog share one check
    formulas = (lambda e: master_chi(1, e), lambda e: master_chi(2, e),
                lambda e: chi_catalog(2, 1, e), lambda e: chi_catalog(3, 0, e, family="xstate"))
    for eps in (1.5, -0.5, float("nan"), [0.5, float("nan")]):
        for formula in formulas:
            with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
                formula(eps)


# ---------------------------------------------------------------------------
# Milz-Strunz volume
# ---------------------------------------------------------------------------

def test_milz_strunz_profile():
    _, prof0 = milz_strunz_volume(2, 0.0)
    assert prof0 == 1.0
    _, prof = milz_strunz_volume(2, 0.5)
    assert prof == pytest.approx((0.75) ** 6, abs=1e-15)
    _, prof1 = milz_strunz_volume(3, 1.0)
    assert prof1 == 0.0
    with pytest.raises(ValueError):
        milz_strunz_volume(2, 1.5)


def test_milz_strunz_carries_radical():
    v0, _ = milz_strunz_volume(3, 0.0)
    assert v0.radicand == 6  # sqrt(2 m) for odd half-power of 2
    assert float(v0) > 0


# ---------------------------------------------------------------------------
# primes and factorization
# ---------------------------------------------------------------------------

def test_factor_int_paper_constants():
    assert factor_int(108972864000).factors == ((2, 9), (3, 5), (5, 3), (7, 2),
                                                (11, 1), (13, 1))
    assert factor_int(6561).factors == ((3, 8),)


def test_factorize_roundtrip_identity():
    assert factorize(PiRational(Fraction(1))).numerator.factors == ()
    rng = np.random.default_rng(2024)
    primes = [p for p in range(2, 10_000) if is_prime(p)]
    for _ in range(1000):
        num = 1
        while num < 10 ** 60:  # ~60-digit numerators from random prime powers
            num *= int(rng.choice(primes)) ** int(rng.integers(1, 4))
        den = 1
        while den < 10 ** 30:
            den *= int(rng.choice(primes)) ** int(rng.integers(1, 3))
        x = PiRational(Fraction(num, den), pi_twice=2 * int(rng.integers(-6, 7)))
        fact = factorize(x)
        assert fact.value() == x
    with pytest.raises(ValueError):
        factorize(PiRational(Fraction(0)))


def test_pi_rational_exponents_are_keyword_only():
    # a positional exponent would be ambiguous between pi**a and pi**(a/2)
    with pytest.raises(TypeError):
        PiRational(Fraction(1), 3)
    assert PiRational(Fraction(1), pi_twice=6).pi_power == 3


def test_factorize_refuses_a_radical():
    # sqrt(2) * pi / 3: factoring only 1/3 would drop the radical
    with pytest.raises(ValueError):
        factorize(volume_hs("C", 2))
    with pytest.raises(ValueError):
        factorize(PiRational(Fraction(1, 3), pi_twice=1))


def test_factorize_handles_large_prime_cofactors():
    p, q = 1_000_000_007, 1_000_000_009
    fact = factor_int(p * q * 8)
    assert fact.factors == ((2, 3), (p, 1), (q, 1))


def test_is_prime_basics():
    assert [n for n in range(2, 60) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


# the least strong pseudoprime to all thirteen Miller-Rabin bases
MR_PSEUDOPRIME = 1287836182261 * 2575672364521


def test_is_prime_refuses_the_strong_pseudoprime_to_every_base():
    assert MR_PSEUDOPRIME == 3317044064679887385961981
    assert not is_prime(MR_PSEUDOPRIME)
    assert factor_int(MR_PSEUDOPRIME).factors == ((1287836182261, 1), (2575672364521, 1))


def test_is_prime_keeps_mersenne_primes_past_the_deterministic_bound():
    assert is_prime(2 ** 89 - 1)
    assert is_prime(2 ** 107 - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))


# ---------------------------------------------------------------------------
# reported-value audit
# ---------------------------------------------------------------------------

def test_reported_audit_flags_exactly_the_two_documented_typos():
    rows = reported_value_audit()
    bad = {r.label: r for r in rows if not r.consistent}
    assert set(bad) == {"complex N=6 separable volume",
                        "quaternionic N=4 separable volume"}
    # stale decimal, correct factorization
    row = bad["complex N=6 separable volume"]
    assert not row.decimal_matches and row.factorization_matches
    # correct decimal, wrong factorization
    row = bad["quaternionic N=4 separable volume"]
    assert row.decimal_matches and not row.factorization_matches


def test_reported_audit_totals_all_consistent():
    for row in reported_value_audit():
        if row.label.endswith("volume") and "separable" not in row.label:
            assert row.consistent, row.label
