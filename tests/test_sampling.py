"""Samplers: Bartlett-drawn induced measures, X-states, stream reproducibility."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sepprob.sampling import RandomStream, SamplerSpec, sample_batch, sample_blocks

# frozen from the independent partial-trace oracle (400k pure states on
# C^4 (x) C^4, reduced by explicit environment trace); the induced sampler
# must land on the same ensemble means
HS4_MEAN_EIGS = (0.6108, 0.2753, 0.0982, 0.0157)

ORACLE_BATCH = 1 << 17  # proposals per round of the X-state oracle
ORACLE_CAP = 1000  # rounds before the oracle gives up


def sample_induced_batch_ginibre(spec, stream, count):
    """Reference induced sampler: the Ginibre construction.

    rho = G G* / tr(G G*) with G an n x cols matrix of independent standard
    normals (real and imaginary parts N(0, 1) over C), cols = n + k over C
    and n + 1 + 2k over R.  It uses no gamma draw and no Bartlett
    parameter of the production sampler.
    """
    rng = stream.generator
    cols = spec.n + spec.k if spec.field == "C" else spec.n + 1 + 2 * spec.k
    g = rng.standard_normal((count, spec.n, cols))
    if spec.field == "C":
        g = g + 1j * rng.standard_normal((count, spec.n, cols))
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]


def sample_x_state_batch_rejection(spec, stream, count):
    """Reference X-state sampler: flat proposals and rejection.

    Proposes the diagonal flat on the simplex and each anti-diagonal entry
    flat on its feasible interval |z| <= sqrt(p_i p_j) (R) or disk (C), and
    accepts with probability proportional to the target density over the
    proposal density: det(rho)^k times the interval length (prop. to
    sqrt(p_i p_j)) or disk area (prop. to p_i p_j) of every pair.  It uses
    none of the Dirichlet or Beta parameters of the direct sampler, and it
    checks the bound it divides by.
    """
    rng = stream.generator
    n, k = spec.n, spec.k
    i = np.arange(n // 2)
    j = n - 1 - i
    h = 0.5 if spec.field == "R" else 1.0
    # det <= prod p_i p_j (times the centre), so the weight is at most
    # prod_m p_m^a_m, whose maximum on the simplex is prod (a_m / A)^a_m
    a = np.full(n, h + k)
    if n % 2:
        a[n // 2] = k
    pos = a[a > 0]
    log_max = float(np.sum(pos * np.log(pos / pos.sum())))
    out = np.zeros((count, n, n), dtype=complex if spec.field == "C" else float)
    got = 0
    for _ in range(ORACLE_CAP):
        if got == count:
            return out
        diag = rng.dirichlet(np.ones(n), size=ORACLE_BATCH)
        pp = diag[:, i] * diag[:, j]
        if spec.field == "C":
            z = np.sqrt(pp * rng.random(pp.shape)) * np.exp(2j * np.pi * rng.random(pp.shape))
        else:
            z = np.sqrt(pp) * rng.uniform(-1.0, 1.0, pp.shape)
        log_w = h * np.log(pp).sum(axis=1) + k * np.log(pp - np.abs(z) ** 2).sum(axis=1)
        if n % 2:
            log_w += k * np.log(diag[:, n // 2])
        assert np.all(log_w <= log_max + 1e-9)
        ok = np.log(rng.random(ORACLE_BATCH)) < log_w - log_max
        idx = np.flatnonzero(ok)[: count - got]
        sl = slice(got, got + idx.size)
        out[sl, np.arange(n), np.arange(n)] = diag[idx]
        out[sl, i, j] = z[idx]
        out[sl, j, i] = np.conj(z[idx])
        got += idx.size
    raise RuntimeError(f"X-state oracle cap hit ({got}/{count} accepted)")


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(field="C", n=6, split=(2, 2), k=0)
    with pytest.raises(ValueError):
        SamplerSpec(field="C", n=4, split=(2, 2), k=-4)
    with pytest.raises(ValueError):
        SamplerSpec(field="C", n=5, split=(1, 5), family="x_state")
    with pytest.raises(ValueError):
        SamplerSpec(field="Q", n=4, split=(2, 2))
    # the Philox key ranges: seed in [0, 2^64), stream_id in [0, 2^32)
    for key in ({"seed": -1}, {"seed": 2**64}, {"stream_id": -1}, {"stream_id": 2**32}):
        with pytest.raises(ValueError):
            SamplerSpec(field="C", n=4, split=(2, 2), **key)
    SamplerSpec(field="C", n=4, split=(2, 2), seed=2**64 - 1, stream_id=2**32 - 1)


def assert_valid_state(rho, field):
    """Hermitian, unit trace, PSD up to rounding, and real over R."""
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-8
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    if field == "R":
        assert np.all(np.imag(rho) == 0)


def test_induced_sample_is_valid_state():
    for field, k in (("C", 0), ("R", 1)):
        spec = SamplerSpec(field=field, n=6, split=(2, 3), k=k, seed=1)
        batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 1)
        assert_valid_state(batch[0], spec.field)


def test_induced_determinism():
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, seed=123, stream_id=5)
    a = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 1)
    b = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 1)
    assert np.array_equal(a, b)
    c = sample_batch(spec, RandomStream(123, 6, 0), 1)
    assert not np.array_equal(a, c)


def test_random_stream_seed_range():
    # no reduction mod 2^64: out-of-range seeds would alias in-range ones
    for bad in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="seed"):
            RandomStream(bad)
    top = RandomStream(2**64 - 1).generator.standard_normal(4)
    assert not np.array_equal(top, RandomStream(1).generator.standard_normal(4))


def test_induced_rank_deficit_for_negative_k():
    # rank is bounded by the Wishart column count: n + k over C,
    # n + 1 + 2k over R (the det^k-weight convention)
    spec = SamplerSpec(field="R", n=6, split=(2, 3), k=-2, seed=9)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 64)
    ev = np.linalg.eigvalsh(batch)
    assert np.max(np.abs(ev[:, :3])) < 1e-12  # cols = 3: rank <= 3
    assert np.min(ev[:, 3]) > 1e-12
    spec1 = SamplerSpec(field="C", n=6, split=(2, 3), k=-1, seed=9)
    batch1 = sample_batch(spec1, RandomStream(spec1.seed, spec1.stream_id), 64)
    ev1 = np.linalg.eigvalsh(batch1)
    assert np.max(np.abs(ev1[:, 0])) < 1e-12  # cols = 5: rank <= 5
    assert np.min(ev1[:, 1]) > 1e-12


def test_induced_batch_invariants_bulk():
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=0, seed=21)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 100_000)
    tr = np.trace(batch, axis1=1, axis2=2)
    assert np.max(np.abs(tr - 1)) < 1e-12
    assert np.max(np.abs(batch - batch.conj().swapaxes(1, 2))) < 1e-14
    ev = np.linalg.eigvalsh(batch)
    assert np.min(ev) > -1e-13


def test_induced_mean_eigenvalues_match_oracle():
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, seed=31)
    acc = np.zeros(4)
    total = 200_000
    for c in range(4):
        batch = sample_batch(spec, RandomStream(31, 0, c), total // 4)
        acc += np.linalg.eigvalsh(batch)[:, ::-1].sum(axis=0)
    mean = acc / total
    assert np.max(np.abs(mean - np.array(HS4_MEAN_EIGS))) < 4e-3


INDUCED_ORACLE_CASES = [(field, split, k) for field in ("C", "R")
                        for split in ((2, 2), (2, 3), (2, 4), (3, 3))
                        for k in (-2, 0, 1)]
INDUCED_STATISTICS = 5
# Bonferroni: a 1% chance that any comparison of the module fails by chance
INDUCED_KS_P = 0.01 / (len(INDUCED_ORACLE_CASES) * INDUCED_STATISTICS)


def _induced_statistics(batch, rank):
    n = batch.shape[1]
    ev = np.linalg.eigvalsh(batch)
    return {"lambda_max": ev[:, -1], "lambda_min_nonzero": ev[:, n - rank],
            "|rho_0,n-1|": np.abs(batch[:, 0, n - 1]),
            "rho_n-1,n-1": batch[:, n - 1, n - 1].real,
            "det": np.prod(ev[:, n - rank:], axis=1)}  # of the nonzero part


@pytest.mark.parametrize("field,split,k", INDUCED_ORACLE_CASES,
                         ids=[f"{f}{a}x{b}k{k}" for f, (a, b), k in INDUCED_ORACLE_CASES])
def test_induced_bartlett_matches_ginibre_oracle(field, split, k):
    # the production sampler draws the Bartlett factor of the Wishart
    # matrix; the Ginibre construction is the reference law
    n = split[0] * split[1]
    spec = SamplerSpec(field=field, n=n, split=split, k=k, seed=88)
    rank = min(n, n + k if field == "C" else n + 1 + 2 * k)
    a = _induced_statistics(sample_batch(spec, RandomStream(88, 0, 0), 20_000), rank)
    b = _induced_statistics(sample_induced_batch_ginibre(spec, RandomStream(88, 1, 0), 20_000),
                            rank)
    assert len(a) == INDUCED_STATISTICS
    for name in a:
        stat, p = ks_2samp(a[name], b[name])
        assert p > INDUCED_KS_P, (field, split, k, name, stat, p)


def test_x_state_structure():
    for field, n, split in (("C", 4, (2, 2)), ("R", 6, (2, 3)), ("R", 9, (3, 3))):
        spec = SamplerSpec(field=field, n=n, split=split, k=0,
                           family="x_state", seed=2)
        batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 500)
        mask = np.ones((n, n), dtype=bool)
        idx = np.arange(n)
        mask[idx, idx] = False
        mask[idx, n - 1 - idx] = False
        assert np.all(batch[:, mask] == 0)
        assert np.allclose(np.trace(batch, axis1=1, axis2=2).real, 1.0)
        ev = np.linalg.eigvalsh(batch)
        assert np.min(ev) > -1e-13
        one = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 1)
        assert_valid_state(one[0], spec.field)


# (field, n, k, oracle samples): the oracle's acceptance falls with n and k
X_ORACLE_CASES = [
    ("R", 4, 0, 20_000), ("R", 4, 1, 20_000), ("R", 4, 2, 20_000),
    ("C", 4, 0, 20_000), ("C", 4, 1, 20_000), ("C", 4, 2, 20_000),
    ("R", 6, 0, 20_000), ("R", 6, 1, 20_000), ("R", 6, 2, 10_000),
    ("R", 9, 0, 20_000), ("R", 9, 1, 10_000), ("R", 9, 2, 4_000),
]


def _x_state_statistics(batch):
    n = batch.shape[1]
    return {"p_0": batch[:, 0, 0].real, "p_mid": batch[:, n // 2, n // 2].real,
            "|z|": np.abs(batch[:, 0, n - 1]), "lambda_min": np.linalg.eigvalsh(batch)[:, 0],
            "det": np.linalg.det(batch).real}


def test_x_state_direct_matches_rejection_oracle():
    # the production sampler draws the det^k-weighted slice law directly;
    # the flat-proposal rejection sampler is the reference law
    for field, n, k, count in X_ORACLE_CASES:
        split = {4: (2, 2), 6: (2, 3), 9: (3, 3)}[n]
        spec = SamplerSpec(field=field, n=n, split=split, k=k, family="x_state", seed=77)
        a = _x_state_statistics(sample_batch(spec, RandomStream(77, 0, k), 100_000))
        b = _x_state_statistics(sample_x_state_batch_rejection(spec, RandomStream(77, 1, k),
                                                               count))
        for name in a:
            stat, p = ks_2samp(a[name], b[name])
            assert p > 1e-4, (field, n, k, name, stat, p)


def test_x_state_induced_k_thinning_lowers_spread():
    spec0 = SamplerSpec(field="R", n=4, split=(2, 2), k=0, family="x_state", seed=5)
    spec2 = SamplerSpec(field="R", n=4, split=(2, 2), k=2, family="x_state", seed=5)
    a = sample_batch(spec0, RandomStream(spec0.seed, spec0.stream_id), 20_000)
    b = sample_batch(spec2, RandomStream(spec2.seed, spec2.stream_id), 20_000)
    # det^k weighting concentrates toward the maximally mixed state
    spread0 = np.var(a[:, 0, 0].real)
    spread2 = np.var(b[:, 0, 0].real)
    assert spread2 < spread0


def test_stream_independence_pooled_variance():
    # 32 streams of PPT counts: the between-stream variance must match the
    # binomial expectation (no inter-stream correlation)
    from sepprob.criteria import classify_batch

    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, seed=404)
    per = 8192
    hits = []
    for sid in range(32):
        batch = sample_batch(spec, RandomStream(404, sid, 0), per)
        hits.append(int(np.count_nonzero(classify_batch(batch, 2, 2)["is_ppt"])))
    hits = np.array(hits, dtype=float)
    p = hits.sum() / (32 * per)
    expected_var = per * p * (1 - p)
    ratio = hits.var(ddof=1) / expected_var
    # chi-square(31) 99.9% band on the variance ratio
    assert 0.3 < ratio < 2.2, (p, ratio)


def test_sample_batch_dispatch():
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, family="x_state", seed=1)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 8)
    assert batch.shape == (8, 4, 4)
    with pytest.raises(ValueError, match="full family, not 'x_state'"):
        next(sample_blocks(spec, RandomStream(spec.seed, spec.stream_id), 8))
    spec_full = SamplerSpec(field="R", n=4, split=(2, 2), k=0, seed=1)
    batch = sample_batch(spec_full, RandomStream(spec_full.seed, spec_full.stream_id), 8)
    assert batch.dtype == np.float64


def test_x_state_high_order_needs_no_rejection():
    # R 3x3 at k = 3 once hit the thinning sampler's cap of proposal rounds
    spec = SamplerSpec(field="R", n=9, split=(3, 3), k=3, family="x_state", seed=1)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 10_000)
    assert batch.shape == (10_000, 9, 9)
    mask = np.ones((9, 9), dtype=bool)
    idx = np.arange(9)
    mask[idx, idx] = False
    mask[idx, 8 - idx] = False
    assert np.all(batch[:, mask] == 0)
    assert np.max(np.abs(np.trace(batch, axis1=1, axis2=2) - 1)) < 1e-14
    assert np.min(np.linalg.eigvalsh(batch)) > -1e-13
