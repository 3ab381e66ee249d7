"""Samplers: Ginibre induced measures, X-states, stream reproducibility."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sepprob.sampling import (
    RandomStream,
    SamplerSpec,
    sample_batch,
    sample_induced,
    sample_induced_batch,
    sample_x_state,
    sample_x_state_batch,
    sample_x_state_batch_rejection,
    stream_for,
)

# frozen from the independent partial-trace oracle (400k pure states on
# C^4 (x) C^4, reduced by explicit environment trace); the Ginibre route
# must land on the same ensemble means
HS4_MEAN_EIGS = (0.6108, 0.2753, 0.0982, 0.0157)


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(field="C", n=6, split=(2, 2), k=0)
    with pytest.raises(ValueError):
        SamplerSpec(field="C", n=4, split=(2, 2), k=-4)
    with pytest.raises(ValueError):
        SamplerSpec(field="C", n=5, split=(1, 5), family="x_state")
    with pytest.raises(ValueError):
        SamplerSpec(field="Q", n=4, split=(2, 2))


def test_induced_sample_is_valid_state():
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=0, seed=1)
    rho = sample_induced(spec)
    rho.validate()
    spec_r = SamplerSpec(field="R", n=6, split=(2, 3), k=1, seed=1)
    rho = sample_induced(spec_r)
    rho.validate()
    assert np.max(np.abs(rho.entries.imag)) == 0


def test_induced_determinism():
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, seed=123, stream_id=5)
    a = sample_induced(spec, stream_for(spec))
    b = sample_induced(spec, stream_for(spec))
    assert np.array_equal(a.entries, b.entries)
    c = sample_induced(spec, RandomStream(123, 6, 0))
    assert not np.array_equal(a.entries, c.entries)


def test_random_stream_seed_range():
    # no reduction mod 2^64: out-of-range seeds would alias in-range ones
    for bad in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="seed"):
            RandomStream(bad)
    top = RandomStream(2**64 - 1).generator.standard_normal(4)
    assert not np.array_equal(top, RandomStream(1).generator.standard_normal(4))


def test_induced_rank_deficit_for_negative_k():
    # rank is bounded by the Ginibre column count: n + k over C,
    # n + 1 + 2k over R (the det^k-weight convention)
    spec = SamplerSpec(field="R", n=6, split=(2, 3), k=-2, seed=9)
    batch = sample_induced_batch(spec, stream_for(spec), 64)
    ev = np.linalg.eigvalsh(batch)
    assert np.max(np.abs(ev[:, :3])) < 1e-12  # cols = 3: rank <= 3
    assert np.min(ev[:, 3]) > 1e-12
    spec1 = SamplerSpec(field="C", n=6, split=(2, 3), k=-1, seed=9)
    ev1 = np.linalg.eigvalsh(sample_induced_batch(spec1, stream_for(spec1), 64))
    assert np.max(np.abs(ev1[:, 0])) < 1e-12  # cols = 5: rank <= 5
    assert np.min(ev1[:, 1]) > 1e-12


def test_induced_batch_invariants_bulk():
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=0, seed=21)
    batch = sample_induced_batch(spec, stream_for(spec), 100_000)
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
        batch = sample_induced_batch(spec, RandomStream(31, 0, c), total // 4)
        acc += np.linalg.eigvalsh(batch)[:, ::-1].sum(axis=0)
    mean = acc / total
    assert np.max(np.abs(mean - np.array(HS4_MEAN_EIGS))) < 4e-3


def test_x_state_structure():
    for field, n, split in (("C", 4, (2, 2)), ("R", 6, (2, 3)), ("R", 9, (3, 3))):
        spec = SamplerSpec(field=field, n=n, split=split, k=0,
                           family="x_state", seed=2)
        batch = sample_x_state_batch(spec, stream_for(spec), 500)
        mask = np.ones((n, n), dtype=bool)
        idx = np.arange(n)
        mask[idx, idx] = False
        mask[idx, n - 1 - idx] = False
        assert np.all(batch[:, mask] == 0)
        assert np.allclose(np.trace(batch, axis1=1, axis2=2).real, 1.0)
        ev = np.linalg.eigvalsh(batch)
        assert np.min(ev) > -1e-13
        rho = sample_x_state(spec)
        rho.validate()


def test_x_state_direct_matches_rejection_oracle():
    # the production sampler draws the slice marginal directly; the
    # flat-proposal rejection sampler is the reference law
    for field in ("R", "C"):
        spec = SamplerSpec(field=field, n=4, split=(2, 2), k=0,
                           family="x_state", seed=77)
        a = sample_x_state_batch(spec, RandomStream(77, 0, 0), 50_000)
        b = sample_x_state_batch_rejection(spec, RandomStream(77, 1, 0), 50_000)
        for grab in (lambda m: m[:, 0, 0].real, lambda m: m[:, 1, 1].real,
                     lambda m: np.abs(m[:, 0, 3])):
            stat, p = ks_2samp(grab(a), grab(b))
            assert p > 1e-3, (field, stat, p)


def test_x_state_induced_k_thinning_lowers_spread():
    spec0 = SamplerSpec(field="R", n=4, split=(2, 2), k=0, family="x_state", seed=5)
    spec2 = SamplerSpec(field="R", n=4, split=(2, 2), k=2, family="x_state", seed=5)
    a = sample_x_state_batch(spec0, stream_for(spec0), 20_000)
    b = sample_x_state_batch(spec2, stream_for(spec2), 20_000)
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
        batch = sample_induced_batch(spec, RandomStream(404, sid, 0), per)
        hits.append(int(np.count_nonzero(classify_batch(batch, 2, 2)["is_ppt"])))
    hits = np.array(hits, dtype=float)
    p = hits.sum() / (32 * per)
    expected_var = per * p * (1 - p)
    ratio = hits.var(ddof=1) / expected_var
    # chi-square(31) 99.9% band on the variance ratio
    assert 0.3 < ratio < 2.2, (p, ratio)


def test_sample_batch_dispatch():
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, family="x_state", seed=1)
    batch = sample_batch(spec, stream_for(spec), 8)
    assert batch.shape == (8, 4, 4)
    spec_full = SamplerSpec(field="R", n=4, split=(2, 2), k=0, seed=1)
    batch = sample_batch(spec_full, stream_for(spec_full), 8)
    assert batch.dtype == np.float64


def test_x_state_cap_error_message():
    spec = SamplerSpec(field="R", n=9, split=(3, 3), k=3, family="x_state", seed=1)
    with pytest.raises((RuntimeError, ValueError)):
        # k=3 thinning at n=9 is below the practical acceptance floor;
        # cap the proposal rounds so we fail fast instead of spinning
        import sepprob.sampling as sampling
        old = sampling.X_REJECTION_CAP
        sampling.X_REJECTION_CAP = 3
        try:
            sample_x_state_batch(spec, stream_for(spec), 10_000)
        finally:
            sampling.X_REJECTION_CAP = old
