"""Classification: PPT verdicts, Johnston spectrum test, det inequality."""

import numpy as np
import pytest

from sepprob import criteria
from sepprob.criteria import classify_batch
from sepprob.harness import ExperimentConfig, estimate_chi_empirical, run_experiment
from sepprob.linalg import partial_transpose_batch
from sepprob.sampling import (RandomStream, SamplerSpec, _x_state_draws, _x_state_matrices,
                              sample_batch)


def bell():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi)


def verdict(rho, dA, dB):
    """The classify_batch verdicts of a single state, as Python scalars."""
    out = classify_batch(np.asarray(rho, dtype=complex)[None], dA, dB)
    return {key: val[0].item() for key, val in out.items()}


def johnston(descending):
    """Johnston's test on one descending spectrum of a 2 x m state."""
    lam = np.asarray(descending, dtype=float)[::-1][None]
    return bool(criteria._johnston_rows(lam, lam.shape[1])[0])


def test_classify_bell_state():
    v = verdict(bell(), 2, 2)
    assert not v["is_ppt"]
    assert v["neg_pt_eigs"] == 1
    assert not v["johnston"]


def test_classify_maximally_mixed_2x3():
    v = verdict(np.eye(6) / 6, 2, 3)
    assert v["is_ppt"]
    assert not v["det_gt"]  # PT of the maximally mixed state is itself
    assert v["johnston"]


def test_classify_product_state():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a @ a.conj().T
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b @ b.conj().T
    rho = np.kron(a / np.trace(a).real, b / np.trace(b).real)
    assert verdict(rho, 2, 3)["is_ppt"]


def test_johnston_from_spectrum_cases():
    assert johnston([1 / 6] * 6)          # 1/6 < 1/6 + 2/6
    assert not johnston([1, 0, 0, 0, 0, 0])
    # 0.3 < 0.1 + 2 sqrt(0.15 * 0.1) = 0.3449
    assert johnston([0.3, 0.2, 0.15, 0.15, 0.1, 0.1])


def test_johnston_strict_at_equality():
    # lambda_1 == lambda_5 + 2 sqrt(lambda_4 lambda_6) classifies False
    lam4, lam5, lam6 = 0.1, 0.06, 0.05
    lam1 = lam5 + 2 * np.sqrt(lam4 * lam6)
    s = [lam1, 0.15, 0.12, lam4, lam5, lam6]
    assert sorted(s, reverse=True) == s
    assert not johnston(s)


def test_det_inequality_ties_are_false():
    assert not verdict(np.eye(4) / 4, 2, 2)["det_gt"]
    # X-basis-diagonal state: PT leaves it unchanged
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    proj = np.kron(np.outer(h[:, 0], h[:, 0]), np.outer(h[:, 0], h[:, 0]))
    rho = 0.7 * np.eye(4) / 4 + 0.3 * proj
    v = verdict(rho, 2, 2)
    assert v["is_ppt"] and not v["det_gt"]


def test_det_inequality_side_invariance():
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=0, seed=3)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 2000)
    ptb = partial_transpose_batch(batch, 2, 3, "B")
    da = np.prod(np.linalg.eigvalsh(ptb.swapaxes(1, 2)), axis=1)  # over A: ptb's transpose
    db = np.prod(np.linalg.eigvalsh(ptb), axis=1)
    assert np.max(np.abs(da - db)) < 1e-12


def test_det_gt_is_ppt_conditioned_but_det_inequality_is_not():
    # two negative PT eigenvalues can make det(rho^PT) > det(rho) on a
    # non-PPT state: the batch verdict reports False there
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=0, seed=3)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 2000)
    pt_eigs = np.linalg.eigvalsh(partial_transpose_batch(batch, 2, 3, "B"))
    det_gt = np.prod(pt_eigs, axis=1) > np.prod(np.linalg.eigvalsh(batch), axis=1)
    rows = np.flatnonzero(det_gt & (pt_eigs[:, 0] < -1e-6))
    assert rows.size
    out = classify_batch(batch[rows], 2, 3)
    assert not out["det_gt"].any() and not out["is_ppt"].any()


def test_neg_eig_count_ranges():
    # 2x2: at most one negative PT eigenvalue; 2x3: at most two
    for field, split, worst in (("C", (2, 2), 1), ("C", (2, 3), 2), ("R", (2, 3), 2)):
        n = split[0] * split[1]
        spec = SamplerSpec(field=field, n=n, split=split, k=0, seed=8)
        batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 100_000)
        out = classify_batch(batch, *split)
        assert out["neg_pt_eigs"].max() <= worst
        assert out["neg_pt_eigs"].min() >= 0


def test_johnston_implies_ppt_bulk():
    spec = SamplerSpec(field="C", n=6, split=(2, 3), k=1, seed=12)
    batch = sample_batch(spec, RandomStream(spec.seed, spec.stream_id), 100_000)
    out = classify_batch(batch, 2, 3)
    assert np.array_equal(out["is_ppt"], out["neg_pt_eigs"] == 0)
    assert not np.any(out["johnston"] & ~out["is_ppt"])
    assert not np.any(out["det_gt"] & ~out["is_ppt"])
    assert out["det_gt"].any()


# ---------------------------------------------------------------------------
# the LDL^H inertia path against the eigvalsh reference
# ---------------------------------------------------------------------------

@pytest.fixture
def reference_rows(monkeypatch):
    """Counts the rows each classify_batch, classify_x_states or ppt_blocks
    call sends to the reference path."""
    seen = []
    reference = criteria._classify_eigvalsh

    def recording(rhos, dA, dB):
        seen.append(rhos.shape[0])
        return reference(rhos, dA, dB)

    monkeypatch.setattr(criteria, "_classify_eigvalsh", recording)
    return seen


@pytest.mark.parametrize("field,split,k,family,count", [
    ("C", (2, 3), 0, "full", 65_536),
    ("C", (2, 2), 0, "full", 4096),
    ("R", (2, 2), 0, "full", 4096),
    ("C", (2, 3), -2, "full", 4096),
    ("R", (2, 3), -2, "full", 4096),
    ("R", (2, 3), 0, "full", 4096),
    ("C", (2, 4), 0, "full", 4096),
    ("R", (2, 4), 0, "full", 4096),
    ("C", (3, 3), 0, "full", 4096),
    ("R", (2, 2), 1, "x_state", 4096),
    ("R", (2, 3), 1, "x_state", 4096),
    ("R", (2, 2), -1, "full", 4096),
    ("C", (2, 2), -1, "full", 4096),
    ("R", (2, 2), 1, "full", 4096),
    ("C", (2, 2), 1, "full", 4096),
    ("R", (2, 2), 2, "full", 4096),
    ("C", (2, 2), 2, "full", 4096),
    ("R", (1, 4), 0, "full", 4096),
    ("C", (1, 4), 0, "full", 4096),
    ("R", (4, 1), 0, "full", 4096),
    ("C", (4, 1), 0, "full", 4096),
    ("R", (1, 6), 0, "full", 4096),
    ("C", (1, 6), 0, "full", 4096),
])
def test_classify_batch_matches_eigvalsh_reference(field, split, k, family, count,
                                                   reference_rows):
    spec = SamplerSpec(field=field, n=split[0] * split[1], split=split, k=k,
                       family=family, seed=77)
    rhos = sample_batch(spec, RandomStream(77), count)
    expected = criteria._classify_eigvalsh(rhos, *split)
    reference_rows.clear()
    out = classify_batch(rhos, *split)
    for key, want in expected.items():
        assert np.array_equal(out[key], want), key
    # the inertia path, not the fallback, settled almost every row
    assert sum(reference_rows) <= count // 100


def _pure(psi):
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("name,rho,split", [
    ("zero leading entry", np.diag([0.0, 1, 1, 1]) / 3, (2, 2)),
    ("pure product", _pure(np.kron([0.6, 0.8j], [1, 2 - 1j, 0.5])), (2, 3)),
    ("maximally mixed", np.eye(6) / 6, (2, 3)),
    ("Bell", _pure(np.array([1.0, 0, 0, 1])), (2, 2)),
])
def test_edge_states_take_the_reference_path(name, rho, split, reference_rows):
    rhos = np.asarray(rho, dtype=complex)[None]
    out = classify_batch(rhos, *split)
    assert reference_rows == [1], name
    expected = criteria._classify_eigvalsh(rhos, *split)
    for key, want in expected.items():
        assert np.array_equal(out[key], want), (name, key)


@pytest.mark.parametrize("field,k", [("R", 0), ("R", 1), ("C", 0), ("C", 1)])
def test_ppt_blocks_matches_the_reference(field, k, reference_rows):
    spec = SamplerSpec(field=field, n=4, split=(2, 2), k=k, seed=78)
    sampled = sample_batch(spec, RandomStream(78), 2000)
    # |00><00|, the Bell state and the singlet, which the certificate refuses,
    # and I/4, which it settles (the 4 x 4 closed form refuses I/4)
    edge = np.array([np.diag([1.0, 0, 0, 0]), bell(), _pure(np.array([0.0, 1, -1, 0])),
                     np.eye(4) / 4], dtype=sampled.dtype)
    rhos = np.concatenate((edge, sampled, edge))  # edge rows in the first and last block
    blocks = [(lo, rhos[lo:lo + 1024].transpose(1, 2, 0)) for lo in range(0, rhos.shape[0], 1024)]
    inertia = list(criteria._block_inertia(blocks, 2, 2))
    neg = np.concatenate([row[2] for row in inertia])
    cert = np.concatenate([row[4] for row in inertia])
    assert not cert[[0, 1, 2, -4, -3, -2]].any() and cert[[3, -1]].all()
    # the pivots alone call the singlet PPT (NaN pivots), so the fallback decides it
    assert neg[2] == 0
    reference_rows.clear()
    out = criteria.ppt_blocks(iter(blocks), rhos.shape[0], 2, 2)
    assert reference_rows == [np.count_nonzero(~cert)]  # one call, the uncertified rows
    assert np.array_equal(out, criteria._classify_eigvalsh(rhos, 2, 2)["is_ppt"])
    assert np.array_equal(out, classify_batch(rhos, 2, 2)["is_ppt"])
    assert list(out[:4]) == [True, False, False, True]


# ---------------------------------------------------------------------------
# the closed-form 4 x 4 spectra against the eigvalsh reference
# ---------------------------------------------------------------------------

_HADAMARD_A = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))  # local
_BELL_BASIS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]) / np.sqrt(2)
_SINGLET = _pure(np.array([0.0, 1, -1, 0]))


def _double_eigenvalue():
    """Spectrum (0.05, 0.05 + 2^-15, b, b), rotated on the first qubit."""
    b = (0.9 - 2.0**-15) / 2
    return _HADAMARD_A @ np.diag([0.05, b, 0.05 + 2.0**-15, b]) @ _HADAMARD_A.T


def _tie_within_charpoly_err():
    """det(rho^PT) - det(rho) = eps^2 (bc - ad) = 4e-12: past the LDL^H
    path's tie margin, inside it once widened by CHARPOLY_ERR."""
    rho = np.diag([0.5, 0.3, 0.19999, 1e-5])
    rho[0, 3] = rho[3, 0] = 8.165e-6
    return rho


def _passes_ldl_certificate(rhos, split):
    w = rhos.transpose(1, 2, 0)
    (_, _, neg, _, cert), = criteria._block_inertia([(0, w)], *split)
    return bool(np.all(cert & (neg == 0)))


@pytest.mark.parametrize("name,rho", [
    ("maximally mixed", np.eye(4) / 4),
    ("Werner p = 0.2", 0.2 * _SINGLET + 0.8 * np.eye(4) / 4),
    ("triple eigenvalue", np.diag([0.4, 0.2, 0.2, 0.2])),
    # brackets that overlap, each with its sign change
    ("eigenvalues 4.2e-5 apart", np.diag([0.1, 0.2, 0.2 + 4.2e-5, 0.5 - 4.2e-5])),
    # disjoint brackets with sign changes, |p_hat| <= CHARPOLY_ERR at inner ends
    ("two pairs 1e-5 apart", np.diag([0.03125, 0.03126, 0.46874, 0.46875])),
    # disjoint brackets around the two estimates of a double root, no sign change
    ("double eigenvalue", _double_eigenvalue()),
])
def test_degenerate_spectra_take_the_reference_path(name, rho, reference_rows):
    rhos = np.asarray(rho, dtype=complex)[None]
    assert _passes_ldl_certificate(rhos, (2, 2)), name
    assert not criteria._quartic_spectra(rhos)[2][0], name
    out = classify_batch(rhos, 2, 2)
    assert reference_rows == [1], name
    expected = criteria._classify_eigvalsh(rhos, 2, 2)
    for key, want in expected.items():
        assert np.array_equal(out[key], want), (name, key)


@pytest.mark.parametrize("name,rho", [
    # Bell-diagonal, spectrum (0.46875, 0.25, 0.21875, 0.0625):
    # lambda_1 = lambda_3 + 2 sqrt(lambda_2 lambda_4)
    ("Johnston equality", _BELL_BASIS @ np.diag([0.46875, 0.25, 0.21875, 0.0625])
     @ _BELL_BASIS.T),
    ("determinant tie within CHARPOLY_ERR", _tie_within_charpoly_err()),
])
def test_4x4_ties_take_the_reference_path(name, rho, reference_rows):
    rhos = np.asarray(rho, dtype=complex)[None]
    assert _passes_ldl_certificate(rhos, (2, 2)), name
    assert criteria._quartic_spectra(rhos)[2][0], name
    out = classify_batch(rhos, 2, 2)
    assert reference_rows == [1], name
    expected = criteria._classify_eigvalsh(rhos, 2, 2)
    for key, want in expected.items():
        assert np.array_equal(out[key], want), (name, key)


def test_4x4_spectra_reach_lapack_only_through_the_reference(monkeypatch):
    calls = []  # per eigvalsh call: whether the reference path made it
    depth = []
    eigvalsh, reference = np.linalg.eigvalsh, criteria._classify_eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(bool(depth))
        return eigvalsh(a, *args, **kwargs)

    def tracked(rhos, dA, dB):
        depth.append(1)
        try:
            return reference(rhos, dA, dB)
        finally:
            depth.pop()

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(criteria, "_classify_eigvalsh", tracked)
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=1, seed=5)
    rhos = sample_batch(spec, RandomStream(5), 4096)
    rhos[:2] = np.eye(4) / 4, bell()  # one row for each certificate to refuse
    out = classify_batch(rhos, 2, 2)
    assert out["is_ppt"].any()
    assert calls and all(calls)


# ---------------------------------------------------------------------------
# the closed-form X-state path against the eigvalsh reference
# ---------------------------------------------------------------------------

X_SPLITS = [(1, 4), (2, 2), (4, 1), (1, 6), (2, 3), (3, 2), (6, 1), (1, 9), (3, 3), (9, 1)]


def _x_draws(field, split, k, count, seed=41):
    spec = SamplerSpec(field=field, n=split[0] * split[1], split=split, k=k,
                       family="x_state", seed=seed)
    return _x_state_draws(spec, RandomStream(seed, 0, k), count)


@pytest.mark.parametrize("split", X_SPLITS)
def test_x_pair_map_gives_the_partial_transpose(split):
    diag, z = _x_draws("C", split, 0, 500)
    src, conj = criteria._x_pair_map(*split)
    moved = np.where(conj, z[:, src].conj(), z[:, src])
    assert np.array_equal(partial_transpose_batch(_x_state_matrices(diag, z), *split),
                          _x_state_matrices(diag, moved))


@pytest.mark.parametrize("field", "RC")
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("split", X_SPLITS)
def test_classify_x_states_matches_eigvalsh_reference(split, k, field, reference_rows):
    count = 4096
    diag, z = _x_draws(field, split, k, count)
    expected = criteria._classify_eigvalsh(_x_state_matrices(diag, z), *split)
    reference_rows.clear()
    out = criteria.classify_x_states(diag, z, *split)
    for key, want in expected.items():
        assert np.array_equal(out[key], want), key
    # the closed form, not the fallback, settled almost every row
    assert sum(reference_rows) <= count // 100


@pytest.mark.parametrize("name,diag,z", [
    # |z0| = |z1| on 2x2: rho^PT swaps them, so det(rho^PT) = det(rho)
    ("determinant tie", [0.3, 0.2, 0.2, 0.3], [0.1, 0.1j]),
    # |z0|^2 = p1 p2: a zero eigenvalue of rho^PT's pair (1, 2)
    ("zero PT eigenvalue", [0.3, 0.2, 0.2, 0.3], [0.2, 0.1]),
    # spectrum (0.46875, 0.25, 0.21875, 0.0625): lambda_1 = lambda_3 + 2 sqrt(lambda_2 lambda_4)
    ("Johnston equality", [0.265625, 0.234375, 0.234375, 0.265625], [0.203125, 0.015625]),
])
def test_x_state_ties_take_the_reference_path(name, diag, z, reference_rows):
    diag, z = np.array([diag]), np.array([z], dtype=complex)
    out = criteria.classify_x_states(diag, z, 2, 2)
    assert reference_rows == [1], name
    expected = criteria._classify_eigvalsh(_x_state_matrices(diag, z), 2, 2)
    for key, want in expected.items():
        assert np.array_equal(out[key], want), (name, key)


# counts_dict of two 65,536-sample chunks (streams=2, seed 2027), recorded
# with the eigvalsh-only classifier; the inertia path must reproduce them.
# The rows are from sampler version 3: Bartlett-drawn full-family states and
# direct det^k X-state draws.  The C 2x2, R 2x2, C 2x4 and X-state R 2x2
# rows cover the remaining benchmark systems; the X-state C rows were
# recorded with the LDL^H classifier, before X-states had a closed form.
GOLDEN_TALLIES = [
    ("C", (2, 3), 0, "full", 3594, 0, 1784, [3594, 123402, 4076, 0, 0, 0, 0]),
    ("C", (2, 3), -2, "full", 21, 0, 21, [21, 102631, 28420, 0, 0, 0, 0]),
    ("R", (2, 4), 0, "full", 3257, 0, 1641, [3257, 93355, 34442, 18, 0, 0, 0, 0, 0]),
    ("C", (3, 3), 0, "full", 16, 0, 8, [16, 47562, 82901, 593, 0, 0, 0, 0, 0, 0]),
    ("R", (2, 3), 1, "x_state", 101043, 10305, 43507, [101043, 30029, 0, 0, 0, 0, 0]),
    ("C", (2, 2), 0, "full", 31926, 466, 15983, [31926, 99146, 0, 0, 0]),
    ("R", (2, 2), 0, "full", 59219, 4526, 29456, [59219, 71853, 0, 0, 0]),
    ("C", (2, 4), 0, "full", 181, 0, 94, [181, 84957, 45934, 0, 0, 0, 0, 0, 0]),
    ("R", (2, 2), 1, "x_state", 100862, 54721, 43416, [100862, 30210, 0, 0, 0]),
    ("C", (2, 2), 0, "x_state", 52501, 9544, 26169, [52501, 78571, 0, 0, 0]),
    ("C", (3, 3), 1, "x_state", 84321, 0, 34256, [84321, 46751, 0, 0, 0, 0, 0, 0, 0, 0]),
]


@pytest.mark.parametrize("field,split,k,family,ppt,johnston,det_gt,hist", GOLDEN_TALLIES)
def test_golden_tallies(field, split, k, family, ppt, johnston, det_gt, hist):
    spec = SamplerSpec(field=field, n=split[0] * split[1], split=split, k=k,
                       family=family, seed=2027)
    tally, _ = run_experiment(ExperimentConfig(sampler=spec, target_samples=131_072,
                                               streams=2))
    assert tally.counts_dict() == {
        "samples": 131_072, "ppt_hits": ppt, "johnston_hits": johnston,
        "det_gt_hits_given_ppt": det_gt, "neg_eig_histogram": hist,
        "seed": 2027, "stream_ids": [0, 1]}


# estimate_chi_empirical C k=1, 10 bins, on the same grid: per-bin sample
# counts and PPT hits, recorded with the eigvalsh-only classifier
GOLDEN_CHIFIT_TOTALS = [92, 3483, 16044, 28711, 31505, 25069, 15954, 7543, 2360, 311]
GOLDEN_CHIFIT_HITS = [2, 216, 2263, 7331, 12529, 13739, 11161, 6258, 2192, 303]


def test_golden_chi_fit_table():
    table = estimate_chi_empirical("C", 1, 10, 131_072, seed=2027, streams=2)
    assert [row["n"] for row in table["rows"]] == GOLDEN_CHIFIT_TOTALS
    assert [round(row["rate"] * row["n"]) for row in table["rows"]] == GOLDEN_CHIFIT_HITS
    assert table["discarded"] == 0
