"""Hermitian linear algebra on stacks: partial transpose, determinants, eps."""

import numpy as np
import pytest
import scipy.linalg

from sepprob import criteria
from sepprob.linalg import epsilon_ratio_batch_2x2, partial_transpose_batch


def bell_state() -> np.ndarray:
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi).astype(complex)


def random_density(rng, n, field="C"):
    g = rng.standard_normal((n, n))
    if field == "C":
        g = g + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


def eps_oracle(rho: np.ndarray) -> float:
    """eps of one 4 x 4 state from the generalized eigenproblem (D2, D1):
    the squared singular values of D2^(1/2) D1^(-1/2)."""
    lam = scipy.linalg.eigh(rho[2:, 2:], rho[:2, :2], eigvals_only=True)
    return float(np.sqrt(lam[0] / lam[-1]))


def eps_one(rho) -> float:
    return float(epsilon_ratio_batch_2x2(np.asarray(rho)[None])[0])


def pt_determinants(rho: np.ndarray):
    """det(rho^PT) of one 4 x 4 state as the classifier's two paths compute
    it: the eigvalsh product (reference) and the LDL^H pivot product, with
    the latter's certificate."""
    ref = np.prod(np.linalg.eigvalsh(partial_transpose_batch(rho[None], 2, 2)))
    [(_, _, _, ldl, cert)] = criteria._block_inertia([(0, rho[..., None])], 2, 2)
    return ref, ldl[0], cert[0]


def test_determinant_examples():
    ref, ldl, cert = pt_determinants(np.eye(4, dtype=complex) / 4)
    assert cert and ref == pytest.approx(1 / 256, rel=1e-12)
    assert ldl == pytest.approx(1 / 256, rel=1e-12)
    # the Bell state's PT has a zero leading pivot: only the reference holds
    ref, _, cert = pt_determinants(bell_state())
    assert not cert and ref == pytest.approx(-1 / 16, rel=1e-12)
    ref, _, cert = pt_determinants(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    assert not cert and abs(ref) < 1e-12


def test_partial_transpose_bell():
    pt = partial_transpose_batch(bell_state()[None], 2, 2)[0]
    assert np.linalg.eigvalsh(pt) == pytest.approx((-0.5, 0.5, 0.5, 0.5), abs=1e-12)


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(11)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    ptb = partial_transpose_batch(np.kron(a, b)[None], 2, 3, "B")[0]
    # (a x b)^PT = a x b^T over B, a^T x b over A, the full transpose of it
    for pt, want in ((ptb, np.kron(a, b.T)), (ptb.T, np.kron(a.T, b))):
        assert np.linalg.eigvalsh(pt)[0] > -1e-13
        assert np.max(np.abs(pt - want)) == 0
    with pytest.raises(ValueError, match="side must be 'B'"):
        partial_transpose_batch(np.kron(a, b)[None], 2, 3, "A")


def test_partial_transpose_properties_bulk():
    # trace / Frobenius preservation and A-vs-B spectrum identity, 1e5 states
    rng = np.random.default_rng(5)
    total = 100_000
    for field, (dA, dB) in (("C", (2, 3)), ("R", (2, 3))):
        n = dA * dB
        g = rng.standard_normal((total // 2, n, n))
        if field == "C":
            g = g + 1j * rng.standard_normal((total // 2, n, n))
        w = g @ g.conj().swapaxes(1, 2)
        rho = w / np.trace(w, axis1=1, axis2=2).real[:, None, None]
        ptb = partial_transpose_batch(rho, dA, dB, "B")
        pta = ptb.swapaxes(1, 2)  # over A: the full transpose of the PT over B
        assert np.max(np.abs(np.trace(ptb, axis1=1, axis2=2)
                             - np.trace(rho, axis1=1, axis2=2))) < 1e-12
        assert np.max(np.abs(np.linalg.norm(ptb, axis=(1, 2))
                             - np.linalg.norm(rho, axis=(1, 2)))) < 1e-12
        # involution
        assert np.max(np.abs(partial_transpose_batch(ptb, dA, dB, "B") - rho)) == 0
        sa = np.linalg.eigvalsh(pta)
        sb = np.linalg.eigvalsh(ptb)
        assert np.max(np.abs(sa - sb)) < 1e-10


def test_epsilon_ratio_examples():
    assert eps_one(np.eye(4) / 4) == pytest.approx(1.0)
    rho = np.diag([0.5, 1 / 6, 1 / 6, 1 / 6])
    assert eps_one(rho) == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    assert eps_oracle(rho) == pytest.approx(1 / np.sqrt(3), rel=1e-12)


def test_epsilon_ratio_swap_invariance_and_range():
    rng = np.random.default_rng(13)
    rho = np.stack([random_density(rng, 4) for _ in range(50)])
    eps = epsilon_ratio_batch_2x2(rho)
    assert np.all((eps > 0) & (eps <= 1 + 1e-12))
    swapped = np.block([[rho[:, 2:, 2:], rho[:, 2:, :2]],
                        [rho[:, :2, 2:], rho[:, :2, :2]]])
    assert epsilon_ratio_batch_2x2(swapped) == pytest.approx(eps, rel=1e-9)


def test_epsilon_ratio_scalar_blocks_give_one():
    d1 = np.array([[0.3, 0.05], [0.05, 0.2]])
    rho = np.zeros((4, 4))
    rho[:2, :2] = d1
    rho[2:, 2:] = d1  # D2 = c D1 with c = 1
    rho /= np.trace(rho)
    assert eps_one(rho) == pytest.approx(1.0, rel=1e-12)
    assert eps_oracle(rho) == pytest.approx(1.0, rel=1e-12)
    # random proportional blocks: the discriminant is zero up to rounding,
    # and a slightly negative one must not turn eps into NaN
    rng = np.random.default_rng(23)
    for field in ("R", "C"):
        g = rng.standard_normal((2000, 2, 2))
        if field == "C":
            g = g + 1j * rng.standard_normal((2000, 2, 2))
        d1 = g @ g.conj().swapaxes(1, 2)
        c = rng.uniform(0.1, 3.0, 2000)
        rhos = np.zeros((2000, 4, 4), dtype=d1.dtype)
        rhos[:, :2, :2] = d1
        rhos[:, 2:, 2:] = c[:, None, None] * d1
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        eps = epsilon_ratio_batch_2x2(rhos)
        assert np.isfinite(eps).all(), field
        assert np.abs(1.0 - eps).max() < 1e-4, field


def test_epsilon_ratio_singular_block_is_nan():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert np.isnan(eps_one(rho))  # singular D2
    assert np.isnan(eps_one(rho[::-1, ::-1]))  # singular D1


def test_epsilon_ratio_batch_matches_scalar_path():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
    w = g @ g.conj().swapaxes(1, 2)
    rho = w / np.trace(w, axis1=1, axis2=2).real[:, None, None]
    batch = epsilon_ratio_batch_2x2(rho)
    assert batch == pytest.approx([eps_oracle(r) for r in rho], rel=1e-9)
