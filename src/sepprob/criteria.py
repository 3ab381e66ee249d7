"""Per-sample classification: PPT, negative PT eigenvalues, determinant test,
and separability from spectrum.

The PSD decision uses min eigenvalue >= -1e-13 * trace; the PPT boundary
has measure zero under every sampled measure, so this cannot bias the
estimates, and the symmetric tolerance avoids one-sided rounding drift.
Ties in the strict determinant and spectrum inequalities classify False
(also measure-zero).

The reference path (``_classify_eigvalsh``) applies that rule to LAPACK
spectra of rho^PT and rho.  ``classify_batch`` reaches the same verdicts
from an unpivoted LDL^H factorisation A = L D L^H of A = rho^PT: by
Sylvester's law of inertia A has as many negative eigenvalues as D has
negative pivots, and det A is the pivot product.  A row's pivots are
trusted only under this certificate:

* The computed factors are exact for A + E, E Hermitian with
  |E| <= gamma |L||D||L^H| (elimination without pivoting), so
  ||E||_2 <= gamma g with g = sum_k |d_k| ||l_k||^2.  gamma <= ROUNDING
  (c n u with c <= 100, n <= 64), which also bounds LAPACK's eigenvalue
  error per unit ||A||_2 <= ||rho||_F <= 1.
* |det| is |lambda|_min times the other n-1 moduli, and by AM-GM those
  multiply to at most (||A + E||_F^2 / (n-1))^((n-1)/2).  So every
  eigenvalue of A + E has modulus >= mu = |prod d| ((n-1)/F^2)^((n-1)/2),
  F = ||A||_F + sqrt(n) ROUNDING g.  (Ostrowski's |lambda|_min >=
  sigma_min(L)^2 min|d| needs a bound on sigma_min(L); unpivoted LDL^H of
  an indefinite matrix grows L, and such bounds left most rows uncertified.)
* Certified means finite pivots and mu >= CERT_FLOOR (1 + g).  Then
  ||E|| <= 1e-3 mu, so by Weyl no eigenvalue crosses zero between A + E
  and A, and every eigenvalue of A, and every LAPACK eigenvalue, is at
  least ~1e-9 >> PSD_TOL away from zero: the pivot signs give exactly the
  count the reference rule gives.

The tally reads det(rho^PT) > det(rho) only on PPT rows, so ``det_gt``,
like ``johnston``, is PPT-conditioned and the spectrum of rho, for the
Johnston test and det(rho), is computed only there.  The input's dimension
chooses how: certified PPT rows run eigvalsh(rho), except for n = 4, where
the spectrum comes from the characteristic quartic (below).  The
reference's det(rho) sits below zero only by rounding, at most
ROUNDING (n-1)^(1-n), and PPT rows whose determinants lie within that plus
DET_TIE_RTOL (relative) of a tie are not certified.  That relative margin
is a practical one, far above the few-ulp error either determinant
carries on certified rows, not a worst-case bound.  On a split with a
factor of dimension 1, rho^PT is rho or rho^T = conj(rho); the
determinants tie exactly, and so do the reference's products, since
rounding to nearest commutes with conjugation and LAPACK's spectrum of
conj(rho) is bit for bit that of rho.  det_gt is False there, and no row
is refused for the tie (``_det_gt``, for both classifiers).  Every
uncertified row takes the reference path.

For n = 4 the power sums p_j = tr rho^j, j <= 4, give the coefficients
e1..e4 of p(x) = det(x - rho) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4 by
Newton's identities (``_power_sums``: rho^2 from its upper triangle, then
p3 = Re <rho^2, rho>_F and p4 = ||rho^2||_F^2), and Ferrari's method, its
resolvent cubic solved by the cosine rule, gives four roots, each then
polished by one Newton step (``_quartic_spectra``).  A row's spectrum is
trusted only under this certificate:

* Let p_hat be the computed quartic, evaluated by Horner's rule.  For a
  state, |rho_ij| <= 1 and |p_j| <= 1, so each computed p_j is within a
  few tens of u of the exact one, Newton's identities (|e_j| <= 1) keep
  each e_j within a few hundred u, and Horner's rule adds at most
  8 u sum |e_j|: |p(x) - p_hat(x)| <= E = CHARPOLY_ERR (~7e4 u) for
  |x| <= 1, with a wide margin.
* Each root x_i is bracketed by x_i -/+ delta_i, delta_i = 4E/|p_hat'|
  at the Newton step, with the ends clipped to [-1, 1].  The row is
  certified when at every bracket end |p_hat| > E with the sign that four
  ascending simple roots give a monic quartic, (+, -), (-, +), (+, -),
  (-, +), and the four brackets are disjoint.  Then p itself changes sign
  across each bracket, so each holds an eigenvalue of the stored state,
  and, being four and disjoint, exactly one: the ascending x_i are each
  within delta_i of the ascending exact spectrum, and LAPACK's within
  delta_i + ROUNDING of it.
* Johnston's test is evaluated with every eigenvalue moved by
  max delta_i + 2 ROUNDING for it, and again against it, as for X-states
  below; where the two agree the reference agrees with them.
* det(rho) is e4 = p_hat(0), within E of the exact determinant, and E is
  added to the tie margin above.
* Every comparison with a NaN is false, so a row with a non-finite value
  is uncertified.

States arrive in blocks of ``GRAM_BLOCK``, laid out (n, n, m) with the
matrix index last, as the sampler writes them (``classify_blocks``); a
(count, n, n) stack is read through transposed views of its blocks
(``classify_batch``).  Each block's partial transpose is written into the
LDL^H buffer, and every elimination step updates the whole block at once.
Of each block only the certified PPT rows and the uncertified rows are
copied out, a copy of each per block (``_gather``).  After the last block
the PPT copies are joined into one stack for eigvalsh, or for n = 4 the
closed form.  The rows a certificate leaves open, in any of the three
classifiers, go to one reference call, whose verdicts replace the fast
path's there (``_settle``).

A ``run_experiment`` chunk tallies every verdict and runs every stage
above (``classify_blocks``).  A chi-fit chunk reads only is_ppt, so it runs
the LDL^H inertia alone (``ppt_blocks``): only the uncertified rows are
copied out, into one reference call.  X-state chunks run neither (below).

X-states skip the matrices (``classify_x_states``).  An X-state is a
direct sum of the 2 x 2 pair blocks [[p_i, z], [conj z, p_j]], j = n-1-i,
and of the centre p_c of odd n.  Its partial transpose is another such sum
with the same diagonal, the anti-diagonal entries moved between pairs
(``_x_pair_map``).  So both spectra are pair spectra,
lam_+ = (p_i + p_j)/2 + sqrt(((p_i - p_j)/2)^2 + |z|^2) and
lam_- = (p_i p_j - |z|^2) / lam_+, and both determinants are products of
pair determinants p_i p_j - |z|^2 (times p_c).  A row's verdicts are
trusted only under this certificate:

* lam_+ sums nonnegative terms, and lam_- divides by lam_+ a difference of
  terms at most lam_+^2, so each computed eigenvalue is within a few ulp of
  lam_+ <= 1 of the exact eigenvalue of the very matrix the reference
  factors; LAPACK's is within ROUNDING of it.  The two differ by less than
  2 ROUNDING.
* The negative count stands when no partial-transpose eigenvalue lies
  within 2 ROUNDING of -PSD_TOL: each is then on the reference's side of
  the threshold.
* det_gt takes the LDL^H path's tie rule (``_det_gt``).
* Johnston's test is evaluated on the sorted closed-form spectrum with
  every eigenvalue moved by 2 ROUNDING for it, and again against it.
  Sorting moves no eigenvalue further than the largest error, and the
  test is monotone in each sorted eigenvalue, so where the two agree the
  reference agrees with them.

Rows are classified ``X_SLICE`` at a time, laid out with the entry index
first so that the reductions over a row's entries run along the slice.
Only the uncertified rows of a slice are assembled, for the reference.
"""
from __future__ import annotations

import numpy as np

from .linalg import partial_transpose_batch
from .sampling import GRAM_BLOCK, _x_state_matrices

PSD_TOL = 1e-13  # scaled by the (unit) trace
ROUNDING = 1e-12  # c n u, c <= 100, n <= 64: backward error per unit scale
CERT_FLOOR = 1e-9  # least certified |eigenvalue| per unit of LDL^H growth
DET_TIE_RTOL = 1e-8  # closer determinants take the reference path
CHARPOLY_ERR = 8 * ROUNDING  # E >= |p - p_hat| on [-1, 1], 4 x 4 characteristic quartic
X_SLICE = 4096  # rows per slice of the closed-form X-state classifier

_IU, _JU = np.triu_indices(4)  # the upper triangle of a 4 x 4 matrix
_TRI_WEIGHT = np.where(_IU == _JU, 1.0, 2.0)[:, None]  # off the diagonal: entry and mirror
# the quartic's signs at the (lower, upper) ends of the ascending root brackets
_BRACKET_SIGN = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])[:, :, None]


def _johnston_rows(rho_eigs: np.ndarray, n: int, slack: float = 0.0) -> np.ndarray:
    """Johnston's separability-from-spectrum test for 2 x m states, n = 2m,
    on rows of ascending spectra of the states themselves.

    True iff lambda_1 < lambda_(n-1) + 2 sqrt(lambda_(n-2) lambda_n) holds
    strictly for the descending eigenvalues.  A nonzero ``slack`` moves every
    eigenvalue by it in the direction that favours the inequality, so that
    +s (-s) gives whether the test holds for some (every) spectrum within s
    of each sorted eigenvalue.
    """
    lam = rho_eigs[:, ::-1]  # descending
    prod = (np.clip(lam[:, n - 3] + slack, 0.0, None)
            * np.clip(lam[:, n - 1] + slack, 0.0, None))
    return lam[:, 0] - slack < lam[:, n - 2] + slack + 2.0 * np.sqrt(prod)


def _det_gt(det_pt: np.ndarray, det_rho: np.ndarray, dA: int, dB: int,
            err: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """det(rho^PT) > det(rho) per row, and the rows whose determinants lie
    far enough apart that it reads the same from the reference's LAPACK
    spectra.

    The reference's det(rho) is off by rounding, and dips below zero by at
    most ROUNDING (n-1)^(1-n); rows closer to a tie, widened by ``err``, an
    absolute bound on the error of ``det_rho``, take the reference.  On a
    split with a factor of dimension 1 the determinants tie exactly (see
    the module notes): det_gt is False and every row is settled.
    """
    if min(dA, dB) == 1:
        gt = np.zeros(det_pt.shape, dtype=bool)
        return gt, ~gt
    n = dA * dB
    margin = (DET_TIE_RTOL * np.maximum(np.abs(det_pt), np.abs(det_rho))
              + ROUNDING * (n - 1.0) ** (1 - n) + err)
    return det_pt > det_rho, np.abs(det_pt - det_rho) > margin


def _classify_eigvalsh(rhos: np.ndarray, dA: int, dB: int) -> dict[str, np.ndarray]:
    """Reference path: full spectra of rho^PT and rho for every row."""
    pt = partial_transpose_batch(rhos, dA, dB, side="B")
    pt_eigs = np.linalg.eigvalsh(pt)
    rho_eigs = np.linalg.eigvalsh(rhos)
    neg = np.count_nonzero(pt_eigs < -PSD_TOL, axis=-1)
    is_ppt = neg == 0
    det_gt = (np.prod(pt_eigs, axis=-1) > np.prod(rho_eigs, axis=-1)) & is_ppt
    if dA == 2 or dB == 2:
        johnston = _johnston_rows(rho_eigs, dA * dB) & is_ppt
    else:
        johnston = np.zeros(rhos.shape[0], dtype=bool)
    return {"is_ppt": is_ppt, "neg_pt_eigs": neg, "det_gt": det_gt,
            "johnston": johnston}


def _power_sums(rhos: np.ndarray) -> tuple[np.ndarray, ...]:
    """tr A^j, j = 1, ..., 4, of a stack of Hermitian 4 x 4 states, shape
    (m, 4, 4): ||A||_F^2 and A^2 from their upper triangles, then
    tr A^3 = Re <A^2, A>_F and tr A^4 = ||A^2||_F^2."""
    m = rhos.shape[0]
    a = rhos.transpose(1, 2, 0)  # entry index first, a view
    sq = np.empty((_IU.size, m), dtype=a.dtype)  # (A^2)_ij, i <= j
    for t, (i, j) in enumerate(zip(_IU, _JU)):
        np.multiply(a[i, 0], a[0, j], out=sq[t])
        for k in range(1, 4):
            sq[t] += a[i, k] * a[k, j]

    def tri_sum(x):  # over the upper triangle, the (re, im) pairs over C
        return (_TRI_WEIGHT * x).sum(axis=0).reshape(m, -1).sum(axis=1)

    up, fsq = a[_IU, _JU].view(float), sq.view(float)
    p1 = a[range(4), range(4)].real.sum(axis=0)
    return p1, tri_sum(np.square(up)), tri_sum(fsq * up), tri_sum(np.square(fsq))


def _quartic_spectra(rhos: np.ndarray):
    """Spectra of a stack of Hermitian 4 x 4 states, shape (m, 4, 4), from
    their characteristic quartics, with the certificate of the module notes.

    Returns (lam, det, cert, slack): lam of shape (m, 4) ascending; det the
    quartic's e4, within CHARPOLY_ERR of det(rho); and, on certified rows,
    each lam within slack - ROUNDING of the exact eigenvalue of the stored
    state, so within slack of LAPACK's.  Rows are taken ``GRAM_BLOCK`` at
    a time.
    """
    m = rhos.shape[0]
    lam = np.empty((4, m))
    det = np.empty(m)
    cert = np.empty(m, dtype=bool)
    slack = np.empty(m)
    for lo in range(0, m, GRAM_BLOCK):
        s = slice(lo, lo + GRAM_BLOCK)
        p1, p2, p3, p4 = _power_sums(rhos[s])
        # Newton's identities: p_hat(x) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4
        e1 = p1
        e2 = (e1 * p1 - p2) / 2
        e3 = (e2 * p1 - e1 * p2 + p3) / 3
        e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4
        # Ferrari: x = y + c gives y^4 + P y^2 + Q y + R, whose resolvent cubic
        # u^3 + 2P u^2 + (P^2 - 4R) u - Q^2 has the roots (y_i + y_j)^2 >= 0,
        # here from t^3 + pp t + qq, u = t - 2P/3, by the cosine rule
        c = e1 / 4
        P = e2 - 6 * c * c
        Q = 2 * c * e2 - 8 * c**3 - e3
        R = e4 - c * e3 + c * c * e2 - 3 * c**4
        pp = -P * P / 3 - 4 * R
        qq = -2 * P**3 / 27 + 8 * P * R / 3 - Q * Q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # NaN: uncertified
            r = np.sqrt(np.maximum(-pp / 3, 0.0))
            phi = np.arccos(np.clip(-qq / (2 * r**3), -1.0, 1.0)) / 3
            cos, sin = np.cos(phi), np.sqrt(3.0) * np.sin(phi)
            u = np.stack((2 * cos, sin - cos, -sin - cos)) * r - 2 * P / 3  # descending
            big, mid, small = np.sqrt(np.maximum(u, 0.0))
            small = np.copysign(small, -Q)  # the product of the three is -Q
            x = np.stack((-big - mid + small, mid - big - small, big - mid - small,
                          big + mid + small)) / 2 + c  # ascending
            # one Newton step; the brackets x -/+ 4E/|p_hat'|, inside [-1, 1]
            f = (((x - e1) * x + e2) * x - e3) * x + e4
            df = ((4 * x - 3 * e1) * x + 2 * e2) * x - e3
            x -= f / df
            half = 4 * CHARPOLY_ERR / np.abs(df)
            ends = np.clip(np.stack((x - half, x + half)), -1.0, 1.0)
            f = (((ends - e1) * ends + e2) * ends - e3) * ends + e4
            ok = (np.all(_BRACKET_SIGN * f > CHARPOLY_ERR, axis=(0, 1))
                  & np.all(ends[1, :3] < ends[0, 1:], axis=0))
        # uncertified rows, NaN or infinite ones among them, read 0
        cert[s], det[s], lam[:, s] = ok, e4, np.where(ok, x, 0.0)
        slack[s] = np.where(ok, half.max(axis=0) + 2 * ROUNDING, 0.0)
    return lam.T, det, cert, slack


def _block_inertia(blocks, dA: int, dB: int):
    """Unpivoted LDL^H of the partial transposes (over B) of blocks of states.

    For each (lo, w) of ``blocks``, w of shape (n, n, m) with the matrix
    index last, yields (lo, w, neg, det, cert): the negative-pivot count,
    the pivot product det(rho^PT) and a per-row certificate that the count
    is the one the eigvalsh reference would report (see the module notes).
    ``w`` is left untouched.  Each partial transpose is an index permutation
    of its block, written straight into the factorisation buffer, and every
    update runs along the block; the buffers are reused by every block of
    the same size.
    """
    n = dA * dB
    a = None
    for lo, w in blocks:
        m = w.shape[-1]
        if a is None or a.shape[-1] != m:
            a = np.empty((n, n, m), dtype=w.dtype)
            mag = np.empty((n, n, m))
            piv = np.empty((n, m))
            u = np.empty((n, m), dtype=w.dtype)
            step = np.empty((n, m), dtype=w.dtype)
        # a[(a1 b1), (a2 b2)] = rho[(a1 b2), (a2 b1)]
        a.reshape(dA, dB, dA, dB, m)[...] = w.reshape(dA, dB, dA, dB, m).transpose(0, 3, 2, 1, 4)
        fro2 = np.square(np.abs(a, out=mag), out=mag).sum(axis=(0, 1))  # ||A||_F^2
        growth = np.zeros(m)  # sum_k |d_k| ||l_k||^2 >= || |L||D||L^H| ||_2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j in range(n):
                d = a[j, j].real
                piv[j] = d
                row = np.divide(a[j, j + 1:], d, out=u[:n - j - 1])  # row j of L^H
                growth += np.abs(d) * (1.0 + np.square(np.abs(row)).sum(axis=0))
                lead = a[j, j + 1:].conj()
                for i in range(j + 1, n):
                    a[i, i:] -= np.multiply(lead[i - j - 1], row[i - j - 1:], out=step[:n - i])
            det = np.prod(piv, axis=0)
            # |det| over the AM-GM bound on the other n-1 singular values
            fro = np.sqrt(fro2) + np.sqrt(n) * ROUNDING * growth
            mu = np.abs(det) * ((n - 1) / fro**2) ** ((n - 1) / 2)
            cert = (mu >= CERT_FLOOR * (1.0 + growth)) & np.isfinite(piv).all(axis=0)
        yield lo, w, np.count_nonzero(piv < 0, axis=0), det, cert


def _gather(parts: list, lo: int, w: np.ndarray, mask: np.ndarray) -> None:
    """Append to ``parts`` the rows i of block w, shape (n, n, m), where
    ``mask``, if any: their states lo + i and a (rows, n, n) copy of them,
    which outlives the block."""
    rows = np.flatnonzero(mask)
    if rows.size:
        parts.append((lo + rows, w[:, :, rows].transpose(2, 0, 1)))


def _settle(out: dict, parts: list, dA: int, dB: int) -> dict:
    """Overwrite ``out``'s verdicts with the reference's on the rows no
    certificate settled, given as (states, matrices) parts, a block at a
    time; one eigvalsh reference call covers them all."""
    if parts:
        states, mats = map(np.concatenate, zip(*parts))
        ref = _classify_eigvalsh(mats, dA, dB)
        for key, verdict in out.items():
            verdict[states] = ref[key]
    return out


def classify_blocks(blocks, count: int, dA: int, dB: int) -> dict[str, np.ndarray]:
    """Verdicts for ``count`` states given as (lo, w) blocks (the Monte Carlo
    hot path), w of shape (n, n, m) holding states lo, ..., lo + m - 1.

    Returns boolean/int arrays over the states: is_ppt, neg_pt_eigs, det_gt,
    johnston.  The det_gt and johnston entries are PPT-conditioned (False
    on every non-PPT row); johnston is identically False for systems with
    no two-level factor.  Each block is factored as it arrives, so a
    generator of blocks is never held whole; rows the certificates cannot
    settle take the eigvalsh reference path (see the module notes).
    """
    n = dA * dB
    neg = np.empty(count, dtype=np.intp)
    det_pt = np.empty(count)
    ppt, open_rows = [], []  # the certified PPT rows, and the uncertified ones
    for lo, w, neg_w, det_w, cert in _block_inertia(blocks, dA, dB):
        blk = slice(lo, lo + w.shape[-1])
        neg[blk], det_pt[blk] = neg_w, det_w
        _gather(ppt, lo, w, cert & (neg_w == 0))
        _gather(open_rows, lo, w, ~cert)

    det_gt = np.zeros(count, dtype=bool)
    johnston = np.zeros(count, dtype=bool)
    if ppt:
        rows, mats = map(np.concatenate, zip(*ppt))
        del ppt  # the per-block copies, now joined
        det_pt_rows = det_pt[rows]
        if n == 4:  # certified closed form (see the module notes)
            rho_eigs, det_rho, ok, slack = _quartic_spectra(mats)
            err = CHARPOLY_ERR
        else:  # LAPACK's own spectra: nothing to certify but the tie
            rho_eigs = np.linalg.eigvalsh(mats)
            det_rho, ok, slack, err = np.prod(rho_eigs, axis=-1), True, 0.0, 0.0
        det_gt[rows], settled = _det_gt(det_pt_rows, det_rho, dA, dB, err)
        ok &= settled
        if dA == 2 or dB == 2:
            johnston[rows] = _johnston_rows(rho_eigs, n, -slack)
            ok &= johnston[rows] == _johnston_rows(rho_eigs, n, slack)
        if not ok.all():
            open_rows.append((rows[~ok], mats[~ok]))
    out = {"is_ppt": neg == 0, "neg_pt_eigs": neg, "det_gt": det_gt, "johnston": johnston}
    return _settle(out, open_rows, dA, dB)


def ppt_blocks(blocks, count: int, dA: int, dB: int) -> np.ndarray:
    """The is_ppt verdicts of :func:`classify_blocks` for the same blocks,
    from the pivot counts alone; uncertified rows take the reference path."""
    is_ppt = np.empty(count, dtype=bool)
    open_rows = []
    for lo, w, neg, _det, cert in _block_inertia(blocks, dA, dB):
        is_ppt[lo:lo + w.shape[-1]] = neg == 0
        _gather(open_rows, lo, w, ~cert)
    return _settle({"is_ppt": is_ppt}, open_rows, dA, dB)["is_ppt"]


def classify_batch(rhos: np.ndarray, dA: int, dB: int) -> dict[str, np.ndarray]:
    """Vectorized verdicts for a stack of states, shape (count, n, n): the
    :func:`classify_blocks` verdicts of its ``GRAM_BLOCK``-row blocks."""
    blocks = ((lo, rhos[lo:lo + GRAM_BLOCK].transpose(1, 2, 0))
              for lo in range(0, rhos.shape[0], GRAM_BLOCK))
    return classify_blocks(blocks, rhos.shape[0], dA, dB)


def _x_pair_map(dA: int, dB: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the partial transpose (over B) of an X-state on a (dA, dB)
    split takes its anti-diagonal from.

    rho^PT is again an X-state with rho's diagonal; pair i of rho^PT holds
    z[:, src[i]] of rho, conjugated where ``conj[i]``.  Read off the one
    partial transpose, applied to a matrix of signed pair labels.
    """
    n = dA * dB
    i = np.arange(n // 2)
    label = np.zeros((n, n))
    label[i, n - 1 - i] = i + 1
    label[n - 1 - i, i] = -(i + 1)
    moved = partial_transpose_batch(label, dA, dB)[i, n - 1 - i]
    return np.abs(moved).astype(np.intp) - 1, moved < 0


def _pair_spectra(a: np.ndarray, b: np.ndarray, q: np.ndarray):
    """Eigenvalues (lam_plus, lam_minus) of [[a, z], [conj z, b]], q = |z|^2,
    for a, b >= 0: lam_minus is the determinant over lam_plus, free of the
    cancellation in mean - radius."""
    plus = 0.5 * (a + b) + np.sqrt(np.square(0.5 * (a - b)) + q)
    return plus, (a * b - q) / plus


def classify_x_states(diag: np.ndarray, z: np.ndarray, dA: int,
                      dB: int) -> dict[str, np.ndarray]:
    """The :func:`classify_blocks` verdicts for X-states given by their
    diagonals and anti-diagonals, as ``sampling._x_state_draws`` returns
    them, from the closed-form pair spectra of rho and rho^PT.

    Rows the certificates cannot settle (see the module notes) are
    assembled and take the eigvalsh reference path.
    """
    count, n = diag.shape
    h = n // 2
    src = _x_pair_map(dA, dB)[0]  # |z| alone sets the spectra
    neg = np.empty(count, dtype=np.intp)
    det_gt = np.zeros(count, dtype=bool)
    johnston = np.zeros(count, dtype=bool)
    open_rows = []
    for lo in range(0, count, X_SLICE):
        s = slice(lo, lo + X_SLICE)
        d = diag[s].T.copy()  # entry index first
        q = np.square(np.abs(z[s].T))  # |z|^2
        a, b, c = d[:h], d[::-1][:h], d[h:n - h]  # pair (i, n-1-i); centre
        q_pt = q[src]
        with np.errstate(divide="ignore", invalid="ignore"):  # a NaN row is uncertified
            pt_eigs = np.concatenate((*_pair_spectra(a, b, q_pt), c))
            rho_eigs = np.concatenate((*_pair_spectra(a, b, q), c))
        neg[s] = np.count_nonzero(pt_eigs < -PSD_TOL, axis=0)
        ppt = neg[s] == 0
        ok = np.all(np.abs(pt_eigs + PSD_TOL) > 2.0 * ROUNDING, axis=0)
        ab, pc = a * b, np.prod(c, axis=0)
        det_pt = np.prod(ab - q_pt, axis=0) * pc
        det_rho = np.prod(ab - q, axis=0) * pc
        gt, settled = _det_gt(det_pt, det_rho, dA, dB)
        det_gt[s] = ppt & gt
        ok &= ~ppt | settled
        if dA == 2 or dB == 2:
            lam = np.sort(rho_eigs.T, axis=1)
            surely = _johnston_rows(lam, n, -2.0 * ROUNDING)
            johnston[s] = ppt & surely
            ok &= ~ppt | (surely == _johnston_rows(lam, n, 2.0 * ROUNDING))
        rows = lo + np.flatnonzero(~ok)
        if rows.size:
            open_rows.append((rows, _x_state_matrices(diag[rows], z[rows])))

    out = {"is_ppt": neg == 0, "neg_pt_eigs": neg, "det_gt": det_gt, "johnston": johnston}
    return _settle(out, open_rows, dA, dB)
