"""Convergence-rate certificates and probabilistic error bounds.

Everything here needs only the worst-case (all-maximal-delay) deflated
mode and, for the mean-error checks, the enumeration-free expected
matrix. Nothing enumerates modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LyapunovError(RuntimeError):
    """Discrete Lyapunov solve failed (unstable input or bad residual)."""


class HorizonExhaustedError(RuntimeError):
    """Matrix powers never dropped below norm 1 within the horizon."""


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius from the dense eigensolver, at every dimension."""
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, from numpy's dense SVD."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class LyapunovCertificate:
    """P > 0 solving W~' P W~ - P = -I, with the derived decay rate.

    ``rate`` = 1 - 1/lambda_max(P) bounds the squared-norm contraction;
    ``k_const`` = lambda_max/lambda_min is the sandwich prefactor.
    """

    p: np.ndarray
    lambda_max: float
    lambda_min: float
    residual: float

    @property
    def rate(self) -> float:
        return 1.0 - 1.0 / self.lambda_max

    @property
    def k_const(self) -> float:
        return self.lambda_max / self.lambda_min


# the Smith iteration stops once an increment's Frobenius norm is below
# this fraction of P's, or fails after this many doublings (W~^(2^64))
_SMITH_TOL = 1e-17
_SMITH_DOUBLINGS = 64


def solve_discrete_lyapunov(w_tilde: np.ndarray) -> LyapunovCertificate:
    """Certificate for a strictly stable deflated mode.

    This is W~'s one stability gate. A positive definite P exists
    exactly when rho(W~) < 1, so a floating-point rho >= 1 is refused
    first; an input past that check must still pass the Smith,
    positive-definiteness and residual checks. Every refusal raises
    ``LyapunovError``.

    Solves W~' P W~ - P = -I by squared Smith iteration: P = sum_k
    (W~')^k W~^k, summed in doublings P <- P + A_j' P A_j, A_(j+1) = A_j^2
    from P = I and A_0 = W~, until an increment is negligible. P is I plus
    a PSD sum, so lambda_min(P) - 1 >= 0 reads the solver's error. The
    residual and positive definiteness are then validated.
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    n = w_tilde.shape[0]
    rho = spectral_radius(w_tilde)
    if rho >= 1.0:
        raise LyapunovError(
            f"spectral radius {rho} >= 1; Lyapunov equation has no PD solution"
        )
    p = np.eye(n)
    a = w_tilde
    with np.errstate(all="ignore"):  # overflow is refused below
        for _ in range(_SMITH_DOUBLINGS):
            increment = a.T @ p @ a
            p += increment
            size = np.linalg.norm(p)
            # an inf or nan in A_j or P, or an overflowing norm, ends here
            if not np.isfinite(size):
                raise LyapunovError("Smith iteration overflowed")
            if np.linalg.norm(increment) <= _SMITH_TOL * size:
                break
            a = a @ a
        else:
            raise LyapunovError(
                f"Smith iteration did not converge in {_SMITH_DOUBLINGS} "
                "doublings"
            )
    p = 0.5 * (p + p.T)
    eigs = np.linalg.eigvalsh(p)
    residual = float(
        np.linalg.norm(w_tilde.T @ p @ w_tilde - p + np.eye(n))
        / np.linalg.norm(p)
    )
    if eigs[0] <= 0:
        raise LyapunovError("solution not positive definite")
    if not residual <= 1e-8:  # a nan residual fails too
        raise LyapunovError(f"relative residual {residual} exceeds 1e-8")
    return LyapunovCertificate(
        p=p,
        lambda_max=float(eigs[-1]),
        lambda_min=float(eigs[0]),
        residual=residual,
    )


def convergence_rate_bound(
    cert: LyapunovCertificate,
    e0_norm: float,
    steps: int,
    k_const: float,
) -> np.ndarray:
    """Per-step bound on ||e_bar(k)||: sqrt(K * rate**k) * ||e(0)||.

    ``cert`` certifies the worst-case mode and gives the rate; ``k_const``
    is the prefactor K (1 when the identity-weighted contraction check
    passed).
    """
    ks = np.arange(steps + 1, dtype=float)
    return np.sqrt(float(k_const) * cert.rate**ks) * e0_norm


def exact_mean_curve(lam: np.ndarray, e0: np.ndarray, steps: int):
    """Mean-error propagation e_bar(k) = Lambda^k e(0), by iteration.

    Returns (vectors, norms): (steps+1, dim) stacked iterates and their
    Euclidean norms.
    """
    e = np.asarray(e0, dtype=float)
    vectors = np.empty((steps + 1, e.shape[0]))
    vectors[0] = e
    for k in range(1, steps + 1):
        e = lam @ e
        vectors[k] = e
    return vectors, np.linalg.norm(vectors, axis=1)


@dataclass(frozen=True)
class MeanContractionReport:
    """Outcome of the identity-weighted contraction check for Lambda.

    ``margin`` <= 0 means lambda_max(Lambda' Lambda) <= 1 - 1/lambda_max(P_m),
    so the bound holds with prefactor K = 1. Otherwise ``k_const`` comes
    from the condition number of the P solving Lambda' P Lambda - P = -I.
    """

    margin: float
    passed: bool
    k_const: float
    lambda_max_p: float
    smallest_singular_value: float


def verify_mean_contraction(
    lam: np.ndarray, cert: LyapunovCertificate
) -> MeanContractionReport:
    """Check Lambda' P Lambda - P <= -I/lambda_max(P_m) with P = I.

    When the identity-weighted check fails, solves Lambda' P Lambda - P
    = -I directly; the reported prefactor is then the condition number
    of that P, and ``lambda_max_p`` lets callers confirm
    lambda_max(P) <= lambda_max(P_m), which keeps the worst-case rate
    applicable.
    """
    svals = np.linalg.svd(np.asarray(lam, dtype=float), compute_uv=False)
    # lambda_max(Lambda' Lambda) is the top singular value squared
    margin = float(svals[0]) ** 2 - (1.0 - 1.0 / cert.lambda_max)
    if margin <= 0:
        k_const = 1.0
        lambda_max_p = 1.0
    else:
        lam_cert = solve_discrete_lyapunov(lam)
        k_const = lam_cert.k_const
        lambda_max_p = lam_cert.lambda_max
    return MeanContractionReport(
        margin=margin,
        passed=margin <= 0,
        k_const=k_const,
        lambda_max_p=lambda_max_p,
        smallest_singular_value=float(svals[-1]),
    )


@dataclass(frozen=True)
class TailConstants:
    """Constants (k0, c0, c1) bounding ||W~_m^k||^4.

    k0 is the first power whose fourth-powered spectral norm drops below
    1, c1 that value, and c0 the maximum over smaller powers. They give
    lambda_max(P~_m) < k0*c0/(1-c1) for the Kronecker-lifted Lyapunov
    solution, hence the second-moment decay rate.
    """

    k0: int
    c0: float
    c1: float

    @property
    def lifted_lambda_max_bound(self) -> float:
        return self.k0 * self.c0 / (1.0 - self.c1)

    @property
    def second_moment_rate(self) -> float:
        return 1.0 - (1.0 - self.c1) / (self.k0 * self.c0)


# the head slots in front of one power in the walk's ring (see _walk)
_RING_HEADS = 8


def _head_rows(later: np.ndarray, keep: np.ndarray) -> int:
    """The number n of rows that a step by ``later`` makes anew.

    At an augmented mode, rows n.. of ``later`` are the buffer shift: rows
    ..dim-n of the identity, with the columns of W~'s zero rows
    (``~keep``) zeroed, and n is the grid size. A step by it copies rows
    ..dim-n of a power into rows n.. exactly, the rows it zeroes being
    zero in every power. A matrix with no such shift makes all dim rows
    anew.
    """
    dim = len(later)
    rows, cols = np.nonzero(later)
    # at a shift, the last nonzero entry is its bottom row's 1.0
    n = int(rows[-1] - cols[-1]) if len(rows) else 0
    if 0 < n < dim and np.array_equal(
        later[n:], np.diag(keep.astype(float))[:dim - n]
    ):
        return n
    return dim


def _walk(w_tilde: np.ndarray, horizon: int):
    """Yield (k, W~^k, new) for k = 0..horizon; rows ..new of W~^k are new.

    Row j of W~^k, k >= 1, is row j of W~ times W~^(k-1), so it is zero
    wherever row j of W~ is, and column j of W~ only ever meets zeros.
    After W~^1 the walk therefore steps by W~ with those columns zeroed;
    at the paper's modes they include Psi's two dense columns. The
    dropped terms are a*0.0, so each power is W~ @ W~^k bit for bit.

    That step's rows n.. copy the previous power's rows ..dim-n (see
    ``_head_rows``), so a power computes only its n head rows, with one
    sparse product, written in place into a latest-first ring of rows:
    W~^k is the dim contiguous rows from its head, and the previous
    power's rows follow it. When the ring's front is reached, the power
    is carried to the ring's tail. A yielded power is a view, valid until
    the walk moves on.
    """
    import scipy.sparse  # kept off the CLI's import path
    # the kernel of a CSR @ dense product, which adds into a given array
    from scipy.sparse._sparsetools import csr_matvecs
    dim = w_tilde.shape[0]
    keep = w_tilde.any(axis=1)
    later = w_tilde.copy()
    later[:, ~keep] = 0.0
    n = _head_rows(later, keep)
    head = scipy.sparse.csr_array(later[:n])
    tail = _RING_HEADS * n  # where W~^1, and each carried power, sits
    ring = np.empty((tail + dim, dim))
    yield 0, np.eye(dim), dim
    if horizon < 1:
        return
    ring[tail:] = w_tilde
    top = tail  # W~^k is ring[top:top + dim]
    yield 1, ring[tail:], dim
    for k in range(2, horizon + 1):
        if top < n:  # carry the power to the tail, to make room for a head
            ring[tail:] = ring[top:top + dim]
            top = tail
        rows = ring[top - n:top]
        rows.fill(0.0)
        csr_matvecs(n, dim, dim, head.indptr, head.indices, head.data,
                    ring[top:top + dim].reshape(-1), rows.reshape(-1))
        top -= n
        yield k, ring[top:top + dim], n


def tail_constants(w_tilde: np.ndarray, horizon: int = 100_000) -> TailConstants:
    """Find (k0, c0, c1) by walking powers of the worst-case mode.

    A power's spectral norm is read only where it can matter: a power
    with ||W~^k||_F^4 <= c0 cannot raise c0, and one with ||W~^k u|| >= 1
    for the unit warm-start vector u has norm >= 1, so it is not k0.
    Both sums run over per-row terms kept latest first, as the walk keeps
    the rows: a power computes the terms of its new rows only, and those
    of ||W~^k u|| anew only after u changes.
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    dim = w_tilde.shape[0]
    c0 = 1.0
    # the smallest ||W~^k||^4 over k >= 1, computed and skipped ones apart;
    # a skipped power only has the lower bound ||W~^k u||^4 >= 1
    smallest = at_least = np.inf
    u = None  # warm start for the singular-vector iteration
    frobenius = np.empty(dim)  # the squared norms of W~^k's rows
    gains = None  # the squares of W~^k u, or None after u changes
    for k, m, new in _walk(w_tilde, horizon):
        frobenius[new:] = frobenius[:dim - new]
        # by einsum: a BLAS dot would run on every thread
        np.einsum("ij,ij->i", m[:new], m[:new], out=frobenius[:new])
        if u is not None and frobenius.sum() ** 2 <= c0:
            if gains is None:
                gains = np.square(m @ u)
            else:
                gains[new:] = gains[:dim - new]
                np.square(m[:new] @ u, out=gains[:new])
            gain = float(np.sqrt(gains.sum()))
            if gain >= 1.0:
                at_least = min(at_least, gain**4)
                continue
        norm_k, u = _top_singular_value(m, u)
        gains = None
        fourth = norm_k**4
        if fourth < 1.0:
            # confirm against the full SVD before committing to k0
            fourth = spectral_norm(m) ** 4
            if fourth < 1.0:
                return TailConstants(k0=k, c0=c0, c1=fourth)
        if k:
            smallest = min(smallest, fourth)
        c0 = max(c0, fourth)
    seen = (f"{smallest}, computed" if smallest <= at_least
            else f"at least {at_least}, a lower bound")
    raise HorizonExhaustedError(
        f"||W~^k||^4 never dropped below 1 within {horizon} powers "
        f"(smallest for k >= 1: {seen})"
    )


# relative change of the power iteration's estimate taken as converged
_SINGULAR_TOL = 1e-12


def _top_singular_value(m: np.ndarray, u0=None):
    """Largest singular value by power iteration on M'M, warm-started.

    Falls back on the dense SVD for small matrices where it is cheap.
    """
    n = m.shape[0]
    if n <= 64 or u0 is None:
        # seed the next warm start with the top right singular vector
        _, s, vt = np.linalg.svd(m)
        return float(s[0]), vt[0]
    u = u0 / np.linalg.norm(u0)
    s = 0.0
    stable = 0
    for _ in range(1000):
        v = m @ u
        w = m.T @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, u
        s_new = float(np.sqrt(nw))
        u_new = w / nw
        converged = abs(s_new - s) <= _SINGULAR_TOL * max(s_new, 1.0)
        stable = stable + 1 if converged else 0
        u, s = u_new, s_new
        if stable >= 2:
            break
    return s, u


def error_probability_bound(
    tc: TailConstants,
    e0: np.ndarray,
    epsilon: float,
    steps: int,
) -> np.ndarray:
    """min(1, beta(k)) bounding Pr(||e(k)||^2 > epsilon), for k = 0..steps.

    beta(k) = (sqrt(dim) / epsilon) * rate**(k/2) * ||e(0)||^2, with dim
    = len(e0), the augmented dimension (the vec(I) factor), and rate the
    second-moment rate from the tail constants.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    e0 = np.asarray(e0, dtype=float)
    y0_norm = float(np.dot(e0, e0))  # ||vec(e0 e0')|| = ||e0||^2
    ks = np.arange(steps + 1, dtype=float)
    beta = (
        np.sqrt(e0.shape[0]) / epsilon
        * tc.second_moment_rate ** (ks / 2.0)
        * y0_norm
    )
    return np.minimum(1.0, beta)
