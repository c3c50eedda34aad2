"""Exact SVD precoders, multi-user zero forcing, and power allocation.

The unconstrained design keeps the leading singular triplets of each
user's channel, stacks the left factors across users, and inverts the
resulting stream-coupling matrix with a digital stage so the end-to-end
equivalent channel is diagonal.  Waterfilling (or equal split) then
distributes the transmit budget over the parallel streams.

A channel of L paths is ``A_tx diag(c) A_rx^H`` with thin steering
matrices, so :func:`factored_svd` takes its singular triplets from thin
QRs of the two factors and the SVD of the at most L x L core, and keeps
only the numerically non-zero ones: no singular vector is an arbitrary
completion of a null space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularCouplingError

__all__ = [
    "TruncatedSvd",
    "MuExactSet",
    "truncated_svd",
    "factored_svd",
    "mu_assemble",
    "mu_digital_precoder",
    "equivalent_channel",
    "allocate_power",
]

_MAX_CONDITION = 1e12


@dataclass
class TruncatedSvd:
    """Top-R singular triplets of one channel matrix.

    ``left`` is (n_tx, R) and ``right`` is (n_rx, R), both with
    orthonormal columns; ``sigmas`` holds the R leading singular values
    in non-increasing order.  Trailing sigmas may be numerically zero
    when R exceeds the matrix rank.  :func:`truncated_svd` and
    :func:`factored_svd` build the factors from an SVD and QRs, so their
    shapes, order and orthonormality are not re-checked here.
    """

    left: np.ndarray
    sigmas: np.ndarray
    right: np.ndarray
    rank_used: int


@dataclass
class MuExactSet:
    """The stacked multi-user factors of per-user truncated SVDs."""

    u_tilde: np.ndarray      # (n_tx, K*R) stacked left factors
    c_bar: np.ndarray        # (K*n_rx, K*R) block-diagonal right factors
    sigma_stack: np.ndarray  # (K*R,)


def _fix_phases(u: np.ndarray, v: np.ndarray) -> None:
    # Make each left singular vector's first non-negligible entry real
    # positive (and rotate the right vector to match) so the factorization
    # is deterministic across LAPACK backends.  All columns at once, bit
    # for bit the per-column loop: hypot rounds as the scalar abs() does
    # (np.abs of an array need not), and each column is scaled as a row of
    # the transpose (a one-element ``u *= rotation`` rounds differently).
    mags = np.abs(u.T, order="C")
    first = (mags > 1e-12 * mags.max(axis=1, keepdims=True)).argmax(axis=1)
    ref = u[first, np.arange(u.shape[1])]
    rotation = np.conj(ref / np.hypot(ref.real, ref.imag))[:, np.newaxis]
    u[...] = (u.T * rotation).T
    v[...] = (v.T * rotation).T


def truncated_svd(h: np.ndarray, rank: int) -> TruncatedSvd:
    """Top-``rank`` singular triplets of ``h`` with a fixed phase convention.

    The squared Frobenius reconstruction error of ``left @ diag(sigmas)
    @ right^H`` equals the energy of the discarded singular values.

    Raises
    ------
    ValueError
        If ``rank`` is outside ``[1, min(h.shape)]``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("h must be a matrix")
    if not 1 <= rank <= min(h.shape):
        raise ValueError(f"rank must be in [1, {min(h.shape)}], got {rank}")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    v = vh.conj().T
    u = u[:, :rank].copy()
    v = v[:, :rank].copy()
    _fix_phases(u, v)
    return TruncatedSvd(left=u, sigmas=s[:rank], right=v, rank_used=rank)


def factored_svd(left: np.ndarray, coeffs, right: np.ndarray, max_rank: int) -> TruncatedSvd:
    """Singular triplets of ``left @ diag(coeffs) @ right^H`` from its small core.

    ``left`` is (n_tx, m) and ``right`` is (n_rx, m) with m small, for
    example the steering matrices of m paths and ``coeffs`` their scaled
    gains.  With thin QRs ``left = Q_l R_l`` and ``right = Q_r R_r``, the
    SVD ``W S Z^H`` of the (at most m x m) core ``R_l diag(coeffs) R_r^H`` gives
    ``U = Q_l W`` and ``V = Q_r Z``.  The result keeps
    ``min(max_rank, numerical rank)`` triplets, at least one, where the
    numerical rank counts singular values above ``s[0] * m * eps`` (the
    ``numpy.linalg.matrix_rank`` default), with the phase convention of
    :func:`truncated_svd`.
    """
    q_l, r_l = np.linalg.qr(np.asarray(left, dtype=complex))
    q_r, r_r = np.linalg.qr(np.asarray(right, dtype=complex))
    w, s, zh = np.linalg.svd((r_l * coeffs) @ r_r.conj().T)
    tolerance = s[0] * max(w.shape[0], zh.shape[0]) * np.finfo(float).eps
    rank = max(1, min(max_rank, int(np.sum(s > tolerance))))
    u = q_l @ w[:, :rank]
    v = q_r @ zh[:rank].conj().T
    _fix_phases(u, v)
    return TruncatedSvd(left=u, sigmas=s[:rank], right=v, rank_used=rank)


def _block_diag(blocks) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def mu_assemble(svds) -> MuExactSet:
    """Stack per-user truncated SVDs into the multi-user factor set.

    All users must share the same rank R and the stacked left factor
    must fit: K*R <= n_tx.
    """
    svds = list(svds)
    if not svds:
        raise ValueError("need at least one user")
    rank = svds[0].rank_used
    if any(s.rank_used != rank for s in svds):
        raise ValueError("all users must share the same rank")
    n_tx = svds[0].left.shape[0]
    if len(svds) * rank > n_tx:
        raise ValueError("stacked rank K*R exceeds the transmit array size")
    u_tilde = np.hstack([s.left for s in svds])
    c_bar = _block_diag([s.right for s in svds])
    sigma_stack = np.concatenate([s.sigmas for s in svds])
    return MuExactSet(u_tilde=u_tilde, c_bar=c_bar, sigma_stack=sigma_stack)


def mu_digital_precoder(p_tilde_d: np.ndarray, p_a: np.ndarray, u_tilde: np.ndarray):
    """Digital zero-forcing stage inverting the stream-coupling matrix.

    Returns ``(inv(T), cond)`` with ``T = p_tilde_d @ p_a @ u_tilde``.
    T is never formed: with the thin QR ``u_tilde = Q R`` and
    ``F = p_tilde_d @ p_a``, ``T = (F Q) R``, so ``inv(T) = inv(R) @
    inv(F Q)``.  When F is close to ``u_tilde^H`` (exact or well
    factorized precoders), T is close to ``u_tilde^H u_tilde`` and its
    condition number is about the square of each factor's, so two users
    with nearly parallel streams make T singular to working precision
    while R and F Q stay invertible.  ``cond`` is the larger of
    ``cond(R)`` and ``cond(F Q)``.

    Raises
    ------
    SingularCouplingError
        If the condition number of R or of F Q exceeds 1e12.
    """
    n_streams = u_tilde.shape[1]
    if p_tilde_d.shape[0] != n_streams:
        raise ValueError(
            f"coupling matrix must be square, got ({p_tilde_d.shape[0]}, {n_streams})"
        )
    if n_streams > u_tilde.shape[0]:
        raise SingularCouplingError(
            f"{n_streams} streams cannot be separated by {u_tilde.shape[0]} antennas"
        )
    q, r = np.linalg.qr(u_tilde)
    fq = p_tilde_d @ (p_a @ q)
    cond = max(float(np.linalg.cond(r)), float(np.linalg.cond(fq)))
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise SingularCouplingError(
            f"stream-coupling matrix is numerically singular (condition {cond:.3e})"
        )
    return np.linalg.solve(r, np.linalg.inv(fq)), cond


def equivalent_channel(
    p_d: np.ndarray,
    p_tilde_d: np.ndarray,
    p_a: np.ndarray,
    h_stack: np.ndarray,
    c_bar: np.ndarray,
) -> np.ndarray:
    """End-to-end stream coupling ``p_d @ p_tilde_d @ p_a @ h_stack @ c_bar``.

    With exact factors (``p_tilde_d @ p_a`` equal to the stacked left
    factor's conjugate transpose, exact block combiner) and an exactly
    low-rank channel this is ``diag(sigma_stack)``; hybrid factors leak
    energy into the off-diagonal entries.
    """
    if p_a.shape[1] != h_stack.shape[0] or h_stack.shape[1] != c_bar.shape[0]:
        raise ValueError(
            f"non-conformable shapes: p_a {p_a.shape}, h_stack {h_stack.shape}, c_bar {c_bar.shape}"
        )
    return p_d @ p_tilde_d @ (p_a @ h_stack @ c_bar)


def allocate_power(gains, budget: float, strategy: str = "waterfilling") -> np.ndarray:
    """Per-stream transmit powers splitting a budget over parallel channels.

    Parameters
    ----------
    gains : array_like
        Effective power gain per stream per unit transmit power
        (positive reals).
    budget : float
        Total transmit power, > 0.
    strategy : str
        "waterfilling" for the exact KKT solution of
        ``max sum log2(1 + p_i * gains_i)``, or "equal".
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0 or np.any(gains <= 0):
        raise ValueError("gains must be non-empty and positive")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if strategy == "equal":
        return np.full(gains.size, budget / gains.size)
    if strategy != "waterfilling":
        raise ValueError(f"unknown allocation strategy: {strategy!r}")

    # Sorted active-set solution: add channels best-first until the next
    # water level would no longer cover the worst active channel.  Levels
    # are measured from the best channel's floor 1/g_max: an active
    # channel's floor lies within the budget of it, so the subtraction is
    # exact or small, and the powers sum to the budget to rounding even
    # when the budget is far below the floors.
    inv_g = 1.0 / gains
    order = np.argsort(inv_g, kind="stable")
    inv_sorted = inv_g[order]
    excess = inv_sorted - inv_sorted[0]
    cumulative = np.cumsum(excess)
    n = gains.size
    for k in range(1, n + 1):
        level = (budget + cumulative[k - 1]) / k
        if k == n or level <= excess[k]:
            break
    powers_sorted = np.zeros(n)
    powers_sorted[:k] = level - excess[:k]
    powers = np.zeros(n)
    powers[order] = powers_sorted
    return powers
