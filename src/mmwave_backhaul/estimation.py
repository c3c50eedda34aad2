"""Three-phase compressive channel estimation.

Every measurement is one ``ChannelOracle.observe`` call.  Phase 1
sweeps coarse beam pairs from predefined codebooks and keeps the
strongest transmit beams.  Phase 2 points the transmitter along each
kept beam and samples the whole receive array, one observation per
snapshot against the identity (it costs ``ceil(n / n_chains)`` training
slots, since only a few baseband chains exist); a single-snapshot
matrix-pencil line-spectral estimator turns each snapshot into arrival
directions.  Phase 3 swaps roles to estimate departure directions the
same way.  Each phase takes all of its snapshots first, in beam order,
and then fits them as one stack: the phase's pencils run in lockstep,
and each snapshot gets the fit it would get alone.  A final
least-squares fit on the same observations recovers the coupling gains
between every estimated departure/arrival pair, the dominant pairs
become the path estimate, and the channel is rebuilt from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ArrayGeometry,
    PathSet,
    _channel_scale,
    _db_to_linear,
    assemble_channel,
    steering_matrix,
    steering_vector,
)
from .errors import EstimationFailedError, InsufficientMeasurementsError

__all__ = [
    "Codebook",
    "LineSpectrum",
    "EstimationConfig",
    "EstimationReport",
    "ChannelOracle",
    "dft_codebook",
    "coarse_sweep",
    "array_snapshot",
    "line_spectrum_estimate",
    "estimate_gains",
    "estimate_channel",
]


@dataclass
class Codebook:
    """Beamforming codebook: unit-norm steering columns and their angles."""

    beams: np.ndarray   # (n_elements, size)
    angles: np.ndarray  # (size,) in [0, 2*pi)


@dataclass
class LineSpectrum:
    """Sum-of-exponentials model fitted to one array snapshot.

    ``frequencies`` are normalized spatial frequencies in [-0.5, 0.5);
    ``coefficients`` are the amplitudes against the unit-norm basis
    ``exp(2j*pi*f*m)/sqrt(N)``; ``residual`` is the remaining snapshot
    energy outside the model.  ``lanczos_steps`` is the depth of the
    Lanczos run that gave the leading singular triplets, 0 when the
    dense SVD was taken.
    """

    frequencies: np.ndarray
    coefficients: np.ndarray
    residual: float = 0.0
    lanczos_steps: int = 0

    @property
    def order(self) -> int:
        return self.frequencies.size


@dataclass(frozen=True)
class EstimationConfig:
    """Pipeline knobs: codebook sizes, kept beams, chain counts, observation SNR.

    ``snr_db`` is the observation SNR used by callers that build the
    measurement oracle (relative to the mean power of one channel
    entry); the pipeline itself never adds noise.  In a scenario the
    chain counts and the path loss are the scenario's own.  The pencil's
    rank threshold, the path cap and the merge tolerance are fixed: see
    ``_RANK_THRESHOLD``, ``_MAX_PATHS`` and :func:`_directions`.

    The codebook defaults suit a 512-element macro and 32-element
    small-cell array: critically sampled grids keep the worst-case beam
    straddle of an off-grid path at half a beamwidth (response no worse
    than -3.9 dB), so no path can hide in a sweep null.
    """

    l_ma: int = 512
    l_sm: int = 32
    keep: int = 8
    snr_db: float = 20.0
    # These follow the scenario's chains and path loss, so they are not config keys.
    n_bb_ma: int = field(default=16, metadata={"config_key": False})
    n_bb_sm: int = field(default=4, metadata={"config_key": False})
    path_loss: float = field(default=1.0, metadata={"config_key": False})

    def __post_init__(self):
        for name in ("l_ma", "l_sm", "keep", "n_bb_ma", "n_bb_sm"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.path_loss <= 0:
            raise ValueError("path_loss must be positive")
        if not 0.0 < _db_to_linear(self.snr_db) < np.inf:
            raise ValueError("snr_db must give a finite, positive power ratio 10**(dB/10)")


@dataclass
class EstimationReport:
    """Everything the pipeline learned about one channel.

    ``lanczos_steps_phase3`` holds the ``LineSpectrum.lanczos_steps`` of
    each phase-3 snapshot, in probing order (0 where the dense SVD ran).
    """

    aoas: np.ndarray            # merged arrival angles, strongest first
    aods: np.ndarray            # merged departure angles, strongest first
    gain_matrix: np.ndarray     # (len(aods), len(aoas)) coupling estimate
    paired_paths: PathSet       # dominant coupling entries
    reconstruction: np.ndarray  # (n_tx, n_rx) channel rebuilt from the pairs
    gain_residual: float = 0.0
    slots_phase1: int = 0
    slots_phase2: int = 0
    slots_phase3: int = 0
    lanczos_steps_phase3: tuple = ()

    @property
    def training_slots_used(self) -> int:
        return self.slots_phase1 + self.slots_phase2 + self.slots_phase3


class ChannelOracle:
    """Noisy bilinear measurements of a fixed channel.

    ``observe(tx, rx)`` returns ``rx^H @ h^H @ tx`` plus i.i.d. circular
    complex Gaussian noise of variance ``noise_var`` per entry, one
    fresh draw per call (a real block, then an imaginary block, over the
    result's shape).  A ``tx`` or ``rx`` of ``None`` stands for the
    identity, every element of that array sampled: ``observe(beam,
    None)`` is the receive-array snapshot ``h^H @ beam`` as an (n_rx, 1)
    column, and ``observe(None, beam)`` the (1, n_tx) row ``beam^H @
    h^H``, whose conjugate is the transmit-array snapshot.
    """

    def __init__(self, h: np.ndarray, noise_var: float, rng: np.random.Generator):
        if noise_var < 0:
            raise ValueError("noise_var must be non-negative")
        self._h_herm = np.asarray(h, dtype=complex).conj().T
        self.noise_var = float(noise_var)
        self._rng = rng

    def observe(self, tx: np.ndarray | None, rx: np.ndarray | None) -> np.ndarray:
        clean = self._h_herm if tx is None else self._h_herm @ _columns(tx)
        if rx is not None:
            clean = _columns(rx).conj().T @ clean
        if self.noise_var == 0:
            return clean
        scale = np.sqrt(self.noise_var / 2.0)
        noise = self._rng.standard_normal(clean.shape) + 1j * self._rng.standard_normal(clean.shape)
        return clean + scale * noise


def _columns(probe) -> np.ndarray:
    # A probe as a complex matrix of column beams; one beam is one column.
    probe = np.asarray(probe, dtype=complex)
    return probe[:, None] if probe.ndim == 1 else probe


def _slots(n: int, n_chains: int) -> int:
    # Training slots to sample n elements with n_chains baseband chains.
    return -(-n // n_chains)


def dft_codebook(geom: ArrayGeometry, size: int) -> Codebook:
    """Beams whose pointing directions cover sin-space uniformly.

    Beam m points at ``asin(-1 + (2m+1)/size)``, the midpoints of a
    uniform sin-space grid; every column is a unit-norm steering vector.
    At critical sampling (size == n_elements, half-wavelength spacing)
    the columns are mutually orthogonal.  The arrays are built once per
    (geometry, size) and shared read-only between calls.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    beams, angles = _codebook_arrays(geom, size)
    return Codebook(beams=beams, angles=angles)


@functools.lru_cache(maxsize=4)
def _codebook_arrays(geom: ArrayGeometry, size: int):
    sines = -1.0 + (2.0 * np.arange(size) + 1.0) / size
    angles = np.mod(np.arcsin(sines), 2.0 * np.pi)
    beams = steering_matrix(geom, angles)
    beams.flags.writeable = False
    angles.flags.writeable = False
    return beams, angles


def _strongest_tx_beams(oracle: ChannelOracle, tx_cb: Codebook, rx_cb: Codebook,
                        keep: int) -> list:
    # Phase 1: one observation per (tx beam, rx beam) pair, then the keep
    # transmit beams with the strongest best-over-combiners power, ties by
    # index.  Distinct beams (rather than raw pairs) keep weaker paths with
    # different departure directions in the probing budget.
    best = (np.abs(oracle.observe(tx_cb.beams, rx_cb.beams)) ** 2).max(axis=0)
    return [int(i) for i in np.argsort(-best, kind="stable")[:keep]]


def coarse_sweep(
    h: np.ndarray,
    tx_cb: Codebook,
    rx_cb: Codebook,
    noise_var: float,
    keep: int,
    rng: np.random.Generator,
) -> list:
    """The pipeline's phase 1 on a fresh oracle: the strongest transmit beams.

    Each (tx beam, rx beam) pair yields one noisy observation
    ``rx^H h^H tx + noise``.  Transmit beams are ranked by their best
    measured power over all receive beams, ties by index, and the
    indices of the top ``keep`` are returned, strongest first.
    """
    return _strongest_tx_beams(ChannelOracle(h, noise_var, rng), tx_cb, rx_cb, keep)


def array_snapshot(
    h: np.ndarray,
    tx_beam: np.ndarray,
    rx_geom: ArrayGeometry,
    n_chains: int,
    noise_var: float,
    rng: np.random.Generator,
):
    """Full receive-array observation of ``h^H @ tx_beam`` plus noise.

    One ``observe(tx_beam, None)`` call on a fresh oracle.  Returns
    ``(snapshot, slots_used)`` where ``slots_used`` is
    ``ceil(n_rx / n_chains)``, the number of sub-slots needed to touch
    every antenna with ``n_chains`` baseband chains.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[1] != rx_geom.n_elements:
        raise ValueError("channel column count must match the receive array")
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    snapshot = ChannelOracle(h, noise_var, rng).observe(tx_beam, None)[:, 0]
    return snapshot, _slots(rx_geom.n_elements, n_chains)


# Krylov depth of the truncated Hankel SVD per unit of model order.
_KRYLOV_PER_ORDER = 4
# Relative size below which a Lanczos vector counts as zero: the Krylov
# space is then invariant and its singular values are exact.
_BREAKDOWN_TOL = 1e-14
# A Lanczos run stops before its full depth once its Ritz values decide
# the pencil's order and every kept triplet's residual bound is at most
# this times the largest Ritz value.
_CONVERGED_TOL = 1e-10
# Steps between two checks of that rule; each check is one stacked SVD of
# the running rows' bidiagonals.
_CHECK_EVERY = 4


def _decided_order(s, bounds, max_order: int, rank_threshold: float):
    # The pencil's order: the count of singular values at or above the cut
    # (rank_threshold times the largest), capped at max_order, and 0 for a
    # zero matrix.  Ritz values only underestimate the singular values, so
    # they fix the order when max_order of them reach the cut, or when the
    # first one below the cut lies below it by more than its residual
    # bound; exact singular values have zero bounds.  Returns that order,
    # or None.
    if s[0] == 0:
        return 0
    cut = rank_threshold * s[0]
    count = int(np.sum(s >= cut))
    if count >= max_order:
        return max_order
    if count < s.size and s[count] + bounds[count] < cut:
        return count
    return None


def _lanczos_depth(n: int, max_order: int | None = None) -> int:
    # The Lanczos depth of the pencil on a length-n snapshot at max_order
    # (by default the estimator's _order_cap(n)), or 0 when it would not be
    # below the Hankel's n - n // 2 rows and the dense SVD runs by design.
    depth = _KRYLOV_PER_ORDER * (_order_cap(n) if max_order is None else max_order)
    return depth if depth < n - n // 2 else 0


def _leading_left_singular(x: np.ndarray, rows: int, max_order: int, rank_threshold: float):
    """The pencil's order and leading left singular vectors of each row's Hankel.

    ``x`` is a (B, n) stack; row b's Hankel has ``rows`` rows,
    ``n - rows + 1`` columns and entries ``x[b, i + k]``.  One lockstep
    Golub-Kahan-Lanczos run of depth at most ``_lanczos_depth(n,
    max_order)`` gives every row's leading triplets; a row's order is
    taken from them only when ``_decided_order`` fixes it.  The other
    rows, and every row when that depth is 0, get the dense SVD of their
    Hankel, all in one batched call, which is bit for bit each matrix's
    own SVD; their order is capped at ``min(max_order, rows - 1)``.
    Returns one ``(order, left, lanczos_steps)`` per row, the left
    vectors in descending order of their singular values, with
    ``lanczos_steps`` 0 for the dense SVD and for a zero matrix, whose
    order is 0.
    """
    cols = x.shape[1] - rows + 1
    depth = _lanczos_depth(x.shape[1], max_order)
    found = [None] * len(x)
    if depth:
        runs = _golub_kahan_lanczos(x, rows, depth, max_order, rank_threshold)
        for b, (s, u, bounds) in enumerate(runs):
            order = _decided_order(s, bounds, min(max_order, s.size), rank_threshold)
            if order is not None:
                found[b] = order, u, s.size if s[0] else 0
    dense = [b for b, result in enumerate(found) if result is None]
    if dense:
        hankels = x[dense][:, np.arange(rows)[:, None] + np.arange(cols)[None, :]]
        u, s, _ = np.linalg.svd(hankels, full_matrices=False)
        cap = min(max_order, rows - 1)
        for b, s_b, u_b in zip(dense, s, u):
            found[b] = _decided_order(s_b, np.zeros_like(s_b), cap, rank_threshold), u_b, 0
    return found


def _ritz_triplets(alphas, betas, tail):
    # Per row of the (G, k) alphas and betas: the k x (k+1) upper
    # bidiagonal, its SVD P S Q^H, and each triplet's residual bound, the
    # row's tail (next alpha) times the last entry of its right vector.
    # The stacked SVD is bit for bit each bidiagonal's own.
    k = alphas.shape[1]
    bidiagonal = np.zeros((len(alphas), k, k + 1))
    bidiagonal[:, np.arange(k), np.arange(k)] = alphas
    bidiagonal[:, np.arange(k), np.arange(1, k + 1)] = betas
    p, s, qh = np.linalg.svd(bidiagonal, full_matrices=False)
    return s, p, tail[:, None] * np.abs(qh[:, :, k])


def _correlate(spectrum: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    # First `size` entries of sum_k y[i + k] v[k], circular over the length
    # of y, where `spectrum` is fft(y) and v is zero-padded to that length;
    # row by row for stacks (a stacked FFT is bit for bit the rows' own).
    # One buffer holds every stage.  The spectrum stays the product's first
    # factor: numpy's complex multiply is not bit-commutative.
    buffer = np.zeros(spectrum.shape, dtype=complex)
    buffer[..., :v.shape[-1]] = v
    np.fft.ifft(buffer, norm="forward", out=buffer)
    np.multiply(spectrum, buffer, out=buffer)
    return np.fft.ifft(buffer, out=buffer)[..., :size]


def _row_norms(w: np.ndarray) -> np.ndarray:
    # Each row's 2-norm, bit for bit np.linalg.norm of the row: both take
    # one BLAS dot of the real parts and one of the imaginary parts.
    return np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))


def _along(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Each row's component of v[b] in the span of the orthonormal rows of
    # basis[b]: one matrix-vector product each way, as for a lone row.
    coefs = np.matmul(basis, v.conj()[:, :, None])[:, :, 0].conj()
    return np.matmul(coefs[:, None, :], basis)[:, 0]


def _golub_kahan_lanczos(x: np.ndarray, rows: int, depth: int, max_order: int,
                         rank_threshold: float):
    """Ritz triplets of each row's Hankel from at most ``depth`` bidiagonalization steps.

    ``x`` is a (B, n) stack.  Row b's Hankel ``H[i, k] = x[b, i + k]``
    (``rows`` rows) is never formed: ``H @ v`` is the first ``rows``
    entries of the circular correlation of ``x[b]`` with ``v`` over
    ``n`` samples, and ``H^H @ u`` the first ``cols`` of the
    correlation of ``conj(x[b])`` with ``u``.  Neither wraps, since
    ``rows + cols - 1 == n``, so each is one FFT pair against spectra
    taken once per call (Browne, Qiao & Wei 2009).

    Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization
    runs from the fixed start vector ``conj(H[0])`` (``conj(H[-1])`` if
    the first row is zero), so nothing is drawn from a random stream.
    With ``U_k`` the left Lanczos vectors, ``U_k^H H`` is the k x (k+1)
    upper bidiagonal of the alphas and betas times the right Lanczos
    vectors, and its small SVD ``P S Q^H`` gives the Ritz triplets
    ``(S, U_k P)``.  A row stops when a new vector vanishes (an exactly
    low-rank matrix), where the Ritz values are exact.  Every
    ``_CHECK_EVERY`` steps, right after the next alpha, it also stops
    when the Ritz values decide the pencil's order and every kept
    triplet's bound is at most ``_CONVERGED_TOL`` times the largest:
    the result is then exactly that of a run of that depth.

    The rows run in lockstep: each step is one stacked FFT pair and one
    batched reorthogonalization over the rows still running, each check
    one stacked SVD of their bidiagonals.  A row that stops leaves the
    stack; the stacked arrays are compacted then, not on every step.
    Every row takes the arithmetic of its lone run, so its result does
    not depend on the other rows.  Returns one ``(sigmas, left,
    residual_bounds)`` per row, descending; a zero matrix gives
    ``sigmas[0] == 0``.
    """
    cols = x.shape[1] - rows + 1
    results = [(np.zeros(1), np.zeros((rows, 1), dtype=complex), np.zeros(1))] * len(x)
    heads = x[:, :cols]
    start = np.where(np.any(heads, axis=1)[:, None], heads, x[:, rows - 1:])
    start_norm = _row_norms(start)
    live = np.flatnonzero(start_norm > 0)  # the stack row of each running row
    spectrum, conj_spectrum = np.fft.fft(x[live]), np.fft.fft(x[live].conj())
    # Lanczos vectors are stored as rows, so every product is contiguous.
    left = np.empty((live.size, depth, rows), dtype=complex)
    right = np.empty((live.size, depth + 1, cols), dtype=complex)
    right[:, 0] = start[live].conj() / start_norm[live, None]
    alphas, betas = np.empty((live.size, depth)), np.empty((live.size, depth))
    scale = np.zeros(live.size)

    def record(stopped, k, tail, check):
        # One stacked SVD of the bidiagonals after k steps: the final Ritz
        # triplets of the stopped rows and, at a check, of the rows that the
        # stop rule stops (they join `stopped`).
        s, p, bounds = _ritz_triplets(alphas[:, :k], betas[:, :k], tail)
        for r in range(live.size):
            if stopped[r] or check and _converged(s[r], bounds[r], max_order, rank_threshold):
                stopped[r] = True
                results[live[r]] = s[r], left[r, :k].T @ p[r], bounds[r]

    def compact(keep, *extra):
        # The running rows' arrays, with the j + 1 Lanczos vectors filled so far.
        nonlocal live, spectrum, conj_spectrum, left, right, alphas, betas, scale
        live, spectrum, conj_spectrum, scale = live[keep], spectrum[keep], conj_spectrum[keep], scale[keep]
        alphas, betas = alphas[keep], betas[keep]
        left, right = (_prefix(stack, keep, j + 1) for stack in (left, right))
        return [a[keep] for a in extra]

    for j in range(depth + 1):
        w = _correlate(spectrum, right[:, j], rows)
        if j:
            w -= betas[:, j - 1, None] * left[:, j - 1]
            w -= _along(left[:, :j], w)
        alpha = _row_norms(w)
        scale = np.maximum(scale, alpha)
        stopped = (alpha <= _BREAKDOWN_TOL * scale) | (j == depth)
        check = j % _CHECK_EVERY == 0
        if j and (check or stopped.any()):
            record(stopped, j, alpha, check)
        if stopped.any():
            w, alpha = compact(~stopped, w, alpha)
        if not live.size:
            break
        left[:, j] = w / alpha[:, None]
        alphas[:, j] = alpha
        z = _correlate(conj_spectrum, left[:, j], cols) - alpha[:, None] * right[:, j]
        z -= _along(right[:, :j + 1], z)
        beta = _row_norms(z)
        betas[:, j] = beta
        stopped = beta <= _BREAKDOWN_TOL * scale
        if stopped.any():
            record(stopped, j + 1, np.zeros(live.size), False)
            z, beta = compact(~stopped, z, beta)
        right[:, j + 1] = z / beta[:, None]
    return results


def _converged(s, bounds, max_order: int, rank_threshold: float) -> bool:
    # The stop rule: the Ritz values decide the order and every kept
    # triplet's residual bound is at most _CONVERGED_TOL times the largest.
    kept = _decided_order(s, bounds, max_order, rank_threshold)
    return kept is not None and np.max(bounds[:kept]) <= _CONVERGED_TOL * s[0]


def _prefix(stack: np.ndarray, keep: np.ndarray, filled: int) -> np.ndarray:
    # stack[keep] with only the first `filled` vectors of each row copied.
    out = np.empty((np.count_nonzero(keep),) + stack.shape[1:], dtype=stack.dtype)
    out[:, :filled] = stack[keep, :filled]
    return out


def line_spectrum_estimate(snapshots, max_order: int, rank_threshold: float):
    """Fit a sum of complex exponentials to each snapshot of a stack (matrix pencil).

    ``snapshots`` is a (B, n) stack, fitted row by row, or one length-n
    snapshot, the stack of one.  Each snapshot defines a Hankel matrix
    with pencil parameter ``n // 2``; the model order is the number of
    its singular values at or above ``rank_threshold`` times the
    largest, capped at ``max_order``.  Only the leading singular
    triplets are computed, by a Golub-Kahan-Lanczos bidiagonalization
    (Golub & Kahan 1965) that applies the Hankel by FFT, runs the whole
    stack in lockstep and runs at most ``_KRYLOV_PER_ORDER * max_order``
    steps, fewer once a row's kept triplets have converged.  The Hankel
    is built and its dense SVD taken instead, for the rows concerned in
    one batched call, when that depth covers the whole matrix, as for a
    32-element snapshot, or when a Ritz value lies too close to the
    order's cut to decide it.  Frequencies come from the
    shift-invariance eigenvalue problem on the leading left singular
    vectors (Hua & Sarkar 1990), and amplitudes from least squares
    against the snapshot.  For a noiseless sum of at most
    ``min(max_order, n//2 - 1)`` distinct exponentials the recovery is
    exact up to rounding.  A row's fit does not depend on the other
    rows of its stack.

    Returns one ``LineSpectrum`` per row of a stack, or the
    ``LineSpectrum`` of a single snapshot.

    Raises
    ------
    ValueError
        If the snapshots are shorter than 4 samples, ``max_order``
        exceeds half their length, or the input is neither one snapshot
        nor a 2-D stack.
    """
    x = np.asarray(snapshots, dtype=complex)
    if x.ndim not in (1, 2):
        raise ValueError("snapshots must be one snapshot or a (B, n) stack")
    stack = x.reshape(-1, x.shape[-1])
    n = stack.shape[1]
    if n < 4:
        raise ValueError("snapshot must have at least 4 samples")
    pencil = n // 2
    if max_order > pencil:
        raise ValueError(f"max_order must be <= {pencil} for a length-{n} snapshot")

    rows = n - pencil
    triplets = _leading_left_singular(stack, rows, max_order, rank_threshold)
    # The shift-invariance eigenvalue problem, one stacked pinv, product and
    # eigvals per model order and width of the left vectors.  Each gives a
    # row bit for bit its lone result; for the product that holds only on
    # slices of the whole stacked left vectors, as its rounding follows the
    # memory layout.
    groups = {}
    for b, (order, u, _) in enumerate(triplets):
        if order:
            groups.setdefault((order, u.shape[1]), []).append(b)
    roots = {}
    for (order, _), members in groups.items():
        left = np.stack([triplets[b][1] for b in members])
        shifts = np.linalg.pinv(left[:, :-1, :order]) @ left[:, 1:, :order]
        roots.update(zip(members, np.linalg.eigvals(shifts)))
    spectra = [_fit_amplitudes(row, roots.get(b, np.empty(0)), steps)
               for b, (row, (_, _, steps)) in enumerate(zip(stack, triplets))]
    return spectra[0] if x.ndim == 1 else spectra


def _fit_amplitudes(x: np.ndarray, roots: np.ndarray, steps: int) -> LineSpectrum:
    # The snapshot's line spectrum at the frequencies of the pencil's roots.
    freqs = np.angle(roots) / (2.0 * np.pi)
    freqs = np.mod(freqs + 0.5, 1.0) - 0.5
    freqs = np.sort(freqs)
    # Collapse numerically coincident roots so the model stays identifiable.
    keep_mask = np.ones(freqs.size, dtype=bool)
    keep_mask[1:] = np.diff(freqs) > 1e-9
    freqs = freqs[keep_mask]

    n = x.size
    basis = np.exp(2j * np.pi * np.outer(np.arange(n), freqs)) / np.sqrt(n)
    coefs, *_ = np.linalg.lstsq(basis, x, rcond=None)
    residual = float(np.linalg.norm(x - basis @ coefs))
    return LineSpectrum(frequencies=freqs, coefficients=coefs, residual=residual,
                        lanczos_steps=steps)


# Relative cut on the gain fit's singular values: when two estimated
# angles nearly coincide their steering columns become close to collinear,
# and an unregularized solve would split the gain into a huge cancelling
# pair.
_GAIN_FIT_RCOND = 1e-3


def estimate_gains(measurements, aods, aoas, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry,
                   path_loss: float = 1.0):
    """Least-squares coupling matrix between departure and arrival angles.

    Each measurement is a ``(tx, rx, values)`` triple with tx of shape
    (n_tx, a), rx of shape (n_rx, b) and values of shape (b, a) equal to
    ``rx^H h^H tx`` plus noise.  A ``tx`` or ``rx`` of ``None`` stands
    for the identity, every element of that array sampled, without
    building it.  The fit finds the coupling matrix D
    (len(aods), len(aoas)) minimizing the residual of the model channel
    ``sqrt(n_tx*n_rx/path_loss) * A_tx(aods) @ D @ A_rx(aoas)^H`` against
    all scalar observations, with near-null directions of the design
    matrix truncated.  Returns ``(D, relative_residual)``.

    Raises
    ------
    InsufficientMeasurementsError
        If there are fewer scalar observations than unknowns.
    """
    aods = np.atleast_1d(np.asarray(aods, dtype=float))
    aoas = np.atleast_1d(np.asarray(aoas, dtype=float))
    n_aod, n_aoa = aods.size, aoas.size
    a_tx = steering_matrix(tx_geom, aods)
    a_rx = steering_matrix(rx_geom, aoas)
    scale = _channel_scale(tx_geom.n_elements, rx_geom.n_elements, path_loss)

    # Observation model: values[p, q] = scale * u_p^H X v_q with
    # u = A_rx^H rx, v = A_tx^H tx and X the conjugate transpose of the
    # coupling matrix; each scalar observation is one linear equation in
    # the entries of X.  The blocks are written straight into one
    # preallocated design, so it exists once before lstsq copies it.
    projected = []
    for tx, rx, values in measurements:
        v = _project(a_tx, tx)          # (n_aod, a)
        u = _project(a_rx, rx)          # (n_aoa, b)
        values = np.asarray(values, dtype=complex).reshape(u.shape[1], v.shape[1])
        projected.append((u, v, values))
    n_obs = sum(values.size for _, _, values in projected)
    if n_obs < n_aod * n_aoa:
        raise InsufficientMeasurementsError(
            f"{n_obs} observations cannot determine {n_aod * n_aoa} coupling entries"
        )
    design = np.empty((n_obs, n_aoa * n_aod), dtype=complex)
    rhs = np.empty(n_obs, dtype=complex)
    start = 0
    for u, v, values in projected:
        rows = slice(start, start + values.size)
        np.einsum("ip,jq->pqij", u.conj(), v,
                  out=design[rows].reshape(*values.shape, n_aoa, n_aod))
        design[rows] *= scale
        rhs[rows] = values.ravel()
        start += values.size
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=_GAIN_FIT_RCOND)
    rhs_norm = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(design @ solution - rhs) / rhs_norm) if rhs_norm > 0 else 0.0
    coupling = solution.reshape(n_aoa, n_aod).conj().T
    return coupling, residual


def _project(steering: np.ndarray, probe) -> np.ndarray:
    # steering^H @ probe, with probe None standing for the identity.
    if probe is None:
        return steering.conj().T
    return steering.conj().T @ _columns(probe)


def _merge_frequencies(detections, tol: float, cap: int, floor: float) -> np.ndarray:
    # detections: iterable of (frequency, weight).  Greedily open a cluster
    # per detection (heaviest first) that is at least tol away from every
    # existing cluster; later detections inside tol refine their cluster's
    # center as a weighted mean.  Detections far below the strongest one
    # are noise artifacts and are dropped outright.
    detections = sorted(detections, key=lambda d: -d[1])
    if not detections:
        return np.empty(0)
    weight_floor = floor * detections[0][1]
    centers = []   # weighted mean frequency per cluster
    anchors = []   # strongest detection per cluster, fixes the gate position
    masses = []
    for freq, weight in detections:
        if weight < weight_floor:
            break
        gaps = [abs(freq - a) for a in anchors]
        if gaps and min(gaps) <= tol:
            i = int(np.argmin(gaps))
            masses[i] += weight
            centers[i] += (freq - centers[i]) * weight / masses[i]
        elif len(anchors) < cap:
            anchors.append(freq)
            centers.append(freq)
            masses.append(weight)
    return np.asarray(centers)


def _freq_to_angle(freqs: np.ndarray, spacing: float) -> np.ndarray:
    sines = np.clip(freqs / spacing, -1.0, 1.0)
    return np.mod(np.arcsin(sines), 2.0 * np.pi)


def _dominant_pairs(coupling: np.ndarray):
    # The strongest min(shape) coupling entries; a departure or arrival
    # direction may appear in several pairs (two paths can share one end).
    n_pairs = min(coupling.shape)
    magnitude = np.abs(coupling)
    flat_order = np.argsort(-magnitude, axis=None, kind="stable")
    return [tuple(int(v) for v in np.unravel_index(k, coupling.shape))
            for k in flat_order[:n_pairs]]


# The pencil keeps the singular values at or above this fraction of the
# largest, and the merge drops detections this far below the strongest.
_RANK_THRESHOLD = 1e-2
# Merged directions per array, and the pencil's model-order cap.
_MAX_PATHS = 8


def _order_cap(n: int) -> int:
    """The pencil's model-order cap on an ``n``-element snapshot."""
    return min(_MAX_PATHS, n // 2)


def _directions(oracle: ChannelOracle, beams, receive: bool, geom: ArrayGeometry,
                n_chains: int):
    """Merged path directions at one array, one whole-array observation per beam.

    With ``receive`` (phase 2) each beam is transmitted and ``geom`` is
    the receive array, sampled by ``oracle.observe(beam, None)``;
    otherwise (phase 3) each beam combines at the receiver and ``geom``
    is the transmit array, sampled by ``oracle.observe(None, beam)``,
    whose conjugate is the snapshot.  Every observation is taken first,
    in beam order, and the pencil then fits the snapshots as one stack.
    The pencil's order is capped at :func:`_order_cap` and detections
    merge within a quarter of the array's resolution, ``0.25 / n``.
    Returns ``(measurements, angles, slots, lanczos_steps)``: the
    ``(tx, rx, values)`` triples, ``ceil(n / n_chains)`` training slots
    per snapshot, and each pencil's ``lanczos_steps``.
    """
    n = geom.n_elements
    measurements = [(beam, None, oracle.observe(beam, None)) if receive
                    else (None, beam, oracle.observe(None, beam)) for beam in beams]
    stack = np.array([values.ravel() for _, _, values in measurements])
    spectra = line_spectrum_estimate(stack if receive else stack.conj(), _order_cap(n),
                                     _RANK_THRESHOLD)
    detections = [detection for spectrum in spectra
                  for detection in zip(spectrum.frequencies, np.abs(spectrum.coefficients))]
    freqs = _merge_frequencies(detections, 0.25 / n, _MAX_PATHS, _RANK_THRESHOLD)
    if freqs.size == 0:
        side = "arrival" if receive else "departure"
        raise EstimationFailedError(f"no {side} directions detected")
    return (measurements, _freq_to_angle(freqs, geom.spacing), len(beams) * _slots(n, n_chains),
            tuple(spectrum.lanczos_steps for spectrum in spectra))


def estimate_channel(
    oracle: ChannelOracle,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    cfg: EstimationConfig,
) -> EstimationReport:
    """Run the full three-phase pipeline against a measurement oracle.

    Phase 1 sweeps ``l_ma * l_sm`` coarse beam pairs and keeps the
    ``keep`` transmit beams with the strongest best-over-combiners power.
    Phase 2 takes one receive-array snapshot along each kept beam and
    merges the line-spectral arrival directions.  Phase 3 transmits
    back along each merged arrival direction and merges the departure
    directions the same way.  A joint least-squares fit on every
    snapshot recovers the coupling gains; the dominant entries become
    the path estimate and the channel is rebuilt from them.

    Raises
    ------
    EstimationFailedError
        If no arrival or no departure direction survives its phase.
    """
    tx_cb = dft_codebook(tx_geom, cfg.l_ma)
    rx_cb = dft_codebook(rx_geom, cfg.l_sm)
    beams = _strongest_tx_beams(oracle, tx_cb, rx_cb, cfg.keep)
    tx_beams = [tx_cb.beams[:, i] for i in beams]
    rx_measurements, aoas, slots_phase2, _ = _directions(oracle, tx_beams, True, rx_geom,
                                                         cfg.n_bb_sm)
    back_beams = [steering_vector(rx_geom, aoa) for aoa in aoas]
    tx_measurements, aods, slots_phase3, steps_phase3 = _directions(oracle, back_beams, False,
                                                                    tx_geom, cfg.n_bb_ma)
    coupling, gain_residual = estimate_gains(rx_measurements + tx_measurements, aods, aoas,
                                             tx_geom, rx_geom, cfg.path_loss)
    pairs = _dominant_pairs(coupling)
    paths = PathSet(
        gains=np.array([coupling[i, j] for i, j in pairs]),
        aods=np.array([aods[i] for i, _ in pairs]),
        aoas=np.array([aoas[j] for _, j in pairs]),
        path_loss=cfg.path_loss,
    )
    return EstimationReport(
        aoas=aoas,
        aods=aods,
        gain_matrix=coupling,
        paired_paths=paths,
        reconstruction=assemble_channel(tx_geom, rx_geom, paths),
        gain_residual=gain_residual,
        slots_phase1=cfg.l_ma * cfg.l_sm,
        slots_phase2=slots_phase2,
        slots_phase3=slots_phase3,
        lanczos_steps_phase3=steps_phase3,
    )
