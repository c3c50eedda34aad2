"""Sparse geometric multipath channels for uniform linear arrays.

A channel realization is a sum of a small number of plane-wave paths,
each carrying a complex gain, a departure angle at the transmit array
and an arrival angle at the receive array.  Because the path count is
small compared to the antenna counts, the resulting matrix is low rank,
which is what the precoding and estimation stages exploit.  The rank
profile uses that structure directly: the Gram matrix ``A^H A`` of a
ULA's steering vectors has a closed form, the Dirichlet kernel (array
factor), so the channel's non-zero squared singular values are the
eigenvalues of an L x L matrix built from the two Grams and the gains,
and neither a steering matrix nor the full-size channel is formed.

All randomness flows through explicit ``numpy.random.Generator``
instances so that Monte Carlo trials can own independent substreams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "PathSet",
    "PathDistribution",
    "steering_vector",
    "steering_matrix",
    "sample_paths",
    "assemble_channel",
    "singular_energy_profile",
]

# Draws per stacked pass of singular_energy_profile; memory is
# O(_PROFILE_CHUNK * L**2) whatever the trial count.
_PROFILE_CHUNK = 1024


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")


@dataclass
class PathSet:
    """Multipath parameters of one channel realization.

    Attributes
    ----------
    gains : ndarray
        Complex gain per path, shape (L,).
    aods : ndarray
        Departure angles in radians, [0, 2*pi), shape (L,).
    aoas : ndarray
        Arrival angles in radians, [0, 2*pi), shape (L,).
    path_loss : float
        Average path loss, > 0.
    """

    gains: np.ndarray
    aods: np.ndarray
    aoas: np.ndarray
    path_loss: float = 1.0

    def __post_init__(self):
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.aods = np.atleast_1d(np.asarray(self.aods, dtype=float))
        self.aoas = np.atleast_1d(np.asarray(self.aoas, dtype=float))
        if not (self.gains.size == self.aods.size == self.aoas.size):
            raise ValueError("gains, aods and aoas must have equal length")
        if self.gains.size < 1:
            raise ValueError("a PathSet needs at least one path")
        if self.path_loss <= 0:
            raise ValueError("path_loss must be positive")

    @property
    def n_paths(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class PathDistribution:
    """Law of the random multipath parameters.

    The path count is discrete uniform on ``[l_min, l_max]``, angles are
    i.i.d. continuous uniform on [0, 2*pi), and gains are independent
    zero-mean complex Gaussians.  Path 1 is the line-of-sight path; its
    mean power exceeds each non-line-of-sight path's by the Rician
    factor ``10**(k_factor_db / 10)``.  Mean powers are normalized so
    the expected total path power is 1.
    """

    l_min: int
    l_max: int
    k_factor_db: float = 0.0
    path_loss: float = 1.0

    def __post_init__(self):
        if not (1 <= self.l_min <= self.l_max):
            raise ValueError("need 1 <= l_min <= l_max")
        if self.path_loss <= 0:
            raise ValueError("path_loss must be positive")
        if not 0.0 < _db_to_linear(self.k_factor_db) < np.inf:
            raise ValueError("k_factor_db must give a finite, positive power ratio 10**(dB/10)")


def _db_to_linear(value_db: float) -> float:
    """``10**(value_db / 10)``, or inf where that overflows."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return np.inf


def steering_vector(geom: ArrayGeometry, angle: float) -> np.ndarray:
    """Unit-norm array response of a ULA to a plane wave from ``angle``.

    Element m equals ``exp(2j*pi*spacing*m*sin(angle)) / sqrt(N)``,
    with the spacing measured in wavelengths: the one column of
    ``steering_matrix(geom, angle)``.
    """
    return steering_matrix(geom, angle)[:, 0]


def steering_matrix(geom: ArrayGeometry, angles) -> np.ndarray:
    """Stack steering vectors for several angles into an (N, len) matrix."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    m = np.arange(geom.n_elements)[:, None]
    phases = 2.0 * np.pi * geom.spacing * np.sin(angles)[None, :]
    return np.exp(1j * phases * m) / np.sqrt(geom.n_elements)


def sample_paths(dist: PathDistribution, rng: np.random.Generator) -> PathSet:
    """Draw one multipath realization from ``dist``.

    The line-of-sight gain is drawn zero-mean complex Gaussian like the
    others; only its mean power differs.  With ``k = 10**(k_factor_db/10)``
    the LOS mean power is ``k / (k + L - 1)`` and each NLOS path gets
    ``1 / (k + L - 1)``, so the total mean power is exactly 1.  The
    stream is one ``integers`` call for the path count L, then the
    draw's layout (see ``_draw_layout``).
    """
    n_paths = int(rng.integers(dist.l_min, dist.l_max + 1))
    gains, aods, aoas = _draw_paths(dist.k_factor_db, n_paths, 1, rng)
    return PathSet(gains=gains[0], aods=aods[0], aoas=aoas[0], path_loss=dist.path_loss)


def _gain_scale(k_factor_db: float, n_paths: int) -> np.ndarray:
    """Per-path gain scale ``sqrt(powers / 2)`` of the law in ``sample_paths``."""
    k_lin = _db_to_linear(k_factor_db)
    powers = np.full(n_paths, 1.0 / (k_lin + n_paths - 1))
    powers[0] = k_lin / (k_lin + n_paths - 1)
    return np.sqrt(powers / 2.0)


def _draw_layout(rng: np.random.Generator, angles: np.ndarray, normals: np.ndarray) -> None:
    """Fill one draw of L paths in place, in stream order: two generator calls.

    ``angles`` (2L,) gets uniforms on [0, 1), the departures' then the
    arrivals' (``_draw_paths`` scales them by 2*pi); ``normals`` (2L,)
    gets standard normals, the gains' real parts then their imaginary
    parts.  Bit for bit, these are the draws of two ``uniform(0, 2*pi,
    L)`` and two ``standard_normal(L)`` calls.
    """
    rng.random(out=angles)
    rng.standard_normal(out=normals)


def _draw_paths(k_factor_db: float, n_paths: int, count: int, rng: np.random.Generator):
    """``count`` consecutive draws of ``n_paths`` paths each.

    Returns ``(gains, aods, aoas)``, each of shape (count, n_paths): one
    row per draw, filled by ``_draw_layout`` and then scaled as a whole.
    """
    angles = np.empty((count, 2 * n_paths))
    normals = np.empty((count, 2 * n_paths))
    for angle_row, normal_row in zip(angles, normals):
        _draw_layout(rng, angle_row, normal_row)
    angles *= 2.0 * np.pi
    gains = _gain_scale(k_factor_db, n_paths) * (normals[:, :n_paths] + 1j * normals[:, n_paths:])
    return gains, angles[:, :n_paths], angles[:, n_paths:]


def _channel_scale(n_tx: int, n_rx: int, path_loss: float) -> float:
    """The steering scale ``sqrt(n_tx*n_rx/path_loss)`` of a channel's paths."""
    return np.sqrt(n_tx * n_rx / path_loss)


def assemble_channel(tx: ArrayGeometry, rx: ArrayGeometry, paths: PathSet) -> np.ndarray:
    """Build the (n_tx, n_rx) channel matrix from a path set.

    Returns ``sqrt(n_tx*n_rx/path_loss) * sum_l gains[l] * a_tx(aods[l])
    * a_rx(aoas[l])^H``; a deterministic function of its inputs, with
    rank at most the number of paths.
    """
    a_tx = steering_matrix(tx, paths.aods)
    a_rx = steering_matrix(rx, paths.aoas)
    scale = _channel_scale(tx.n_elements, rx.n_elements, paths.path_loss)
    return scale * ((a_tx * paths.gains) @ a_rx.conj().T)


def _steering_gram(geom: ArrayGeometry, angles: np.ndarray) -> np.ndarray:
    """Gram matrices ``A^H A`` of the steering matrices, in closed form.

    ``angles`` has shape (..., L); the result has shape (..., L, L) with
    ``G[i, j] = a_i^H a_j = exp(1j*(N-1)*x) * sin(N*x) / (N*sin(x))`` and
    ``x = pi * spacing * (sin(angles[j]) - sin(angles[i]))``.  Where
    ``N*sin(x)`` is 0 the ratio takes its limit ``cos(N*x) / cos(x)``,
    so the diagonal and entries of equal sines are exactly 1; at a
    grating lobe the entry is 1 up to rounding.
    """
    n = geom.n_elements
    sines = np.sin(angles)
    x = np.pi * geom.spacing * (sines[..., None, :] - sines[..., :, None])
    den = n * np.sin(x)
    limit = den == 0
    ratio = (np.where(limit, np.cos(n * x), np.sin(n * x))
             / np.where(limit, np.cos(x), den))
    return np.exp(1j * (n - 1) * x) * ratio


def singular_energy_profile(
    tx: ArrayGeometry,
    rx: ArrayGeometry,
    dist: PathDistribution,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo mean of the normalized squared singular values.

    ``dist`` must have a fixed path count (l_min == l_max).  Entry i of
    the result is the mean over trials of ``sigma_i**2 / sum_j sigma_j**2``
    in descending order; the profile is non-negative, non-increasing and
    sums to 1.

    The draws are the same stream as ``sample_paths``, without a
    ``PathSet`` per draw: ``_draw_paths`` fills a chunk's rows, and the
    fixed path count's ``integers`` call is skipped because it consumes
    no generator state.  With ``H ~ A_tx D A_rx^H``, ``D`` the diagonal
    of gains, the non-zero eigenvalues of ``H H^H`` are those
    of the L x L matrix ``S (D G_rx D^H) S``, where ``G_tx`` and
    ``G_rx`` are the closed-form steering Grams and ``S = G_tx^(1/2)``
    (from ``eigh``, eigenvalues clipped at 0); the
    ``n_tx*n_rx/path_loss`` scale cancels in the normalization.  Draws
    are processed ``_PROFILE_CHUNK`` at a time as stacks of L x L
    matrices, and their normalized energies are added in draw order, so
    the chunk size does not change a bit.  Only the largest
    ``min(L, n_tx, n_rx)`` eigenvalues are kept: a channel of L paths has
    rank at most L, so every entry from index L on is exactly 0, not
    rounding noise, and the result does not depend on the BLAS thread
    count of a full-size SVD.
    """
    if dist.l_min != dist.l_max:
        raise ValueError("singular_energy_profile needs a fixed path count (l_min == l_max)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    profile = np.zeros(min(tx.n_elements, rx.n_elements))
    kept = min(dist.l_max, profile.size)
    for start in range(0, trials, _PROFILE_CHUNK):
        gains, aods, aoas = _draw_paths(dist.k_factor_db, dist.l_max,
                                        min(_PROFILE_CHUNK, trials - start), rng)
        g_tx = _steering_gram(tx, aods)
        g_rx = _steering_gram(rx, aoas)
        w, v = np.linalg.eigh(g_tx)
        root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)
        core = gains[:, :, None] * g_rx * gains.conj()[:, None, :]
        energy = np.clip(np.linalg.eigvalsh(root @ core @ root)[:, ::-1][:, :kept], 0.0, None)
        shares = energy / energy.sum(axis=1, keepdims=True)
        # add.accumulate adds the draws one at a time, in draw order.
        profile[:kept] = np.add.accumulate(np.vstack((profile[:kept], shares)))[-1]
    return profile / trials
