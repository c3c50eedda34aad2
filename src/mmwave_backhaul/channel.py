"""Sparse geometric multipath channels for uniform linear arrays.

A channel realization is a sum of a small number of plane-wave paths,
each carrying a complex gain, a departure angle at the transmit array
and an arrival angle at the receive array.  Because the path count is
small compared to the antenna counts, the resulting matrix is low rank,
which is what the precoding and estimation stages exploit.  The rank
profile uses that structure directly: with thin QR factorizations
``A_tx = Q_tx R_tx`` and ``A_rx = Q_rx R_rx`` of the steering matrices,
the channel's non-zero singular values are those of the at most L x L
core ``R_tx diag(gains) R_rx^H``, so no full-size matrix is assembled.

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
    "ChannelMatrix",
    "steering_vector",
    "steering_matrix",
    "sample_paths",
    "assemble_channel",
    "singular_energy_profile",
]

# A channel matrix is a plain complex ndarray of shape (n_tx, n_rx).
ChannelMatrix = np.ndarray


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


def steering_vector(geom: ArrayGeometry, angle: float) -> np.ndarray:
    """Unit-norm array response of a ULA to a plane wave from ``angle``.

    Element m equals ``exp(2j*pi*spacing*m*sin(angle)) / sqrt(N)``,
    with the spacing measured in wavelengths.
    """
    m = np.arange(geom.n_elements)
    phase = 2.0 * np.pi * geom.spacing * np.sin(angle)
    return np.exp(1j * phase * m) / np.sqrt(geom.n_elements)


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
    ``1 / (k + L - 1)``, so the total mean power is exactly 1.
    """
    n_paths = int(rng.integers(dist.l_min, dist.l_max + 1))
    aods = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    aoas = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    k_lin = 10.0 ** (dist.k_factor_db / 10.0)
    powers = np.full(n_paths, 1.0 / (k_lin + n_paths - 1))
    powers[0] = k_lin / (k_lin + n_paths - 1)
    scale = np.sqrt(powers / 2.0)
    gains = scale * (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
    return PathSet(gains=gains, aods=aods, aoas=aoas, path_loss=dist.path_loss)


def assemble_channel(tx: ArrayGeometry, rx: ArrayGeometry, paths: PathSet) -> ChannelMatrix:
    """Build the (n_tx, n_rx) channel matrix from a path set.

    Returns ``sqrt(n_tx*n_rx/path_loss) * sum_l gains[l] * a_tx(aods[l])
    * a_rx(aoas[l])^H``; a deterministic function of its inputs, with
    rank at most the number of paths.
    """
    a_tx = steering_matrix(tx, paths.aods)
    a_rx = steering_matrix(rx, paths.aoas)
    scale = np.sqrt(tx.n_elements * rx.n_elements / paths.path_loss)
    return scale * ((a_tx * paths.gains) @ a_rx.conj().T)


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

    Each draw comes from ``sample_paths`` (the same random stream as
    assembling the channel), but its singular values come from the core
    ``(R_tx * gains) @ R_rx^H`` of R-only thin QRs of ``A_tx(aods)`` and
    ``A_rx(aoas)``: at most L x L, with the same singular values as the
    channel up to the ``sqrt(n_tx*n_rx/path_loss)`` scale, which cancels
    in the normalization.  A channel of L paths has rank at most L, so
    every entry from index L on is exactly 0, not rounding noise, and
    the result does not depend on the BLAS thread count of a full-size
    SVD.
    """
    if dist.l_min != dist.l_max:
        raise ValueError("singular_energy_profile needs a fixed path count (l_min == l_max)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    profile = np.zeros(min(tx.n_elements, rx.n_elements))
    for _ in range(trials):
        paths = sample_paths(dist, rng)
        r_tx = np.linalg.qr(steering_matrix(tx, paths.aods), mode="r")
        r_rx = np.linalg.qr(steering_matrix(rx, paths.aoas), mode="r")
        energy = np.linalg.svd((r_tx * paths.gains) @ r_rx.conj().T, compute_uv=False) ** 2
        profile[:energy.size] += energy / energy.sum()
    return profile / trials
