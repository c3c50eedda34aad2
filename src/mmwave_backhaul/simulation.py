"""Monte Carlo sum-capacity evaluation of the link schemes.

Every scheme is one row of ``_SCHEME_ROWS`` (the CSI it designs on, the
field that caps its streams per user, whether it is factorized), and all
share one construction.  Each user's channel is kept as its paths
(steering matrices and gains), and its singular triplets come from the
at most L x L path core; the user gets one stream per non-zero singular
value, up to the row's cap.  The per-user factors feed a stacked
multi-user zero-forcing design, the composite precoder is
column-normalized so per-stream transmit powers are explicit, and the
budget is spread equally or by waterfilling (with a few
interference-aware refinement passes, so the chosen allocation never
falls below the equal split on the design-side capacity).  A factorized
row's precoders/combiners pass the constant-modulus stage first and stay
in ``_Link.factors``; the others are exact.
Each link keeps every user's combined outputs whitened by its noise
covariance, computed once when the link is built, and one evaluator,
:func:`user_capacity`, gives every capacity from them; capacity always
includes the residual inter-stream interference.

A built link is scored over the whole SNR grid at once.
:func:`user_capacity` takes a stack of power vectors, one per budget,
and evaluates it with one batched Cholesky factorization, solve and
eigendecomposition, each row bit for bit its value alone.  The
waterfilling refinement runs every budget in lockstep: each pass
computes only for the budgets still improving, and a budget drops out
at its first pass that does not improve.

This module alone decides a trial: :func:`_trial_paths` draws the users'
paths from substream ``(trial, 0)``, :func:`_trial_estimates` estimates
their channels with training noise from ``(trial, 1)``, and
:func:`_trial_links` builds every scheme's link from them.

The noise variance is fixed at 1, so SNR is the total transmit budget:
an SNR of s dB is a budget of ``10**(s/10)``.  Channels have unit mean
path power, so the axes are self-consistent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .channel import (
    ArrayGeometry,
    PathDistribution,
    PathSet,
    _channel_scale,
    _db_to_linear,
    assemble_channel,
    sample_paths,
    steering_matrix,
)
from .errors import ConfigValidationError
from .estimation import ChannelOracle, EstimationConfig, estimate_channel
from .factorization import FactorizeOptions, factorize, factorize_combiner
from .precoding import (
    _block_diag,
    allocate_power,
    factored_svd,
    mu_digital_precoder,
)

__all__ = [
    "SCHEMES",
    "ALLOCATIONS",
    "ScenarioConfig",
    "CapacityRow",
    "CapacityResult",
    "derive_rng",
    "observation_noise_var",
    "user_capacity",
    "full_digital_baseline",
    "run_scenario",
]

# Per scheme: the paths it designs on ("truth" or "estimates"), the field capping its streams
# per user, and whether it is factorized through the constant-modulus stage.
_SCHEME_ROWS = {
    "hybrid_ideal": ("truth", "n_bb_sm", True),
    "hybrid_estimated": ("estimates", "n_bb_sm", True),
    "full_digital": ("truth", "n_sm", False),
}
SCHEMES = tuple(_SCHEME_ROWS)
ALLOCATIONS = ("waterfilling", "equal")

_DEFAULT_SNR_GRID = tuple(float(s) for s in range(-10, 35, 5))
_GAIN_FLOOR = np.finfo(float).tiny

# The link lets the constant-modulus factorization run to 600 steps, six
# times the standalone cap, under the same stopping rule: it ends once the
# best residual has stopped falling (see factorization).  Users whose
# every path is a stream start from their steering matrices and stop at
# the first, exact step.  The others mostly stop within 100 steps; the
# deeper cap serves the combiners whose best residual still falls slowly,
# which lowers the inter-stream leakage of the hybrid design.
# Waterfilling never loses to equal power on an exact-CSI link at any
# depth: the refinement starts from the better of the two on the design
# objective, and such links design on the truth.
_LINK_FACTORIZE_OPTS = FactorizeOptions(max_iterations=600)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo experiment."""

    n_ma: int
    n_sm: int
    k_users: int
    n_bb_ma: int
    n_bb_sm: int
    k_factor_db: float = 0.0
    l_min: int = 2
    l_max: int = 6
    path_loss: float = 1.0
    snr_grid_db: tuple[float, ...] = _DEFAULT_SNR_GRID
    trials: int = 100
    # By default every scheme that designs on the truth, so no estimation section is needed.
    schemes: tuple[str, ...] = tuple(s for s in _SCHEME_ROWS if _SCHEME_ROWS[s][0] == "truth")
    allocation: str = "waterfilling"
    estimation: EstimationConfig | None = None
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for name in ("n_ma", "n_sm", "k_users", "n_bb_ma", "n_bb_sm"):
            if getattr(self, name) < 1:
                raise ConfigValidationError(f"{name} must be >= 1")
        if self.k_users * self.n_bb_sm > self.n_bb_ma:
            raise ConfigValidationError(
                f"invariant k_users*n_bb_sm <= n_bb_ma violated: "
                f"{self.k_users}*{self.n_bb_sm} > {self.n_bb_ma}"
            )
        if self.n_bb_sm > self.n_sm:
            raise ConfigValidationError(
                f"invariant n_bb_sm <= n_sm violated: {self.n_bb_sm} > {self.n_sm}"
            )
        if self.n_bb_ma > self.n_ma:
            raise ConfigValidationError(
                f"invariant n_bb_ma <= n_ma violated: {self.n_bb_ma} > {self.n_ma}"
            )
        try:  # the path law checks itself
            self.path_distribution()
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from None
        # A subnormal path loss parses but overflows the channel's scale.
        if not np.isfinite(_channel_scale(self.n_ma, self.n_sm, self.path_loss)):
            raise ConfigValidationError(
                "path_loss must keep the steering scale sqrt(elements / path_loss) finite")
        if not self.snr_grid_db:
            raise ConfigValidationError("snr_grid_db must be a non-empty list")
        self.budgets()  # each budget must be finite and positive
        if len(set(self.snr_grid_db)) < len(self.snr_grid_db):
            raise ConfigValidationError("snr_grid_db must not list an SNR twice")
        if self.trials < 1:
            raise ConfigValidationError("trials must be >= 1")
        if not self.schemes:
            raise ConfigValidationError("schemes must be a non-empty list")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigValidationError("schemes must not list a scheme twice")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ConfigValidationError(
                    f"unknown scheme {scheme!r} in schemes (choose from {', '.join(SCHEMES)})"
                )
            source, cap, _ = _SCHEME_ROWS[scheme]  # n_bb_sm rows pass the chain invariants
            if self.k_users * getattr(self, cap) > self.n_ma:
                raise ConfigValidationError(f"{scheme} needs k_users*{cap} <= n_ma: "
                                            f"{self.k_users}*{getattr(self, cap)} > {self.n_ma}")
            if source == "estimates" and self.estimation is None:
                raise ConfigValidationError(f"{scheme} in schemes requires an estimation section")
        if self.allocation not in ALLOCATIONS:
            raise ConfigValidationError(f"unknown allocation {self.allocation!r}")
        if self.estimation is not None:
            # The estimator samples the scenario's arrays with its chains.
            object.__setattr__(self, "estimation", dataclasses.replace(
                self.estimation, n_bb_ma=self.n_bb_ma, n_bb_sm=self.n_bb_sm,
                path_loss=self.path_loss,
            ))
            if not np.isfinite(observation_noise_var(self)):
                raise ConfigValidationError(
                    "path_loss must give a finite observation noise variance "
                    "(1 / path_loss) / 10**(snr_db / 10) with the estimation snr_db")
            for name in ("n_ma", "n_sm"):
                if getattr(self, name) < 4:
                    raise ConfigValidationError(
                        f"{name} must be >= 4 to estimate the channel (the line-spectral "
                        f"snapshot fit needs 4 array elements), got {getattr(self, name)}"
                    )
        if self.master_seed < 0:
            raise ConfigValidationError("master_seed must be non-negative")

    def macro_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_ma)

    def small_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_sm)

    def path_distribution(self) -> PathDistribution:
        return PathDistribution(self.l_min, self.l_max, self.k_factor_db, self.path_loss)

    def budgets(self) -> np.ndarray:
        """Transmit budget at each grid SNR; ConfigValidationError unless all are finite, > 0."""
        budgets = np.array([_db_to_linear(snr) for snr in self.snr_grid_db])
        if not np.all((budgets > 0) & (budgets < np.inf)):
            raise ConfigValidationError("snr_grid_db must give finite, positive transmit "
                                        "budgets 10**(dB/10)")
        return budgets


@dataclass(frozen=True)
class CapacityRow:
    scheme: str
    allocation: str
    snr_db: float
    k_factor_db: float
    trial: int
    capacity_bpcu: float


@dataclass
class CapacityResult:
    """Capacity rows in a normalized order, one per (scheme, snr, trial)."""

    rows: list

    def __post_init__(self):
        if any(r.capacity_bpcu < 0 for r in self.rows):
            raise ValueError("capacities must be non-negative")
        self.rows = sorted(self.rows, key=_row_key)

    def mean_capacity(self, scheme: str, snr_db: float) -> float:
        values = [
            r.capacity_bpcu for r in self.rows
            if r.scheme == scheme and r.snr_db == snr_db
        ]
        if not values:
            raise KeyError(f"no rows for scheme={scheme!r} at snr_db={snr_db}")
        return float(np.mean(values))


def _row_key(row: CapacityRow):
    return (row.scheme, row.allocation, row.k_factor_db, row.snr_db, row.trial)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-derived substream: deterministic in (seed, key), order-free."""
    return np.random.default_rng([int(master_seed), *(int(k) for k in key)])


def observation_noise_var(cfg: ScenarioConfig) -> float:
    """Training-observation noise variance implied by the estimation SNR.

    The reference signal level is the mean power of a single channel
    entry, ``1 / path_loss`` for unit-power paths, so ``snr_db`` is the
    element-to-element observation SNR.
    """
    if cfg.estimation is None:
        raise ValueError("scenario has no estimation section")
    return (1.0 / cfg.path_loss) / _db_to_linear(cfg.estimation.snr_db)


def user_capacity(w: np.ndarray, own: slice, powers: np.ndarray) -> float | np.ndarray:
    """Capacity in bpcu of one user's streams, the other streams as interference.

    ``w`` (r x S) maps all S streams into the user's r combined outputs,
    whitened by the Cholesky factor of the user's noise covariance, so
    the noise is white; ``own`` selects the user's own streams (columns)
    and ``powers`` holds the S per-stream transmit powers.  With the
    interference-plus-noise covariance ``I + W P_-k W^H = M M^H``, the
    capacity is ``log2 det(I + M^-1 W_k P_k W_k^H M^-H)``.

    A (B x S) ``powers`` stacks B power vectors and gives an array of B
    capacities from one batched pass; each equals, bit for bit, the
    ``float`` that its row alone gives.
    """
    stack = np.atleast_2d(powers)
    r = w.shape[0]
    chol = np.linalg.cholesky(np.eye(r) + (w * _others(stack, own)[:, None, :]) @ w.conj().T)
    half = np.linalg.solve(chol, w[:, own] * np.sqrt(stack[:, None, own]))
    eigs = np.linalg.eigvalsh(np.eye(r) + half @ half.conj().swapaxes(1, 2))
    capacities = np.sum(np.log2(np.maximum(eigs, 1.0)), axis=1)
    return float(capacities[0]) if np.ndim(powers) == 1 else capacities


def _others(powers, own):
    # The powers of every stream but the user's own, per power vector.
    others = powers.copy()
    others[..., own] = 0.0
    return others


@dataclass
class _UserChannel:
    """One user's channel ``a_tx @ diag(coeffs) @ a_rx^H`` in thin factors.

    Built from paths, the columns of ``a_tx`` and ``a_rx`` are the paths'
    array responses.  The matrix form (``a_tx = h``, ``a_rx = I``) serves
    the exact full-digital baseline, which is never factorized.
    """

    a_tx: np.ndarray     # (n_tx, m)
    coeffs: np.ndarray   # (m,)
    a_rx: np.ndarray     # (n_rx, m)

    @classmethod
    def from_paths(cls, tx: ArrayGeometry, rx: ArrayGeometry, paths: PathSet) -> "_UserChannel":
        scale = _channel_scale(tx.n_elements, rx.n_elements, paths.path_loss)
        return cls(steering_matrix(tx, paths.aods), scale * paths.gains,
                   steering_matrix(rx, paths.aoas))

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "_UserChannel":
        return cls(h, np.ones(h.shape[1]), np.eye(h.shape[1], dtype=complex))

    def adjoint_times(self, x: np.ndarray) -> np.ndarray:
        """``h^H @ x`` without assembling h."""
        return self.a_rx @ (self.coeffs.conj()[:, None] * (self.a_tx.conj().T @ x))


@dataclass
class _Link:
    """One scheme's design for one channel draw, evaluated on the truth.

    User k's streams are ``streams[k]``, and its combined outputs see all
    S streams through ``L_k^-1 G_k``: the user's rows ``G_k`` (r_k x S) of
    the stream-to-output map, whitened by the Cholesky factor ``L_k`` of
    its combined noise covariance.
    """

    w_true: list              # per user, whitened rows of the true map
    w_design: list            # the same built from the design CSI
    design_gains: np.ndarray  # per-stream |gain|^2 / noise, from the design CSI
    offsets: np.ndarray       # user k's streams are offsets[k]:offsets[k+1]
    coupling_cond: float
    factors: list             # per user (precoder, combiner, closed_form); [] if exact

    @property
    def streams(self) -> list:
        return [slice(a, b) for a, b in zip(self.offsets[:-1], self.offsets[1:])]


def _build_link(design, truth, max_streams, factorized) -> _Link:
    # Each user gets one stream per non-zero singular value of its design
    # channel, up to max_streams.
    svds = [factored_svd(c.a_tx, c.coeffs, c.a_rx, max_streams) for c in design]
    offsets = np.cumsum([0] + [s.rank_used for s in svds])
    u_tilde = np.hstack([s.left for s in svds])
    factors = []
    if factorized:
        # When every path is a stream, the kept subspaces are spanned by the
        # paths' array responses, which already have the analog stage's
        # constant modulus, so both factorizations start from them and are
        # exact at once (closed form).
        for c, s in zip(design, svds):
            exact = s.rank_used == c.coeffs.size
            factors.append((factorize(s.left.conj().T, _LINK_FACTORIZE_OPTS,
                                      start=c.a_tx.conj().T if exact else None),
                            factorize_combiner(s.right, _LINK_FACTORIZE_OPTS,
                                               start=c.a_rx if exact else None), exact))
        p_tilde_d = _block_diag([p.digital for p, _, _ in factors])
        p_a = np.vstack([p.analog for p, _, _ in factors])
        combiners = [c.analog @ c.digital for _, c, _ in factors]
    else:
        p_tilde_d = np.eye(offsets[-1], dtype=complex)
        p_a = u_tilde.conj().T
        combiners = [s.right for s in svds]
    p_d, cond = mu_digital_precoder(p_tilde_d, p_a, u_tilde)
    composite = (p_d @ p_tilde_d @ p_a).conj().T

    # Each user's combined noise covariance (unit noise variance), factored
    # once; numpy's LinAlgError (a ValueError) reports one that is not
    # positive definite.
    covs = [c.conj().T @ c for c in combiners]
    chols = [np.linalg.cholesky(0.5 * (n + n.conj().T)) for n in covs]

    # With hybrid factors the per-user link through the zero-forcing stage
    # is only approximately diagonal.  Rotating each user's own streams by
    # the right singular vectors of its noise-whitened design link makes
    # the parallel-channel model the allocator uses exact: per-stream
    # design gains are then true capacities-per-unit-power, so
    # waterfilling is optimal for the design objective.
    design_gains = np.empty(offsets[-1])
    for k, (user, comb, chol) in enumerate(zip(design, combiners, chols)):
        block = slice(offsets[k], offsets[k + 1])
        own = comb.conj().T @ user.adjoint_times(composite[:, block])
        _, sing, rot_h = np.linalg.svd(np.linalg.solve(chol, own))
        composite[:, block] = composite[:, block] @ rot_h.conj().T
        design_gains[block] = sing**2

    # Column-normalized composite precoder: per-stream transmit power is
    # then exactly the allocated power.  The rotation above keeps the
    # whitened own-link columns orthogonal, so normalization only
    # rescales the per-stream gains.
    col_norms = np.linalg.norm(composite, axis=0)
    precoder = composite / col_norms
    design_gains = np.maximum(design_gains / col_norms**2, _GAIN_FLOOR)

    def whitened(users):
        return [np.linalg.solve(chol, c.conj().T @ u.adjoint_times(precoder))
                for c, u, chol in zip(combiners, users, chols)]

    w_true = whitened(truth)
    w_design = w_true if design is truth else whitened(design)
    return _Link(w_true=w_true, w_design=w_design, design_gains=design_gains,
                 offsets=offsets, coupling_cond=cond, factors=factors)


def _sum_capacity(link: _Link, blocks: list, powers: np.ndarray) -> np.ndarray:
    # One sum capacity per row of the (B x S) powers.
    return sum(user_capacity(w, own, powers) for own, w in zip(link.streams, blocks))


def _refined_waterfilling(link: _Link, budgets: np.ndarray):
    # Waterfilling with interference-aware refinement, at every budget.
    # Candidates are evaluated on the design-side capacity (all the
    # transmitter knows); starting from the better of {equal split, plain
    # waterfilling} and accepting only improvements guarantees the result
    # never falls below the equal allocation on that objective.  The
    # budgets refine in lockstep: a budget leaves at its first pass that
    # does not improve, and later passes compute only for those left.
    # Returns the powers (B x S) and their design-side sum capacities.
    gains = link.design_gains
    candidates = np.array([
        [allocate_power(gains, b, "equal") for b in budgets],
        [allocate_power(gains, b, "waterfilling") for b in budgets],
    ])
    values = _sum_capacity(link, link.w_design, candidates.reshape(-1, gains.size)).reshape(2, -1)
    best = np.argmax(values, axis=0)  # ties keep the equal split
    every = np.arange(len(budgets))
    best_powers, best_values = candidates[best, every], values[best, every]
    active, current = every, best_powers
    for _ in range(3):
        # Effective per-stream gains with the current interference treated
        # as extra (whitened) noise: one matrix-vector product per budget,
        # so each row rounds as a lone budget would.
        inflation = np.empty(current.shape)
        for own, w in zip(link.streams, link.w_design):
            inflation[:, own] = 1.0 + (np.abs(w) ** 2 @ _others(current, own)[:, :, None])[..., 0]
        effective = np.maximum(gains / inflation, _GAIN_FLOOR)
        current = np.array([allocate_power(e, budgets[i], "waterfilling")
                            for e, i in zip(effective, active)])
        value = _sum_capacity(link, link.w_design, current)
        improved = value > best_values[active]
        active, current = active[improved], current[improved]
        best_powers[active], best_values[active] = current, value[improved]
        if not active.size:
            break
    return best_powers, best_values


def _link_capacities(link: _Link, budgets: np.ndarray, allocation: str) -> np.ndarray:
    """Sum capacity of a link on the truth at every budget of the grid."""
    if allocation == "waterfilling":
        powers, design_values = _refined_waterfilling(link, budgets)
        if link.w_design is link.w_true:
            return design_values  # exact CSI: the design objective is the truth
    else:
        powers = np.array([allocate_power(link.design_gains, b, allocation) for b in budgets])
    return _sum_capacity(link, link.w_true, powers)


def full_digital_baseline(channels, snr_db: float, allocation: str = "waterfilling") -> float:
    """Sum capacity of the exact zero-forcing design.

    Every user keeps one stream per non-zero singular value of its
    channel (at most its receive antenna count); the precoders and
    combiners are the exact SVD factors (no constant-modulus stage).

    Raises
    ------
    ValueError
        If the stacked streams K*n_rx exceed the transmit array size.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    n_rx = channels[0].shape[1]
    if len(channels) * n_rx > channels[0].shape[0]:
        raise ValueError("full-digital design needs k_users*n_rx <= n_tx")
    users = [_UserChannel.from_matrix(h) for h in channels]
    link = _build_link(users, users, n_rx, factorized=False)
    return float(_link_capacities(link, np.array([_db_to_linear(snr_db)]), allocation)[0])


def _trial_paths(cfg: ScenarioConfig, trial: int) -> list:
    """Each user's paths on one trial, drawn in user order from its (trial, 0) substream."""
    rng = derive_rng(cfg.master_seed, trial, 0)
    dist = cfg.path_distribution()
    return [sample_paths(dist, rng) for _ in range(cfg.k_users)]


def _trial_estimates(cfg: ScenarioConfig, trial: int, paths):
    """Yield each user's ``(h, report)``; their training noise shares one (trial, 1) substream."""
    tx_geom, rx_geom = cfg.macro_geometry(), cfg.small_geometry()
    rng = derive_rng(cfg.master_seed, trial, 1)
    noise = observation_noise_var(cfg)
    for p in paths:
        h = assemble_channel(tx_geom, rx_geom, p)
        yield h, estimate_channel(ChannelOracle(h, noise, rng), tx_geom, rx_geom, cfg.estimation)


def _trial_links(cfg: ScenarioConfig, trial: int) -> dict:
    """Every enabled scheme's link on one trial's channel draw, by scheme."""
    tx_geom, rx_geom = cfg.macro_geometry(), cfg.small_geometry()
    paths = _trial_paths(cfg, trial)
    truth = [_UserChannel.from_paths(tx_geom, rx_geom, p) for p in paths]
    rows = {scheme: _SCHEME_ROWS[scheme] for scheme in cfg.schemes}
    designs = {"truth": truth}
    if any(source == "estimates" for source, _, _ in rows.values()):
        designs["estimates"] = [_UserChannel.from_paths(tx_geom, rx_geom, report.paired_paths)
                                for _, report in _trial_estimates(cfg, trial, paths)]
    return {scheme: _build_link(designs[source], truth, getattr(cfg, cap), factorized)
            for scheme, (source, cap, factorized) in rows.items()}


def run_scenario(cfg: ScenarioConfig) -> CapacityResult:
    """Monte Carlo capacity sweep over the configured schemes and SNR grid.

    Each trial draws one channel per user from an independent,
    counter-derived substream of the master seed, designs every enabled
    scheme on that draw (the estimated scheme designs on pipeline
    reconstructions but is evaluated on the true channels), and emits
    one row per (scheme, snr, trial).  Identical configs produce
    identical results regardless of execution order.
    """
    budgets = cfg.budgets()
    rows = []
    for trial in range(cfg.trials):
        for scheme, link in _trial_links(cfg, trial).items():
            capacities = _link_capacities(link, budgets, cfg.allocation)
            rows.extend(
                CapacityRow(scheme=scheme, allocation=cfg.allocation, snr_db=snr,
                            k_factor_db=cfg.k_factor_db, trial=trial,
                            capacity_bpcu=float(capacity))
                for snr, capacity in zip(cfg.snr_grid_db, capacities)
            )
    return CapacityResult(rows=rows)
