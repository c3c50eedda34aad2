"""Link-level simulator for multi-user mmWave massive-MIMO backhaul.

One macro station with a large uniform linear array serves several
small-cell stations through sparse multipath channels.  The package
provides the channel model, exact SVD precoding with multi-user zero
forcing, constant-modulus (phase-shifter) factorization of the
precoders and combiners, a three-phase compressive channel estimator,
and a reproducible Monte Carlo capacity simulator with a CLI.
"""

from .channel import (
    ArrayGeometry,
    ChannelMatrix,
    PathDistribution,
    PathSet,
    assemble_channel,
    sample_paths,
    singular_energy_profile,
    steering_matrix,
    steering_vector,
)
from .config import parse_config, parse_config_text, preset_scenarios, render_config
from .errors import (
    ConfigError,
    ConfigNotFoundError,
    ConfigSyntaxError,
    ConfigValidationError,
    EstimationFailedError,
    InsufficientMeasurementsError,
    SingularCouplingError,
)
from .estimation import (
    ChannelOracle,
    Codebook,
    EstimationConfig,
    EstimationReport,
    LineSpectrum,
    array_snapshot,
    coarse_sweep,
    dft_codebook,
    estimate_channel,
    estimate_gains,
    line_spectrum_estimate,
)
from .factorization import (
    FactorizeOptions,
    HybridCombiner,
    HybridPrecoder,
    factorize,
    factorize_combiner,
    phase_project,
)
from .output import RankProfileTable, RunManifest, emit_csv, manifest_matches, read_manifest, write_manifest
from .precoding import (
    MuExactSet,
    TruncatedSvd,
    allocate_power,
    equivalent_channel,
    factored_svd,
    mu_assemble,
    mu_digital_precoder,
    truncated_svd,
)
from .simulation import (
    ALLOCATIONS,
    SCHEMES,
    CapacityResult,
    CapacityRow,
    ScenarioConfig,
    derive_rng,
    full_digital_baseline,
    observation_noise_var,
    run_scenario,
    user_capacity,
)

__version__ = "0.1.0"
