"""Conditioning-time tuning for few-step diffusion samplers.

The package wraps a small closed-form Gaussian-mixture world around a
variance-preserving noise schedule so that the ideal noise prediction is
available exactly. On top of it sit deterministic and stochastic
few-step samplers whose per-step conditioning times can be retuned by
minimizing a one-step noise-consistency objective, plus measurement
tools that quantify what the retuning buys.
"""

__version__ = "0.1.0"

from .analysis import (
    EvalReport,
    GapReport,
    draw_start_states,
    error_bound_report,
    evaluate_samples,
    frechet_distance,
    gap_profile,
    generate_paths,
    reference_path,
    sliced_wasserstein,
    step_replacement_sweep,
)
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    NumericError,
    StepTunerError,
)
from .oracle import GaussianMixtureOracle, gmm8, standard_gaussian
from .samplers import (
    SamplePath,
    SamplerConfig,
    ddim_step,
    ddim_step_baseline,
    dpm_solver2_step,
    sample_path,
)
from .schedule import NoiseSchedule
from .trajectory import (
    Trajectory,
    TunedTrajectory,
    baseline_tuned,
    make_trajectory,
    midpoint_time,
    tuned_from_json,
    tuned_to_json,
)
from .tuner import (
    LossEstimate,
    StepLoss,
    TuneRecord,
    TunerConfig,
    diagnostic_loss_curves,
    optimize_tau,
    tune,
)
