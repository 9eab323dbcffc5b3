"""Driftwatch: GNSS spoofing detection workbench.

Simulates a UAV navigating a flow-field controller from pseudorange-based
position fixes, injects drift-style spoofing attacks, and benchmarks online
changepoint detection on the learned critic's value stream against
classical baselines.
"""

from .config import (
    DetectorConfig,
    EnvConfig,
    EvalConfig,
    ExperimentConfig,
    GnssConfig,
    TrainConfig,
    default_config,
    load_config,
    save_config,
)
from .ddpg import Agent, load_checkpoint, save_checkpoint, train
from .detectors import (
    AgeProfile,
    NominalProfile,
    PageHinkley,
    ResidualThreshold,
    WindowAutoencoder,
    bocpd_flag,
    bocpd_init,
    bocpd_oracle,
    bocpd_posterior_dense,
    bocpd_update,
    calibrate_tau,
    fit_age_profile,
    fit_nominal_profile,
    window_ae_score,
    window_ae_train,
)
from .env import env_reset, env_step
from .errors import (
    ConfigurationError,
    CorruptCheckpointError,
    DegenerateGeometryError,
    DimensionMismatchError,
    DriftwatchError,
    InsufficientDataError,
    NotConvergedError,
    SingularGeometryError,
)
from .gnss import make_constellation, measure_pseudoranges, solve_pvt
from .harness import (
    DetectorBank,
    EpisodeLog,
    compute_metrics,
    evaluate,
    profile_pipeline,
    run_episode,
    write_episode_csv,
)
from .report import emit_report
from .spoofing import AttackConfig, attack_alpha, spoof_pseudoranges

__version__ = "0.1.0"

__all__ = [
    "AgeProfile",
    "Agent",
    "AttackConfig",
    "ConfigurationError",
    "CorruptCheckpointError",
    "DegenerateGeometryError",
    "DetectorBank",
    "DetectorConfig",
    "DimensionMismatchError",
    "DriftwatchError",
    "EnvConfig",
    "EpisodeLog",
    "EvalConfig",
    "ExperimentConfig",
    "GnssConfig",
    "InsufficientDataError",
    "NominalProfile",
    "NotConvergedError",
    "PageHinkley",
    "ResidualThreshold",
    "SingularGeometryError",
    "TrainConfig",
    "WindowAutoencoder",
    "__version__",
    "attack_alpha",
    "bocpd_flag",
    "bocpd_init",
    "bocpd_oracle",
    "bocpd_posterior_dense",
    "bocpd_update",
    "calibrate_tau",
    "compute_metrics",
    "default_config",
    "emit_report",
    "env_reset",
    "env_step",
    "evaluate",
    "fit_age_profile",
    "fit_nominal_profile",
    "load_checkpoint",
    "load_config",
    "make_constellation",
    "measure_pseudoranges",
    "profile_pipeline",
    "run_episode",
    "save_checkpoint",
    "save_config",
    "solve_pvt",
    "spoof_pseudoranges",
    "train",
    "write_episode_csv",
]
