"""Single-photon LiDAR timestamp simulation toolkit.

Two simulators for dead-time-distorted photon registrations: the
conventional sequential culling simulator (ground truth) and a fast
learned simulator built from a Gaussian registration-count model and an
autoencoder that maps the arrival flux to the registration PDF.
"""

from .arrival import (
    RngHandle,
    TimestampBatch,
    sample_poisson_count,
    simulate_arrivals,
)
from .core import (
    DegenerateDistributionError,
    DiscretizedFunction,
    EnvParams,
    FormatError,
    NoPhotonError,
    ParameterError,
    SystemParams,
    TimeGrid,
    arrival_pdf,
    build_flux,
)
from .count_model import CountEstimate, energy_loss_fn, estimate_count, expected_loss, sample_count
from .dataset import Dataset, EnvRanges, generate_dataset, read_dataset, write_dataset
from .fast_sim import (
    SceneSpec,
    estimate_depth,
    fast_simulate,
    ramp_scene,
    read_scene,
    simulate_image,
    write_scene,
)
from .oracle import RegistrationResult, cull_dead_time, empirical_pdf, simulate_registrations
from .pdf_net import (
    AEModel,
    TrainConfig,
    build_model,
    load_model,
    predict_pdf,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AEModel",
    "CountEstimate",
    "Dataset",
    "DegenerateDistributionError",
    "DiscretizedFunction",
    "EnvParams",
    "EnvRanges",
    "FormatError",
    "NoPhotonError",
    "ParameterError",
    "RegistrationResult",
    "RngHandle",
    "SceneSpec",
    "SystemParams",
    "TimeGrid",
    "TimestampBatch",
    "TrainConfig",
    "arrival_pdf",
    "build_flux",
    "build_model",
    "cull_dead_time",
    "empirical_pdf",
    "energy_loss_fn",
    "estimate_count",
    "estimate_depth",
    "expected_loss",
    "fast_simulate",
    "generate_dataset",
    "load_model",
    "predict_pdf",
    "ramp_scene",
    "read_dataset",
    "read_scene",
    "sample_count",
    "sample_poisson_count",
    "save_model",
    "simulate_arrivals",
    "simulate_image",
    "simulate_registrations",
    "train",
    "write_dataset",
    "write_scene",
]
