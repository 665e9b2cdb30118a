"""Robust divergence-based training for small neural classifiers."""

from .divergence import (
    InvalidTuningError,
    LossSpec,
    TuningPair,
    conditional_sd_risk,
    make_tuning,
    sd_loss,
    softmax,
)
from .network import (
    ArchitectureSpec,
    ForwardTrace,
    backward,
    example_model,
    forward,
    init_params,
)
from .optimizer import TrainConfig, accuracy, adam_step, train
from .contamination import corrupt_labels, noisy_posterior
from .attacks import AttackConfig, adversarial_trainset, attack
from .theory import (
    BoundGrid,
    bound_grid,
    big_psi,
    calibration_check,
    excess_risk_bound,
    influence_function,
    psi,
)
from .data_io import (
    DataFormatError,
    Dataset,
    make_folds,
    read_idx,
    synthetic_blobs,
    synthetic_example1,
    write_results,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
