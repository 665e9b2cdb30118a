"""Robust divergence-based training for small neural classifiers."""

from .divergence import (
    InvalidTuningError,
    LossSpec,
    TuningPair,
    conditional_sd_risk,
    loss_bounds,
    make_tuning,
    sd_loss,
    sd_loss_grad_logits,
    sd_loss_grad_probs,
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
from .contamination import NoiseConfig, corrupt_labels, noisy_posterior
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
