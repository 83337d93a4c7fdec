"""Data-driven ACOPF generalization experiment."""

from .datagen import SampleSet, gen_augmented, gen_realistic
from .loss import PenaltyWeights, penalty_loss_and_grad
from .mlp import MlpModel, build_mlp, mlp_backward, mlp_forward
from .space import DecisionSpace, ViolationReport
from .sweep import (
    DEFAULT_SEEDS,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    experiment_sweep,
    run_cell,
    split_realistic,
)
from .train import TrainConfig, TrainingDiverged, evaluate_decisions, train_penalty

__all__ = [
    "DEFAULT_SEEDS", "DecisionSpace", "ExperimentConfig",
    "MlpModel", "PenaltyWeights", "SampleSet", "SweepResult", "SweepRow",
    "TrainConfig", "TrainingDiverged", "ViolationReport", "build_mlp",
    "evaluate_decisions", "experiment_sweep", "gen_augmented", "gen_realistic",
    "mlp_backward", "mlp_forward",
    "penalty_loss_and_grad", "run_cell", "split_realistic", "train_penalty",
]
