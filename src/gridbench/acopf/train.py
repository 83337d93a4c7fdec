"""Mini-batch momentum training of the penalty objective."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loss import PenaltyWeights, penalty_loss_and_grad
from .mlp import MlpModel, mlp_backward, mlp_forward
from ..rng import Rng

BATCH_SIZE = 64


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 120
    lr: float = 0.01
    lr_decay: float = 0.0  # effective lr = lr / (1 + lr_decay * epoch)
    momentum: float = 0.9
    grad_clip: float = 1.0  # global-norm cap; the equality term is stiff
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not 0.0 <= self.lr_decay < math.inf:
            raise ValueError("lr_decay must be non-negative and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not self.grad_clip > 0.0:  # inf disables clipping
            raise ValueError("grad_clip must be positive")


def train_penalty(model: MlpModel, pd: np.ndarray, qd: np.ndarray,
                  cfg: TrainConfig) -> tuple[MlpModel, list[dict]]:
    """Train in place on load samples (pd, qd are n_samples x n_loads).

    Returns the model and a per-epoch loss trace. Zero epochs leave the
    model untouched. Each batch runs forward, then the penalty loss and its
    gradient, then backward; a non-finite loss raises ``TrainingDiverged``
    with the epoch index before the backward pass.

    Each batch builds its network inputs and bus loads from its own rows of
    pd and qd, and the momentum step updates the optimizer state in place,
    so memory beyond the samples and the model grows with the batch, not
    with the sample set.
    """
    space = model.space
    n = pd.shape[0]
    if n == 0:
        raise ValueError("no training samples")
    rng = Rng(cfg.seed)
    params = model.weights + model.biases
    velocity = [np.zeros_like(p) for p in params]
    trace: list[dict] = []
    order = list(range(n))
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        lr = cfg.lr / (1.0 + cfg.lr_decay * epoch)
        epoch_loss = 0.0
        epoch_parts = {"cost": 0.0, "eq": 0.0, "ineq": 0.0}
        batches = 0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            pd_batch, qd_batch = pd[idx], qd[idx]
            pd_bus, qd_bus = space.loads_to_buses(pd_batch, qd_batch)
            decision, cache = mlp_forward(
                model, np.concatenate([pd_batch, qd_batch], axis=1))
            loss, grad_dec, parts = penalty_loss_and_grad(
                space, decision, pd_bus, qd_bus, cfg.weights)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            grads_w, grads_b = mlp_backward(model, cache, grad_dec)
            # freed here, not when the next batch rebinds them, so two
            # batches' activations are never held at once
            del decision, cache, grad_dec
            gnorm = np.sqrt(sum(float((g**2).sum()) for g in grads_w)
                            + sum(float((g**2).sum()) for g in grads_b))
            step = lr * min(1.0, cfg.grad_clip / max(gnorm, 1e-12))
            # vel = momentum * vel - step * g, in place and rounded as written
            for p, vel, g in zip(params, velocity, grads_w + grads_b):
                g *= step
                vel *= cfg.momentum
                vel -= g
                p += vel
            epoch_loss += loss
            for key in epoch_parts:
                epoch_parts[key] += parts[key]
            batches += 1
        entry = {"epoch": epoch, "loss": epoch_loss / batches}
        entry.update({k: v / batches for k, v in epoch_parts.items()})
        trace.append(entry)
    return model, trace


def evaluate_decisions(model: MlpModel, pd: np.ndarray, qd: np.ndarray):
    """Violation report of the model's decisions on given load samples."""
    space = model.space
    inputs = np.concatenate([pd, qd], axis=1)
    decision, _ = mlp_forward(model, inputs)
    return space.violations(decision, pd=pd, qd=qd)
