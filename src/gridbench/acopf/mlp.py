"""Tanh MLP mapping load vectors to grid decisions, with manual backprop.

The raw network output is squashed into the box constraints where the
decision is naturally bounded: vm through a sigmoid window over the bus
voltage band, pg likewise over the generator active range; va and qg pass
through unsquashed (the slack angle is pinned downstream). Which entries
are squashed, and into what range, comes from ``DecisionSpace``'s
``boxed``/``lo``/``span``. Inputs are
standardized with the training-set statistics stored on the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .space import DecisionSpace
from ..rng import Rng


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    overflows."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray
    space: DecisionSpace = field(repr=False)

    def copy(self) -> "MlpModel":
        return MlpModel(weights=[w.copy() for w in self.weights],
                        biases=[b.copy() for b in self.biases],
                        input_mean=self.input_mean.copy(),
                        input_std=self.input_std.copy(),
                        space=self.space)


def input_standardization(train_inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, std) per input column; a constant column gets std 1e-6."""
    return train_inputs.mean(axis=0), np.maximum(train_inputs.std(axis=0), 1e-6)


def build_mlp(space: DecisionSpace, hidden_layers: int = 2, width: int = 200,
              seed: int = 0) -> MlpModel:
    """Seeded He-style initialization; output layer starts near zero so the
    squashed decision begins mid-band.

    The input standardization starts as the identity; set it from the
    training inputs with :func:`input_standardization`."""
    n_in = 2 * space.n_load
    n_out = space.dim
    sizes = [n_in] + [width] * hidden_layers + [n_out]
    rng = Rng(seed)
    weights, biases = [], []
    for a, bdim in zip(sizes[:-1], sizes[1:]):
        scale = 1.0 / np.sqrt(a)
        weights.append(rng.normals(a * bdim, 0.0, scale).reshape(a, bdim))
        biases.append(np.zeros(bdim))
    weights[-1] *= 0.1
    return MlpModel(weights=weights, biases=biases, input_mean=np.zeros(n_in),
                    input_std=np.ones(n_in), space=space)


def mlp_forward(model: MlpModel, inputs: np.ndarray):
    """Returns (decision batch, cache for backprop)."""
    space = model.space
    x = (np.atleast_2d(inputs) - model.input_mean) / model.input_std
    activations = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
        activations.append(h)
    raw = h @ model.weights[-1] + model.biases[-1]

    s = _sigmoid(raw)
    decision = np.where(space.boxed, space.lo + space.span * s, raw)
    return decision, {"activations": activations, "s": s}


def mlp_backward(model: MlpModel, cache: dict, grad_decision: np.ndarray):
    """Gradients of the loss wrt weights/biases given d L / d decision."""
    space = model.space
    s = cache["s"]
    d_raw = np.where(space.boxed, grad_decision * space.span * s * (1 - s),
                     grad_decision)

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = d_raw
    for layer in range(len(model.weights) - 1, -1, -1):
        a_prev = cache["activations"][layer]
        grads_w[layer] = a_prev.T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            h = cache["activations"][layer]
            delta = (delta @ model.weights[layer].T) * (1.0 - h * h)
    return grads_w, grads_b
