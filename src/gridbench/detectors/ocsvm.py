"""nu-one-class SVM trained by pairwise dual coordinate descent.

Dual problem (RBF kernel K):

    minimize   1/2 a' K a
    subject to 0 <= a_i <= 1/(nu*n),  sum_i a_i = 1

Each step moves mass between the most-violating pair (largest gradient
among decreasable coordinates, smallest among increasable ones), exactly a
working-set-of-two selection. At the KKT point all non-bound coordinates
share a common gradient value rho, which doubles as the decision offset:
f(x) = sum_i a_i K(x_i, x) - rho, negative on the outlier side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import OcsvmConfig
from .density import squared_distances


class OcsvmError(RuntimeError):
    def __init__(self, message: str, duality_gap: float):
        super().__init__(f"{message} (duality gap {duality_gap:.3e})")
        self.duality_gap = duality_gap


@dataclass
class OcsvmModel:
    train: np.ndarray
    center: np.ndarray  # training mean; kernels are taken between centred points
    alpha: np.ndarray
    rho: float
    gamma: float
    upper: float       # box bound 1/(nu*n)
    iterations: int
    kkt_violation: float


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma |a_i - b_j|^2) for every pair of rows."""
    k = squared_distances(a, b)
    k *= -gamma
    return np.exp(k, out=k)


def _resolve_gamma(x: np.ndarray, cfg: OcsvmConfig) -> float:
    if cfg.gamma is not None:
        return cfg.gamma
    var = float(x.var())
    return 1.0 / (x.shape[1] * var) if var > 0 else 1.0


def duality_gap(k: np.ndarray, alpha: np.ndarray, rho: float, upper: float) -> float:
    """Primal minus dual objective at the current iterate."""
    g = k @ alpha
    quad = float(alpha @ g)
    slacks = np.maximum(0.0, rho - g)
    primal = 0.5 * quad - rho + upper * slacks.sum()
    dual = -0.5 * quad
    return primal - dual


def ocsvm_fit(train: np.ndarray, cfg: OcsvmConfig) -> OcsvmModel:
    """Solve the dual to the configured KKT tolerance.

    Raises :class:`OcsvmError` carrying the duality gap if the iteration
    cap is hit first.
    """
    x = np.atleast_2d(np.asarray(train, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 training points")
    gamma = _resolve_gamma(x, cfg)
    center = x.mean(axis=0)
    centred = x - center
    k = rbf_kernel(centred, centred, gamma)
    upper = 1.0 / (cfg.nu * n)

    # standard feasible start: fill the first floor(nu*n) coordinates
    alpha = np.zeros(n)
    full = int(np.floor(cfg.nu * n))
    alpha[:full] = upper
    if full < n:
        alpha[full] = 1.0 - upper * full
    g = k @ alpha

    it = 0
    violation = np.inf
    while it < cfg.max_iter:
        can_down = alpha > 0
        can_up = alpha < upper
        i = int(np.argmax(np.where(can_down, g, -np.inf)))
        j = int(np.argmin(np.where(can_up, g, np.inf)))
        violation = g[i] - g[j]
        if violation <= cfg.tol:
            break
        denom = k[i, i] + k[j, j] - 2.0 * k[i, j]
        step = violation / denom if denom > 1e-14 else np.inf
        step = min(step, alpha[i], upper - alpha[j])
        alpha[i] -= step
        alpha[j] += step
        g += step * (k[:, j] - k[:, i])
        it += 1

    interior = (alpha > 1e-10) & (alpha < upper - 1e-10)
    if interior.any():
        rho = float(g[interior].mean())
    else:
        lo = g[alpha >= upper - 1e-10]
        hi = g[alpha <= 1e-10]
        pieces = [p for p in (lo, hi) if len(p)]
        rho = float(np.mean([p.mean() for p in pieces]))

    if violation > cfg.tol:
        raise OcsvmError(
            f"SMO did not reach tol {cfg.tol} within {cfg.max_iter} iterations",
            duality_gap(k, alpha, rho, upper))
    return OcsvmModel(train=x, center=center, alpha=alpha, rho=rho, gamma=gamma,
                      upper=upper, iterations=it, kkt_violation=float(violation))


def ocsvm_score(model: OcsvmModel, queries: np.ndarray) -> np.ndarray:
    """rho minus the kernel expansion: positive on the outlier side."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    k = rbf_kernel(queries - model.center, model.train - model.center, model.gamma)
    return model.rho - k @ model.alpha
