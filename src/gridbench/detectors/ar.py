"""Autoregressive residual scoring: per-channel AR (ARIMA(p,1,0)) and VAR.

Both first-difference the stream, fit AR coefficients by ordinary least
squares on a rolling history, and score the one-step-ahead residual of the
newest tick: absolute z per channel (max reported) for the univariate
model, Mahalanobis distance under the residual covariance for the VAR.
Coefficients are refit every ``REFIT_EVERY`` ticks to keep the stream pass
cheap; between refits the stored coefficients keep predicting.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import AnomalyScoreSeries, mahalanobis_threshold, max_z_threshold

LAGS = 5           # AR order of both models (per channel for the VAR)
FIT_WINDOW = 200   # diffs behind each fit
REFIT_EVERY = 5    # ticks between coefficient refits
ARIMA_RIDGE = 1e-8  # fallback for singular per-channel normal equations
ARIMA_MIN_HISTORY = 40  # diffs required before scoring starts
VAR_RIDGE = 1e-6   # added to the residual covariance
VAR_MIN_ROWS_FACTOR = 2.0  # rows per regressor before scoring starts


def ar_fit_batch(diffs: np.ndarray, p: int, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """OLS AR(p)-with-intercept fits for every channel of a diff window.

    Returns (coefs, sigmas): coefs is (channels, p+1) with the intercept
    last; sigmas are residual standard deviations. Singular normal
    equations fall back to ridge regression with a warning.

    The lags are a strided view of ``diffs``, so no design tensor is built:
    the normal equations' lag block is one einsum over the view, and the
    intercept row, column and right-hand side are sums against a vector of
    ones, which reduce in the order the full design's products did.
    """
    diffs = np.atleast_2d(diffs)
    rows = diffs.shape[0] - p
    if rows < p + 2:
        raise ValueError("history too short for the requested lag order")
    m = diffs.shape[1]
    # lags[k, r, c] = diffs[p - 1 - k + r, c], lag k + 1 of target row r
    lags = sliding_window_view(diffs, rows, axis=0)[p - 1::-1].transpose(0, 2, 1)
    ones = np.ones(rows)
    y = diffs[p:]
    a = np.empty((m, p + 1, p + 1))
    a[:, :p, :p] = np.einsum("krm,lrm->mkl", lags, lags)
    a[:, :p, p] = a[:, p, :p] = np.einsum("krm,r->mk", lags, ones)
    a[:, p, p] = rows
    b = np.empty((m, p + 1))
    b[:, :p] = np.einsum("krm,rm->mk", lags, y)
    b[:, p] = np.einsum("rm,r->m", y, ones)
    try:
        coefs = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        warnings.warn("rank-deficient AR regression; using ridge fallback", stacklevel=2)
        a = a + ridge * np.eye(p + 1)[None, :, :]
        coefs = np.linalg.solve(a, b[..., None])[..., 0]
    preds = np.einsum("krm,mk->rm", lags, coefs[:, :p]) + coefs[:, p]
    resid = y - preds
    dof = max(1, rows - (p + 1))
    sigmas = np.sqrt((resid ** 2).sum(axis=0) / dof)
    return coefs, sigmas


def ar_predict(history: np.ndarray, coefs: np.ndarray, p: int) -> np.ndarray:
    """One-step prediction per channel from the trailing p diffs."""
    recent = history[-p:][::-1]  # lag 1 first
    return np.einsum("km,mk->m", recent, coefs[:, :p]) + coefs[:, p]


def _rolling_scores(detector: str, values: np.ndarray, first: int, fit,
                    threshold: float | None = None) -> AnomalyScoreSeries:
    """The walk both models share. Diff i first involves tick i + 1; from
    i = ``first`` on, ``score(window, diff)`` rates it against the
    ``FIT_WINDOW`` diffs before it, with ``(score, threshold) = fit(window)``
    refit every ``REFIT_EVERY`` diffs (``threshold`` until the first fit)."""
    n_ticks = len(values)
    diffs = np.diff(values, axis=0)
    scores = np.full(n_ticks, np.nan)
    flags = np.zeros(n_ticks, dtype=bool)
    for i in range(first, n_ticks - 1):
        window = diffs[max(0, i - FIT_WINDOW):i]
        if (i - first) % REFIT_EVERY == 0:
            score, threshold = fit(window)
        scores[i + 1] = score(window, diffs[i])
        flags[i + 1] = scores[i + 1] > threshold
    return AnomalyScoreSeries(detector=detector, ticks=np.arange(n_ticks),
                              scores=scores, flags=flags, threshold=threshold)


def arima_score_stream(values: np.ndarray) -> AnomalyScoreSeries:
    """Max over channels of the absolute one-step residual z-score."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    threshold = max_z_threshold(values.shape[1])

    def fit(window):
        coefs, sigmas = ar_fit_batch(window, LAGS, ARIMA_RIDGE)
        scale = np.maximum(sigmas, 1e-9)
        return (lambda w, diff: float((np.abs(diff - ar_predict(w, coefs, LAGS)) / scale).max()),
                threshold)

    return _rolling_scores("arima", values, ARIMA_MIN_HISTORY, fit, threshold)


def var_channel_subset(values: np.ndarray) -> np.ndarray:
    """Channel indices used by the VAR.

    With many sensors the regression would be underdetermined, so when
    channels exceed FIT_WINDOW/4 the highest-variance subset is kept, sized
    to leave the least squares problem comfortably overdetermined.
    """
    m = values.shape[1]
    if m <= FIT_WINDOW // 4:
        return np.arange(m)
    cap = max(1, (FIT_WINDOW - LAGS - 1) // (2 * LAGS))
    variances = values.var(axis=0)
    return np.sort(np.argsort(-variances)[:min(m, cap)])


def var_fit(diffs: np.ndarray, p: int, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint VAR(p) OLS fit. Returns (coef matrix, residual covariance).

    coef has shape (k*p + 1, k): stacked lag blocks then intercept row.
    """
    rows = diffs.shape[0] - p
    k = diffs.shape[1]
    x = np.concatenate([diffs[p - 1 - j: p - 1 - j + rows] for j in range(p)], axis=1)
    x = np.concatenate([x, np.ones((rows, 1))], axis=1)
    y = diffs[p:]
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    dof = max(1, rows - x.shape[1])
    cov = resid.T @ resid / dof + ridge * np.eye(k)
    return coef, cov


def var_predict(history: np.ndarray, coef: np.ndarray, p: int) -> np.ndarray:
    x = np.concatenate([history[-1 - j] for j in range(p)] + [np.ones(1)])
    return x @ coef


def var_score_stream(values: np.ndarray) -> AnomalyScoreSeries:
    """Mahalanobis distance of the joint one-step residual.

    Scoring starts once the rolling window holds ``VAR_MIN_ROWS_FACTOR``
    rows per regressor; the flag threshold is the Hotelling prediction bound
    at the current effective degrees of freedom, so early fits get a wider
    berth than asymptotic chi-square would grant.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    warm = 8 * LAGS  # enough raw ticks to rank channel variances
    subset = var_channel_subset(values[:warm + 1])
    n_regressors = len(subset) * LAGS + 1

    def fit(window):
        coef, cov = var_fit(window, LAGS, VAR_RIDGE)
        cov_inv = np.linalg.inv(cov)
        rows = len(window) - LAGS
        dof = max(len(subset) + 2, rows - n_regressors)
        leverage = np.sqrt(1.0 + n_regressors / max(1, rows))

        def score(w, diff):
            resid = diff - var_predict(w, coef, LAGS)
            return float(np.sqrt(resid @ cov_inv @ resid))

        return score, mahalanobis_threshold(len(subset), dof=dof, inflation=leverage)

    first = max(warm, LAGS + math.ceil(VAR_MIN_ROWS_FACTOR * n_regressors))
    return _rolling_scores("var", values[:, subset], first, fit)
