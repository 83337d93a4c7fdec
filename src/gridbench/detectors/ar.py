"""Autoregressive residual scoring: per-channel AR (ARIMA(p,1,0)) and VAR.

Both first-difference the stream, fit AR coefficients by ordinary least
squares on a rolling history of ``FIT_WINDOW`` diffs, and score the
one-step-ahead residual of each newer tick: absolute z per channel (max
reported) for the univariate model, Mahalanobis distance under the
residual covariance for the VAR. Coefficients are refit every
``REFIT_EVERY`` ticks; the ticks up to the next refit are scored together
against the stored coefficients.

The univariate model keeps each channel's normal equations between refits
as one Gram matrix (:func:`ar_gram`): a refit adds the rows that entered
the window and subtracts the rows that left it, and takes the residual
sum of squares from the same matrix. The VAR solves its normal equations
``x'x c = x'y`` at each refit, in place of an SVD, and falls back to
``lstsq`` where ``x'x`` is singular (see :func:`var_fit`).

A block's predictions are elementwise products summed along a fixed axis,
so each tick's score rounds the same however many ticks its block holds.
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


def _lagged(diffs: np.ndarray, p: int) -> np.ndarray:
    """Row z_t = (d[t-1], ..., d[t-p], 1, d[t]) of every channel, for the
    targets t = p .. len(diffs) - 1: shape (targets, channels, p + 2)."""
    window = sliding_window_view(diffs, p + 1, axis=0)  # [r, c, j] = d[r + j, c]
    z = np.empty(window.shape[:2] + (p + 2,))
    z[..., :p] = window[..., p - 1::-1]
    z[..., p] = 1.0
    z[..., p + 1] = window[..., p]
    return z


def ar_gram(diffs: np.ndarray, p: int) -> np.ndarray:
    """Per-channel sum of z z' over the targets of a diff window (see
    :func:`_lagged`): the normal equations' matrix in ``[:, :p+1, :p+1]``,
    their right-hand side in ``[:, :p+1, p+1]`` and y'y in ``[:, p+1, p+1]``.
    Sums over disjoint target ranges add up to the sum over their union."""
    z = _lagged(np.atleast_2d(diffs), p)
    # a product of one buffer with its own transpose goes to a per-channel
    # syrk call, ~4x slower at these sizes than the product with a copy
    return z.transpose(1, 2, 0) @ z.copy().transpose(1, 0, 2)


def ar_fit(gram: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """OLS AR-with-intercept fits of every channel from its Gram matrix.

    Returns (coefs, sigmas): coefs is (channels, p+1) with the intercept
    last; sigmas are residual standard deviations, from the residual sum of
    squares y'y - c'b (less ridge |c|^2 after a ridge solve, so that it is
    still the sum of the squared residuals). Singular normal equations fall
    back to ridge regression of every channel, with a warning.
    """
    p = gram.shape[1] - 2
    rows = gram[0, p, p]
    if rows < p + 2:
        raise ValueError("history too short for the requested lag order")
    a, b = gram[:, :p + 1, :p + 1], gram[:, :p + 1, p + 1]
    try:
        coefs = np.linalg.solve(a, b[..., None])[..., 0]
        rss = gram[:, p + 1, p + 1] - (coefs * b).sum(axis=1)
    except np.linalg.LinAlgError:
        warnings.warn("rank-deficient AR regression; using ridge fallback", stacklevel=2)
        coefs = np.linalg.solve(a + ridge * np.eye(p + 1), b[..., None])[..., 0]
        rss = gram[:, p + 1, p + 1] - (coefs * (b + ridge * coefs)).sum(axis=1)
    dof = max(1.0, rows - (p + 1))
    return coefs, np.sqrt(np.maximum(rss, 0.0) / dof)


def arima_score_stream(values: np.ndarray) -> AnomalyScoreSeries:
    """Max over channels of the absolute one-step residual z-score.

    Diff i first involves tick i + 1. From i = ``ARIMA_MIN_HISTORY`` on,
    every ``REFIT_EVERY`` diffs, the fit's targets are the diffs
    [max(0, i - FIT_WINDOW) + LAGS, i), and diffs i .. i + REFIT_EVERY - 1
    are scored against it.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_ticks = len(values)
    threshold = max_z_threshold(values.shape[1])
    scores = np.full(n_ticks, np.nan)

    def diffs(lo, hi):  # diffs lo .. hi - 1; no whole-stream copy is kept
        return np.diff(values[lo:hi + 1], axis=0)

    gram = None
    for i in range(ARIMA_MIN_HISTORY, n_ticks - 1, REFIT_EVERY):
        lo = max(0, i - FIT_WINDOW)
        if gram is None:
            gram = ar_gram(diffs(lo, i), LAGS)
        else:
            gram += ar_gram(diffs(i - REFIT_EVERY - LAGS, i), LAGS)
            gone = max(0, i - REFIT_EVERY - FIT_WINDOW)
            if gone < lo:
                gram -= ar_gram(diffs(gone, lo + LAGS), LAGS)
        coefs, sigmas = ar_fit(gram, ARIMA_RIDGE)
        stop = min(i + REFIT_EVERY, n_ticks - 1)
        z = _lagged(diffs(i - LAGS, stop), LAGS)
        resid = np.abs(z[..., LAGS + 1] - (z[..., :LAGS + 1] * coefs).sum(axis=2))
        scores[i + 1:stop + 1] = (resid / np.maximum(sigmas, 1e-9)).max(axis=1)
    return AnomalyScoreSeries(detector="arima", ticks=np.arange(n_ticks), scores=scores,
                              flags=scores > threshold, threshold=threshold)


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


def _var_design(diffs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Regressors (stacked lag blocks, lag 1 first, then a ones column) and
    targets of the rows t = p .. len(diffs) - 1."""
    rows = diffs.shape[0] - p
    x = np.concatenate([diffs[p - 1 - j: p - 1 - j + rows] for j in range(p)]
                       + [np.ones((rows, 1))], axis=1)
    return x, diffs[p:]


def var_fit(diffs: np.ndarray, p: int, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint VAR(p) OLS fit. Returns (coef matrix, residual covariance).

    coef has shape (k*p + 1, k): stacked lag blocks then intercept row. It
    solves the normal equations x'x c = x'y, or takes ``lstsq``'s
    minimum-norm solution where x'x is singular: where its Cholesky
    factorization fails or leaves a pivot below eps * max(rows, regressors)
    times the largest (the relative cutoff ``lstsq`` applies to singular
    values). A constant channel makes x'x exactly singular; a duplicated one
    leaves pivots of rounding size, which ``solve`` need not reject.
    """
    x, y = _var_design(diffs, p)
    gram = x.T @ x
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
        if pivots.min() <= np.finfo(float).eps * max(x.shape) * pivots.max():
            raise np.linalg.LinAlgError("singular normal equations")
        coef = np.linalg.solve(gram, x.T @ y)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    dof = max(1, len(x) - x.shape[1])
    cov = resid.T @ resid / dof + ridge * np.eye(y.shape[1])
    return coef, cov


def var_score_stream(values: np.ndarray) -> AnomalyScoreSeries:
    """Mahalanobis distance of the joint one-step residual.

    Scoring starts once the rolling window holds ``VAR_MIN_ROWS_FACTOR``
    rows per regressor; the flag threshold is the Hotelling prediction bound
    at the current effective degrees of freedom, so early fits get a wider
    berth than asymptotic chi-square would grant. The walk is
    :func:`arima_score_stream`'s, with each fit made from its window.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_ticks = len(values)
    warm = 8 * LAGS  # enough raw ticks to rank channel variances
    subset = var_channel_subset(values[:warm + 1])
    n_regressors = len(subset) * LAGS + 1
    diffs = np.diff(values[:, subset], axis=0)
    scores = np.full(n_ticks, np.nan)
    flags = np.zeros(n_ticks, dtype=bool)
    threshold = None
    first = max(warm, LAGS + math.ceil(VAR_MIN_ROWS_FACTOR * n_regressors))
    for i in range(first, n_ticks - 1, REFIT_EVERY):
        window = diffs[max(0, i - FIT_WINDOW):i]
        coef, cov = var_fit(window, LAGS, VAR_RIDGE)
        cov_inv = np.linalg.inv(cov)
        rows = len(window) - LAGS
        dof = max(len(subset) + 2, rows - n_regressors)
        leverage = np.sqrt(1.0 + n_regressors / max(1, rows))
        threshold = mahalanobis_threshold(len(subset), dof=dof, inflation=leverage)
        stop = min(i + REFIT_EVERY, n_ticks - 1)
        x, y = _var_design(diffs[i - LAGS:stop], LAGS)
        resid = y - (x[:, :, None] * coef).sum(axis=1)
        spread = (resid[:, :, None] * cov_inv).sum(axis=1)
        scores[i + 1:stop + 1] = np.sqrt((spread * resid).sum(axis=1))
        flags[i + 1:stop + 1] = scores[i + 1:stop + 1] > threshold
    return AnomalyScoreSeries(detector="var", ticks=np.arange(n_ticks), scores=scores,
                              flags=flags, threshold=threshold)
