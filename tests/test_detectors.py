"""Detector oracle tests: GESD, AR/VAR, LOF, Parzen, isolation forest, topo."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.spatial.distance import cdist
from scipy.special import logsumexp
from scipy.stats import chi2, f, norm
from scipy.stats import t as student_t

from gridbench.detectors import (
    FIT_BASED,
    STREAMING,
    DetectorConfig,
    IforestConfig,
    OcsvmConfig,
    TopoConfig,
    arima_score_stream,
    average_path_length,
    gesd_critical_value,
    gesd_score_stream,
    graph_distance,
    iforest_fit,
    iforest_score,
    lof_fit,
    lof_score,
    lof_train_scores,
    mahalanobis_threshold,
    max_z_threshold,
    parzen_fit,
    parzen_log_density,
    parzen_score,
    parzen_train_scores,
    robust_train_threshold,
    score_stream,
    sensitivity_weights,
    topo_aware_score,
    var_score_stream,
)
from gridbench.detectors.ar import (
    ARIMA_MIN_HISTORY,
    ARIMA_RIDGE,
    FIT_WINDOW,
    LAGS,
    REFIT_EVERY,
    VAR_MIN_ROWS_FACTOR,
    VAR_RIDGE,
    ar_fit,
    ar_gram,
    var_channel_subset,
    var_fit,
)
from gridbench.detectors.base import P_THREE_SIGMA
from gridbench.detectors.density import BANDWIDTH_FLOOR, LOF_K, _k_neighborhood, squared_distances
from gridbench.detectors.gesd import MAX_ANOMS, SIGNIFICANCE, _window_scores_vectorized
from gridbench.detectors.iforest import IsolationTree, _grow
from gridbench.detectors.ocsvm import rbf_kernel
from gridbench.detectors.topo import (
    BLOCK,
    FINITE_SAMPLE,
    HISTORY,
    MIN_ESS,
    SCALE_SLACK,
    VALUE_FLOOR,
    _half_weight_pick,
)
from gridbench.grid import Branch, Bus, GridCase, Generator, Load, bundled_case
from gridbench.rng import Rng
from gridbench.scenario import benchmark_config, build_scenario, run_scenario


# ------------------------------------------------------------------ GESD

def gesd_window_score(window: np.ndarray) -> tuple[float, bool]:
    """Scalar reference: score the newest point of a single-sensor window.

    Returns (score, flagged): score is R - lambda at the step where the
    newest point was removed, or its plain studentized deviate minus
    lambda_1 when it never was. Zero-variance windows score 0, unflagged.
    """
    n = len(window)
    newest = n - 1
    active = np.ones(n, dtype=bool)
    removed_step = 0
    newest_score = None
    n_outliers = 0
    for i in range(1, MAX_ANOMS + 1):
        vals = window[active]
        std = vals.std(ddof=1)
        if std == 0.0:
            break
        mean = vals.mean()
        dev = np.abs(window - mean)
        dev[~active] = -np.inf
        worst = int(np.argmax(dev))
        r_i = dev[worst] / std
        lam = gesd_critical_value(n, i, SIGNIFICANCE)
        if r_i > lam:
            n_outliers = i
        if worst == newest:
            removed_step = i
            newest_score = float(r_i - lam)
        active[worst] = False
    if newest_score is None:
        full_std = window.std(ddof=1)
        if full_std == 0.0:
            return 0.0, False
        dev = abs(window[newest] - window.mean()) / full_std
        return float(dev - gesd_critical_value(n, 1, SIGNIFICANCE)), False
    flagged = 0 < removed_step <= n_outliers
    return newest_score, flagged


def test_gesd_constant_stream_never_flags():
    series = gesd_score_stream(np.ones((120, 3)))
    assert not series.flags.any()
    assert np.all(series.scores[49:] == 0.0)
    assert np.all(np.isnan(series.scores[:49]))


def test_gesd_spike_flagged_and_matches_direct_formulas():
    rng = Rng(11)
    window = rng.normals(50)
    window[-1] = 10.0  # +10 sigma spike at the newest tick
    score, flagged = gesd_window_score(window)
    assert flagged

    # direct transliteration of the R statistic and critical value
    n = 50
    r1 = np.max(np.abs(window - window.mean())) / window.std(ddof=1)
    assert int(np.argmax(np.abs(window - window.mean()))) == n - 1
    p = 1 - 0.05 / (2 * (n - 1 + 1))
    tq = student_t.ppf(p, n - 1 - 1)
    lam1 = (n - 1) * tq / np.sqrt((n - 1 - 1 + tq**2) * (n - 1 + 1))
    assert score == pytest.approx(r1 - lam1, rel=1e-12)
    assert gesd_critical_value(50, 1, 0.05) == lam1


def test_gesd_max_two_anomalies_per_window():
    # three equal spikes: only up to max_anoms can be declared outliers
    rng = Rng(5)
    base = rng.normals(50)
    base[10] = base[20] = base[-1] = 25.0
    _, flagged = gesd_window_score(base)
    # with three identical extremes the masking effect kicks in: after
    # removing two, the third still inflates the variance; the newest tick
    # can only be flagged if removed within the first max_anoms steps
    removed_steps = 0
    work = base.copy()
    active = np.ones(50, bool)
    for i in (1, 2):
        vals = work[active]
        dev = np.where(active, np.abs(work - vals.mean()), -np.inf)
        worst = int(np.argmax(dev))
        if worst == 49:
            removed_steps = i
        active[worst] = False
    assert flagged == (removed_steps in (1, 2))


def test_gesd_vectorized_matches_scalar():
    rng = Rng(17)
    values = rng.normals(80 * 5).reshape(80, 5)
    values[60, 2] += 9.0
    series = gesd_score_stream(values)
    for t in (49, 55, 60, 70):
        per_sensor = [gesd_window_score(values[t - 49:t + 1, j])
                      for j in range(5)]
        assert series.scores[t] == pytest.approx(max(s for s, _ in per_sensor))
        assert series.flags[t] == any(f for _, f in per_sensor)


def test_gesd_flags_on_step_change():
    rng = Rng(2)
    vals = rng.normals(200, 0.0, 0.01).reshape(-1, 1)
    vals[150:] += 1.0
    series = gesd_score_stream(vals)
    assert bool(series.flags[150])


def masked_window_scores(frame: np.ndarray) -> tuple[float, bool]:
    """Reference: the all-sensor window score with every removal step,
    the first included, computed over masks of the active points, and the
    never-removed sensors' deviates from ``frame.std``/``frame.mean``."""
    w, m = frame.shape
    newest = w - 1
    active = np.ones((w, m), dtype=bool)
    newest_score = np.full(m, np.nan)
    removed_step = np.zeros(m, dtype=int)
    n_outliers = np.zeros(m, dtype=int)
    alive = np.ones(m, dtype=bool)
    for i in range(1, MAX_ANOMS + 1):
        counts = active.sum(axis=0)
        means = np.where(active, frame, 0.0).sum(axis=0) / counts
        sq = np.where(active, (frame - means) ** 2, 0.0).sum(axis=0)
        std = np.sqrt(sq / (counts - 1))
        alive = alive & (std > 0.0)
        if not alive.any():
            break
        dev = np.where(active, np.abs(frame - means), -np.inf)
        worst = np.argmax(dev, axis=0)
        r_i = dev[worst, np.arange(m)] / np.where(std > 0, std, 1.0)
        lam = gesd_critical_value(w, i, SIGNIFICANCE)
        n_outliers[alive & (r_i > lam)] = i
        hit_newest = alive & (worst == newest) & (removed_step == 0)
        newest_score[hit_newest] = r_i[hit_newest] - lam
        removed_step[hit_newest] = i
        active[worst[alive], np.where(alive)[0]] = False
    pending = np.isnan(newest_score)
    if pending.any():
        std_full = frame.std(axis=0, ddof=1)
        ok = pending & (std_full > 0)
        dev = np.abs(frame[newest] - frame.mean(axis=0))
        newest_score[ok] = dev[ok] / std_full[ok] - gesd_critical_value(w, 1, SIGNIFICANCE)
        newest_score[pending & ~ok] = 0.0
    flagged = (removed_step > 0) & (removed_step <= n_outliers)
    return float(newest_score.max()), bool(flagged.any())


@pytest.mark.parametrize("seed", range(6))
def test_gesd_window_scores_equal_masked_reference(seed):
    """The mask-free first step gives exactly the masked steps' scores and
    flags, on windows with constant, duplicate and tied columns."""
    rng = np.random.default_rng(seed)
    for trial in range(40):
        m = (1, 2, 7, 60)[trial % 4]
        frame = rng.normal(size=(50, m)) * 10.0 ** rng.uniform(-3, 3)
        if m > 2:
            frame[:, 0] = 1.5  # constant
            frame[:, 1] = frame[:, 2]  # duplicate
        if trial % 3 == 0:
            frame[-1] += 6.0 * frame.std(axis=0)  # newest tick an outlier
        if trial % 5 == 0:
            frame = np.round(frame, 1)  # ties
        assert _window_scores_vectorized(frame) == masked_window_scores(frame)


# ---------------------------------------------------------------- AR/VAR

def test_ar_exact_process_near_zero_scores():
    # noise-free AR(1) differences: the model class contains the truth, so
    # one-step residuals collapse to numerical noise
    n = 160
    diffs = 0.5 * 0.97 ** np.arange(n)
    levels = np.cumsum(diffs) + 10.0
    series = arima_score_stream(levels.reshape(-1, 1))
    scored = series.scores[~np.isnan(series.scores)]
    assert len(scored) > 100
    assert scored.max() < 0.05
    assert not series.flags.any()


def test_ar_fit_matches_normal_equations_oracle():
    rng = Rng(9)
    m, p, rows = 4, 5, 120
    diffs = rng.normals((rows + p) * m).reshape(rows + p, m)
    coefs, sigmas = ar_fit(ar_gram(diffs, p), ridge=1e-8)
    for c in range(m):
        x = np.column_stack([diffs[p - 1 - k: p - 1 - k + rows, c] for k in range(p)]
                            + [np.ones(rows)])
        y = diffs[p:, c]
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(coefs[c], beta, atol=1e-10)
        resid = y - x @ beta
        np.testing.assert_allclose(
            sigmas[c], np.sqrt((resid**2).sum() / (rows - p - 1)), rtol=1e-10)


def stacked_design_ar_fit(diffs, p, ridge):
    """Reference: OLS fits over the full (p+1, rows, m) design tensor, the
    lag slices stacked and a slab of ones appended."""
    rows = diffs.shape[0] - p
    m = diffs.shape[1]
    lags = np.stack([diffs[p - 1 - k: p - 1 - k + rows] for k in range(p)])
    design = np.concatenate([lags, np.ones((1, rows, m))])
    y = diffs[p:]
    a = np.einsum("krm,lrm->mkl", design, design)
    b = np.einsum("krm,rm->mk", design, y)
    try:
        coefs = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        a = a + ridge * np.eye(p + 1)[None, :, :]
        coefs = np.linalg.solve(a, b[..., None])[..., 0]
    resid = y - np.einsum("krm,mk->rm", design, coefs)
    sigmas = np.sqrt((resid ** 2).sum(axis=0) / max(1, rows - (p + 1)))
    return coefs, sigmas


def assert_fit_close(got, want, diffs):
    """Coefficients and sigmas to rtol 1e-9, except the sigma of a channel
    that the fit explains exactly: y'y - c'b leaves it only the rounding of
    that difference, so both sigmas lie below sqrt(rows * eps * y'y / dof)
    (arima floors every sigma at 1e-9)."""
    np.testing.assert_allclose(got[0], want[0], rtol=1e-9, atol=0)
    y = diffs[LAGS:]
    dof = max(1, len(y) - (LAGS + 1))
    cancellation = np.sqrt(len(y) * np.finfo(float).eps * (y * y).sum(axis=0) / dof)
    close = np.abs(got[1] - want[1]) <= 1e-9 * want[1]
    exact_fit = (want[1] < cancellation) & (got[1] < cancellation)
    assert np.all(close | exact_fit), (got[1], want[1])


@pytest.mark.parametrize("m", [1, 2, 7, 213])
def test_ar_fit_batch_equals_stacked_design_reference(m):
    """The Gram-matrix fit gives the design tensor's coefficients and sigmas
    to rounding (its sums run in another order, and its sigmas come from
    y'y - c'b), the ridge fallback of constant and duplicate channels
    included."""
    rng = np.random.default_rng(m)
    for n in (2 * LAGS + 2, 40, 129, FIT_WINDOW):  # from the shortest window
        diffs = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = ar_fit(ar_gram(diffs, LAGS), 1e-8)
        assert_fit_close(got, stacked_design_ar_fit(diffs, LAGS, 1e-8), diffs)
    if m > 2:
        diffs[:, 0] = 0.25  # constant: singular normal equations
        diffs[:, 1] = diffs[:, 2]
        with pytest.warns(UserWarning, match="ridge fallback"):
            got = ar_fit(ar_gram(diffs, LAGS), 1e-8)
        assert_fit_close(got, stacked_design_ar_fit(diffs, LAGS, 1e-8), diffs)


def test_ar_step_spike_at_change_tick():
    rng = Rng(21)
    vals = (10.0 + rng.normals(300, 0.0, 0.02)).reshape(-1, 1)
    vals[200:] += 5.0
    series = arima_score_stream(vals)
    assert series.flags[200]
    assert series.scores[200] > 10 * np.nanmedian(series.scores)


def test_var_scores_step_and_stays_calm_otherwise():
    # random-walk levels: differencing yields i.i.d. innovations, the
    # regime the detector is built for
    rng = Rng(31)
    n, m = 300, 6
    vals = rng.normals(n * m, 0.0, 0.05).reshape(n, m).cumsum(axis=0) + np.arange(m)
    vals[220:, 3] += 3.0
    series = var_score_stream(vals)
    assert series.flags[220]
    assert series.scores[220] > 3 * np.nanmedian(series.scores)
    calm = series.flags[100:200]
    assert calm.mean() <= 0.02


def test_var_channel_guard_keeps_regression_overdetermined():
    wide = Rng(1).normals(300 * 120).reshape(300, 120)
    subset = var_channel_subset(wide)
    assert len(subset) * LAGS + 1 <= FIT_WINDOW - LAGS
    narrow = var_channel_subset(wide[:, :10])
    assert len(narrow) == 10


def einsum_ar_fit_batch(diffs, p, ridge):
    """The per-window AR fit before the sliding Gram matrix: the normal
    equations built by einsums over a strided view, sigmas from the
    residuals."""
    rows = diffs.shape[0] - p
    m = diffs.shape[1]
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
    resid = y - (np.einsum("krm,mk->rm", lags, coefs[:, :p]) + coefs[:, p])
    return coefs, np.sqrt((resid ** 2).sum(axis=0) / max(1, rows - (p + 1)))


def per_tick_walk(detector, values, first, fit, threshold=None):
    """The AR detectors' walk before the block scoring: each diff i from
    ``first`` on is scored alone against the FIT_WINDOW diffs before it,
    with ``(score, threshold) = fit(window)`` refit every REFIT_EVERY."""
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
    return scores, flags, threshold


def per_tick_arima(values):
    threshold = max_z_threshold(values.shape[1])

    def fit(window):
        coefs, sigmas = einsum_ar_fit_batch(window, LAGS, ARIMA_RIDGE)
        scale = np.maximum(sigmas, 1e-9)

        def score(w, diff):
            pred = np.einsum("km,mk->m", w[-LAGS:][::-1], coefs[:, :LAGS]) + coefs[:, LAGS]
            return float((np.abs(diff - pred) / scale).max())
        return score, threshold

    return per_tick_walk("arima", values, ARIMA_MIN_HISTORY, fit, threshold)


def per_tick_var(values):
    """The VAR as it was, fitted by lstsq (an SVD) at every refit."""
    warm = 8 * LAGS
    subset = var_channel_subset(values[:warm + 1])
    k = len(subset)
    n_regressors = k * LAGS + 1

    def fit(window):
        rows = len(window) - LAGS
        x = np.concatenate([window[LAGS - 1 - j: LAGS - 1 - j + rows] for j in range(LAGS)]
                           + [np.ones((rows, 1))], axis=1)
        y = window[LAGS:]
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        cov = resid.T @ resid / max(1, rows - x.shape[1]) + VAR_RIDGE * np.eye(k)
        cov_inv = np.linalg.inv(cov)
        dof = max(k + 2, rows - n_regressors)
        leverage = np.sqrt(1.0 + n_regressors / max(1, rows))

        def score(w, diff):
            r = diff - np.concatenate([w[-1 - j] for j in range(LAGS)] + [np.ones(1)]) @ coef
            return float(np.sqrt(r @ cov_inv @ r))
        return score, mahalanobis_threshold(k, dof=dof, inflation=leverage)

    first = max(warm, LAGS + math.ceil(VAR_MIN_ROWS_FACTOR * n_regressors))
    return per_tick_walk("var", values[:, subset], first, fit)


def test_var_fit_takes_lstsq_where_a_duplicate_leaves_rounding_pivots():
    # on an x86-64 host with OpenBLAS, this window's x'x has a Cholesky
    # factor whose smallest pivot is ~2e-20 of its largest, and
    # np.linalg.solve accepts it with coefficients of ~1e19
    diffs = np.random.default_rng(194).normal(size=(FIT_WINDOW, 4)) * 0.01
    diffs[:, 1] = diffs[:, 3]
    coef, cov = var_fit(diffs, LAGS, VAR_RIDGE)
    rows = FIT_WINDOW - LAGS
    x = np.concatenate([diffs[LAGS - 1 - j: LAGS - 1 - j + rows] for j in range(LAGS)]
                       + [np.ones((rows, 1))], axis=1)
    want, *_ = np.linalg.lstsq(x, diffs[LAGS:], rcond=None)
    np.testing.assert_array_equal(coef, want)


def recorded(detector, values):
    """A detector's series and the number of warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = detector(values)
    return out, len(caught)


def assert_matches_per_tick_walk(values):
    """arima and var against their per-tick walks: scores to rtol 1e-9,
    the same scored ticks, flags, thresholds and warnings. Returns each
    detector's number of warnings."""
    out = {}
    for name, detector, reference in (("arima", arima_score_stream, per_tick_arima),
                                      ("var", var_score_stream, per_tick_var)):
        series, n_warnings = recorded(detector, values)
        (want_scores, want_flags, want_threshold), want_warnings = recorded(reference, values)
        assert np.isfinite(want_scores).sum() > 10 * REFIT_EVERY, name
        np.testing.assert_array_equal(np.isfinite(series.scores), np.isfinite(want_scores),
                                      err_msg=name)
        np.testing.assert_allclose(series.scores, want_scores, rtol=1e-9, atol=0,
                                   equal_nan=True, err_msg=name)
        np.testing.assert_array_equal(series.flags, want_flags, err_msg=name)
        assert series.threshold == want_threshold, name
        assert n_warnings == want_warnings, name
        out[name] = n_warnings
    return out


@pytest.mark.parametrize("degenerate", ["none", "constant", "duplicate"])
def test_ar_detectors_equal_the_per_tick_walk(monkeypatch, degenerate):
    """Past FIT_WINDOW, so rows leave the sliding window too. A constant
    channel makes every arima fit take the ridge fallback (one warning per
    fit) and every VAR fit lstsq; a duplicated channel sends every VAR fit
    to lstsq. At this scale (diffs of 0.01) the VAR's residual covariance
    keeps its ridge small, so a duplicate does not amplify rounding."""
    n, m = FIT_WINDOW + 137, 6
    values = np.random.default_rng(7).normal(size=(n, m)).cumsum(axis=0) * 0.01 + 5.0
    values[:, 5] *= 3.0
    values[150:, 4] += 0.2  # a step for both detectors to flag
    if degenerate == "constant":
        values[:, 2] = 1.25
    elif degenerate == "duplicate":
        values[:, 1] = values[:, 3]
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    var_score_stream(values)
    fits = len(range(max(8 * LAGS, LAGS + math.ceil(VAR_MIN_ROWS_FACTOR * (m * LAGS + 1))),
                     n - 1, REFIT_EVERY))
    assert len(calls) == (0 if degenerate == "none" else fits)
    warned = assert_matches_per_tick_walk(values)
    assert warned == {"arima": len(range(ARIMA_MIN_HISTORY, n - 1, REFIT_EVERY))
                      if degenerate == "constant" else 0, "var": 0}


def test_ar_detectors_equal_the_per_tick_walk_on_a_benchmark_stream():
    case = bundled_case("case14")
    stream = run_scenario(build_scenario(benchmark_config(case, "realistic", 1, segment=20)))
    assert len(stream.values) > FIT_WINDOW + 10 * REFIT_EVERY
    assert assert_matches_per_tick_walk(stream.values) == {"arima": 0, "var": 0}


# ------------------------------------------------------------------- LOF

def _lof_dist(a, b):
    return max(np.linalg.norm(a - b), 1e-12)


def brute_force_lof_fit(train, k):
    """Loop transliteration of the LOF training quantities: k-distances,
    neighborhoods (self excluded) and local reachability densities."""
    dist = _lof_dist
    n = len(train)
    kdist = np.empty(n)
    neigh = []
    for i in range(n):
        ds = sorted(dist(train[i], train[j]) for j in range(n) if j != i)
        kdist[i] = ds[k - 1]
        neigh.append([j for j in range(n)
                      if j != i and dist(train[i], train[j]) <= kdist[i]])
    lrd = np.empty(n)
    for i in range(n):
        lrd[i] = 1.0 / np.mean([max(kdist[j], dist(train[i], train[j]))
                                for j in neigh[i]])
    return kdist, neigh, lrd


def brute_force_lof(train, queries, k):
    """Loop transliteration of the LOF definition."""
    dist = _lof_dist
    n = len(train)
    kdist, _, lrd = brute_force_lof_fit(train, k)
    out = []
    for q in queries:
        ds = sorted(dist(q, train[j]) for j in range(n))
        kq = ds[k - 1]
        nb = [j for j in range(n) if dist(q, train[j]) <= kq]
        lrd_q = 1.0 / np.mean([max(kdist[j], dist(q, train[j])) for j in nb])
        out.append(np.mean([lrd[j] for j in nb]) / lrd_q)
    return np.array(out)


def test_lof_offset_duplicates_match_brute_force():
    # k + 1 identical rows far from the origin, so that their k-distances
    # are the floor: it holds only if their distances are exactly 0, as the
    # brute force's differences give them. On row 6's copies the expanded
    # quadratic alone leaves a residue of ~1e-13, 3e-7 after the square root.
    rng = Rng(13)
    train = 7.0 + rng.normals(20 * 213).reshape(20, 213)
    train[[3, 8, 12]] = train[6]
    near = train[6] + 0.1 * rng.normals(213)  # its neighbours' k-distances count
    queries = np.vstack([train[6], near, train[0] + 8.0, 7.0 + rng.normals(213)])
    got = lof_score(lof_fit(train), queries)
    want = brute_force_lof(train, queries, 3)
    np.testing.assert_allclose(got, want, rtol=1e-10)
    assert got[2] > 2.0


def test_lof_matches_brute_force_to_rounding_on_standardized_data():
    # each neighborhood is summed by a masked reduction in column order, the
    # oracle's mean in its own order, so they agree to rounding, not bitwise;
    # 1e-13 is ~450 ulps, far above the 4.4e-16 seen and far below a changed
    # neighborhood. Duplicates and a far query included.
    rng = Rng(21)
    raw = 5.0 + rng.normals(90 * 12).reshape(90, 12) * np.linspace(0.5, 3.0, 12)
    raw[[4, 9, 70]] = raw[30]
    raw[80] += 6.0
    mean, std = raw[:60].mean(axis=0), raw[:60].std(axis=0)
    train, queries = (raw[:60] - mean) / std, (raw[60:] - mean) / std
    model = lof_fit(train)
    np.testing.assert_allclose(lof_score(model, queries),
                               brute_force_lof(train, queries, 3), rtol=1e-13)
    _, neigh, lrd = brute_force_lof_fit(train, 3)
    want = np.array([np.mean(lrd[nb]) / lrd[i] for i, nb in enumerate(neigh)])
    np.testing.assert_allclose(lof_train_scores(model), want, rtol=1e-13)


def test_lof_uniform_grid_interior_near_one():
    xs, ys = np.meshgrid(np.arange(7.0), np.arange(7.0))
    train = np.column_stack([xs.ravel(), ys.ravel()])
    model = lof_fit(train)
    score = lof_score(model, np.array([[3.0, 3.0]]))
    assert abs(score[0] - 1.0) < 0.1


def test_lof_far_point_matches_brute_force():
    rng = Rng(12)
    train = rng.normals(40).reshape(20, 2)
    queries = np.array([[8.0, 8.0], [0.1, -0.2], [3.0, 1.0]])
    model = lof_fit(train)
    got = lof_score(model, queries)
    want = brute_force_lof(train, queries, 3)
    np.testing.assert_allclose(got, want, rtol=1e-10)
    assert got[0] > 2.0


def test_lof_duplicate_points_degenerate_distances():
    train = np.zeros((6, 2))
    train[5] = [1.0, 1.0]
    model = lof_fit(train)
    scores = lof_score(model, np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert np.all(np.isfinite(scores))
    assert scores[1] > scores[0]


# ----------------------------------------------------- pairwise distances

def standardized_pair(n=500, d=213):
    """Training and query rows standardized with the training statistics,
    as the fit-based detectors see them."""
    raw = 3.0 + 2.0 * Rng(50).normals(2 * n * d).reshape(2 * n, d)
    train, queries = raw[:n], raw[n:]
    mean, std = train.mean(axis=0), train.std(axis=0)
    return (queries - mean) / std, (train - mean) / std


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 200])
def test_k_neighborhood_equals_whole_matrix_partition(rows):
    """Selecting k-distances block by block gives the whole matrix's."""
    dists = np.round(np.random.default_rng(rows).uniform(0.0, 2.0, (rows, 80)), 1)
    kdist, neighborhoods = _k_neighborhood(dists)
    want = np.partition(dists, LOF_K - 1, axis=1)[:, LOF_K - 1]
    np.testing.assert_array_equal(kdist, want)
    np.testing.assert_array_equal(neighborhoods, dists <= want[:, None])


def test_squared_distances_match_cdist():
    # the expanded quadratic differs from cdist's per-feature sums only by
    # rounding: measured within 4e-15 relative here, checked at 1e-13
    queries, train = standardized_pair()
    sq = squared_distances(queries, train)
    np.testing.assert_allclose(sq, cdist(queries, train, "sqeuclidean"), rtol=1e-13)
    np.testing.assert_allclose(np.sqrt(sq), cdist(queries, train), rtol=1e-13)
    gamma = 1.0 / (train.shape[1] * train.var())
    np.testing.assert_allclose(rbf_kernel(queries, train, gamma),
                               np.exp(-gamma * cdist(queries, train, "sqeuclidean")),
                               rtol=1e-13)


def test_squared_distances_of_identical_rows_are_exactly_zero():
    # uncentred, far from the origin, where the expanded quadratic alone
    # leaves rounding residue on identical rows
    x = 7.0 + Rng(51).normals(30 * 213).reshape(30, 213)
    x[17] = x[4]
    sq = squared_distances(x, x)
    assert np.all(np.diag(sq) == 0.0)
    assert sq[4, 17] == 0.0 and sq[17, 4] == 0.0
    off = ~np.eye(30, dtype=bool)
    off[4, 17] = off[17, 4] = False
    assert np.all(sq[off] > 0.0)
    np.testing.assert_allclose(sq, cdist(x, x, "sqeuclidean"), rtol=1e-12, atol=0)


# ---------------------------------------------------------------- Parzen

def test_parzen_density_integrates_to_one():
    rng = Rng(44)
    train = rng.normals(30).reshape(-1, 1)
    model = parzen_fit(train)
    total, _ = quad(lambda v: np.exp(parzen_log_density(model, [[v]])[0]),
                    -12, 12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_parzen_identical_points_peak_value():
    train = np.full((8, 2), 3.0)
    model = parzen_fit(train)
    dens = np.exp(parzen_log_density(model, [[3.0, 3.0]])[0])
    peak = (1.0 / (np.sqrt(2 * np.pi) * BANDWIDTH_FLOOR)) ** 2
    assert dens == pytest.approx(peak, rel=1e-9)


def test_parzen_mirror_symmetry():
    train = np.array([[1.0], [2.0], [5.0]])
    model = parzen_fit(train)
    model_m = parzen_fit(-train)
    a = parzen_score(model, [[3.3]])
    b = parzen_score(model_m, [[-3.3]])
    assert a[0] == pytest.approx(b[0], rel=1e-12)


def direct_parzen_score(train, h, q):
    """Negative log of the mean of product Gaussian kernels at one query,
    from the per-dimension differences (q - x) / h."""
    z = (q - train) / h
    log_k = -0.5 * (z * z).sum(axis=1) - np.log(np.sqrt(2 * np.pi) * h).sum()
    return -(logsumexp(log_k) - np.log(len(train)))


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("dim", [1, 3])
def test_parzen_score_matches_direct_formula(dim, offset):
    """Also far from the origin relative to the bandwidths (offset 1e4)."""
    rng = Rng(45)
    train = offset + rng.normals(40 * dim).reshape(40, dim)
    queries = np.vstack([train, np.full((1, dim), offset + 25.0),
                         offset + rng.normals(5 * dim).reshape(5, dim)])
    model = parzen_fit(train)
    got = parzen_score(model, queries)
    want = np.array([direct_parzen_score(train, model["h"], q) for q in queries])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.argmax(got) == 40  # the far outlier


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("dim", [1, 3])
def test_parzen_train_scores_leave_each_point_out(dim, offset):
    rng = Rng(46)
    train = offset + rng.normals(40 * dim).reshape(40, dim)
    train[7] = train[3]  # a duplicate keeps its twin's kernel
    model = parzen_fit(train)
    got = parzen_train_scores(model)
    want = np.array([direct_parzen_score(np.delete(train, i, axis=0), model["h"], train[i])
                     for i in range(len(train))])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.all(got > parzen_score(model, train))  # each point's own kernel is gone


def test_parzen_flags_few_held_out_points_of_exchangeable_data():
    # 40 i.i.d. Gaussian features, alternate ticks for training and test: a
    # held-out point is as typical as a training point left out of its own
    # density, so few are flagged. The in-sample scores, each point's own
    # kernel included, put the threshold below every held-out score.
    n = 400
    values = Rng(47).normals(n * 40).reshape(n, 40)
    stream = SimpleNamespace(values=values, train_ticks=tuple(range(0, n, 2)),
                             test_ticks=tuple(range(1, n, 2)))
    series = score_stream(stream, ("parzen",))["parzen"]
    assert series.flags.mean() <= 0.03
    train = values[0::2]
    train = (train - train.mean(axis=0)) / train.std(axis=0)
    model = parzen_fit(train)
    assert series.threshold == robust_train_threshold(parzen_train_scores(model))
    assert np.all(series.scores > robust_train_threshold(parzen_score(model, train)))


# -------------------------------------------------------- isolation forest

def test_average_path_length_exact_small_values():
    assert average_path_length(2) == pytest.approx(1.0)
    assert average_path_length(1) == 0.0
    # c(3) = 2*(1 + 1/2) - 2*2/3
    assert average_path_length(3) == pytest.approx(3.0 - 4.0 / 3.0)


def brute_force_tree_path(tree, value):
    idx, depth = 0, 0
    while True:
        if np.isnan(tree.split[idx]):
            return depth + average_path_length(int(tree.size[idx]))
        idx = tree.left[idx] if value < tree.split[idx] else tree.right[idx]
        depth += 1


def brute_force_iforest_score(model, q):
    depths = [brute_force_tree_path(t, q[t.feature]) for t in model.trees]
    return 2.0 ** (-np.mean(depths) / average_path_length(model.subsample))


def test_iforest_far_point_scores_highest_and_matches_path_oracle():
    rng = Rng(100)
    blob = rng.normals(200).reshape(100, 2)
    train = np.vstack([blob, [[12.0, 12.0]]])
    cfg = IforestConfig(trees=100, subsample=256)
    model = iforest_fit(train, cfg, seed=7)
    assert len(model.trees) == 100
    assert all(t.feature in (0, 1) for t in model.trees)
    scores = iforest_score(model, train)
    assert np.argmax(scores) == 100  # the planted outlier

    # independent path-length scoring from the stored trees
    q = np.array([12.0, 12.0])
    depths = [brute_force_tree_path(t, q[t.feature]) for t in model.trees]
    expect = 2.0 ** (-np.mean(depths) / average_path_length(model.subsample))
    assert scores[100] == pytest.approx(expect, rel=1e-12)


def test_iforest_constant_feature_degenerates():
    train = np.zeros((32, 1))
    model = iforest_fit(train, IforestConfig(trees=5), seed=1)
    for tree in model.trees:
        assert np.isnan(tree.split[0])
        assert tree.size[0] == 32
    scores = iforest_score(model, np.array([[0.0]]))
    assert scores[0] == pytest.approx(2.0 ** -1.0)  # E[h] = c(n) exactly


def test_iforest_deterministic_per_seed():
    rng = Rng(8)
    train = rng.normals(64).reshape(32, 2)
    a = iforest_score(iforest_fit(train, IforestConfig(), 5), train)
    b = iforest_score(iforest_fit(train, IforestConfig(), 5), train)
    c = iforest_score(iforest_fit(train, IforestConfig(), 6), train)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_iforest_score_equals_path_oracle_for_every_query():
    rng = Rng(9)
    train = np.column_stack([rng.normals(60), np.full(60, 2.5), rng.uniforms(60)])
    train[30:40] = train[0]  # duplicate rows
    model = iforest_fit(train, IforestConfig(trees=40, subsample=32), seed=3)
    assert any(t.feature == 1 for t in model.trees)  # the constant feature
    split_trees = [t for t in model.trees if not np.isnan(t.split[0])]
    on_split = np.tile(train[1], (len(split_trees), 1))  # ties go right
    for row, t in zip(on_split, split_trees):
        row[t.feature] = t.split[0]
    queries = np.vstack([train, [[9.0, 2.5, 0.5], [0.0, -3.0, 7.0]], on_split])
    got = iforest_score(model, queries)
    want = [brute_force_iforest_score(model, q) for q in queries]
    np.testing.assert_array_equal(got, want)


def mask_recursion_grow(values, depth, cap, rng, nodes):
    """Reference: tree growth by recursion over boolean-mask copies of the
    unsorted subsample; returns the subtree's root index."""
    idx = len(nodes)
    lo, hi = float(values.min()), float(values.max())
    if depth >= cap or len(values) <= 1 or hi - lo <= 0.0:
        nodes.append([math.nan, -1, -1, len(values)])
        return idx
    split = rng.uniform(lo, hi)
    nodes.append([split, -1, -1, 0])
    nodes[idx][1] = mask_recursion_grow(values[values < split], depth + 1, cap, rng, nodes)
    nodes[idx][2] = mask_recursion_grow(values[values >= split], depth + 1, cap, rng, nodes)
    return idx


@pytest.mark.parametrize("seed", range(5))
def test_grow_over_sorted_ranges_equals_mask_recursion(seed):
    """Same nodes in the same preorder from the same draws, on samples
    with duplicates, a constant run and the subsample's height cap."""
    gen = np.random.default_rng(seed)
    for n, cap in ((256, 8), (40, 6), (9, 2), (2, 1)):
        values = gen.normal(size=n)
        values[: n // 4] = np.round(values[: n // 4], 1)  # duplicates
        values[n // 2: n // 2 + n // 8] = values[0]  # a run of equal values
        for sample in (values, np.full(n, 0.5)):
            want_rng, got_rng = Rng(seed), Rng(seed)
            want: list[list] = []
            mask_recursion_grow(sample, 0, cap, want_rng, want)
            got = _grow(sorted(sample.tolist()), cap, got_rng)
            np.testing.assert_array_equal(np.array(got), np.array(want))
            assert got_rng.next_u64() == want_rng.next_u64()


def test_grow_split_at_the_low_end_leaves_an_empty_left_leaf():
    """A split drawn at a range's low end sends nothing left: that child is
    an empty leaf, and its bounds are never read."""
    low_end = SimpleNamespace(uniform=lambda lo, hi: lo)
    sample = [0.0, 1.0, 1.0, 2.0]
    nodes = np.array(_grow(sample, 2, low_end))
    np.testing.assert_array_equal(nodes, [[0.0, 1, 2, 0], [np.nan, -1, -1, 0],
                                          [0.0, 3, 4, 0], [np.nan, -1, -1, 0],
                                          [np.nan, -1, -1, 4]])
    split, left, right, size = nodes.T
    size = size.astype(int)
    tree = IsolationTree(feature=0, split=split, left=left.astype(int),
                         right=right.astype(int), size=size,
                         leaf_path=np.array([average_path_length(k) for k in size]))
    right_leaf = 2.0 + average_path_length(4)
    np.testing.assert_array_equal(tree.path_lengths(np.array([-1.0, 0.0, 3.0])),
                                  [1.0, right_leaf, right_leaf])


# ---------------------------------------------------------- graph distance

def five_branch_case():
    buses = tuple(Bus(id=i, kind="slack" if i == 1 else "pq") for i in range(1, 5))
    branches = (
        Branch(1, 1, 2, r=0.01, x=0.1), Branch(2, 2, 3, r=0.01, x=0.1),
        Branch(3, 3, 4, r=0.01, x=0.1), Branch(4, 1, 3, r=0.01, x=0.15),
        Branch(5, 2, 4, r=0.01, x=0.2))
    gens = (Generator(1, bus=1, p_max=2.0, v_set=1.0),)
    loads = (Load(1, bus=4, pd=0.4, qd=0.1), Load(2, bus=3, pd=0.2, qd=0.05))
    return GridCase("five", 100.0, buses, branches, gens, loads)


def topo_key(case, open_ids):
    return frozenset(br.id for br in case.branches if br.id not in open_ids)


def test_graph_distance_identity_and_positivity():
    case = five_branch_case()
    a = topo_key(case, ())
    b = topo_key(case, (2,))
    weights = sensitivity_weights(case)
    assert graph_distance(a, a, weights) == 0.0
    assert graph_distance(a, b, weights) > 0.0


def test_graph_distance_metric_over_all_topology_triples():
    case = five_branch_case()
    weights = sensitivity_weights(case)
    keys = [topo_key(case, open_ids)
            for r in range(3)
            for open_ids in itertools.combinations((1, 2, 3, 4, 5), r)]
    for a in keys:
        for b in keys:
            dab = graph_distance(a, b, weights)
            assert dab == pytest.approx(graph_distance(b, a, weights))
            for c in keys:
                assert dab <= (graph_distance(a, c, weights)
                               + graph_distance(c, b, weights) + 1e-12)


def test_graph_distance_is_exactly_symmetric():
    # a plain sum follows the iteration order of the symmetric difference,
    # which differs between a ^ b and b ^ a; here it read
    # 2.4499999999999997 one way and 2.45 the other
    w = [0.1, 0.2, 0.3, 0.7, 1e-3, 0.05, 0.33, 0.9, 0.11, 0.17, 0.013, 0.29,
         0.41, 0.6, 0.001, 0.77, 0.19, 0.23]
    weights = dict(enumerate(w))
    a = frozenset({0, 3, 6, 11, 12, 17})
    b = frozenset({0, 9, 12, 15, 16, 17})
    assert graph_distance(a, b, weights) == graph_distance(b, a, weights)


def test_graph_distance_increases_with_extra_loaded_branch():
    case = five_branch_case()
    weights = sensitivity_weights(case)
    base = topo_key(case, ())
    one = topo_key(case, (1,))
    two = topo_key(case, (1, 2))
    assert graph_distance(base, two, weights) > graph_distance(base, one, weights)


# ---------------------------------------------------------- weighted median

def stable_weighted_median(x, w):
    """First value in stable sorted order whose cumulative weight reaches
    half the total."""
    order = np.argsort(x, kind="stable")
    cum = np.cumsum(w[order])
    return x[order[np.argmax(cum >= 0.5 * w.sum())]]


def picked_medians(rows, w):
    """The detector's median pick along each row's (unstable) argsort."""
    r = np.arange(len(rows))
    order = np.argsort(rows, axis=1)
    return rows[r, order[r, _half_weight_pick(order, w, 0.5 * w.sum(), np.empty(rows.shape))]]


@st.composite
def rows_and_weights(draw, values, weights, distinct):
    """1-4 rows of one length, and one weight per column."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rows = [draw(st.lists(values, min_size=n, max_size=n, unique=distinct))
            for _ in range(m)]
    w = draw(st.lists(weights, min_size=n, max_size=n))
    return np.array(rows, dtype=float), np.array(w)


# the cumulative weight meets half exactly at the first value
_HALF_AT_FIRST = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(rows_and_weights(st.floats(-1e6, 1e6, allow_nan=False),
                        st.floats(1e-12, 1e3), distinct=True))
@example(_HALF_AT_FIRST)
def test_weighted_median_distinct_values_equals_stable_oracle(rows_w):
    rows, w = rows_w
    got = picked_medians(rows, w)
    assert np.array_equal(got, [stable_weighted_median(r, w) for r in rows])


@settings(max_examples=100, deadline=None)
@given(rows_and_weights(st.integers(-3, 3), st.integers(-6, 6).map(lambda k: 2.0 ** k),
                        distinct=False))
@example(_HALF_AT_FIRST)
@example((np.array([[2.0, 1.0, 1.0, 0.0]]), np.array([1.0, 0.5, 0.5, 2.0])))
def test_weighted_median_ties_with_dyadic_weights(rows_w):
    """Dyadic weights sum exactly in any order, so even with tied values the
    pick equals the stable oracle's and splits the weight at half."""
    rows, w = rows_w
    got = picked_medians(rows, w)
    assert np.array_equal(got, [stable_weighted_median(r, w) for r in rows])
    half = 0.5 * w.sum()
    for x, med in zip(rows, got):
        assert w[x < med].sum() < half <= w[x <= med].sum()


@settings(max_examples=100, deadline=None)
@given(rows_and_weights(st.integers(-3, 3),
                        st.one_of(st.just(1.0), st.floats(0.0, 5.0).map(lambda d: np.exp(-d))),
                        distinct=False))
@example((np.array([[1.0, 0.0, 1.0, 0.0, 1.0]]),
          np.array([np.exp(-0.3), 1.0, np.exp(-1.7), 1.0, np.exp(-0.3)])))
def test_weighted_median_ties_with_non_dyadic_weights(rows_w):
    """Unit weights mixed with exp(-d) ones, as the topology-aware detector
    forms them: permuting tied values can move the cumulative weights by
    rounding, so the pick splits the weight at half up to that rounding."""
    rows, w = rows_w
    got = picked_medians(rows, w)
    half = 0.5 * w.sum()
    tol = 4 * len(w) * np.finfo(float).eps * w.sum()
    for x, med in zip(rows, got):
        assert w[x < med].sum() < half + tol
        assert half - tol <= w[x <= med].sum()


@settings(max_examples=100, deadline=None)
@given(rows_and_weights(st.floats(-1e6, 1e6, allow_nan=False),
                        st.one_of(st.just(0.0), st.floats(1e-12, 1e3)), distinct=False))
@example((np.array([[0.0, 1.0, 2.0]]), np.array([1.0, 0.0, 1.0])))
def test_zero_weight_slots_are_never_picked(rows_w):
    """A tick weighs the slots outside its window 0: adding 0.0 is exact, so
    those slots neither move the pick nor are picked themselves."""
    rows, w = rows_w
    keep = w > 0
    if not keep.any():
        return
    half = 0.5 * w[keep].sum()
    r = np.arange(len(rows))
    order = np.argsort(rows, axis=1)
    slots = order[r, _half_weight_pick(order, w, half, np.empty(rows.shape))]
    assert keep[slots].all()
    # the same order without the zero-weight slots, so ties break alike
    rank = np.cumsum(keep) - 1  # slot -> its index among the kept slots
    kept_order = rank[order[keep[order]].reshape(len(rows), -1)]
    kept = kept_order[r, _half_weight_pick(kept_order, w[keep], half,
                                           np.empty(kept_order.shape))]
    assert np.array_equal(kept, rank[slots])


# ------------------------------------------------------------ topo detector

def test_topo_static_topology_bounded_scores():
    rng = Rng(55)
    n, m = 1000, 8
    values = rng.normals(n * m).reshape(n, m)
    case = five_branch_case()
    registry = {1: topo_key(case, ())}
    series = topo_aware_score(values, [1] * n, registry, case, TopoConfig())
    scored = series.scores[~np.isnan(series.scores)]
    assert len(scored) > 900
    assert scored.max() < 6.0
    # sparse threshold crossings are expected over a long stationary run
    assert series.flags.mean() <= 0.01


def two_topology_stream():
    """120 ticks of 4 sensors; an announced change at tick 60 shifts one."""
    rng = Rng(66)
    n, m = 120, 4
    values = rng.normals(n * m, 0.0, 0.01).reshape(n, m) + 1.0
    values[60:, 0] += 0.5  # announced change shifts the physics
    case = five_branch_case()
    registry = {1: topo_key(case, ()), 2: topo_key(case, (1,))}
    ids = [1] * 60 + [2] * 60
    return values, ids, registry, case


def test_topo_withholds_after_announced_change_then_resumes():
    values, ids, registry, case = two_topology_stream()
    cfg = TopoConfig(min_history=10, tau=0.001)
    series = topo_aware_score(values, ids, registry, case, cfg)
    # at the change tick the history is incomparable: withheld, not flagged
    assert np.isnan(series.scores[60])
    assert not series.flags[60]
    assert np.all(np.isnan(series.scores[60:70]))
    assert not series.flags[60:70].any()
    # resumes scoring once same-topology history accumulates
    assert np.isfinite(series.scores[70])
    assert not series.flags[70:80].any()


def test_topo_tau_zero_is_the_small_tau_limit():
    # only same-topology history counts, without dividing 0 by 0
    values, ids, registry, case = two_topology_stream()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = topo_aware_score(values, ids, registry, case,
                                TopoConfig(min_history=10, tau=0.0))
    small = topo_aware_score(values, ids, registry, case,
                             TopoConfig(min_history=10, tau=1e-9))
    assert np.isfinite(zero.scores).sum() == 100
    assert np.array_equal(zero.scores, small.scores, equal_nan=True)
    assert np.array_equal(zero.flags, small.flags)


def test_topo_unannounced_shift_flags_immediately():
    rng = Rng(77)
    n, m = 120, 4
    values = rng.normals(n * m, 0.0, 0.01).reshape(n, m) + 1.0
    values[80:, 1] += 0.5  # same announced topology: a true anomaly
    case = five_branch_case()
    registry = {1: topo_key(case, ())}
    cfg = TopoConfig(min_history=10)
    series = topo_aware_score(values, [1] * n, registry, case, cfg)
    assert series.flags[80]


def per_tick_topo_series(values, ids, registry, case, cfg):
    """The detector's loop before the block walk: each tick argsorts its own
    window for the median and again for the MAD."""
    def weighted_median_rows(x, w):
        order = np.argsort(x, axis=1)
        cum = np.cumsum(w[order], axis=1)
        rows = np.arange(x.shape[0])
        pick = np.argmax(cum >= 0.5 * w.sum(), axis=1)
        return x[rows, order[rows, pick]]

    weights = sensitivity_weights(case)
    dist = {}
    for a in set(ids):
        for b in set(ids):
            dist[a, b] = graph_distance(registry[a], registry[b], weights)
    vt = np.ascontiguousarray(values.T)
    scores = np.full(len(values), np.nan)
    for t in range(cfg.min_history, len(values)):
        lo = max(0, t - HISTORY)
        hist = vt[:, lo:t]
        dists = np.array([dist[ids[t], ids[i]] for i in range(lo, t)], dtype=float)
        w = np.exp(-dists / cfg.tau) if cfg.tau > 0 else (dists == 0.0).astype(float)
        ess = float(w.sum())
        if ess < MIN_ESS:
            continue
        med = weighted_median_rows(hist, w)
        mad = weighted_median_rows(np.abs(hist - med[:, None]), w)
        dbar = float((w * dists).sum() / ess)
        slack = SCALE_SLACK * dbar * np.maximum(np.abs(med), VALUE_FLOOR)
        inflation = 1.0 + FINITE_SAMPLE / np.sqrt(ess)
        scale = (1.4826 * mad + slack) * inflation + 1e-12
        scores[t] = float((np.abs(values[t] - med) / scale).max())
    return scores, scores > max_z_threshold(values.shape[1])


BLOCK_WALK_CHANGES = (43, 106, 170)


def block_walk_stream():
    """HISTORY plus several blocks and a partial one, 6 sensors; announced
    changes at BLOCK_WALK_CHANGES shift two sensors, and one sensor is
    constant, so its values and deviations all tie."""
    n, m = HISTORY + 5 * BLOCK + 3, 6
    values = Rng(21).normals(n * m, 0.0, 0.01).reshape(n, m) + 1.0
    values[:, 0] += np.cumsum(values[:, 0] - 1.0)
    values[:, 2] = 2.0
    values[:, 5] *= 10.0
    case = five_branch_case()
    registry = {1: topo_key(case, ()), 2: topo_key(case, (1,)),
                3: topo_key(case, (1, 3)), 4: topo_key(case, (3,))}
    ids = []
    for topo_id, (start, stop) in enumerate(
            itertools.pairwise((0,) + BLOCK_WALK_CHANGES + (n,)), start=1):
        ids += [topo_id] * (stop - start)
        values[start:stop, 1] += 0.3 * topo_id
        values[start:stop, 4] -= 0.1 * topo_id
    return values, ids, registry, case


@pytest.mark.parametrize("min_history", [0, 13])
@pytest.mark.parametrize("tau", [0.0, 0.005, 0.05])
def test_topo_equals_per_tick_reference_loop(tau, min_history):
    values, ids, registry, case = block_walk_stream()
    cfg = TopoConfig(tau=tau, min_history=min_history)
    assert (len(values) - min_history) % BLOCK
    want_scores, want_flags = per_tick_topo_series(values, ids, registry, case, cfg)
    series = topo_aware_score(values, ids, registry, case, cfg)
    # each change withholds a run of ticks that starts inside a block, and
    # scoring resumes after it
    for change in BLOCK_WALK_CHANGES:
        assert (change - min_history) % BLOCK
        assert np.isnan(series.scores[change])
        assert np.isfinite(series.scores[change + 2 * BLOCK])
    assert np.array_equal(series.scores, want_scores, equal_nan=True)
    assert np.array_equal(series.flags, want_flags)


def test_topo_equals_per_tick_reference_loop_on_a_benchmark_stream():
    case = bundled_case("case14")
    stream = run_scenario(build_scenario(benchmark_config(case, "realistic", 1, segment=20)))
    ids, registry = stream.topology_id_per_tick, stream.topology_registry
    assert len(stream.values) > HISTORY + 4 * BLOCK
    want_scores, want_flags = per_tick_topo_series(stream.values, ids, registry, case,
                                                   TopoConfig())
    series = topo_aware_score(stream.values, ids, registry, case, TopoConfig())
    assert np.isnan(series.scores).sum() > TopoConfig().min_history
    assert np.array_equal(series.scores, want_scores, equal_nan=True)
    assert np.array_equal(series.flags, want_flags)


def test_topo_memory_stays_below_the_per_tick_loops():
    # the per-tick loop's peak was 1.96 x values.nbytes on this stream, most
    # of it a whole-stream transposed copy; the block walk keeps one block's
    # window and reuses its work buffers
    case = bundled_case("case30")
    stream = run_scenario(build_scenario(benchmark_config(case, "small", 1)))
    ids, registry = stream.topology_id_per_tick, stream.topology_registry
    # the first call loads scipy.special for the threshold
    topo_aware_score(stream.values[:40], ids[:40], registry, case, TopoConfig())
    tracemalloc.start()
    try:
        topo_aware_score(stream.values, ids, registry, case, TopoConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * stream.values.nbytes, peak


def test_arima_memory_stays_below_the_window_refits():
    # refitting from each window held 2.0 x values.nbytes at its peak on this
    # stream, most of it a whole-stream diff array and the window's residuals
    case = bundled_case("case30")
    stream = run_scenario(build_scenario(benchmark_config(case, "small", 1)))
    arima_score_stream(stream.values[:60])  # the first call loads scipy.special
    tracemalloc.start()
    try:
        arima_score_stream(stream.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * stream.values.nbytes, peak


# --------------------------------------------------------- online property

@pytest.mark.parametrize("cut", [97, 98, 99, 100])
def test_streaming_detectors_are_online_replay(cut):
    # each cut ends the AR detectors' last refit block 1 to 4 ticks into it,
    # so its predictions are made over a shorter block than in the full run
    rng = Rng(88)
    n, m = 140, 3
    values = rng.normals(n * m).reshape(n, m).cumsum(axis=0) * 0.01 + 5.0
    case = five_branch_case()
    registry = {1: topo_key(case, ())}
    assert (cut - 1 - ARIMA_MIN_HISTORY) % REFIT_EVERY
    full = {
        "gesd": gesd_score_stream(values),
        "arima": arima_score_stream(values),
        "var": var_score_stream(values),
        "topo": topo_aware_score(values, [1] * n, registry, case,
                                 TopoConfig(min_history=10)),
    }
    for name in ("arima", "var"):  # both refit at diffs ARIMA_MIN_HISTORY + 5k
        assert np.isfinite(full[name].scores).argmax() == ARIMA_MIN_HISTORY + 1, name
    truncated = {
        "gesd": gesd_score_stream(values[:cut]),
        "arima": arima_score_stream(values[:cut]),
        "var": var_score_stream(values[:cut]),
        "topo": topo_aware_score(values[:cut], [1] * cut, registry, case,
                                 TopoConfig(min_history=10)),
    }
    for name in full:
        np.testing.assert_allclose(truncated[name].scores,
                                   full[name].scores[:cut],
                                   equal_nan=True, atol=0,
                                   err_msg=name)


def test_topo_is_online_across_blocks_past_history():
    # the cut falls inside a block whose union window, in the full stream,
    # reaches past the cut into the jump
    n, cut = 220, 205
    values = Rng(89).normals(n * 3).reshape(n, 3).cumsum(axis=0) * 0.01 + 5.0
    values[cut:] += 5.0
    case = five_branch_case()
    registry = {1: topo_key(case, ()), 2: topo_key(case, (1,))}
    ids = [1] * 100 + [2] * (n - 100)
    cfg = TopoConfig(min_history=10)
    assert cut > HISTORY and (cut - cfg.min_history) % BLOCK
    full = topo_aware_score(values, ids, registry, case, cfg)
    truncated = topo_aware_score(values[:cut], ids[:cut], registry, case, cfg)
    assert np.isfinite(truncated.scores[cut - BLOCK:]).all()
    np.testing.assert_allclose(truncated.scores, full.scores[:cut],
                               equal_nan=True, atol=0)


def test_score_stream_runs_the_streaming_detectors_as_called_directly():
    case = bundled_case("case14")
    stream = run_scenario(build_scenario(benchmark_config(case, "realistic", 1, segment=20)))
    got = score_stream(stream, STREAMING, case=case)
    want = {
        "gesd": gesd_score_stream(stream.values),
        "arima": arima_score_stream(stream.values),
        "var": var_score_stream(stream.values),
        "topo": topo_aware_score(stream.values, stream.topology_id_per_tick,
                                 stream.topology_registry, case, TopoConfig()),
    }
    assert set(got) == set(STREAMING)
    for name, series in want.items():
        assert np.isfinite(series.scores).any(), name
        np.testing.assert_array_equal(got[name].ticks, series.ticks, err_msg=name)
        np.testing.assert_array_equal(got[name].scores, series.scores, err_msg=name)
        np.testing.assert_array_equal(got[name].flags, series.flags, err_msg=name)
        assert got[name].threshold == series.threshold, name


def test_detector_determinism():
    rng = Rng(99)
    values = rng.normals(90 * 4).reshape(90, 4)
    a = arima_score_stream(values)
    b = arima_score_stream(values)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_fit_based_detectors_return_empty_series_without_test_topologies():
    # every tick is a training tick, so there is nothing to score
    stream = SimpleNamespace(values=Rng(5).normals(60 * 4).reshape(60, 4),
                             train_ticks=tuple(range(60)), test_ticks=())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = score_stream(stream, FIT_BASED)
    assert set(out) == set(FIT_BASED)
    for name, series in out.items():
        assert series.ticks.shape == series.scores.shape == series.flags.shape == (0,), name
        assert np.isfinite(series.threshold), name


@pytest.mark.parametrize("names,with_case,match", [
    (("gesd", "bogus"), True, "unknown detector 'bogus'"),
    (("gesd", "topo"), False, "needs the grid case"),
])
def test_score_stream_checks_arguments_before_any_detector_runs(monkeypatch, names,
                                                                with_case, match):
    import gridbench.detectors as detectors

    calls = []
    monkeypatch.setattr(detectors, "gesd_score_stream", lambda *args: calls.append(args))
    stream = SimpleNamespace(values=np.zeros((60, 2)))
    with pytest.raises(ValueError, match=match):
        detectors.score_stream(stream, names, case=object() if with_case else None)
    assert calls == []


# ------------------------------------------------- thresholds and settings

def test_max_z_threshold_equals_scipy_stats_at_every_channel_count():
    assert P_THREE_SIGMA == 2.0 * (1.0 - norm.cdf(3.0))
    n = np.arange(1, 2001)
    expect = norm.ppf(1.0 - P_THREE_SIGMA / n / 2.0)
    got = np.array([max_z_threshold(int(k)) for k in n])
    assert np.array_equal(got, expect)


def test_mahalanobis_threshold_equals_scipy_stats_for_every_var_subset():
    # var_channel_subset keeps every channel up to FIT_WINDOW // 4, fewer above
    k_max = FIT_WINDOW // 4
    for m in (k_max, k_max + 1, 400):
        ramp = np.arange(10.0)[:, None] * np.arange(1.0, m + 1.0)
        assert len(var_channel_subset(ramp)) <= k_max
    for k in range(1, k_max + 1):
        chi = np.sqrt(chi2.ppf(1.0 - P_THREE_SIGMA, df=k))
        assert mahalanobis_threshold(k) == chi
        assert mahalanobis_threshold(k, dof=k + 1) == chi
        # the VAR's dof runs from len(subset) + 2 up to its fit window
        dofs = np.arange(k + 2, FIT_WINDOW + 1)
        fq = f.ppf(1.0 - P_THREE_SIGMA, k, dofs - k)
        expect = np.sqrt(k * (dofs - 1) / (dofs - k) * fq)
        got = np.array([mahalanobis_threshold(k, dof=int(d)) for d in dofs])
        assert np.array_equal(got, expect), k


@pytest.mark.parametrize("significance", [0.01, 0.05, 0.1])
def test_gesd_critical_value_equals_scipy_stats_for_every_window(significance):
    critical_value = gesd_critical_value.__wrapped__  # keep the cache small
    for n in range(3, 301):
        # an n-point window allows removal steps i = 1 .. n - 2
        i = np.arange(1, n - 1)
        df = n - i - 1
        tq = student_t.ppf(1.0 - significance / (2.0 * (n - i + 1)), df)
        expect = (n - i) * tq / np.sqrt((df + tq * tq) * (n - i + 1))
        got = np.array([critical_value(n, int(j), significance) for j in i])
        assert np.all(np.isfinite(got)), n
        assert np.array_equal(got, expect), n


def run_fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that finds gridbench where this one does."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.spatial", "scipy.special", "scipy",
                                    "numpy.random"])
def test_detector_import_leaves_scipy_stats_unloaded(module):
    out = run_fresh_interpreter(
        "import sys; "
        "import gridbench.scenario, gridbench.detectors, gridbench.acopf; "
        f"print({module!r} in sys.modules)")
    assert out.split() == ["False"]


def test_first_threshold_loads_scipy_special_and_matches_scipy_stats():
    # this process has scipy.stats loaded, so only a new one meets the deferred import
    out = run_fresh_interpreter("""
import sys
from gridbench.detectors import gesd_critical_value, mahalanobis_threshold, max_z_threshold
print('scipy.special' in sys.modules)
values = (max_z_threshold(213), mahalanobis_threshold(19),
          mahalanobis_threshold(19, dof=150), gesd_critical_value(50, 2, 0.05))
print('scipy.special' in sys.modules)
for v in values:
    print(repr(v))
""")
    before, after, *values = out.split()
    assert (before, after) == ("False", "True")
    k, dof, n, i = 19, 150, 50, 2
    tq = student_t.ppf(1.0 - 0.05 / (2.0 * (n - i + 1)), n - i - 1)
    expect = [
        norm.ppf(1.0 - P_THREE_SIGMA / 213 / 2.0),
        np.sqrt(chi2.ppf(1.0 - P_THREE_SIGMA, df=k)),
        np.sqrt(k * (dof - 1) / (dof - k) * f.ppf(1.0 - P_THREE_SIGMA, k, dof - k)),
        (n - i) * tq / np.sqrt((n - i - 1 + tq * tq) * (n - i + 1)),
    ]
    assert [float(v) for v in values] == [float(e) for e in expect]


@pytest.mark.parametrize("make,match", [
    (lambda: IforestConfig(trees=0), "tree"),
    (lambda: IforestConfig(subsample=1), "subsample"),
    (lambda: IforestConfig(subsample=0), "subsample"),
    (lambda: OcsvmConfig(nu=0.0), "nu"),
    (lambda: OcsvmConfig(nu=1.5), "nu"),
    (lambda: OcsvmConfig(gamma=-1.0), "gamma"),
    (lambda: OcsvmConfig(gamma=0.0), "gamma"),
    (lambda: TopoConfig(tau=-1.0), "tau"),
    (lambda: TopoConfig(min_history=-1), "min_history"),
], ids=["iforest-trees-0", "iforest-subsample-1", "iforest-subsample-0", "ocsvm-nu-0",
        "ocsvm-nu-1.5", "ocsvm-gamma-negative", "ocsvm-gamma-0", "topo-tau-negative",
        "topo-min-history-negative"])
def test_invalid_detector_setting_is_rejected_when_built(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_detector_settings_at_their_limits_are_accepted():
    IforestConfig(subsample=2)
    OcsvmConfig(nu=1.0)
    OcsvmConfig(gamma=None)
    TopoConfig(tau=0.0)
    TopoConfig(min_history=0)
