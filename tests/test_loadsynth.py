"""Style profiles, load scaling, statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gridbench.loadsynth import (
    DEFAULT_STYLE_MIX,
    LoadSynthError,
    StyleParams,
    aggregate_stats,
    delta_stats,
    profiles_matrix,
    sample_population,
    scale_loads,
    style_profile,
)
from gridbench.rng import Rng


# --------------------------------------------------------------- styles

def test_constant_style_flat():
    prof = style_profile(StyleParams(style="constant"), horizon=48)
    assert prof.max() / prof.min() == 1.0


def test_smooth_peaks_at_peak_tick():
    prof = style_profile(StyleParams(style="smooth", peak_tick=14, amplitude=0.1),
                         horizon=48)
    assert int(np.argmax(prof)) == 14


def test_smooth_delta_bound_exhaustive_scan():
    # amplitude 0.08: every 1-tick delta stays below 8% of the series max
    prof = style_profile(StyleParams(style="smooth", peak_tick=20, amplitude=0.08),
                         horizon=48)
    deltas = np.abs(np.diff(prof))
    assert np.all(deltas <= 0.08 * prof.max())


def test_abrupt_step_height():
    p = StyleParams(style="abrupt", step_tick=10, step_height=0.4)
    prof = style_profile(p, horizon=48)
    assert prof[9] == pytest.approx(1.0)
    assert prof[10] == pytest.approx(1.4)


def test_step_tick_outside_horizon_rejected():
    # a negative step tick would put the step on the last ticks through a
    # negative slice; one at or past the horizon would silently drop it
    with pytest.raises(LoadSynthError, match="step_tick must be nonnegative"):
        StyleParams(style="abrupt", step_tick=-3, step_height=0.3)
    p = StyleParams(style="abrupt", step_tick=8, step_height=0.3)
    with pytest.raises(LoadSynthError, match="step_tick 8 outside horizon 8"):
        style_profile(p, horizon=8)
    assert style_profile(replace(p, step_tick=7), horizon=8)[7] == pytest.approx(1.3)


def test_styles_strictly_positive():
    rng = Rng(3)
    for style in ("constant", "smooth", "oscillating", "abrupt"):
        for k in range(10):
            from gridbench.loadsynth import sample_style_params
            p = sample_style_params(style, 48, rng)
            prof = style_profile(p, 48, seed=k)
            assert np.all(prof > 0.0), (style, k)


def test_oscillating_seed_determinism():
    p = StyleParams(style="oscillating", peak_tick=8, amplitude=0.1)
    a = style_profile(p, 48, seed=9)
    b = style_profile(p, 48, seed=9)
    c = style_profile(p, 48, seed=10)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


# --------------------------------------------------------------- scaling

def test_factor_range_one_reproduces_base():
    base = np.array([1.0, 2.0, 3.0])
    out = scale_loads(base, "naive", None, 5, seed=0, factor_range=(1.0, 1.0))
    np.testing.assert_allclose(out, np.tile(base, (5, 1)))


def test_naive_mode_rank_one_structure():
    base = np.array([1.0, 2.0, 4.0])
    out = scale_loads(base, "naive", None, 20, seed=3)
    ratios = out / base
    for i in range(20):
        assert np.allclose(ratios[i], ratios[i, 0])


def test_grouped_mode_structure():
    base = np.array([1.0, 1.0, 2.0, 2.0])
    groups = ["a", "b", "a", "b"]
    out = scale_loads(base, "grouped", groups, 30, seed=4)
    ratios = out / base
    for i in range(30):
        assert ratios[i, 0] == pytest.approx(ratios[i, 2])
        assert ratios[i, 1] == pytest.approx(ratios[i, 3])
    assert not np.allclose(ratios[:, 0], ratios[:, 1])


def test_brute_force_monte_carlo_uniformity():
    base = np.ones(4)
    out = scale_loads(base, "brute_force", None, 10000, seed=7,
                      factor_range=(0.8, 1.2))
    factors = out.ravel()
    assert 0.99 <= factors.mean() <= 1.01
    assert factors.min() >= 0.8
    assert factors.max() <= 1.2


def test_brute_force_no_shared_ratios():
    base = np.ones(5)
    out = scale_loads(base, "brute_force", None, 50, seed=9)
    for a in range(5):
        for b in range(a + 1, 5):
            assert not np.allclose(out[:, a], out[:, b])


def test_grouped_requires_groups():
    with pytest.raises(LoadSynthError, match="group"):
        scale_loads(np.ones(3), "grouped", None, 2, seed=0)


@pytest.mark.parametrize("mode,factor_range,match", [
    ("uniform", (0.8, 1.2), "unknown scaling mode 'uniform'"),
    ("naive", (0.0, 1.2), "0 < lo <= hi"),
    ("brute_force", (1.2, 0.8), "0 < lo <= hi"),
])
def test_scale_loads_rejects_unknown_mode_and_bad_range(mode, factor_range, match):
    with pytest.raises(LoadSynthError, match=match):
        scale_loads(np.ones(3), mode, None, 2, seed=0, factor_range=factor_range)


# ------------------------------------------------------------ statistics

def test_constant_profiles_all_under_threshold():
    prof = np.ones((48, 10))
    stats = delta_stats(prof, interval=1)
    assert stats.fraction_under[0.02] == 1.0


def test_linear_ramp_delta_arithmetic():
    prof = np.linspace(0.0, 1.0, 49).reshape(-1, 1)  # 48 steps of 1/48
    for interval in (1, 2, 4):
        stats = delta_stats(prof, interval=interval, thresholds=(1.0,))
        assert stats.ratios[0] == pytest.approx(interval / 48.0)


def test_smooth_population_meets_ninety_percent_target():
    # default smooth-style population: every load under the 8% half-hourly bound
    params = [StyleParams(style="smooth", peak_tick=p % 48, amplitude=0.02 + 0.006 * p)
              for p in range(40)]
    mat = profiles_matrix(params, horizon=48, seed=0)
    stats = delta_stats(mat, interval=1)
    assert stats.fraction_under[0.08] >= 0.90


def test_aggregate_constant_population():
    stats = aggregate_stats(np.ones((48, 7)) * 2.0)
    assert stats.min_frac == 1.0
    assert stats.max_frac == 1.0


def test_aggregate_antiphase_cancellation():
    t = np.arange(48)
    a = 1.0 + 0.1 * np.cos(2 * np.pi * t / 48)
    b = 1.0 - 0.1 * np.cos(2 * np.pi * t / 48)
    stats = aggregate_stats(np.column_stack([a, b]))
    assert stats.min_frac == pytest.approx(1.0, abs=1e-12)
    assert stats.max_frac == pytest.approx(1.0, abs=1e-12)


def test_default_mixed_population_calibration():
    # generator calibration targets: aggregate stays in the +/-8% band and
    # roughly 90% of loads clear the 8% delta bound
    params = sample_population(100, horizon=48, seed=0)
    mat = profiles_matrix(params, horizon=48, seed=0)
    agg = aggregate_stats(mat)
    assert 0.92 <= agg.min_frac and agg.max_frac <= 1.08
    stats = delta_stats(mat, interval=1)
    assert stats.fraction_under[0.08] >= 0.90


def test_population_mix_quotas():
    params = sample_population(50, horizon=48, seed=4)
    counts = {}
    for p in params:
        counts[p.style] = counts.get(p.style, 0) + 1
    want = {name: round(frac * 50) for name, frac in DEFAULT_STYLE_MIX}
    assert counts == want
