"""nu-one-class SVM: dual feasibility, KKT, nu-property, scoring geometry."""

import numpy as np
import pytest

from gridbench.detectors import OcsvmConfig, OcsvmError, ocsvm_fit, ocsvm_score
from gridbench.detectors.ocsvm import duality_gap, rbf_kernel
from gridbench.rng import Rng


def blob(seed, n=200, d=2):
    return Rng(seed).normals(n * d).reshape(n, d)


def ocsvm_train_outlier_fraction(model):
    """Fraction of training points on the outlier side (bounded by ~nu)."""
    return float(np.mean(ocsvm_score(model, model.train) > 1e-9))


def test_dual_feasibility_at_convergence():
    x = blob(1)
    cfg = OcsvmConfig(nu=0.5)
    model = ocsvm_fit(x, cfg)
    upper = 1.0 / (cfg.nu * len(x))
    assert np.all(model.alpha >= -1e-12)
    assert np.all(model.alpha <= upper + 1e-12)
    assert np.sum(model.alpha) == pytest.approx(1.0, abs=1e-9)
    assert model.kkt_violation <= cfg.tol


def test_kkt_gradient_structure():
    # at the optimum: alpha in the interior share a common gradient rho;
    # alpha at the upper bound sit below it, alpha at zero above it
    x = blob(2)
    cfg = OcsvmConfig(nu=0.4, tol=1e-8)
    model = ocsvm_fit(x, cfg)
    k = rbf_kernel(x, x, model.gamma)
    g = k @ model.alpha
    upper = model.upper
    interior = (model.alpha > 1e-9) & (model.alpha < upper - 1e-9)
    if interior.any():
        spread = g[interior].max() - g[interior].min()
        assert spread <= 10 * cfg.tol
    assert np.all(g[model.alpha >= upper - 1e-9] <= model.rho + 10 * cfg.tol)
    assert np.all(g[model.alpha <= 1e-9] >= model.rho - 10 * cfg.tol)


def test_duality_gap_small_at_convergence():
    x = blob(3, n=300)
    model = ocsvm_fit(x, OcsvmConfig(nu=0.5, tol=1e-7))
    k = rbf_kernel(x, x, model.gamma)
    gap = duality_gap(k, model.alpha, model.rho, model.upper)
    assert abs(gap) < 1e-5


def test_nu_bounds_outlier_fraction_monte_carlo():
    # 20 seeds of 500-point Gaussian blobs, nu = 0.5: the fraction of
    # training points scored as outliers stays within nu + 0.05
    for seed in range(20):
        x = blob(seed, n=500)
        model = ocsvm_fit(x, OcsvmConfig(nu=0.5))
        frac = ocsvm_train_outlier_fraction(model)
        assert frac <= 0.55, f"seed {seed}: {frac}"


def test_far_query_scores_above_all_training_points():
    x = blob(7, n=300)
    model = ocsvm_fit(x, OcsvmConfig(nu=0.2))
    far, center = ocsvm_score(model, np.array([[10.0, 10.0], [0.0, 0.0]]))
    train_scores = ocsvm_score(model, x)
    # far from every support vector the expansion vanishes: score -> rho,
    # the maximum attainable, strictly on the outlier side
    assert far > 0
    assert far == pytest.approx(model.rho, abs=1e-6)
    assert far >= train_scores.max()
    assert center < far
    # about 1-nu of the training set sits on the inlier side
    assert np.mean(train_scores <= 1e-9) >= 1 - 0.2 - 0.05


def test_iteration_cap_raises_with_gap():
    x = blob(9, n=100)
    with pytest.raises(OcsvmError) as err:
        ocsvm_fit(x, OcsvmConfig(nu=0.5, tol=1e-12, max_iter=3))
    assert err.value.duality_gap >= 0


def test_gamma_rule_and_override():
    x = blob(11, n=50)
    auto = ocsvm_fit(x, OcsvmConfig(nu=0.5))
    assert auto.gamma == pytest.approx(1.0 / (2 * x.var()))
    fixed = ocsvm_fit(x, OcsvmConfig(nu=0.5, gamma=0.7))
    assert fixed.gamma == 0.7
