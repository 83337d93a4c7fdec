"""Violation metric, penalty gradients, data generation, sweep plumbing."""

import ast
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridbench.acopf
from gridbench.acopf import (
    DecisionSpace,
    ExperimentConfig,
    PenaltyWeights,
    SweepResult,
    SweepRow,
    TrainConfig,
    TrainingDiverged,
    build_mlp,
    evaluate_decisions,
    experiment_sweep,
    gen_augmented,
    gen_realistic,
    penalty_loss_and_grad,
    run_cell,
    split_realistic,
    train_penalty,
)
from gridbench.acopf import sweep as sweep_module
from gridbench.acopf.mlp import input_standardization, mlp_backward, mlp_forward
from gridbench.acopf.sweep import _REALISTIC_NOISE_SIGMA
from gridbench.acopf.train import BATCH_SIZE
from gridbench.detectors.base import split_walk
from gridbench.grid import Branch, Bus, Generator, GridCase, Load, bundled_case
from gridbench.loadsynth import TICKS_PER_DAY
from gridbench.powerflow import solve_pf
from gridbench.rng import Rng
from gridbench.scenario import generation_dispatch

SRC = Path(gridbench.acopf.__file__).resolve().parents[2]


def toy_case():
    return GridCase(
        "toy3", 100.0,
        buses=(Bus(1, "slack", v_min=0.95, v_max=1.05),
               Bus(2, "pv", v_min=0.95, v_max=1.05),
               Bus(3, "pq", v_min=0.95, v_max=1.05)),
        branches=(Branch(1, 1, 2, r=0.02, x=0.1, b=0.02, rate_a=0.4),
                  Branch(2, 2, 3, r=0.03, x=0.12, rate_a=0.3, tap=0.98, shift=0.02),
                  Branch(3, 1, 3, r=0.01, x=0.08, rate_a=0.5)),
        generators=(Generator(1, bus=1, p_min=0, p_max=1.0, q_min=-0.5, q_max=0.5,
                              cost_c2=10, cost_c1=20),
                    Generator(2, bus=2, p_min=0, p_max=0.8, q_min=-0.4, q_max=0.4,
                              cost_c2=8, cost_c1=15)),
        loads=(Load(1, bus=3, pd=0.6, qd=0.2, group="g1", style="smooth"),
               Load(2, bus=2, pd=0.2, qd=0.05, group="g1", style="smooth")),
    )


def shared_bus_case():
    """toy_case with two loads and two online generators on bus 2."""
    case = toy_case()
    return replace(
        case,
        generators=case.generators + (
            Generator(3, bus=2, p_min=0, p_max=0.5, q_min=-0.3, q_max=0.3,
                      cost_c2=12, cost_c1=18),),
        loads=case.loads + (Load(3, bus=2, pd=0.15, qd=0.04, group="g1", style="smooth"),))


def feasible_decision_from_pf(space, pd=None, qd=None):
    """Decision assembled from a dispatched, converged power flow.

    Generation follows the demand (proportional-to-capacity dispatch with a
    small loss allowance) so the slack lands inside its active range.
    """
    case = space.case
    if pd is not None:
        loads = tuple(replace(l, pd=pd[j], qd=qd[j])
                      for j, l in enumerate(case.loads))
        case = replace(case, loads=loads)
    total = sum(l.pd for l in case.loads)
    dispatch = generation_dispatch(case, total * 1.02)
    case = replace(case, generators=tuple(
        replace(g, pg=dispatch[g.id]) if g.online else g
        for g in case.generators))
    sol = solve_pf(case)
    if not sol.converged:
        raise RuntimeError("power flow failed while building a feasible decision")
    pg = []
    qg = []
    for g, bus in zip(space.gens, space.gen_bus):
        gens_here = [h for h in space.gens if space.case.bus_index[h.bus] == bus]
        pg.append(sol.pg[bus] / len(gens_here))
        qg.append(sol.qg[bus] / len(gens_here))
    return space.pack(sol.vm, sol.va, np.array(pg), np.array(qg))


def scaled_case30(factor):
    case = bundled_case("case30")
    loads = tuple(replace(l, pd=l.pd * factor, qd=l.qd * factor)
                  for l in case.loads)
    return replace(case, loads=loads)


def case_loads(case):
    """The case's own per-load demand, (pd, qd)."""
    return np.array([l.pd for l in case.loads]), np.array([l.qd for l in case.loads])


# ------------------------------------------------------------- layering

def _imported_modules(tree, package):
    """Absolute names of every module (and ``from`` name) an AST imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def test_acopf_does_not_import_scenario():
    # layering: grid -> powerflow -> {scenario, acopf, detectors}, and
    # twoparts below acopf and detectors; acopf imports neither sibling
    package_dir = Path(gridbench.acopf.__file__).parent
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(package_dir.glob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")),
                                      "gridbench.acopf")
        if name.split(".")[:2] in (["gridbench", "scenario"], ["gridbench", "detectors"])]
    assert offenders == []


# ------------------------------------------------------------- violations

def test_feasible_pf_decision_near_zero_violation():
    # at 90% load every limit of the bundled case is slack
    case = scaled_case30(0.9)
    space = DecisionSpace(case)
    dec = feasible_decision_from_pf(space)
    report = space.violations(dec, *case_loads(case))
    assert report.overall_mean <= 1e-6
    assert report.equality_mean <= 1e-6
    assert report.inequality_mean <= 1e-6


def test_pg_excess_contributes_exactly():
    case = scaled_case30(0.9)
    space = DecisionSpace(case)
    dec = feasible_decision_from_pf(space)
    bumped = dec.copy()
    k = 2 * space.n_bus  # first generator's pg slot
    bumped[k] = space.p_max[0] + 0.1
    exc = space.evaluate(np.atleast_2d(bumped), 0.0, 0.0).inequality[0]
    assert exc[0] == pytest.approx(0.1, abs=1e-12)  # the pg_hi constraint alone
    base_exc = space.evaluate(np.atleast_2d(dec), 0.0, 0.0).inequality[0]
    np.testing.assert_allclose(exc[1:], base_exc[1:], atol=1e-12)
    raised = space.violations(bumped, *case_loads(case))
    base = space.violations(dec, *case_loads(case))
    assert (raised.inequality_mean - base.inequality_mean) * space.n_ineq == \
        pytest.approx(0.1, abs=1e-9)


def test_equality_residuals_match_transliteration_oracle():
    """Residuals against an explicit double-loop over G/B entries, on case30
    and on a bus that carries two loads and two online generators."""
    for case in (bundled_case("case30"), shared_bus_case()):
        space = DecisionSpace(case)
        rng = Rng(4)
        vm = 1.0 + 0.03 * rng.normals(space.n_bus)
        va = 0.1 * rng.normals(space.n_bus)
        pg = rng.uniforms(space.n_gen, 0.0, 0.5)
        qg = rng.uniforms(space.n_gen, -0.2, 0.2)
        dec = space.pack(vm, va, pg, qg)
        va = va.copy()
        va[space.slack] = 0.0

        pd = np.array([[l.pd for l in case.loads]])
        qd = np.array([[l.qd for l in case.loads]])
        pd_bus, qd_bus = space.loads_to_buses(pd, qd)
        _, _, _, _, r_p, r_q, _ = space.evaluate(dec, pd_bus, qd_bus)

        g = space.y.real
        b = space.y.imag
        n = space.n_bus
        for i in range(n):
            p_calc = sum(vm[i] * vm[j] * (g[i, j] * np.cos(va[i] - va[j])
                                          + b[i, j] * np.sin(va[i] - va[j]))
                         for j in range(n))
            q_calc = sum(vm[i] * vm[j] * (g[i, j] * np.sin(va[i] - va[j])
                                          - b[i, j] * np.cos(va[i] - va[j]))
                         for j in range(n))
            pg_i = sum(pg[k] for k in range(space.n_gen) if space.gen_bus[k] == i)
            qg_i = sum(qg[k] for k in range(space.n_gen) if space.gen_bus[k] == i)
            here = [l for l in case.loads if space.case.bus_index[l.bus] == i]
            pd_i = sum(l.pd for l in here)
            qd_i = sum(l.qd for l in here)
            assert r_p[0, i] == pytest.approx(pg_i - pd_i - p_calc, abs=1e-10)
            assert r_q[0, i] == pytest.approx(qg_i - qd_i - q_calc, abs=1e-10)


# --------------------------------------------------------------- gradients

def test_penalty_gradient_matches_finite_differences():
    for case in (toy_case(), shared_bus_case()):
        space = DecisionSpace(case)
        rng = Rng(7)
        batch = 2
        vm = 1.0 + 0.04 * rng.normals(batch * space.n_bus).reshape(batch, -1)
        va = 0.25 * rng.normals(batch * space.n_bus).reshape(batch, -1)
        pg = 0.55 + 0.5 * rng.normals(batch * space.n_gen).reshape(batch, -1)
        qg = 0.3 * rng.normals(batch * space.n_gen).reshape(batch, -1)
        dec = space.pack(vm, va, pg, qg)
        pd = 0.4 + 0.1 * rng.normals(batch * space.n_load).reshape(batch, -1)
        qd = 0.1 + 0.05 * rng.normals(batch * space.n_load).reshape(batch, -1)
        pd_bus, qd_bus = space.loads_to_buses(pd, qd)
        w = PenaltyWeights(w_cost=0.3, w_eq=5.0, w_ineq=7.0)
        _, grad, _ = penalty_loss_and_grad(space, dec, pd_bus, qd_bus, w)
        eps = 1e-6
        for b_i in range(batch):
            for k in range(space.dim):
                up, dn = dec.copy(), dec.copy()
                up[b_i, k] += eps
                dn[b_i, k] -= eps
                lp, _, _ = penalty_loss_and_grad(space, up, pd_bus, qd_bus, w)
                lm, _, _ = penalty_loss_and_grad(space, dn, pd_bus, qd_bus, w)
                fd = (lp - lm) / (2 * eps)
                assert grad[b_i, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_model_weight_gradient_matches_finite_differences():
    case = toy_case()
    space = DecisionSpace(case)
    rng = Rng(3)
    pd = 0.4 + 0.1 * rng.normals(6).reshape(3, 2)
    qd = 0.1 + 0.02 * rng.normals(6).reshape(3, 2)
    inputs = np.concatenate([pd, qd], axis=1)
    pd_bus, qd_bus = space.loads_to_buses(pd, qd)
    model = build_mlp(space, hidden_layers=2, width=8, seed=1)
    model.input_mean, model.input_std = input_standardization(inputs)
    w = PenaltyWeights()
    decision, cache = mlp_forward(model, inputs)
    _, grad_dec, _ = penalty_loss_and_grad(space, decision, pd_bus, qd_bus, w)
    grads_w, grads_b = mlp_backward(model, cache, grad_dec)

    def loss_at():
        decision, _ = mlp_forward(model, inputs)
        loss, _, _ = penalty_loss_and_grad(space, decision, pd_bus, qd_bus, w)
        return loss

    eps = 1e-6
    check = Rng(9)
    for layer in range(len(model.weights)):
        flat = model.weights[layer]
        for _ in range(10):
            i = check.randrange(flat.shape[0])
            j = check.randrange(flat.shape[1])
            orig = flat[i, j]
            flat[i, j] = orig + eps
            lp = loss_at()
            flat[i, j] = orig - eps
            lm = loss_at()
            flat[i, j] = orig
            fd = (lp - lm) / (2 * eps)
            assert grads_w[layer][i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7), \
                (layer, i, j)


# ---------------------------------------------------------------- training

def test_zero_epochs_leaves_model_unchanged():
    case = toy_case()
    space = DecisionSpace(case)
    samples = gen_realistic(case, 20, seed=0)
    inputs = np.concatenate([samples.pd, samples.qd], axis=1)
    model = build_mlp(space, 1, 16, seed=2)
    model.input_mean, model.input_std = input_standardization(inputs)
    before = [w.copy() for w in model.weights]
    trained, trace = train_penalty(model, samples.pd, samples.qd,
                                   TrainConfig(epochs=0))
    assert trace == []
    for w0, w1 in zip(before, trained.weights):
        np.testing.assert_array_equal(w0, w1)


def test_training_a_copy_leaves_the_original_unchanged():
    case = toy_case()
    space = DecisionSpace(case)
    samples = gen_realistic(case, 20, seed=0)
    original = build_mlp(space, 1, 16, seed=2)
    before = [a.copy() for a in original.weights + original.biases]
    trained, _ = train_penalty(original.copy(), samples.pd, samples.qd,
                               TrainConfig(epochs=2))
    assert not np.array_equal(trained.weights[0], before[0])
    for a, b in zip(original.weights + original.biases, before):
        np.testing.assert_array_equal(a, b)


def test_equality_loss_decreases_on_repeated_sample():
    # w_cost = 0, one sample repeated, decayed plain gradient descent: the
    # equality term decreases monotonically after warm-up (seeded fixture;
    # the warm-up epoch 67 was frozen from this exact trace)
    case = toy_case()
    space = DecisionSpace(case)
    pd = np.tile([[0.5, 0.18]], (16, 1))
    qd = np.tile([[0.15, 0.04]], (16, 1))
    inputs = np.concatenate([pd, qd], axis=1)
    model = build_mlp(space, 2, 32, seed=4)
    model.input_mean, model.input_std = input_standardization(inputs)
    cfg = TrainConfig(epochs=120, lr=0.02, lr_decay=0.15, momentum=0.0, seed=6,
                      weights=PenaltyWeights(w_cost=0.0))
    _, trace = train_penalty(model, pd, qd, cfg)
    eq = [t["eq"] for t in trace]
    warm = 67
    for a, b in zip(eq[warm:], eq[warm + 1:]):
        assert b <= a
    assert eq[-1] < eq[0] / 20


def test_training_divergence_reports_epoch():
    case = toy_case()
    space = DecisionSpace(case)
    samples = gen_realistic(case, 8, seed=1)
    inputs = np.concatenate([samples.pd, samples.qd], axis=1)
    model = build_mlp(space, 1, 8, seed=0)
    model.input_mean, model.input_std = input_standardization(inputs)
    cfg = TrainConfig(epochs=8, lr=1e80, grad_clip=np.inf, momentum=0.99)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDiverged):
            train_penalty(model, samples.pd, samples.qd, cfg)
    # the loss's own overflow is how divergence shows; the diverged batch
    # gets no backward pass, so nothing overflows in the network
    assert not [w for w in caught if w.filename.endswith("mlp.py")]


def test_train_config_rejects_negative_epochs():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-2)


@pytest.mark.parametrize("value", [0.0, -0.01, np.inf, np.nan])
def test_train_config_rejects_non_positive_or_non_finite_lr(value):
    with pytest.raises(ValueError, match="lr must"):
        TrainConfig(lr=value)


@pytest.mark.parametrize("value", [-0.1, 1.0, 1.5, np.nan])
def test_train_config_rejects_momentum_outside_unit_interval(value):
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(momentum=value)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
def test_train_config_rejects_non_positive_grad_clip(value):
    with pytest.raises(ValueError, match="grad_clip"):
        TrainConfig(grad_clip=value)
    assert TrainConfig(grad_clip=np.inf).grad_clip == np.inf  # no clipping


@pytest.mark.parametrize("value", [-1.0, np.inf, np.nan])
def test_train_config_rejects_negative_lr_decay(value):
    with pytest.raises(ValueError, match="lr_decay"):
        TrainConfig(lr_decay=value)


# Reference copies of the training loop and loss before they indexed each
# batch from pd/qd, dropped the identity product and updated the optimizer
# state in place: whole-set inputs and bus loads, np.eye(n) for the bus
# injections, conj(Y) and real C taken per call, allocating momentum step.

def _ref_adjoint_to_grads(c, v, v_end, i_end, C, Y):
    first = (np.conj(c) * np.conj(i_end)) @ C
    w = (np.conj(c) * v_end) @ np.conj(Y)
    e = v / np.abs(v)
    g_va = np.real(1j * v * first) + np.real(-1j * np.conj(v) * w)
    g_vm = np.real(e * first) + np.real(np.conj(e) * w)
    return g_va, g_vm


def _ref_penalty_loss_and_grad(space, decision, pd_bus, qd_bus, weights):
    decision = np.atleast_2d(decision)
    b = decision.shape[0]
    n = space.n_bus
    ev = space.evaluate(decision, pd_bus, qd_bus)
    exc = ev.excess
    n_eq = 2 * n
    loss_eq = float(np.sum(ev.r_p**2 + ev.r_q**2) / (b * n_eq))
    n_ineq = space.n_ineq
    loss_ineq = float(sum(np.sum(e**2) for e in exc.values()) / (b * n_ineq))
    loss_cost = float(space.cost(ev.pg).mean())
    loss = (weights.w_cost * loss_cost + weights.w_eq * loss_eq
            + weights.w_ineq * loss_ineq)
    lam_p = -2.0 * weights.w_eq * ev.r_p / (b * n_eq)
    lam_q = -2.0 * weights.w_eq * ev.r_q / (b * n_eq)
    g_va, g_vm = _ref_adjoint_to_grads(lam_p + 1j * lam_q, ev.v, ev.v, ev.i_bus,
                                       np.eye(n), space.y)
    g_pg = -lam_p @ space.gen_inc.T
    g_qg = -lam_q @ space.gen_inc.T
    k_ineq = 2.0 * weights.w_ineq / (b * n_ineq)
    g_pg += k_ineq * (exc["pg_hi"] - exc["pg_lo"])
    g_qg += k_ineq * (exc["qg_hi"] - exc["qg_lo"])
    g_vm += k_ineq * (exc["vm_hi"] - exc["vm_lo"])
    ends = ev.ends
    for s_end, v_end, i_end, excess, C, Y in (
            (ends.s_f, ends.vf, ends.i_f, exc["th_f"], space.cf.real,
             np.conj(space.yf_conj)),
            (ends.s_t, ends.vt, ends.i_t, exc["th_t"], space.ct.real,
             np.conj(space.yt_conj))):
        active = excess > 0
        if not active.any():
            continue
        eta = np.where(active, s_end / np.maximum(np.abs(s_end), 1e-12), 0.0)
        dva, dvm = _ref_adjoint_to_grads(k_ineq * excess * eta, ev.v, v_end, i_end,
                                         C, Y)
        g_va += dva
        g_vm += dvm
    g_pg += weights.w_cost * (2.0 * space.cost_c2 * ev.pg + space.cost_c1) / (
        space.cost_ref * b)
    g_va[:, space.slack] = 0.0
    grad = space.pack(g_vm, g_va, g_pg, g_qg)
    return loss, grad, {"cost": loss_cost, "eq": loss_eq, "ineq": loss_ineq}


def _ref_train_penalty(model, pd, qd, cfg):
    space = model.space
    n = pd.shape[0]
    inputs = np.concatenate([pd, qd], axis=1)
    pd_bus, qd_bus = space.loads_to_buses(pd, qd)
    rng = Rng(cfg.seed)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    trace = []
    order = list(range(n))
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        lr = cfg.lr / (1.0 + cfg.lr_decay * epoch)
        epoch_loss = 0.0
        epoch_parts = {"cost": 0.0, "eq": 0.0, "ineq": 0.0}
        batches = 0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            decision, cache = mlp_forward(model, inputs[idx])
            loss, grad_dec, parts = _ref_penalty_loss_and_grad(
                space, decision, pd_bus[idx], qd_bus[idx], cfg.weights)
            grads_w, grads_b = mlp_backward(model, cache, grad_dec)
            gnorm = np.sqrt(sum(float((g**2).sum()) for g in grads_w)
                            + sum(float((g**2).sum()) for g in grads_b))
            scale = min(1.0, cfg.grad_clip / max(gnorm, 1e-12))
            for k in range(len(model.weights)):
                vel_w[k] = cfg.momentum * vel_w[k] - lr * scale * grads_w[k]
                vel_b[k] = cfg.momentum * vel_b[k] - lr * scale * grads_b[k]
                model.weights[k] += vel_w[k]
                model.biases[k] += vel_b[k]
            epoch_loss += loss
            for key in epoch_parts:
                epoch_parts[key] += parts[key]
            batches += 1
        entry = {"epoch": epoch, "loss": epoch_loss / batches}
        entry.update({k: v / batches for k, v in epoch_parts.items()})
        trace.append(entry)
    return model, trace


@pytest.mark.parametrize("case_name, cfg", [
    # case30's rated branches run the thermal adjoint; case57 has none
    ("case30", TrainConfig(epochs=4, seed=3)),
    ("case57", TrainConfig(epochs=4, seed=3)),
    # every batch's gradient norm exceeds this clip
    ("case30", TrainConfig(epochs=4, lr=0.05, lr_decay=0.5, momentum=0.5,
                           grad_clip=1e-3, seed=5)),
])
def test_training_equals_reference_loop(case_name, cfg):
    case = bundled_case(case_name)
    space = DecisionSpace(case)
    samples = gen_realistic(case, 150, seed=2)  # two full batches and a partial one
    pd_bus, qd_bus = space.loads_to_buses(samples.pd, samples.qd)
    model = build_mlp(space, 2, 32, seed=1)
    model.input_mean, model.input_std = input_standardization(
        np.concatenate([samples.pd, samples.qd], axis=1))
    ev = space.evaluate(mlp_forward(model, np.concatenate(
        [samples.pd, samples.qd], axis=1))[0], pd_bus, qd_bus)
    thermal = ev.excess["th_f"].any() or ev.excess["th_t"].any()
    assert thermal == (case_name == "case30")
    ref, ref_trace = _ref_train_penalty(model.copy(), samples.pd, samples.qd, cfg)
    new, trace = train_penalty(model.copy(), samples.pd, samples.qd, cfg)
    assert trace == ref_trace
    for a, b in zip(new.weights + new.biases, ref.weights + ref.biases):
        np.testing.assert_array_equal(a, b)


def test_training_memory_does_not_grow_with_the_sample_set():
    # each batch builds its own inputs and bus loads, and the optimizer
    # state is updated in place; whole-set copies grew this by ~6 MB
    case = bundled_case("case57")
    space = DecisionSpace(case)
    peaks = []
    for n in (200, 4000):
        samples = gen_realistic(case, n, seed=0)
        model = build_mlp(space, 2, 200, seed=0)
        model.input_mean, model.input_std = input_standardization(
            np.concatenate([samples.pd, samples.qd], axis=1))
        tracemalloc.start()
        try:
            train_penalty(model, samples.pd, samples.qd, TrainConfig(epochs=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20, peaks


# ------------------------------------------------------------- data gen

def test_single_group_constant_style_reproduces_base():
    case = toy_case()
    loads = tuple(replace(l, style="constant") for l in case.loads)
    case = replace(case, loads=loads)
    samples = gen_realistic(case, 30, seed=0)
    base = np.array([l.pd for l in case.loads])
    np.testing.assert_allclose(samples.pd, np.tile(base, (30, 1)))


def test_intra_group_ratio_constancy():
    case = bundled_case("case30")
    samples = gen_realistic(case, 100, seed=3)
    base = np.array([l.pd for l in case.loads])
    groups = [l.group for l in case.loads]
    ratios = samples.pd / base
    for g in set(groups):
        cols = [j for j, gj in enumerate(groups) if gj == g]
        for c in cols[1:]:
            np.testing.assert_allclose(ratios[:, c], ratios[:, cols[0]],
                                       rtol=1e-12)


def test_oscillating_group_moves_together_with_its_ripple_in_range():
    # no bundled case has an oscillating group, so case30's smooth group is
    # restyled; without noise its columns are one multiplier series, and
    # what a daily hump leaves of each day is the ripple: a sine of
    # amplitude r in [0.005, 0.02] plus jitter of standard deviation r / 2,
    # so an RMS of about 0.85 r
    case = bundled_case("case30")
    case = replace(case, loads=tuple(replace(l, style="oscillating") if l.style == "smooth"
                                     else l for l in case.loads))
    cols = [j for j, l in enumerate(case.loads) if l.style == "oscillating"]
    samples = gen_realistic(case, 2 * TICKS_PER_DAY, seed=3)
    base = np.array([l.pd for l in case.loads])
    ratios = samples.pd[:, cols] / base[cols]
    np.testing.assert_allclose(ratios, np.repeat(ratios[:, :1], len(cols), axis=1),
                               rtol=1e-12)
    angle = 2.0 * np.pi * np.arange(TICKS_PER_DAY) / TICKS_PER_DAY
    hump = np.stack([np.ones(TICKS_PER_DAY), np.cos(angle), np.sin(angle)], axis=1)
    lo, hi = 0.85 * 0.005, 0.85 * 0.02  # RMS at the ripple's range ends
    for day in ratios[:, 0].reshape(2, TICKS_PER_DAY):
        ripple = day - hump @ np.linalg.lstsq(hump, day, rcond=None)[0]
        assert lo / 2 < np.sqrt(np.mean(ripple**2)) < 1.5 * hi


def test_groups_differ_across_samples():
    case = bundled_case("case30")
    samples = gen_realistic(case, 100, seed=3)
    base = np.array([l.pd for l in case.loads])
    groups = [l.group for l in case.loads]
    ratios = samples.pd / base
    first_col = {g: [j for j, gj in enumerate(groups) if gj == g][0]
                 for g in set(groups)}
    cols = sorted(first_col.values())
    assert not np.allclose(ratios[:, cols[0]], ratios[:, cols[1]])


def test_realistic_per_load_noise_is_opt_in():
    case = bundled_case("case30")
    base = np.array([l.pd for l in case.loads])
    groups = [l.group for l in case.loads]
    noisy = gen_realistic(case, 50, seed=3, noise_sigma=0.02).pd / base
    clean = gen_realistic(case, 50, seed=3).pd / base
    shared = [g for g in set(groups) if groups.count(g) > 1]
    assert shared
    for g in shared:
        cols = [j for j, gj in enumerate(groups) if gj == g]
        assert not np.allclose(noisy[:, cols[1]], noisy[:, cols[0]])
    # the noise rides on the same group series the clean samples follow
    np.testing.assert_allclose(noisy, clean, atol=0.1)
    with pytest.raises(ValueError, match="noise_sigma"):
        gen_realistic(case, 50, seed=3, noise_sigma=-0.01)


def test_augmented_naive_rank_one_and_range():
    case = bundled_case("case30")
    base_pd = np.array([l.pd for l in case.loads])
    base_qd = np.array([l.qd for l in case.loads])
    fake = gen_augmented(case, base_pd, base_qd, "naive", 50, seed=2)
    ratios = fake.pd / base_pd
    for i in range(50):
        assert np.allclose(ratios[i], ratios[i, 0])
        assert 0.8 <= ratios[i, 0] <= 1.2
    # qd scaled by the same factor
    np.testing.assert_allclose(fake.qd / base_qd, ratios, rtol=1e-12)


def test_augmented_grouped_structure_scan():
    case = bundled_case("case30")
    base_pd = np.array([l.pd for l in case.loads])
    base_qd = np.array([l.qd for l in case.loads])
    fake = gen_augmented(case, base_pd, base_qd, "grouped", 40, seed=5)
    groups = [l.group for l in case.loads]
    ratios = fake.pd / base_pd
    for g in set(groups):
        cols = [j for j, gj in enumerate(groups) if gj == g]
        for c in cols[1:]:
            np.testing.assert_allclose(ratios[:, c], ratios[:, cols[0]], rtol=1e-12)


# ----------------------------------------------------------------- sweep

def test_zero_weight_model_equals_direct_baseline():
    case = toy_case()
    space = DecisionSpace(case)
    samples = gen_realistic(case, 10, seed=0)
    inputs = np.concatenate([samples.pd, samples.qd], axis=1)
    model = build_mlp(space, 2, 16, seed=0)
    model.input_mean, model.input_std = input_standardization(inputs)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    report = evaluate_decisions(model, samples.pd, samples.qd)
    # direct evaluation of the constant mid-band mapping
    mid_vm = space.v_min + (space.v_max - space.v_min) * 0.5
    mid_pg = space.p_min + (space.p_max - space.p_min) * 0.5
    dec = space.pack(mid_vm, np.zeros(space.n_bus), mid_pg, np.zeros(space.n_gen))
    direct = space.violations(np.tile(dec, (10, 1)), pd=samples.pd, qd=samples.qd)
    assert report.equality_mean == pytest.approx(direct.equality_mean, rel=1e-12)
    assert report.overall_mean == pytest.approx(direct.overall_mean, rel=1e-12)


def test_feasible_oracle_decisions_near_zero():
    case = scaled_case30(0.6)
    space = DecisionSpace(case)
    samples = gen_realistic(case, 4, seed=1)
    for i in range(len(samples)):
        dec = feasible_decision_from_pf(space, pd=samples.pd[i], qd=samples.qd[i])
        rep = space.violations(dec, pd=samples.pd[i:i + 1], qd=samples.qd[i:i + 1])
        assert rep.overall_mean <= 1e-6


def test_train_beats_test_for_naive_mode_seeded():
    case = bundled_case("case30")
    cfg = ExperimentConfig(case=case, n_real=120, n_fake=(150,), seeds=(0,),
                           train=TrainConfig(epochs=80, lr=0.01))
    realistic = gen_realistic(case, cfg.n_real, 0, noise_sigma=_REALISTIC_NOISE_SIGMA)
    train_pool, test_set = split_realistic(realistic)
    base_pd = train_pool.pd.mean(axis=0)
    base_qd = train_pool.qd.mean(axis=0)
    fake = gen_augmented(case, base_pd, base_qd, "naive", 150, seed=11)
    space = DecisionSpace(case)
    inputs = np.concatenate([fake.pd, fake.qd], axis=1)
    model = build_mlp(space, 2, 64, seed=12)
    model.input_mean, model.input_std = input_standardization(inputs)
    model, _ = train_penalty(model, fake.pd, fake.qd,
                             TrainConfig(epochs=80, lr=0.01, seed=13))
    on_train = evaluate_decisions(model, fake.pd, fake.qd)
    on_test = evaluate_decisions(model, test_set.pd, test_set.qd)
    assert on_train.overall_mean < on_test.overall_mean


def test_single_cell_sweep_equals_direct_chain():
    case = bundled_case("case30")
    cfg = ExperimentConfig(case=case, n_real=60, n_fake=(40,), seeds=(10,),
                           modes=("grouped",), width=24,
                           train=TrainConfig(epochs=10, lr=0.01))
    res = experiment_sweep(cfg)
    assert len(res.rows) == 1 and not res.failures
    direct = run_cell(cfg, "grouped", 40, 10)
    assert res.rows[0] == direct


def two_seed_config():
    """A sweep of 12 cells on two seeds, 4 of them failing (``not_a_mode``)."""
    return ExperimentConfig(case=bundled_case("case30"), n_real=60, n_fake=(40, 80),
                            seeds=(0, 1), modes=("naive", "not_a_mode", "grouped"),
                            width=24, train=TrainConfig(epochs=5, lr=0.01))


def test_sweep_rows_equal_single_cells():
    # a seed's cells share its inputs and initial network in the sweep;
    # run_cell prepares them for one cell, so any state carried from one
    # cell to the next shows as a difference
    cfg = two_seed_config()
    n_fakes, seeds = cfg.n_fake, cfg.seeds
    res = experiment_sweep(cfg)
    good = [(m, n, s) for m in ("naive", "grouped") for n in n_fakes for s in seeds]
    assert [(r.mode, r.n_fake, r.seed) for r in res.rows] == good
    for row in res.rows:
        assert row == run_cell(cfg, row.mode, row.n_fake, row.seed)
    assert [f.split(":")[0] for f in res.failures] == [
        f"not_a_mode/n_fake={n}/seed={s}" for n in n_fakes for s in seeds]


def test_run_cell_uses_the_whole_train_config():
    case = bundled_case("case30")
    cfg = ExperimentConfig(case=case, n_real=60, n_fake=(40,), seeds=(0,),
                           modes=("naive",), width=24,
                           train=TrainConfig(epochs=5, lr=0.01))
    base = run_cell(cfg, "naive", 40, 0)
    for change in ({"grad_clip": 1e-6}, {"lr_decay": 5.0}):
        changed = replace(cfg, train=replace(cfg.train, **change))
        assert run_cell(changed, "naive", 40, 0) != base, change


def test_sweep_determinism():
    case = bundled_case("case30")
    cfg = ExperimentConfig(case=case, n_real=60, n_fake=(40,), seeds=(0,),
                           modes=("naive",), width=24,
                           train=TrainConfig(epochs=10, lr=0.01))
    a = experiment_sweep(cfg)
    b = experiment_sweep(cfg)
    assert a.rows == b.rows


def test_sweep_records_cell_failures_and_continues():
    case = bundled_case("case30")
    cfg = ExperimentConfig(case=case, n_real=60, n_fake=(40,), seeds=(0,),
                           modes=("naive", "not_a_mode"), width=24,
                           train=TrainConfig(epochs=5, lr=0.01))
    res = experiment_sweep(cfg)
    assert len(res.rows) == 1
    assert len(res.failures) == 1
    assert "not_a_mode" in res.failures[0]


@pytest.mark.parametrize("axis,values,match", [
    ("seeds", (), "need at least one seed"),
    ("modes", (), "need at least one mode"),
    ("n_fake", (), "need at least one n_fake"),
    ("seeds", (0, 1, 0), "repeated seed"),
    ("modes", ("naive", "naive"), "repeated mode"),
    ("n_fake", (20, 20), "repeated n_fake"),
])
def test_experiment_config_rejects_empty_or_repeated_axes(axis, values, match):
    # a repeated value trains the same cell again and reports it twice; an
    # empty axis gives an empty result
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(case=toy_case(), **{axis: values})


def test_forked_sweep_equals_the_in_process_sweep(on_cpus, forks, no_child_left):
    cfg = two_seed_config()
    on_cpus(1)
    serial = experiment_sweep(cfg)
    assert not forks
    on_cpus(2)
    forked = experiment_sweep(cfg)
    assert len(forks) == 2  # one child per part of the seeds
    assert len(serial.rows) == 8 and len(serial.failures) == 4
    assert forked.rows == serial.rows
    assert forked.failures == serial.failures


def test_one_seed_sweep_forks_nothing(on_cpus, forks, no_child_left):
    on_cpus(2)
    cfg = ExperimentConfig(case=toy_case(), n_real=8, n_fake=(4,), seeds=(3,),
                           modes=("naive",), width=4, train=TrainConfig(epochs=1))
    assert len(experiment_sweep(cfg).rows) == 1
    assert not forks


def test_sweep_records_a_decision_space_failure_for_every_cell(on_cpus, no_child_left):
    case = toy_case()
    slackless = replace(case, buses=(replace(case.buses[0], kind="pv"),) + case.buses[1:])
    cfg = ExperimentConfig(case=slackless, n_real=8, n_fake=(4,), seeds=(3, 4),
                           modes=("naive", "grouped"), width=4, train=TrainConfig(epochs=1))
    with pytest.raises(StopIteration):
        run_cell(cfg, "naive", 4, 3)
    for cpus in (1, 2):
        on_cpus(cpus)
        res = experiment_sweep(cfg)
        assert res.rows == ()
        assert res.failures == tuple(f"{m}/n_fake=4/seed={s}: " for m in cfg.modes
                                     for s in cfg.seeds)


def test_sweep_raises_when_a_part_sends_nothing(monkeypatch, on_cpus, no_child_left):
    real = sweep_module._seed_inputs

    def exits_on_seed_1(config, space, seed):
        if seed == 1:
            os._exit(3)  # in the child running seeds[1::2]
        return real(config, space, seed)

    monkeypatch.setattr(sweep_module, "_seed_inputs", exits_on_seed_1)
    on_cpus(2)
    with pytest.raises(ChildProcessError, match="part 1's child .* sent nothing"):
        experiment_sweep(replace(two_seed_config(), modes=("naive",), n_fake=(40,)))


def test_sweep_and_walks_fork_nothing_without_one_blas_thread(
        monkeypatch, on_cpus, forks, no_child_left):
    # with OpenBLAS's own thread count, two children on two CPUs ran matrix
    # products 5 to 20 times slower than one process
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    on_cpus(2)
    cfg = replace(two_seed_config(), modes=("naive",), n_fake=(40,))
    assert len(experiment_sweep(cfg).rows) == 2
    walked = split_walk(lambda part: np.where(np.arange(4) % 2 == part, part, np.nan))
    assert np.array_equal(walked, [0.0, 1.0, 0.0, 1.0])
    assert not forks


def test_sweep_forks_nothing_under_two_blas_threads():
    # OpenBLAS reads its thread count when it loads, so only a fresh
    # interpreter shows the setting a library caller starts with
    script = """
import os
from gridbench import twoparts
from gridbench.acopf import ExperimentConfig, TrainConfig, experiment_sweep
from gridbench.grid import bundled_case

twoparts._usable_cpus = lambda: 2
calls = []
real_fork = os.fork
os.fork = lambda: calls.append(1) or real_fork()
cfg = ExperimentConfig(case=bundled_case("case14"), n_real=8, n_fake=(4,), seeds=(0, 1),
                       modes=("naive",), width=4, train=TrainConfig(epochs=1))
rows = experiment_sweep(cfg).rows
print(len(rows), len(calls))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["2", "0"]


def test_mode_means_and_seed_gap_count():
    """Claim 3's summaries on hand-built rows: n_fake rows of one (mode,
    seed) are averaged first, a seed missing a mode is not compared, and a
    tie is not a win."""
    def row(mode, n_fake, seed, overall):
        return SweepRow(mode, n_fake, seed, 0.0, 0.0, overall)

    res = SweepResult(rows=(
        # seed 0: naive's mean 0.3 beats brute_force's 0.25, although its
        # n_fake 200 row alone does not
        row("naive", 200, 0, 0.1), row("naive", 1000, 0, 0.5),
        row("brute_force", 200, 0, 0.2), row("brute_force", 1000, 0, 0.3),
        # seed 1: a tie at 0.5
        row("naive", 200, 1, 0.5), row("brute_force", 200, 1, 0.5),
        # seed 2: naive only
        row("naive", 200, 2, 0.9),
        # seed 3: brute_force worse
        row("naive", 200, 3, 0.1), row("brute_force", 200, 3, 0.2),
    ), failures=())
    means = res.mean_overall_by_mode()
    assert means == pytest.approx({"naive": (0.1 + 0.5 + 0.5 + 0.9 + 0.1) / 5,
                                   "brute_force": (0.2 + 0.3 + 0.5 + 0.2) / 4})
    assert res.gap_positive_count() == (1, 3)
    assert res.gap_positive_count(worse="brute_force", better="naive") == (1, 3)
    assert res.gap_positive_count(worse="naive", better="grouped") == (0, 0)
