"""Penalty training loss and its analytic decision-space gradient.

    L = w_cost * mean(normalized cost)
      + w_eq   * mean(equality residual^2)
      + w_ineq * mean(clipped inequality excess^2)

The voltage-dependent terms are all complex powers of the one form
S = (C V) * conj(Y V) (see ``space``): the bus injections (identity, Ybus)
and both ends of every rated branch (MATPOWER's Cf/Yf and Ct/Yt). Each
back-propagates through the same closed-form adjoint; for a loss adjoint c
on S, dL = Re(conj(c)^T dS) and

    dS = (C dV) * conj(Y V) + (C V) * conj(Y dV),  dV = j V dva + E dvm,

with E = V/|V|, collapsed into batched matrix products against C and
conj(Y). ``DecisionSpace`` stores conj(Y) and a complex C, so no batch
converts a matrix; the identity C of the bus injections takes no product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import DecisionSpace


@dataclass(frozen=True)
class PenaltyWeights:
    w_cost: float = 0.1
    w_eq: float = 10.0
    w_ineq: float = 10.0


def _adjoint_to_grads(c: np.ndarray, v: np.ndarray, v_end: np.ndarray,
                      i_end: np.ndarray, C: np.ndarray | None, y_conj: np.ndarray):
    """Gradients wrt (va, vm) of dL = Re(conj(c)^T dS), S = (C V) * conj(Y V).

    ``v_end`` = C V and ``i_end`` = Y V are the term's evaluated end voltages
    and currents. dS = (C dV) conj(I) + V_end conj(Y dV), with
    dV = j V dva + E dvm, E = V/|V|. ``C`` is complex, or None for the
    identity; ``y_conj`` is conj(Y).
    """
    c_conj = np.conj(c)
    first = c_conj * np.conj(i_end)  # coefficient on dV
    if C is not None:
        first = first @ C
    w = (c_conj * v_end) @ y_conj    # coefficient on conj(dV)
    e = v / np.abs(v)
    g_va = np.real(1j * v * first) + np.real(-1j * np.conj(v) * w)
    g_vm = np.real(e * first) + np.real(np.conj(e) * w)
    return g_va, g_vm


def penalty_loss_and_grad(space: DecisionSpace, decision: np.ndarray,
                          pd_bus: np.ndarray, qd_bus: np.ndarray,
                          weights: PenaltyWeights):
    """Scalar loss, gradient wrt the packed decision, and term breakdown."""
    decision = np.atleast_2d(decision)
    b = decision.shape[0]
    n = space.n_bus
    ev = space.evaluate(decision, pd_bus, qd_bus)
    exc = ev.excess

    n_eq = 2 * n
    loss_eq = float(np.sum(ev.r_p**2 + ev.r_q**2) / (b * n_eq))
    n_ineq = space.n_ineq
    loss_ineq = float(sum(np.sum(e**2) for e in exc.values()) / (b * n_ineq))

    cost = space.cost(ev.pg)
    loss_cost = float(cost.mean())

    loss = (weights.w_cost * loss_cost + weights.w_eq * loss_eq
            + weights.w_ineq * loss_ineq)

    # ---- gradients --------------------------------------------------------
    # equality: adjoint on calculated injections
    lam_p = -2.0 * weights.w_eq * ev.r_p / (b * n_eq)
    lam_q = -2.0 * weights.w_eq * ev.r_q / (b * n_eq)
    g_va, g_vm = _adjoint_to_grads(lam_p + 1j * lam_q, ev.v, ev.v, ev.i_bus,
                                   None, space.y_conj)
    # and directly on generator injections
    g_pg = -lam_p @ space.gen_inc.T
    g_qg = -lam_q @ space.gen_inc.T

    # inequality: box terms
    k_ineq = 2.0 * weights.w_ineq / (b * n_ineq)
    g_pg += k_ineq * (exc["pg_hi"] - exc["pg_lo"])
    g_qg += k_ineq * (exc["qg_hi"] - exc["qg_lo"])
    g_vm += k_ineq * (exc["vm_hi"] - exc["vm_lo"])

    # inequality: thermal terms through the branch end flows
    ends = ev.ends
    for s_end, v_end, i_end, excess, C, y_conj in (
            (ends.s_f, ends.vf, ends.i_f, exc["th_f"], space.cf, space.yf_conj),
            (ends.s_t, ends.vt, ends.i_t, exc["th_t"], space.ct, space.yt_conj)):
        active = excess > 0
        if not active.any():
            continue
        # d|S| = Re(conj(S)/|S| dS)
        eta = np.where(active, s_end / np.maximum(np.abs(s_end), 1e-12), 0.0)
        dva, dvm = _adjoint_to_grads(k_ineq * excess * eta, ev.v, v_end, i_end,
                                     C, y_conj)
        g_va += dva
        g_vm += dvm

    # cost
    g_pg += weights.w_cost * (2.0 * space.cost_c2 * ev.pg + space.cost_c1) / (
        space.cost_ref * b)

    g_va[:, space.slack] = 0.0  # pinned angle
    grad = space.pack(g_vm, g_va, g_pg, g_qg)
    parts = {"cost": loss_cost, "eq": loss_eq, "ineq": loss_ineq}
    return loss, grad, parts
