"""Penalty training loss and its analytic decision-space gradient.

    L = w_cost * mean(normalized cost)
      + w_eq   * mean(equality residual^2)
      + w_ineq * mean(clipped inequality excess^2)

The voltage-dependent terms back-propagate through the polar injection and
branch-flow derivatives in closed form:

    dS/d(va_k) = j V_k e_k . conj(I) + diag(V) conj(Y (j V_k e_k))
    dS/d(vm_k) = E_k e_k . conj(I) + diag(V) conj(Y (E_k e_k)),  E = V/|V|

collapsed into batched matrix products against the loss adjoints.
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


def _bus_adjoint_to_grads(space: DecisionSpace, c: np.ndarray, v: np.ndarray,
                          i_bus: np.ndarray):
    """Gradient contributions of dL = Re(conj(c)^T dS) wrt (va, vm)."""
    u = np.conj(c) * v                      # (B, n)
    w = u @ np.conj(space.y)                # sum_i u_i conj(Y_ik)
    first = np.conj(c) * np.conj(i_bus)     # conj(c_k) conj(I_k)
    e = v / np.abs(v)
    g_va = np.real(1j * v * first) + np.real(-1j * np.conj(v) * w)
    g_vm = np.real(e * first) + np.real(np.conj(e) * w)
    return g_va, g_vm


def _branch_adjoint_to_grads(space: DecisionSpace, mu_eta: np.ndarray,
                             v: np.ndarray, v_end: np.ndarray, i_br: np.ndarray,
                             from_side: bool):
    """Gradients of dL = sum_l Re(mu_eta_l dS_l) for one end of the rated branches.

    S_l = V_{e(l)} conj(I_l) with I_l = y1 V_f + y2 V_t; ``from_side``
    selects which end e(l) and admittance pair applies.
    """
    n = space.n_bus
    b = mu_eta.shape[0]
    br = space.rated
    if from_side:
        end_idx, y_to_f, y_to_t = br.f, br.yff, br.yft
    else:
        end_idx, y_to_f, y_to_t = br.t, br.ytf, br.ytt
    a = mu_eta * np.conj(i_br)   # (B, nbr): coefficient on dV at the metered end
    g_va = np.zeros((b, n))
    g_vm = np.zeros((b, n))
    e = v / np.abs(v)
    # dV at the metered end
    term = np.real(1j * v[:, end_idx] * a)
    np.add.at(g_va, (slice(None), end_idx), term)
    term = np.real(e[:, end_idx] * a)
    np.add.at(g_vm, (slice(None), end_idx), term)
    # conj(Y dV) terms at both terminals
    for idx, coeff in ((br.f, y_to_f), (br.t, y_to_t)):
        bb = mu_eta * v_end * np.conj(coeff)
        term_va = np.real(-1j * np.conj(v[:, idx]) * bb)
        term_vm = np.real(np.conj(e[:, idx]) * bb)
        np.add.at(g_va, (slice(None), idx), term_va)
        np.add.at(g_vm, (slice(None), idx), term_vm)
    return g_va, g_vm


def penalty_loss_and_grad(space: DecisionSpace, decision: np.ndarray,
                          pd_bus: np.ndarray, qd_bus: np.ndarray,
                          weights: PenaltyWeights):
    """Scalar loss, gradient wrt the packed decision, and term breakdown."""
    decision = np.atleast_2d(decision)
    b = decision.shape[0]
    n, g = space.n_bus, space.n_gen
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
    g_vm = np.zeros((b, n))
    g_va = np.zeros((b, n))
    g_pg = np.zeros((b, g))
    g_qg = np.zeros((b, g))

    # equality: adjoint on calculated injections
    lam_p = -2.0 * weights.w_eq * ev.r_p / (b * n_eq)
    lam_q = -2.0 * weights.w_eq * ev.r_q / (b * n_eq)
    c = lam_p + 1j * lam_q
    dva, dvm = _bus_adjoint_to_grads(space, c, ev.v, ev.i_bus)
    g_va += dva
    g_vm += dvm
    # and directly on generator injections
    g_pg += -lam_p[:, space.gen_bus]
    g_qg += -lam_q[:, space.gen_bus]

    # inequality: box terms
    k_ineq = 2.0 * weights.w_ineq / (b * n_ineq)
    g_pg += k_ineq * (exc["pg_hi"] - exc["pg_lo"])
    g_qg += k_ineq * (exc["qg_hi"] - exc["qg_lo"])
    g_vm += k_ineq * (exc["vm_hi"] - exc["vm_lo"])

    # inequality: thermal terms through the branch flows
    ends = ev.ends
    for s_br, i_br, v_end, excess, from_side in (
            (ends.s_f, ends.i_f, ends.vf, exc["th_f"], True),
            (ends.s_t, ends.i_t, ends.vt, exc["th_t"], False)):
        active = excess > 0
        if not active.any():
            continue
        eta = np.where(active, np.conj(s_br) / np.maximum(np.abs(s_br), 1e-12), 0.0)
        mu_eta = k_ineq * excess * eta
        dva, dvm = _branch_adjoint_to_grads(space, mu_eta, ev.v, v_end, i_br, from_side)
        g_va += dva
        g_vm += dvm

    # cost
    g_pg += weights.w_cost * (2.0 * space.cost_c2 * ev.pg + space.cost_c1) / (
        space.cost_ref * b)

    g_va[:, space.slack] = 0.0  # pinned angle
    grad = np.concatenate([g_vm, g_va, g_pg, g_qg], axis=1)
    parts = {"cost": loss_cost, "eq": loss_eq, "ineq": loss_ineq}
    return loss, grad, parts
