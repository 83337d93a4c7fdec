"""Vectorized network arrays and Newton-Raphson AC power flow.

``build_ybus`` compiles a case into dense arrays: the bus admittance
matrix, with rows and columns in ``case.buses`` order, plus, for every
closed branch, its position in ``case.branches``, its terminal bus indices
and its pi-model admittances (``BranchArrays``). Every branch quantity in
the package (flows, losses, the ACOPF decision space) is evaluated from
these arrays. A ``PFSolution`` keeps the branch arrays of the network it
was solved on, so flows need no rebuild. The bundled cases have at most 57
buses, so the admittance matrix and the Jacobian are plain dense arrays and
each Newton step is one dense solve.

``network`` compiles one topology of a case for the solver into a
``Network`` record: ``build_ybus``'s matrix and closed-branch arrays, the
slack/PV/PQ bus index vectors (after the island check), the voltage
setpoints, the slack angles, the bus of each load and online generator, and
the Newton structure of the topology: the index vectors of the regulated
buses and of the unknowns, and the admittance blocks that the reduced
Jacobian is built from. A scenario tick supplies only the per-bus demand
and scheduled injections (``Network.with_injections``); ``solve_pf`` also
takes a case and compiles it.

Conventions:
    - complex voltage V = vm * exp(j*va), arrays ordered like case.buses
    - mismatch = specified injection minus calculated injection (pu)
    - the Jacobian here is d(mismatch)/d(unknowns), i.e. the negative of the
      calculated-injection derivatives (MATPOWER's ``dSbus_dV`` formulas)
      restricted to the unknowns: va at PV/PQ buses, then vm at PQ buses

PV buses hold their generator voltage setpoint; reactive limits are not
enforced during the solve (limit violations are scored downstream). A PV
bus with no online generator is treated as PQ.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .grid.model import Branch, GridCase


class PowerFlowError(RuntimeError):
    """Structurally unsolvable case or singular Jacobian."""


class Terminals(NamedTuple):
    """Branch end quantities: end voltages, currents into each end, and the
    complex power entering each end, shaped (..., n_branches)."""

    vf: np.ndarray
    vt: np.ndarray
    i_f: np.ndarray
    i_t: np.ndarray
    s_f: np.ndarray
    s_t: np.ndarray


@dataclass(frozen=True)
class BranchArrays:
    """Pi-model arrays of a set of closed branches, one entry per branch.

    ``pos`` is each branch's position in ``case.branches``; ``f``/``t`` are
    its from/to bus indices; ``yff``..``ytt`` its terminal admittances.
    """

    pos: np.ndarray
    f: np.ndarray
    t: np.ndarray
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray

    def subset(self, mask: np.ndarray) -> "BranchArrays":
        return BranchArrays(*(getattr(self, f.name)[mask] for f in fields(self)))

    def terminals(self, v: np.ndarray) -> Terminals:
        """End quantities for complex bus voltages ``v`` of shape (..., n_bus)."""
        vf = v[..., self.f]
        vt = v[..., self.t]
        i_f = self.yff * vf + self.yft * vt
        i_t = self.ytf * vf + self.ytt * vt
        return Terminals(vf, vt, i_f, i_t, vf * np.conj(i_f), vt * np.conj(i_t))


@dataclass(frozen=True)
class Network:
    """One topology of a case compiled for the solver (see ``network``).

    ``y`` and ``branches`` are ``build_ybus``'s pair; the bus count is
    ``len(y)``. Index vectors hold bus positions in ``case.buses``. A PV bus
    without an online generator is PQ; buses of inert slackless islands are
    in none of slack/pv/pq. ``unknowns`` indexes the stacked (va, vm) of all
    buses, and also the stacked (P, Q) mismatches, which it picks in the
    same order. Only the per-bus demand and scheduled net injection (online
    generation minus demand, pu) change with loads and dispatch.
    """

    y: np.ndarray  # bus admittance matrix, complex n x n
    branches: BranchArrays  # the closed branches, in case order
    slack: np.ndarray
    pv: np.ndarray
    pq: np.ndarray
    regulated: np.ndarray  # slack then PV buses: they hold their vm setpoint
    pvpq: np.ndarray  # PV then PQ buses: their va is unknown
    unknowns: np.ndarray  # va at pvpq, then vm at pq (offset by n)
    y_pvpq: np.ndarray  # y rows and columns at pvpq
    y_pvpq_pq: np.ndarray  # y rows at pvpq, columns at pq
    vm_set: np.ndarray  # vm setpoint at slack/PV buses (the bus vm elsewhere)
    va_slack: np.ndarray  # angle of each slack bus
    load_bus: np.ndarray  # bus of each load, in case order
    gen_bus: np.ndarray  # bus of each online generator, in case order
    pd: np.ndarray
    qd: np.ndarray
    p_spec: np.ndarray
    q_spec: np.ndarray

    def with_injections(self, pd: Sequence[float], qd: Sequence[float],
                        pg: Sequence[float], qg: Sequence[float]) -> "Network":
        """This topology at per-load demand and per-online-generator output."""
        n = len(self.y)
        at = np.concatenate([self.gen_bus, self.load_bus])
        return replace(
            self, pd=_bus_sums(self.load_bus, pd, n), qd=_bus_sums(self.load_bus, qd, n),
            p_spec=_bus_sums(at, np.concatenate([pg, np.negative(pd)]), n),
            q_spec=_bus_sums(at, np.concatenate([qg, np.negative(qd)]), n))


def _bus_sums(at: np.ndarray, weights: Sequence[float], n: int) -> np.ndarray:
    """Per-bus sums of ``weights`` added in order (float even when empty)."""
    return np.bincount(at, weights, n).astype(float)


@dataclass(frozen=True)
class PFSolution:
    """Bus voltages and recovered generation of one solve, with the closed
    branches of the network it was solved on (read by ``branch_flows``)."""

    vm: np.ndarray
    va: np.ndarray
    pg: np.ndarray  # recovered net generation per bus (pu)
    qg: np.ndarray
    iterations: int
    converged: bool
    max_mismatch: float
    branches: BranchArrays  # the closed branches of the network solved on


@dataclass(frozen=True)
class BranchFlows:
    branch_ids: tuple[int, ...]
    p_from: np.ndarray
    q_from: np.ndarray
    p_to: np.ndarray
    q_to: np.ndarray
    i_from_mag: np.ndarray
    i_to_mag: np.ndarray


def branch_admittances(branches: Sequence[Branch]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pi-model terminal admittances (yff, yft, ytf, ytt) incl. tap/shift."""
    r, x, b, tap, shift = np.array(
        [(br.r, br.x, br.b, br.tap, br.shift) for br in branches], dtype=float
    ).reshape(-1, 5).T
    ys = 1.0 / (r + 1j * x)
    bc = 1j * b / 2.0
    a = tap * np.exp(1j * shift)
    return (ys + bc) / (a * np.conj(a)), -ys / np.conj(a), -ys / a, ys + bc


def build_ybus(case: GridCase) -> tuple[np.ndarray, BranchArrays]:
    """The bus admittance matrix over closed branches plus shunts (complex,
    rows and columns ordered like ``case.buses``) and the arrays of the
    closed branches it was assembled from."""
    idx = case.bus_index
    n = len(case.buses)
    closed = [br for br in case.branches if br.closed]
    pos = np.array([k for k, br in enumerate(case.branches) if br.closed], dtype=int)
    f = np.array([idx[br.from_bus] for br in closed], dtype=int)
    t = np.array([idx[br.to_bus] for br in closed], dtype=int)
    yff, yft, ytf, ytt = branch_admittances(closed)
    shunt = np.array([complex(b.gs, b.bs) for b in case.buses])
    sh = np.flatnonzero(shunt)
    # per branch: (f,f), (f,t), (t,f), (t,t); then the bus shunts
    rows = np.concatenate([np.stack([f, f, t, t], axis=1).ravel(), sh])
    cols = np.concatenate([np.stack([f, t, f, t], axis=1).ravel(), sh])
    vals = np.concatenate([np.stack([yff, yft, ytf, ytt], axis=1).ravel(), shunt[sh]])
    y = np.zeros((n, n), dtype=complex)
    np.add.at(y, (rows, cols), vals)
    return y, BranchArrays(pos, f, t, yff, yft, ytf, ytt)


def calculated_injections(y: np.ndarray, vm: np.ndarray, va: np.ndarray) -> np.ndarray:
    v = vm * np.exp(1j * va)
    return v * np.conj(y @ v)


def mismatch(net: Network | GridCase, vm: np.ndarray,
             va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) mismatch = specified minus calculated injection, all buses."""
    net = network(net) if isinstance(net, GridCase) else net
    s = calculated_injections(net.y, vm, va)
    return net.p_spec - s.real, net.q_spec - s.imag


def _reduced_jacobian(net: Network, v: np.ndarray, ibus: np.ndarray) -> np.ndarray:
    """d(mismatch)/d(unknowns) at voltages ``v`` with ``ibus = Y v``: MATPOWER's
    ``dSbus_dV`` on the unknowns' blocks (rows P at pvpq, Q at pq; columns va
    at pvpq, vm at pq), negated. Off the diagonal the negation folds exactly
    into a factor, as -conj(0 - x) = conj(x) and -(a b) = (-a) b."""
    npv, npq, vr = len(net.pv), len(net.pq), v[net.pvpq]
    jv, yv = 1j * vr, net.y_pvpq * vr
    d_va = jv[:, None] * np.conj(yv)
    d_va.flat[::len(vr) + 1] = -(jv * np.conj(ibus[net.pvpq] - yv.diagonal()))
    vnorm = v[net.pq] / np.abs(v[net.pq])
    d_vm = -vr[:, None] * np.conj(net.y_pvpq_pq * vnorm)
    d_vm.flat[npv * npq::npq + 1] -= np.conj(ibus[net.pq]) * vnorm  # pq rows' diagonal
    d = np.concatenate([d_va, d_vm], axis=1)
    return np.concatenate([d.real, d[npv:].imag])


def _check_islands_solvable(case: GridCase) -> list[int]:
    """Indices of buses excluded from the solve (inert slackless islands).

    An island without a slack bus is only tolerated when nothing electrical
    happens there: no load, no online generator, no shunt, and no closed
    branch (line charging would inject reactive power).
    """
    inert = [rep for rep in case.islands if not rep.has_slack]
    for rep in inert:
        if rep.has_load or rep.has_online_gen or rep.has_shunt or rep.has_closed_branch:
            raise PowerFlowError(
                f"island with buses {list(rep.buses)} has no slack bus but carries "
                "load, generation, shunts, or energized branches")
    return [case.bus_index[b] for rep in inert for b in rep.buses]


def network(case: GridCase) -> Network:
    """Compile one topology of ``case``, at its loads and generator outputs.

    Raises :class:`PowerFlowError` if the case has no slack bus or an
    energized island without one.
    """
    y, branches = build_ybus(case)
    n, idx = len(y), case.bus_index
    online = [g for g in case.generators if g.online]
    gen_bus = np.array([idx[g.bus] for g in online], dtype=int)
    kinds = np.array([b.kind for b in case.buses])
    kinds[(kinds == "pv") & ~np.isin(np.arange(n), gen_bus)] = "pq"
    kinds[_check_islands_solvable(case)] = "inert"
    slack = np.flatnonzero(kinds == "slack")
    if not len(slack):
        raise PowerFlowError("case has no slack bus")
    vm_set = np.array([b.vm for b in case.buses])
    for g in sorted(online, key=lambda g: g.id, reverse=True):
        vm_set[idx[g.bus]] = g.v_set  # the lowest-id online generator wins
    pv, pq = np.flatnonzero(kinds == "pv"), np.flatnonzero(kinds == "pq")
    pvpq = np.concatenate([pv, pq])
    y_pvpq = y[pvpq]
    empty = np.zeros(n)
    net = Network(y, branches, slack, pv, pq, np.concatenate([slack, pv]), pvpq,
                  np.concatenate([pvpq, n + pq]), y_pvpq[:, pvpq], y_pvpq[:, pq],
                  vm_set, np.array([case.buses[i].va for i in slack]),
                  np.array([idx[l.bus] for l in case.loads], dtype=int), gen_bus,
                  empty, empty, empty, empty)
    return net.with_injections([l.pd for l in case.loads], [l.qd for l in case.loads],
                               [g.pg for g in online], [g.qg for g in online])


def solve_pf(net: Network | GridCase, start: str | tuple[np.ndarray, np.ndarray] = "flat",
             tol: float = 1e-8, max_iter: int = 30) -> PFSolution:
    """Newton-Raphson power flow in polar form.

    ``net`` is a compiled :class:`Network`; a case is compiled first.
    ``start`` is "flat" or a (vm, va) warm-start pair. Non-convergence is
    reported in the result, not raised; a singular Jacobian raises
    :class:`PowerFlowError`.
    """
    net = network(net) if isinstance(net, GridCase) else net
    n = len(net.y)
    slack, pq, pvpq, regulated = net.slack, net.pq, net.pvpq, net.regulated

    if start == "flat":
        vm = np.ones(n)
        va = np.full(n, net.va_slack[0] if len(slack) == 1 else 0.0)
    else:
        vm0, va0 = start
        vm = np.array(vm0, dtype=float)
        va = np.array(va0, dtype=float)
        if vm.shape != (n,) or va.shape != (n,):
            raise PowerFlowError("warm start dimensions do not match case")
    vm[regulated] = net.vm_set[regulated]
    va[slack] = net.va_slack

    def evaluate():
        """Voltages, bus currents, calculated injections and the mismatch
        at the unknowns, at the current (vm, va)."""
        v = vm * np.exp(1j * va)
        ibus = net.y @ v
        s = v * np.conj(ibus)
        f = np.concatenate([net.p_spec - s.real, net.q_spec - s.imag])[net.unknowns]
        return v, ibus, s, f, float(np.abs(f).max(initial=0.0))

    iterations = 0
    v, ibus, s, f, max_mis = evaluate()
    while max_mis > tol and iterations < max_iter:
        jac = _reduced_jacobian(net, v, ibus)
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {iterations}: {exc}") from exc
        if not np.isfinite(dx).all():
            raise PowerFlowError(f"singular Jacobian at iteration {iterations}")
        # f(x + dx) = 0 to first order with J = df/dx: dx = -J^{-1} f,
        # and J here already carries the minus sign of the mismatch.
        va[pvpq] -= dx[:len(pvpq)]
        vm[pq] -= dx[len(pvpq):]
        iterations += 1
        v, ibus, s, f, max_mis = evaluate()

    converged = max_mis <= tol
    # Recovered net generation: scheduled at PV/PQ buses, balanced at the
    # slack; PV-bus reactive output comes from the solution.
    pg = net.p_spec + net.pd
    qg = net.q_spec + net.qd
    pg[slack] = s.real[slack] + net.pd[slack]
    qg[regulated] = s.imag[regulated] + net.qd[regulated]
    return PFSolution(vm=vm, va=va, pg=pg, qg=qg, iterations=iterations,
                      converged=converged, max_mismatch=max_mis, branches=net.branches)


def branch_flows(case: GridCase, sol: PFSolution) -> BranchFlows:
    """Terminal power flows and current magnitudes per branch of ``case`` (pu),
    from ``sol``, a solution of that case.

    Open branches report zeros.
    """
    br = sol.branches
    end = br.terminals(sol.vm * np.exp(1j * sol.va))
    out = np.zeros((6, len(case.branches)))
    out[:, br.pos] = (end.s_f.real, end.s_f.imag, end.s_t.real, end.s_t.imag,
                      np.abs(end.i_f), np.abs(end.i_t))
    return BranchFlows(tuple(b.id for b in case.branches), *out)
