"""Vectorized network arrays and Newton-Raphson AC power flow.

``build_ybus`` compiles a case once into dense arrays: the bus admittance
matrix plus, for every closed branch, its position in ``case.branches``,
its terminal bus indices and its pi-model admittances (``BranchArrays``).
Every branch quantity in the package (flows, losses, the ACOPF decision
space) is evaluated from these arrays. A ``PFSolution`` keeps the matrix it
was solved on, so flows and losses need no rebuild. The bundled cases have
at most 57 buses, so the admittance matrix and the Jacobian are plain dense
arrays and each Newton step is one dense solve.

Conventions:
    - complex voltage V = vm * exp(j*va), arrays ordered like case.buses
    - mismatch = specified injection minus calculated injection (pu)
    - the Jacobian here is d(mismatch)/d(va, vm), i.e. the negative of the
      calculated-injection derivatives (MATPOWER's ``dSbus_dV`` formulas)

PV buses hold their generator voltage setpoint; reactive limits are not
enforced during the solve (limit violations are scored downstream). A PV
bus with no online generator is treated as PQ.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .grid.model import Branch, GridCase, islands_of


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
class AdmittanceMatrix:
    """Bus admittance matrix with the bus-id ordering and the closed-branch
    arrays it was built from."""

    dimension: int
    matrix: np.ndarray  # complex, dimension x dimension
    bus_ids: tuple[int, ...]
    branches: BranchArrays  # the closed branches, in case order

    @property
    def index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.bus_ids)}


@dataclass(frozen=True)
class PFSolution:
    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray
    pg: np.ndarray  # recovered net generation per bus (pu)
    qg: np.ndarray
    iterations: int
    converged: bool
    max_mismatch: float
    ybus: AdmittanceMatrix  # the network the solution was computed on


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


def build_ybus(case: GridCase) -> AdmittanceMatrix:
    """Assemble the bus admittance matrix over closed branches plus shunts."""
    bus_ids = tuple(b.id for b in case.buses)
    idx = {b: i for i, b in enumerate(bus_ids)}
    n = len(bus_ids)
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
    return AdmittanceMatrix(dimension=n, matrix=y, bus_ids=bus_ids,
                            branches=BranchArrays(pos, f, t, yff, yft, ytf, ytt))


def bus_demand(case: GridCase) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus total load (pd, qd), pu, arrays ordered like case.buses."""
    idx = {b.id: i for i, b in enumerate(case.buses)}
    at = np.array([idx[l.bus] for l in case.loads], dtype=int)
    n = len(case.buses)
    return (np.bincount(at, weights=[l.pd for l in case.loads], minlength=n),
            np.bincount(at, weights=[l.qd for l in case.loads], minlength=n))


def specified_injections(case: GridCase) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus scheduled net injection (online generation minus demand), pu."""
    idx = {b.id: i for i, b in enumerate(case.buses)}
    p = np.zeros(len(case.buses))
    q = np.zeros(len(case.buses))
    for g in case.generators:
        if g.online:
            p[idx[g.bus]] += g.pg
            q[idx[g.bus]] += g.qg
    for l in case.loads:
        p[idx[l.bus]] -= l.pd
        q[idx[l.bus]] -= l.qd
    return p, q


def effective_bus_kinds(case: GridCase) -> list[str]:
    """Bus kinds used by the solver: PV without an online generator is PQ."""
    online_gen_buses = {g.bus for g in case.generators if g.online}
    return ["pq" if b.kind == "pv" and b.id not in online_gen_buses else b.kind
            for b in case.buses]


def _setpoint_voltages(case: GridCase) -> np.ndarray:
    """vm targets for slack/PV buses: first online generator's v_set."""
    vset = np.array([b.vm for b in case.buses])
    idx = {b.id: i for i, b in enumerate(case.buses)}
    seen = set()
    for g in sorted(case.generators, key=lambda g: g.id):
        if g.online and g.bus not in seen:
            vset[idx[g.bus]] = g.v_set
            seen.add(g.bus)
    return vset


def calculated_injections(ybus: AdmittanceMatrix, vm: np.ndarray, va: np.ndarray) -> np.ndarray:
    v = vm * np.exp(1j * va)
    return v * np.conj(ybus.matrix @ v)


def mismatch(case: GridCase, vm: np.ndarray, va: np.ndarray,
             ybus: AdmittanceMatrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) mismatch = specified minus calculated injection, all buses."""
    if ybus is None:
        ybus = build_ybus(case)
    p_spec, q_spec = specified_injections(case)
    s = calculated_injections(ybus, vm, va)
    return p_spec - s.real, q_spec - s.imag


def _dSbus_dV(y: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of calculated complex injections wrt angle and magnitude."""
    ibus = y @ v
    vnorm = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(ibus) - y * v)
    ds_dvm = v[:, None] * np.conj(y * vnorm) + np.diag(np.conj(ibus) * vnorm)
    return ds_dva, ds_dvm


def jacobian(case: GridCase, vm: np.ndarray, va: np.ndarray,
             ybus: AdmittanceMatrix | None = None) -> np.ndarray:
    """Full 2n x 2n real Jacobian of the mismatch wrt (va, vm).

    Row order: P mismatch of every bus, then Q mismatch of every bus.
    Column order: va of every bus, then vm of every bus.
    """
    if ybus is None:
        ybus = build_ybus(case)
    ds_dva, ds_dvm = _dSbus_dV(ybus.matrix, vm * np.exp(1j * va))
    return -np.block([[ds_dva.real, ds_dvm.real], [ds_dva.imag, ds_dvm.imag]])


def _check_islands_solvable(case: GridCase) -> list[int]:
    """Indices of buses excluded from the solve (inert slackless islands).

    An island without a slack bus is only tolerated when nothing electrical
    happens there: no load, no online generator, no shunt, and no closed
    branch (line charging would inject reactive power).
    """
    idx = {b.id: i for i, b in enumerate(case.buses)}
    excluded: list[int] = []
    for members in islands_of(case):
        mset = set(members)
        if any(case.bus(b).kind == "slack" for b in members):
            continue
        has_load = any(l.bus in mset for l in case.loads)
        has_gen = any(g.bus in mset and g.online for g in case.generators)
        has_shunt = any(case.bus(b).gs != 0 or case.bus(b).bs != 0 for b in members)
        has_branch = any(br.closed and br.from_bus in mset for br in case.branches)
        if has_load or has_gen or has_shunt or has_branch:
            raise PowerFlowError(
                f"island with buses {members} has no slack bus but carries "
                "load, generation, shunts, or energized branches")
        excluded.extend(idx[b] for b in members)
    return excluded


def solve_pf(case: GridCase, start: str | tuple[np.ndarray, np.ndarray] = "flat",
             tol: float = 1e-8, max_iter: int = 30) -> PFSolution:
    """Newton-Raphson power flow in polar form.

    ``start`` is "flat" or a (vm, va) warm-start pair. Non-convergence is
    reported in the result, not raised; a singular Jacobian raises
    :class:`PowerFlowError`.
    """
    ybus = build_ybus(case)
    n = ybus.dimension
    kinds = np.array(effective_bus_kinds(case))
    solved = np.ones(n, dtype=bool)
    solved[_check_islands_solvable(case)] = False

    slack = np.flatnonzero(kinds == "slack")
    pv = np.flatnonzero((kinds == "pv") & solved)
    pq = np.flatnonzero((kinds == "pq") & solved)
    if not len(slack):
        raise PowerFlowError("case has no slack bus")
    regulated = np.concatenate([slack, pv])  # buses that hold their vm setpoint
    pvpq = np.concatenate([pv, pq])
    # unknowns (va at PV/PQ buses, vm at PQ buses); the same index vector
    # picks the matching mismatch rows (P, then Q) of the full Jacobian
    unknowns = np.concatenate([pvpq, n + pq])

    if start == "flat":
        vm = np.ones(n)
        va = np.full(n, case.buses[slack[0]].va if len(slack) == 1 else 0.0)
    else:
        vm0, va0 = start
        vm = np.array(vm0, dtype=float)
        va = np.array(va0, dtype=float)
        if vm.shape != (n,) or va.shape != (n,):
            raise PowerFlowError("warm start dimensions do not match case")
    vm[regulated] = _setpoint_voltages(case)[regulated]
    va[slack] = [case.buses[i].va for i in slack]

    p_spec, q_spec = specified_injections(case)

    def current_mismatch():
        s = calculated_injections(ybus, vm, va)
        return np.concatenate([p_spec - s.real, q_spec - s.imag])[unknowns]

    iterations = 0
    f = current_mismatch()
    max_mis = float(np.max(np.abs(f))) if len(f) else 0.0
    while max_mis > tol and iterations < max_iter:
        jac = jacobian(case, vm, va, ybus)[np.ix_(unknowns, unknowns)]
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {iterations}: {exc}") from exc
        if not np.all(np.isfinite(dx)):
            raise PowerFlowError(f"singular Jacobian at iteration {iterations}")
        # f(x + dx) = 0 to first order with J = df/dx: dx = -J^{-1} f,
        # and J here already carries the minus sign of the mismatch.
        va[pvpq] -= dx[:len(pvpq)]
        vm[pq] -= dx[len(pvpq):]
        iterations += 1
        f = current_mismatch()
        max_mis = float(np.max(np.abs(f))) if len(f) else 0.0

    converged = max_mis <= tol
    s = calculated_injections(ybus, vm, va)
    pd, qd = bus_demand(case)
    # Recovered net generation: scheduled at PV/PQ buses, balanced at the
    # slack; PV-bus reactive output comes from the solution.
    pg = p_spec + pd
    qg = q_spec + qd
    pg[slack] = s.real[slack] + pd[slack]
    qg[regulated] = s.imag[regulated] + qd[regulated]
    return PFSolution(bus_ids=ybus.bus_ids, vm=vm, va=va, pg=pg, qg=qg,
                      iterations=iterations, converged=converged,
                      max_mismatch=max_mis, ybus=ybus)


def branch_flows(case: GridCase, sol: PFSolution) -> BranchFlows:
    """Terminal power flows and current magnitudes per branch of ``case`` (pu),
    from ``sol``, a solution of that case.

    Open branches report zeros.
    """
    br = sol.ybus.branches
    end = br.terminals(sol.vm * np.exp(1j * sol.va))
    out = np.zeros((6, len(case.branches)))
    out[:, br.pos] = (end.s_f.real, end.s_f.imag, end.s_t.real, end.s_t.imag,
                      np.abs(end.i_f), np.abs(end.i_t))
    return BranchFlows(tuple(b.id for b in case.branches), *out)


def total_losses(case: GridCase, sol: PFSolution) -> float:
    """Total active power absorbed by the network (series + shunt), pu."""
    return float(np.sum(calculated_injections(sol.ybus, sol.vm, sol.va).real))
