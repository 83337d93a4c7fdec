"""Decision-vector layout and constraint violations.

A decision is (vm all buses, va all buses with the slack angle pinned to 0,
pg and qg of every online generator). Only ``DecisionSpace`` knows this
layout: it packs and unpacks it, and its ``boxed``/``lo``/``span`` vectors
say which entries the model squashes into a box. Violations split into
equality (per-bus active/reactive balance residuals) and inequality
(clipped excess over generator limits, voltage bounds, and branch thermal
ratings).

Every power term has the one form S = (C V) * conj(Y V), elementwise, with
MATPOWER's ``makeYbus`` matrices (Zimmerman et al., IEEE TPWRS 2011):

    bus injections           C = identity, Y = Ybus
    from end of each branch  C = Cf,       Yf = yff Cf + yft Ct
    to end of each branch    C = Ct,       Yt = ytf Cf + ytt Ct

``Cf``/``Ct`` are the rated-branch incidence matrices (rows branches,
columns buses). Loads and online generators reach the buses through their
own incidence matrices, so a bus with several of either sums them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..grid.model import GridCase
from ..powerflow import Terminals, build_ybus


@dataclass(frozen=True)
class ViolationReport:
    """Mean constraint violations of one decision (pu).

    overall_mean weights equality and inequality terms equally.
    """

    equality_mean: float
    inequality_mean: float

    @property
    def overall_mean(self) -> float:
        return 0.5 * self.equality_mean + 0.5 * self.inequality_mean


class Evaluation(NamedTuple):
    """One pass over a batch of decisions, shaped (B, ...)."""

    pg: np.ndarray  # unpacked generator outputs
    v: np.ndarray  # complex bus voltages
    i_bus: np.ndarray  # calculated bus current injections
    ends: Terminals  # of the rated branches
    r_p: np.ndarray  # active / reactive balance residuals per bus
    r_q: np.ndarray
    excess: dict[str, np.ndarray]  # named clipped inequality excesses

    @property
    def inequality(self) -> np.ndarray:
        """All excesses side by side, (B, n_ineq)."""
        return np.concatenate(list(self.excess.values()), axis=1)


class DecisionSpace:
    """Precomputed case tensors shared by violation and gradient passes.

    ``y`` is Ybus, read by ``evaluate``. The penalty gradient's operands are
    kept in the form its products use, so no batch converts a matrix:
    ``y_conj``, ``yf_conj`` and ``yt_conj`` hold conj(Ybus), conj(Yf) and
    conj(Yt), and ``cf``/``ct`` are complex. Yf and Yt are stored only
    conjugated.
    """

    def __init__(self, case: GridCase):
        self.case = case
        self.n_bus = len(case.buses)
        self.y, closed = build_ybus(case)
        self.slack = next(i for i, b in enumerate(case.buses) if b.kind == "slack")
        self.v_min = np.array([b.v_min for b in case.buses])
        self.v_max = np.array([b.v_max for b in case.buses])

        self.gens = tuple(g for g in case.generators if g.online)
        self.n_gen = len(self.gens)
        self.gen_bus = np.array([case.bus_index[g.bus] for g in self.gens], dtype=int)
        self.p_min = np.array([g.p_min for g in self.gens])
        self.p_max = np.array([g.p_max for g in self.gens])
        self.q_min = np.array([g.q_min for g in self.gens])
        self.q_max = np.array([g.q_max for g in self.gens])
        self.cost_c2 = np.array([g.cost_c2 for g in self.gens])
        self.cost_c1 = np.array([g.cost_c1 for g in self.gens])
        self.cost_c0 = np.array([g.cost_c0 for g in self.gens])
        ref = float(np.sum(self.cost_c2 * self.p_max**2
                           + self.cost_c1 * self.p_max + self.cost_c0))
        self.cost_ref = max(ref, 1e-9)

        # thermal limits apply to the closed branches with a rating
        rate = np.array([br.rate_a for br in case.branches])[closed.pos]
        self.rated = br = closed.subset(rate > 0)
        self.rate = rate[rate > 0]
        self.n_rated = len(self.rate)
        # incidence matrices: rows are branches / loads / online generators
        eye = np.eye(self.n_bus)
        # the loss's operands (see the class docstring)
        self.y_conj = np.conj(self.y)
        self.cf, self.ct = eye[br.f].astype(complex), eye[br.t].astype(complex)
        self.yf_conj = br.yff[:, None] * self.cf + br.yft[:, None] * self.ct
        self.yt_conj = br.ytf[:, None] * self.cf + br.ytt[:, None] * self.ct
        np.conj(self.yf_conj, out=self.yf_conj)
        np.conj(self.yt_conj, out=self.yt_conj)
        self.gen_inc = eye[self.gen_bus]

        self.n_load = len(case.loads)
        self.load_inc = eye[[case.bus_index[l.bus] for l in case.loads]]

        self.dim = 2 * self.n_bus + 2 * self.n_gen
        self.n_ineq = (4 * self.n_gen + 2 * self.n_bus + 2 * self.n_rated)
        # vm and pg are squashed into [lo, lo + span]; va and qg are free
        n, g = self.n_bus, self.n_gen
        self.boxed = self.pack(np.ones(n, bool), np.zeros(n, bool),
                               np.ones(g, bool), np.zeros(g, bool))
        self.lo = self.pack(self.v_min, np.zeros(n), self.p_min, np.zeros(g))
        self.span = self.pack(self.v_max - self.v_min, np.zeros(n),
                              self.p_max - self.p_min, np.zeros(g))

    # -- packing -----------------------------------------------------------

    def pack(self, vm, va, pg, qg) -> np.ndarray:
        return np.concatenate([vm, va, pg, qg], axis=-1)

    def unpack(self, decision: np.ndarray):
        decision = np.atleast_2d(decision)
        n, g = self.n_bus, self.n_gen
        vm = decision[:, :n]
        va = decision[:, n:2 * n].copy()
        va[:, self.slack] = 0.0
        pg = decision[:, 2 * n:2 * n + g]
        qg = decision[:, 2 * n + g:]
        return vm, va, pg, qg

    def loads_to_buses(self, pd: np.ndarray, qd: np.ndarray):
        """Aggregate per-load columns onto buses: (B, n_load) -> (B, n_bus)."""
        return np.atleast_2d(pd) @ self.load_inc, np.atleast_2d(qd) @ self.load_inc

    # -- physics ------------------------------------------------------------

    def evaluate(self, decision, pd_bus, qd_bus) -> Evaluation:
        """Injections, rated-branch end flows, balance residuals against the
        bus demand, and the named inequality excesses."""
        vm, va, pg, qg = self.unpack(decision)
        v = vm * np.exp(1j * va)
        i_bus = v @ self.y.T
        s_calc = v * np.conj(i_bus)
        ends = self.rated.terminals(v)
        excess = {
            "pg_hi": np.maximum(0.0, pg - self.p_max),
            "pg_lo": np.maximum(0.0, self.p_min - pg),
            "qg_hi": np.maximum(0.0, qg - self.q_max),
            "qg_lo": np.maximum(0.0, self.q_min - qg),
            "vm_hi": np.maximum(0.0, vm - self.v_max),
            "vm_lo": np.maximum(0.0, self.v_min - vm),
            "th_f": np.maximum(0.0, np.abs(ends.s_f) - self.rate),
            "th_t": np.maximum(0.0, np.abs(ends.s_t) - self.rate),
        }
        return Evaluation(pg, v, i_bus, ends,
                          pg @ self.gen_inc - pd_bus - s_calc.real,
                          qg @ self.gen_inc - qd_bus - s_calc.imag, excess)

    def violations(self, decision, pd, qd) -> ViolationReport:
        """Mean violation report for decisions against per-load demand."""
        pd_bus, qd_bus = self.loads_to_buses(pd, qd)
        e = self.evaluate(decision, pd_bus, qd_bus)
        eq = float(np.mean(np.concatenate([np.abs(e.r_p), np.abs(e.r_q)], axis=1)))
        return ViolationReport(eq, float(np.mean(e.inequality)))

    def cost(self, pg: np.ndarray) -> np.ndarray:
        """Normalized quadratic generation cost per sample."""
        raw = (self.cost_c2 * pg**2 + self.cost_c1 * pg + self.cost_c0).sum(axis=1)
        return raw / self.cost_ref
