"""Admittance assembly, Newton-Raphson solve, Jacobian, branch flows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import root

from gridbench.grid import (
    Branch,
    Bus,
    Generator,
    GridCase,
    Load,
    TopologyEvent,
    apply_event,
    bundled_case,
    load_case,
)
from gridbench.powerflow import (
    Network,
    PFSolution,
    PowerFlowError,
    _reduced_jacobian,
    branch_admittances,
    branch_flows,
    build_ybus,
    calculated_injections,
    mismatch,
    network,
    solve_pf,
)
from gridbench.rng import Rng

from test_grid import MINIMAL_2BUS


def dense_ybus_oracle(case):
    """Element-by-element assembly, independent of the vectorized builder."""
    ids = [b.id for b in case.buses]
    pos = {b: i for i, b in enumerate(ids)}
    n = len(ids)
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if br.status != "closed":
            continue
        ys = 1.0 / (br.r + 1j * br.x)
        tap = br.tap * np.exp(1j * br.shift)
        f, t = pos[br.from_bus], pos[br.to_bus]
        y[f, f] += (ys + 1j * br.b / 2) / (abs(tap) ** 2)
        y[t, t] += ys + 1j * br.b / 2
        y[f, t] += -ys / np.conj(tap)
        y[t, f] += -ys / tap
    for b in case.buses:
        y[pos[b.id], pos[b.id]] += b.gs + 1j * b.bs
    return y


# ------------------------------------------------------------------ ybus

def test_single_branch_ybus_analytic():
    case = load_case(MINIMAL_2BUS)
    y = build_ybus(case)[0]
    np.testing.assert_allclose(y, [[-10j, 10j], [10j, -10j]], atol=1e-12)


def test_all_branches_open_leaves_shunts():
    case = GridCase(
        "t", 100.0,
        buses=(Bus(1, "slack", gs=0.02, bs=0.3), Bus(2, "pq", bs=-0.1)),
        branches=(Branch(1, 1, 2, r=0.0, x=0.1, status="open"),),
        generators=(), loads=())
    y = build_ybus(case)[0]
    np.testing.assert_allclose(y, [[0.02 + 0.3j, 0], [0, -0.1j]], atol=1e-15)


def test_case30_matches_dense_assembly_oracle():
    case = bundled_case("case30")
    y = build_ybus(case)[0]
    np.testing.assert_allclose(y, dense_ybus_oracle(case), atol=1e-13)


def test_ybus_hermitian_pattern():
    case = bundled_case("case57")
    m = build_ybus(case)[0]
    pattern = (np.abs(m) > 0)
    assert (pattern == pattern.T).all()


# ------------------------------------------------------------------ solve

def total_losses(case, sol) -> float:
    """Total active power absorbed by the network (series + shunt), pu."""
    return float(np.sum(calculated_injections(build_ybus(case)[0], sol.vm, sol.va).real))


def test_zero_injection_flat_start_zero_iterations():
    case = GridCase(
        "t", 100.0,
        buses=(Bus(1, "slack"), Bus(2, "pq")),
        branches=(Branch(1, 1, 2, r=0.01, x=0.1),),
        generators=(Generator(1, bus=1, p_max=1.0, v_set=1.0),), loads=())
    sol = solve_pf(case)
    assert sol.converged and sol.iterations == 0
    np.testing.assert_allclose(sol.vm, [1.0, 1.0])
    np.testing.assert_allclose(sol.va, [0.0, 0.0])


def test_slack_supplies_shunt_of_case_without_loads_or_generators():
    """With no load and no generator to sum, the per-bus injections stay
    real-valued, so the slack's recovered output is the shunt consumption."""
    case = GridCase(
        "t", 100.0,
        buses=(Bus(1, "slack"), Bus(2, "pq", gs=0.1)),
        branches=(Branch(1, 1, 2, r=0.01, x=0.1),), generators=(), loads=())
    sol = solve_pf(case)
    assert sol.converged
    assert sol.pg[0] == pytest.approx(total_losses(case, sol), abs=1e-8)
    assert sol.pg[0] > 0.09


def test_two_bus_matches_root_finder_oracle():
    # frozen from scipy.optimize.root on the two mismatch equations
    case = load_case(MINIMAL_2BUS)
    sol = solve_pf(case, tol=1e-12)
    assert sol.converged
    assert sol.vm[1] == pytest.approx(0.998746073110333, abs=1e-8)
    assert sol.va[1] == pytest.approx(-0.050083710580780, abs=1e-8)


@pytest.mark.parametrize("name,max_iter", [("case14", 20), ("case30", 20), ("case57", 20)])
def test_bundled_cases_flat_start(name, max_iter):
    case = bundled_case(name)
    sol = solve_pf(case, tol=1e-8, max_iter=max_iter)
    assert sol.converged
    assert sol.iterations <= max_iter
    assert sol.max_mismatch <= 1e-8
    # slack absorbs losses: total generation - total demand = losses >= 0
    pd = sum(l.pd for l in case.loads)
    loss = float(sol.pg.sum() - pd)
    assert loss == pytest.approx(total_losses(case, sol), abs=1e-7)
    assert loss >= 0.0


def test_case30_cross_checked_against_independent_solver():
    """Full case30 solution vs an independent MINPACK root find (frozen spot
    values double-check the in-test oracle)."""
    case = bundled_case("case30")
    sol = solve_pf(case, tol=1e-10)
    y, _ = build_ybus(case)
    kinds = ["slack" if b.kind == "slack" else b.kind for b in case.buses]
    n = len(case.buses)
    pv = [i for i in range(n) if kinds[i] == "pv"]
    pq = [i for i in range(n) if kinds[i] == "pq"]
    pvpq = pv + pq
    net = network(case)
    ps, qs = net.p_spec, net.q_spec
    vset = sol.vm.copy()  # magnitudes at pv/slack equal setpoints already

    def fullmis(z):
        va = np.zeros(n)
        vm = vset.copy()
        va[pvpq] = z[:len(pvpq)]
        vm[pq] = z[len(pvpq):]
        v = vm * np.exp(1j * va)
        s = v * np.conj(y @ v)
        return np.concatenate([(ps - s.real)[pvpq], (qs - s.imag)[pq]])

    z0 = np.concatenate([np.zeros(len(pvpq)), np.ones(len(pq))])
    res = root(fullmis, z0, method="hybr", tol=1e-13)
    assert res.success
    va_o = np.zeros(n)
    vm_o = vset.copy()
    va_o[pvpq] = res.x[:len(pvpq)]
    vm_o[pq] = res.x[len(pvpq):]
    np.testing.assert_allclose(sol.vm, vm_o, atol=1e-8)
    np.testing.assert_allclose(sol.va, va_o, atol=1e-8)
    assert sol.vm[29] == pytest.approx(0.967882879188, abs=1e-8)
    assert sol.va[29] == pytest.approx(-0.053538768508, abs=1e-8)
    assert sol.vm[7] == pytest.approx(0.964930109831, abs=1e-8)


def test_warm_start_matches_flat_start():
    case = bundled_case("case14")
    flat = solve_pf(case, tol=1e-10)
    warm = solve_pf(case, start=(flat.vm, flat.va), tol=1e-10)
    assert warm.iterations == 0
    np.testing.assert_allclose(warm.vm, flat.vm, atol=1e-10)
    np.testing.assert_allclose(warm.va, flat.va, atol=1e-10)


def test_divergence_reported_not_raised():
    # absurd load forces divergence
    doc = MINIMAL_2BUS.replace("pd=0.5", "pd=50.0")
    sol = solve_pf(load_case(doc), max_iter=10)
    assert not sol.converged
    assert sol.iterations == 10


def test_singular_jacobian_raises():
    # zero voltage at a PQ bus zeroes its angle column of the Jacobian
    case = bundled_case("case14")
    n = len(case.buses)
    vm = np.ones(n)
    vm[network(case).pq[0]] = 0.0
    with np.errstate(invalid="ignore"), pytest.raises(PowerFlowError):
        solve_pf(case, start=(vm, np.zeros(n)))


def test_slackless_energized_island_rejected():
    case = bundled_case("case30")
    # islanding bus 26 (fed only by branch 34: 25-26) leaves load with no slack
    case = apply_event(case, TopologyEvent(0, "line_open", 34))
    with pytest.raises(PowerFlowError, match="no slack"):
        solve_pf(case)


@pytest.mark.parametrize("case, start, match", [
    (GridCase("t", 100.0, (Bus(1, "pq"),), (), (), ()), "flat", "case has no slack bus"),
    (load_case(MINIMAL_2BUS), (np.ones(3), np.zeros(3)),
     "warm start dimensions do not match case"),
])
def test_unsolvable_input_rejected(case, start, match):
    with pytest.raises(PowerFlowError, match=match):
        solve_pf(case, start=start)


def test_inert_island_left_out_of_the_solve():
    # opening the only line to bus 3 leaves an island with nothing electrical
    # in it: it is solved around; the same island with a shunt is rejected
    doc = MINIMAL_2BUS + "bus 3 kind=pq\nbranch 2 from=2 to=3 r=0 x=0.2\n"
    case = apply_event(load_case(doc), TopologyEvent(0, "line_open", 2))
    net = network(case)
    assert 2 not in np.concatenate([net.slack, net.pv, net.pq])
    sol = solve_pf(net)
    assert sol.converged
    np.testing.assert_allclose(sol.vm, solve_pf(load_case(MINIMAL_2BUS)).vm.tolist() + [1.0])
    shunted = apply_event(load_case(doc.replace("bus 3 kind=pq", "bus 3 kind=pq bs=0.1")),
                          TopologyEvent(0, "line_open", 2))
    with pytest.raises(PowerFlowError, match=r"island with buses \[3\] has no slack bus"):
        network(shunted)


def test_per_bus_power_balance_invariant():
    for name in ("case14", "case57"):
        case = bundled_case(name)
        sol = solve_pf(case, tol=1e-9)
        p_mis, q_mis = mismatch(case, sol.vm, sol.va)
        kinds = [b.kind for b in case.buses]
        pv_pq = [i for i, k in enumerate(kinds) if k != "slack"]
        pq = [i for i, k in enumerate(kinds) if k == "pq"]
        assert np.max(np.abs(p_mis[pv_pq])) <= 1e-9
        assert np.max(np.abs(q_mis[pq])) <= 1e-9


# -------------------------------------------------------------- jacobian

def _dSbus_dV(y, v):
    """Derivatives of calculated complex injections wrt angle and magnitude
    (MATPOWER's ``dSbus_dV``, dense)."""
    ibus = y @ v
    vnorm = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(ibus) - y * v)
    ds_dvm = v[:, None] * np.conj(y * vnorm) + np.diag(np.conj(ibus) * vnorm)
    return ds_dva, ds_dvm


def jacobian(net, vm, va):
    """Full 2n x 2n real Jacobian of the mismatch wrt (va, vm), the
    reference for the solver's reduced one.

    Row order: P mismatch of every bus, then Q mismatch of every bus.
    Column order: va of every bus, then vm of every bus.
    """
    y = net.y if isinstance(net, Network) else build_ybus(net)[0]
    ds_dva, ds_dvm = _dSbus_dV(y, vm * np.exp(1j * va))
    ds = np.concatenate([ds_dva, ds_dvm], axis=1)
    return -np.concatenate([ds.real, ds.imag])


def finite_difference_jacobian(case, vm, va, eps=1e-7):
    net = network(case)
    n = len(vm)
    jac = np.zeros((2 * n, 2 * n))
    for k in range(n):
        for which in (0, 1):
            vm_p, va_p = vm.copy(), va.copy()
            vm_m, va_m = vm.copy(), va.copy()
            if which == 0:
                va_p[k] += eps
                va_m[k] -= eps
            else:
                vm_p[k] += eps
                vm_m[k] -= eps
            pp, qp = mismatch(net, vm_p, va_p)
            pm, qm = mismatch(net, vm_m, va_m)
            col = np.concatenate([(pp - pm), (qp - qm)]) / (2 * eps)
            jac[:, which * n + k] = col
    return jac


def test_jacobian_matches_finite_differences_random_states():
    case = bundled_case("case14")
    rng = Rng(404)
    n = len(case.buses)
    for _ in range(50):
        vm = 1.0 + 0.05 * rng.normals(n)
        va = 0.1 * rng.normals(n)
        j = jacobian(case, vm, va)
        fd = finite_difference_jacobian(case, vm, va)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(j - fd) / scale) < 1e-6


@pytest.mark.parametrize("name", ["case14", "case30", "case57", "case14-pv-gen-off"])
def test_reduced_jacobian_is_the_full_jacobians_unknowns_block(name):
    """The solver's Jacobian, built from the compiled blocks, equals the
    full Jacobian's rows and columns at the unknowns exactly; a PV bus whose
    generator is off is solved as PQ."""
    case = bundled_case(name.split("-")[0])
    if name.endswith("gen-off"):
        gen = next(g for g in case.generators if case.buses[case.bus_index[g.bus]].kind == "pv")
        case = apply_event(case, TopologyEvent(0, "gen_off", gen.id))
        assert [b.id for b in case.buses].index(gen.bus) in network(case).pq
    net = network(case)
    n = len(case.buses)
    rng = Rng(17)
    for _ in range(20):
        vm = 1.0 + 0.05 * rng.normals(n)
        va = 0.1 * rng.normals(n)
        v = vm * np.exp(1j * va)
        got = _reduced_jacobian(net, v, net.y @ v)
        want = jacobian(net, vm, va)[np.ix_(net.unknowns, net.unknowns)]
        assert np.array_equal(got, want)


def test_jacobian_lossless_two_bus_analytic():
    case = load_case(MINIMAL_2BUS)
    vm = np.ones(2)
    va = np.zeros(2)
    j = jacobian(case, vm, va)
    # dP2/dtheta2 at flat start: -V1*V2/x = -10 (mismatch convention)
    assert j[1, 1] == pytest.approx(-10.0)
    assert j[1, 0] == pytest.approx(10.0)


def test_jacobian_disconnected_pair_no_coupling():
    case = GridCase(
        "t", 100.0,
        buses=(Bus(1, "slack"), Bus(2, "pq"), Bus(3, "slack"), Bus(4, "pq")),
        branches=(Branch(1, 1, 2, r=0.01, x=0.1), Branch(2, 3, 4, r=0.01, x=0.1)),
        generators=(), loads=())
    j = jacobian(case, np.ones(4), np.zeros(4))
    n = 4
    for i in (0, 1):
        for k in (2, 3):
            for bi in (0, n):
                for bk in (0, n):
                    assert j[bi + i, bk + k] == 0.0
                    assert j[bi + k, bk + i] == 0.0


# ----------------------------------------------------------- branch flows

def test_open_branch_flows_zero():
    case = bundled_case("case14")
    case = apply_event(case, TopologyEvent(0, "line_open", 5))
    sol = solve_pf(case)
    flows = branch_flows(case, sol)
    k = flows.branch_ids.index(5)
    assert flows.p_from[k] == 0 and flows.q_from[k] == 0
    assert flows.i_from_mag[k] == 0 and flows.i_to_mag[k] == 0


def test_lossless_branch_conserves_active_power():
    case = load_case(MINIMAL_2BUS)
    sol = solve_pf(case)
    flows = branch_flows(case, sol)
    assert flows.p_from[0] == pytest.approx(-flows.p_to[0], abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["case14", "case30", "case57"]), data=st.data())
def test_case30_kirchhoff_balance_oracle(name, data):
    """Sum of incident branch terminal flows plus shunt consumption equals
    the calculated bus injection, for any voltages and any open branches."""
    case = bundled_case(name)
    n = len(case.buses)
    for k in data.draw(st.sets(st.integers(0, len(case.branches) - 1))):
        case = apply_event(case, TopologyEvent(0, "line_open", case.branches[k].id))
    vm = np.array(data.draw(st.lists(st.floats(0.8, 1.2), min_size=n, max_size=n)))
    va = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    y, branches = build_ybus(case)
    sol = PFSolution(vm, va, pg=np.zeros(n), qg=np.zeros(n), iterations=0,
                     converged=False, max_mismatch=np.nan, branches=branches)
    flows = branch_flows(case, sol)
    inj = calculated_injections(y, sol.vm, sol.va)
    pos = case.bus_index
    acc = np.zeros(len(case.buses), dtype=complex)
    for k, br in enumerate(case.branches):
        acc[pos[br.from_bus]] += flows.p_from[k] + 1j * flows.q_from[k]
        acc[pos[br.to_bus]] += flows.p_to[k] + 1j * flows.q_to[k]
    for b in case.buses:
        v2 = sol.vm[pos[b.id]] ** 2
        acc[pos[b.id]] += v2 * complex(b.gs, -b.bs)  # power absorbed by the shunt
    np.testing.assert_allclose(acc.real, inj.real, rtol=0, atol=1e-9)
    np.testing.assert_allclose(acc.imag, inj.imag, rtol=0, atol=1e-9)
