"""Forward-sweep decomposition against monolithic solves and an
independent conic solver.

Oracles come first: a row-wise cvxpy translator that exposes equality
duals (its sign convention pinned by a two-line program solved by
hand), the monolithic branch-and-bound solve, and the independent
physics checker.
"""

import copy
import logging

import numpy as np
import pytest

try:
    import cvxpy as cp
except ImportError:     # the oracles skip the cross-check without it
    cp = None
# module gate: lifted, this module shows the known defects of ROADMAP item 1
pytest.importorskip("cvxpy")

from microplan.decomposition import (
    BoundaryState, DecompositionError, DualVector, StagePlan,
    gauss_seidel_relaxed, init_duals, mpc_solve, partition, relative_gap,
    rh_solve, stitch,
)
from microplan.formulation import (
    assemble, build_seamed, check_feasibility, coupling_slots,
    horizon_start_boundary, relax_integrality,
)
from microplan.instance import LoadProfile
from microplan.mip import solve_fixed_then_duals, solve_miqcqp

from test_formulation import (
    bat_only_instance, cvx_solve, flat_loads, gen_bat_instance,
)


# ---------------------------------------------------------------------------
# oracles


def cvx_row_duals(prog, want):
    """Solve with cvxpy/CLARABEL, returning (objective, x, duals) where
    `duals` maps each requested equality row to its raw multiplier."""
    if cp is None:
        pytest.skip("cvxpy is not installed")
    x = cp.Variable(prog.n)
    cons = []
    tracked = {}
    a = prog.a.tocsr()
    for i in range(prog.m):
        row = a.getrow(i)
        expr = sum(float(v) * x[int(j)]
                   for j, v in zip(row.indices, row.data))
        lo, hi = prog.l[i], prog.u[i]
        if lo == hi:
            con = expr == lo
            cons.append(con)
            if i in want:
                tracked[i] = con
        else:
            if np.isfinite(lo):
                cons.append(expr >= lo)
            if np.isfinite(hi):
                cons.append(expr <= hi)
    fl = np.isfinite(prog.lb)
    fu = np.isfinite(prog.ub)
    if fl.any():
        cons.append(x[np.where(fl)[0]] >= prog.lb[fl])
    if fu.any():
        cons.append(x[np.where(fu)[0]] <= prog.ub[fu])
    for cone in prog.cones:
        expr = cp.norm(cp.hstack([x[j] for j in cone.cols]))
        rad = cone.radius if cone.radius_col is None else x[cone.radius_col]
        cons.append(expr <= rad)
    obj = 0.5 * cp.sum(cp.multiply(prog.p_diag, cp.square(x))) + prog.q @ x
    problem = cp.Problem(cp.Minimize(obj), cons)
    problem.solve(solver=cp.CLARABEL)
    assert problem.status.startswith("optimal"), problem.status
    duals = {i: float(np.asarray(c.dual_value).ravel()[0])
             for i, c in tracked.items()}
    return float(problem.value) + prog.const, x.value, duals


def test_dual_oracle_sign_convention():
    """min x^2 subject to x = 1: stationarity 2x + y = 0 gives y = -2,
    and dV/d(rhs) = d(rhs^2)/d(rhs) = 2 = -y.  The translator must
    report the raw multiplier under that convention."""
    from microplan.convex import ConvexProgram
    prog = ConvexProgram(p_diag=[2.0], q=[0.0], a=[[1.0]], l=[1.0],
                         u=[1.0], lb=[-np.inf], ub=[np.inf])
    value, x, duals = cvx_row_duals(prog, {0})
    assert value == pytest.approx(1.0, abs=1e-8)
    assert x[0] == pytest.approx(1.0, abs=1e-8)
    assert duals[0] == pytest.approx(-2.0, abs=1e-6)


def step_loads(inst, ps, q=0.1):
    """Load on the last bus stepping through the given active powers."""
    ids = tuple(b.id for b in inst.buses)
    t = len(ps)
    pm = np.zeros((t, len(ids)))
    qm = np.zeros((t, len(ids)))
    pm[:, len(ids) - 1] = ps
    qm[:, len(ids) - 1] = q
    return LoadProfile(horizon=t, bus_ids=ids, p=pm, q=qm, dt=inst.dt)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def inst():
    return gen_bat_instance()


@pytest.fixture(scope="module")
def loads4(inst):
    return flat_loads(inst, 4, p=0.4, q=0.1)


@pytest.fixture(scope="module")
def plan42():
    return partition(4, 2)


@pytest.fixture(scope="module")
def rh42(inst, loads4, plan42):
    return rh_solve(inst, loads4, plan42)


@pytest.fixture(scope="module")
def mpc42_zero3(inst, loads4, plan42):
    return mpc_solve(inst, loads4, plan42, iterations=3, mode="zero-init")


@pytest.fixture(scope="module")
def mpc42_dual2(inst, loads4, plan42):
    return mpc_solve(inst, loads4, plan42, iterations=2, mode="dual-init")


@pytest.fixture(scope="module")
def gs42(inst, loads4, plan42):
    return gauss_seidel_relaxed(inst, loads4, plan42)


@pytest.fixture(scope="module")
def central42(inst, loads4, plan42):
    prog = relax_integrality(
        build_seamed(inst, loads4, plan42.windows).model).to_convex()
    status, value, x = cvx_solve(prog)
    assert status == "optimal"
    return value, x


# ---------------------------------------------------------------------------
# stage layout


def test_partition_even():
    plan = partition(8, 4)
    assert plan.stage_count == 4
    assert plan.steps_per_stage == 2
    assert plan.windows == ((0, 2), (2, 4), (4, 6), (6, 8))
    assert plan.horizon == 8


def test_partition_uneven_short_tail():
    plan = partition(7, 3)
    assert plan.windows == ((0, 3), (3, 6), (6, 7))


def test_partition_collapses_empty_tail(caplog):
    with caplog.at_level(logging.WARNING, logger="microplan.decomposition"):
        plan = partition(10, 6)
    assert plan.stage_count == 5
    assert plan.windows == ((0, 2), (2, 4), (4, 6), (6, 8), (8, 10))
    assert any("reduced" in r.message for r in caplog.records)


def test_partition_rejects_bad_counts():
    with pytest.raises(DecompositionError):
        partition(4, 0)
    with pytest.raises(DecompositionError):
        partition(4, 5)


def test_boundary_state_at_horizon_start(inst):
    bs = BoundaryState.horizon_start(inst)
    assert np.array_equal(bs.values, horizon_start_boundary(inst))
    assert bs.value("sc", "bat1") == 1.0
    assert bs.value("x", "g1") == 0.0
    with pytest.raises(KeyError):
        bs.value("sc", "nope")


def test_terminal_state_snaps_binary_noise(inst, loads4):
    model = assemble(inst, loads4)
    x = np.zeros(model.n)
    slots = model.coupling.slots
    k_z = next(k for k, s in enumerate(slots) if s.kind == "z_b")
    k_sc = next(k for k, s in enumerate(slots) if s.kind == "sc")
    x[model.coupling.terminal_cols[k_z]] = 1.0 - 1e-9
    x[model.coupling.terminal_cols[k_sc]] = 0.7 + 1e-9
    bs = BoundaryState.from_terminal(model, x)
    assert bs.values[k_z] == 1.0
    assert bs.values[k_sc] == 0.7 + 1e-9
    raw = BoundaryState.from_terminal(model, x, snap=False)
    assert raw.values[k_z] == 1.0 - 1e-9


def test_price_vector_validation(inst):
    zero = DualVector.zero(inst)
    assert not zero.values.any()
    with pytest.raises(DecompositionError):
        DualVector(values=np.zeros(1), slots=zero.slots)
    with pytest.raises(DecompositionError):
        DualVector(values=np.full(len(zero.slots), np.nan), slots=zero.slots)


def test_relative_gap_is_percent():
    assert relative_gap(110.0, 100.0) == pytest.approx(10.0)
    assert relative_gap(100.0, 100.0) == 0.0


# ---------------------------------------------------------------------------
# boundary prices


def test_seam_prices_match_independent_duals(inst, loads4, plan42):
    seamed = build_seamed(inst, loads4, plan42.windows)
    prog = relax_integrality(seamed.model).to_convex()
    rows = list(seamed.seam_rows[0])
    _, _, cvx_duals = cvx_row_duals(prog, set(rows))
    lam = init_duals(inst, loads4, plan42)
    assert len(lam) == 1
    for k, i in enumerate(rows):
        expect = -cvx_duals[i]
        assert lam[0].values[k] == pytest.approx(expect, rel=1e-3, abs=1e-4)


def test_stored_energy_cannot_hurt(inst, loads4, plan42):
    # with expensive generation downstream, energy arriving at the seam
    # can only lower the optimal cost
    lam = init_duals(inst, loads4, plan42)
    slots = coupling_slots(inst)
    k_sc = next(k for k, s in enumerate(slots) if s.kind == "sc")
    assert lam[0].values[k_sc] <= 1e-8


def test_boundary_prices_zero_without_load(inst):
    loads = flat_loads(inst, 4, p=0.0, q=0.0)
    lam = init_duals(inst, loads, partition(4, 2))
    assert np.abs(lam[0].values).max() <= 1e-6


# ---------------------------------------------------------------------------
# sweeps and stitching


def test_one_zero_priced_sweep_is_the_baseline(inst, loads4, plan42, rh42):
    mpc = mpc_solve(inst, loads4, plan42, iterations=1, mode="zero-init")
    assert rh42.equals(mpc)
    assert mpc.equals(rh42)


def test_equality_is_exact(rh42):
    other = copy.deepcopy(rh42)
    assert rh42.equals(other)
    other.objective += 1e-12
    assert not rh42.equals(other)


def test_baseline_accounting(rh42, inst, loads4):
    assert len(rh42.stage_costs) == 2
    assert rh42.stage_costs[1][0] == 0.0   # build cost sits in stage one
    total = sum(sum(t) for t in rh42.stage_costs)
    assert total == pytest.approx(rh42.objective, rel=1e-12)
    assert rh42.lower_bound <= rh42.objective + 1e-9
    assert rh42.sweep_objectives == [rh42.objective]
    report = check_feasibility(inst, loads4, rh42.plan, tol=1e-6)
    assert report.ok, report.worst()


def test_stitched_plan_is_physical(inst, loads4, mpc42_dual2):
    report = check_feasibility(inst, loads4, mpc42_dual2.plan, tol=1e-6)
    assert report.ok, report.worst()
    assert mpc42_dual2.gap_percent >= -1e-9


def test_best_sweep_is_kept(mpc42_zero3, rh42):
    assert mpc42_zero3.sweep_objectives[0] == rh42.objective
    assert mpc42_zero3.objective == min(mpc42_zero3.sweep_objectives)
    assert mpc42_zero3.objective <= rh42.objective


def test_stage_stats_cover_every_solve(mpc42_zero3):
    seen = [(s.sweep, s.stage) for s in mpc42_zero3.stage_stats]
    assert seen == [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    assert all(s.status == "optimal-within-gap"
               for s in mpc42_zero3.stage_stats)
    assert all(s.solve_time > 0 for s in mpc42_zero3.stage_stats)


def test_single_stage_sweep_matches_monolith(inst, loads4):
    mpc = mpc_solve(inst, loads4, partition(4, 1), iterations=2)
    mono = solve_miqcqp(assemble(inst, loads4))
    assert mono.status == "optimal-within-gap"
    rel = abs(mpc.objective - mono.objective) / max(abs(mono.objective), 1.0)
    assert rel <= 1e-4
    assert len(mpc.stage_costs) == 1


def test_prices_rescue_the_myopic_sweep(inst):
    # light early load, then a peak only battery-plus-generator can
    # serve: the unpriced sweep builds just the battery and pays the
    # shedding penalty, the priced sweeps provision for the peak
    loads = step_loads(inst, (0.9, 0.9, 1.6, 1.6))
    plan = partition(4, 2)
    rh = rh_solve(inst, loads, plan)
    mpc = mpc_solve(inst, loads, plan, iterations=3, mode="dual-init")
    assert rh.stage_costs[1][2] > 1e6
    shed = sum(t[2] for t in mpc.stage_costs)
    assert shed <= 1e-3
    assert mpc.objective < 1e-2 * rh.objective
    report = check_feasibility(inst, loads, mpc.plan, tol=1e-6)
    assert report.ok, report.worst()


def test_short_tail_window_passes_history_through(inst, caplog):
    loads = flat_loads(inst, 5, p=0.4, q=0.1)
    plan = partition(5, 3)   # tail window of one step, history depth two
    with caplog.at_level(logging.WARNING, logger="microplan.decomposition"):
        sol = mpc_solve(inst, loads, plan, iterations=2, mode="dual-init")
    assert any("history" in r.message for r in caplog.records)
    report = check_feasibility(inst, loads, sol.plan, tol=1e-6)
    assert report.ok, report.worst()


def test_torn_seam_is_detected(inst, loads4, plan42):
    m0 = assemble(inst, loads4, window=plan42.windows[0])
    res0 = solve_miqcqp(m0)
    f0 = solve_fixed_then_duals(m0, res0.binaries)
    boundary = BoundaryState.from_terminal(m0, f0.x)
    torn = boundary.values.copy()
    torn[0] += 0.01
    m1 = assemble(inst, loads4, window=plan42.windows[1], boundary=torn,
                  own_builds=False)
    res1 = solve_miqcqp(m1)
    f1 = solve_fixed_then_duals(m1, res1.binaries)
    with pytest.raises(DecompositionError, match="seam"):
        stitch(inst, loads4, plan42, [m0, m1], [f0.x, f1.x])


def test_sweep_argument_validation(inst, loads4, plan42):
    with pytest.raises(DecompositionError):
        mpc_solve(inst, loads4, plan42, iterations=0)
    with pytest.raises(DecompositionError):
        mpc_solve(inst, loads4, plan42, mode="warm-init")


# ---------------------------------------------------------------------------
# relaxed sweeps


def test_relaxed_single_stage_satisfies_the_system_at_once(inst, loads4):
    res = gauss_seidel_relaxed(inst, loads4, partition(4, 1))
    assert res.converged
    assert res.sweeps == 1
    assert res.residuals[-1] <= 1e-5
    prog = relax_integrality(
        build_seamed(inst, loads4, ((0, 4),)).model).to_convex()
    _, value, _ = cvx_solve(prog)
    assert res.objective == pytest.approx(value, rel=1e-6, abs=1e-6)


def test_relaxed_sweeps_reach_the_central_solution(inst, loads4, plan42,
                                                   gs42, central42):
    value, _ = central42
    assert gs42.converged
    assert gs42.residuals[-1] <= 1e-5
    assert len(gs42.residuals) == gs42.sweeps
    assert gs42.residuals[-1] <= gs42.residuals[0] + 1e-12
    rel = abs(gs42.objective - value) / max(abs(value), 1.0)
    assert rel <= 1e-4


def test_relaxed_sweep_point_is_feasible_for_the_monolith(inst, loads4,
                                                          plan42, gs42):
    prog = relax_integrality(
        build_seamed(inst, loads4, plan42.windows).model).to_convex()
    x = gs42.x
    assert float((prog.lb - x).max(initial=0.0)) <= 1e-6
    assert float((x - prog.ub).max(initial=0.0)) <= 1e-6
    ax = prog.a @ x
    assert float((prog.l - ax).max(initial=0.0)) <= 1e-6
    assert float((ax - prog.u).max(initial=0.0)) <= 1e-6
