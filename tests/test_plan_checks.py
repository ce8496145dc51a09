"""The forward sweep and its checks, with stage solves through branch
and bound only, so this module needs no conic oracle: stage layout and
boundary state, the prices the relaxed monolith seeds, the sweeps'
best-plan keeping and accounting, plan coverage of the load horizon, a
torn seam between stages, and a receding-horizon plan that keeps the
bound of a bound solve that stalled.
"""

import copy
import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from microplan import decomposition
from microplan.decomposition import (
    BINARY_SLOT_KINDS, DecompositionError, _handoff, init_duals, mpc_solve,
    partition, relative_gap, rh_solve, stitch,
)
from microplan.formulation import (
    BUILD_KINDS, FormulationError, assemble, check_feasibility,
    coupling_slots, extract_plan, horizon_start_boundary, plan_costs,
)
from microplan.mip import MipResult, solve_miqcqp

from test_formulation import flat_loads, gen_bat_instance


@pytest.fixture(scope="module")
def inst():
    return gen_bat_instance()


@pytest.fixture(scope="module")
def pair(inst):
    return inst, flat_loads(inst, 6)


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


# ---------------------------------------------------------------------------
# stage layout and boundary data


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


def test_omitted_boundary_pins_the_horizon_start(inst, loads4):
    # every slot but the build decisions, which the window owns
    model = assemble(inst, loads4, window=(0, 2))
    start = horizon_start_boundary(inst)
    pins = model.coupling.init_pin_rows
    state = [k for k, s in enumerate(model.coupling.slots)
             if s.kind not in BUILD_KINDS]
    assert [k for k, row in enumerate(pins) if row is not None] == state
    rows = [pins[k] for k in state]
    assert np.array_equal(model.row_lo[rows], start[state])
    assert np.array_equal(model.row_hi[rows], start[state])


def test_terminal_state_snaps_binary_noise(inst, loads4):
    model = assemble(inst, loads4)
    x = np.zeros(model.n)
    slots = model.coupling.slots
    k_z = next(k for k, s in enumerate(slots) if s.kind == "z_b")
    k_sc = next(k for k, s in enumerate(slots) if s.kind == "sc")
    x[model.coupling.terminal_cols[k_z]] = 1.0 - 1e-9
    x[model.coupling.terminal_cols[k_sc]] = 0.7 + 1e-9
    handed = _handoff(model, x)
    assert handed[k_z] == 1.0
    assert handed[k_sc] == 0.7 + 1e-9


def test_price_vector_validation(inst, loads4):
    n = len(coupling_slots(inst))
    with pytest.raises(FormulationError, match="price vector has 1 entries"):
        assemble(inst, loads4, window=(0, 2), duals_in=np.zeros(1))
    nan = np.zeros(n)
    nan[0] = np.nan
    with pytest.raises(FormulationError, match="price vector must be finite"):
        assemble(inst, loads4, window=(0, 2), duals_in=nan)
    for prices, shape in [(1.0, r"\(\)"), (np.zeros((2, n)), rf"\(2, {n}\)")]:
        with pytest.raises(FormulationError, match=rf"price vector has shape "
                           rf"{shape}, expected \({n},\)"):
            assemble(inst, loads4, window=(0, 2), duals_in=prices)


def test_boundary_validation(inst, loads4):
    # one finite value per slot, or an error naming what was given; an
    # infinite pin would be a free row to the engine
    n = len(coupling_slots(inst))
    start = horizon_start_boundary(inst)
    for boundary, match in [
            (5.0, rf"boundary has shape \(\), expected \({n},\)"),
            (np.zeros((2, n)), rf"boundary has shape \(2, {n}\), expected "
                               rf"\({n},\)"),
            (np.zeros(n + 1), f"boundary has {n + 1} entries, expected {n}")]:
        with pytest.raises(FormulationError, match=match):
            assemble(inst, loads4, window=(1, 3), boundary=boundary,
                     own_builds=False)
    for value in (np.inf, -np.inf, np.nan):
        bad = start.copy()
        bad[0] = value
        with pytest.raises(FormulationError, match="boundary must be finite"):
            assemble(inst, loads4, window=(1, 3), boundary=bad,
                     own_builds=False)


def test_relative_gap_is_percent():
    assert relative_gap(110.0, 100.0) == pytest.approx(10.0)
    assert relative_gap(100.0, 100.0) == 0.0


def test_stored_energy_cannot_hurt(inst, loads4, plan42):
    # with expensive generation downstream, energy arriving at the seam
    # can only lower the optimal cost
    lam = init_duals(inst, loads4, plan42)
    slots = coupling_slots(inst)
    k_sc = next(k for k, s in enumerate(slots) if s.kind == "sc")
    assert lam[0][k_sc] <= 1e-8


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


def test_equality_reads_every_series(rh42):
    key = ("p_b", "bat1")
    fewer = copy.deepcopy(rh42)
    del fewer.plan.series[key]
    assert not rh42.equals(fewer) and not fewer.equals(rh42)
    moved = copy.deepcopy(rh42)
    moved.plan.series[key][1] += 1e-12
    assert not rh42.equals(moved)


def test_plan_checks_read_the_plan_shape(rh42, inst, loads4):
    plan = rh42.plan
    for bad, message in (
            (dataclasses.replace(plan, start=1),
             "plan must start at the horizon origin"),
            (dataclasses.replace(plan, horizon=loads4.horizon + 1),
             "plan is longer than the load profile"),
            (dataclasses.replace(plan, series={
                **plan.series, ("p_b", "bat1"): plan.series[("p_b", "bat1")][:-1]}),
             "series p_b/bat1 has wrong length")):
        with pytest.raises(FormulationError, match=f"^{re.escape(message)}$"):
            check_feasibility(inst, loads4, bad)
    # a plan lacking a series reads it as zeros
    key = ("q_b", "bat1")
    lacking = dataclasses.replace(plan, series={
        k: v for k, v in plan.series.items() if k != key})
    zeroed = dataclasses.replace(plan, series={**plan.series,
                                               key: np.zeros(plan.horizon)})
    assert check_feasibility(inst, loads4, lacking) \
        == check_feasibility(inst, loads4, zeroed)


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


def test_short_tail_window_passes_history_through(inst, caplog):
    loads = flat_loads(inst, 5, p=0.4, q=0.1)
    plan = partition(5, 3)   # tail window of one step, history depth two
    with caplog.at_level(logging.WARNING, logger="microplan.decomposition"):
        sol = mpc_solve(inst, loads, plan, iterations=2, mode="dual-init")
    assert any("history" in r.message for r in caplog.records)
    report = check_feasibility(inst, loads, sol.plan, tol=1e-6)
    assert report.ok, report.worst()


def test_sweep_argument_validation(inst, loads4, plan42):
    with pytest.raises(DecompositionError):
        mpc_solve(inst, loads4, plan42, iterations=0)
    with pytest.raises(DecompositionError):
        mpc_solve(inst, loads4, plan42, mode="warm-init")


# ---------------------------------------------------------------------------
# checks around the stage solves


DRIVERS = {
    "rh_solve": rh_solve,
    "mpc_solve": mpc_solve,
    "init_duals": init_duals,
}


@pytest.mark.parametrize("name", DRIVERS)
@pytest.mark.parametrize("steps, stages", [(4, 2), (8, 4)])
def test_plan_must_cover_the_loads(pair, name, steps, stages):
    inst, loads = pair
    with pytest.raises(DecompositionError,
                       match=f"stage plan covers {steps} steps but the "
                             f"loads cover 6"):
        DRIVERS[name](inst, loads, partition(steps, stages))


def test_handoff_pins_exact_integers(inst, monkeypatch):
    # at this load the middle stage's optimal point holds its pinned
    # z_d/g1 import as 2.0e-17, and hands it on as 0.0
    loads = flat_loads(inst, 6, p=0.6, q=0.1)
    built = []

    def recording(*args, **kwargs):
        built.append(assemble(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(decomposition, "assemble", recording)
    rh_solve(inst, loads, partition(6, 3))
    assert len(built) == 3
    binary = [k for k, s in enumerate(coupling_slots(inst))
              if s.kind in BINARY_SLOT_KINDS]
    for model in built[1:]:
        rows = [model.coupling.init_pin_rows[k] for k in binary]
        handed = model.row_lo[rows]
        assert np.array_equal(handed, model.row_hi[rows])
        assert set(handed) <= {0.0, 1.0} and not np.signbit(handed).any()


def test_handoff_only_between_stages(pair, monkeypatch):
    inst, loads = pair
    calls = []

    def counting(model, x):
        calls.append(model)
        return _handoff(model, x)

    monkeypatch.setattr(decomposition, "_handoff", counting)
    rh_solve(inst, loads, partition(6, 3))
    assert len(calls) == 2
    calls.clear()
    mpc_solve(inst, loads, partition(6, 3), iterations=2, mode="zero-init")
    assert len(calls) == 4


def test_torn_seam_is_detected():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    plan = partition(4, 2)
    m0 = assemble(inst, loads, window=plan.windows[0])
    x0 = solve_miqcqp(m0).solution.x
    torn = _handoff(m0, x0)
    torn[0] += 0.01
    m1 = assemble(inst, loads, window=plan.windows[1], boundary=torn,
                  own_builds=False)
    x1 = solve_miqcqp(m1).solution.x
    # the first broken slot, named with plain floats
    with pytest.raises(DecompositionError,
                       match=r"^seam 1 breaks on sc/bat1: "
                             r"-?[\d.e+-]+ != -?[\d.e+-]+$"):
        stitch(inst, loads, plan, [m0, m1], [x0, x1])


def test_receding_horizon_survives_a_failed_bound(pair, monkeypatch, caplog):
    inst, loads = pair
    plan = partition(6, 3)
    ref = rh_solve(inst, loads, plan)
    assert ref.bound_detail == "" and math.isfinite(ref.lower_bound)

    solve = decomposition.solve_qcqp

    def stalled(prog):
        return dataclasses.replace(solve(prog),
                                   status="iteration-limit", detail="stalled")

    # stage searches bind mip's solve_qcqp, so only the bound solve stalls
    monkeypatch.setattr(decomposition, "solve_qcqp", stalled)
    with caplog.at_level(logging.WARNING, logger=decomposition.__name__):
        got = rh_solve(inst, loads, plan)
    warned = [r.getMessage() for r in caplog.records
              if r.name == decomposition.__name__]
    assert warned == ["monolithic relaxation ended iteration-limit (stalled); "
                      "the plan is reported with the bound its last "
                      "iterate proves"]
    assert got.bound_detail == "monolithic relaxation ended iteration-limit (stalled)"
    # the stalled result keeps its multipliers, and so the bound they prove
    assert math.isfinite(got.lower_bound) and math.isfinite(got.gap_percent)
    assert got.lower_bound == ref.lower_bound <= ref.objective
    assert got.gap_percent == ref.gap_percent

    assert got.objective == ref.objective
    assert set(got.plan.series) == set(ref.plan.series)
    for key, arr in ref.plan.series.items():
        assert np.array_equal(got.plan.series[key], arr), key
    # every other reproducible field, builds and stage statistics included
    assert got.equals(dataclasses.replace(ref, bound_detail=got.bound_detail))

    with pytest.raises(DecompositionError,
                       match=r"monolithic relaxation ended iteration-limit"):
        mpc_solve(inst, loads, plan, mode="dual-init")


def test_relaxation_without_a_bound(inst, loads4, plan42, rh42, monkeypatch,
                                    caplog):
    # the relaxed monolith ends infeasible, with no bound: dual-init has
    # no prices and raises, and zero-init warns and reports its NaN bound
    solve = decomposition.solve_qcqp

    def infeasible(prog):
        return dataclasses.replace(solve(prog), status="infeasible",
                                   detail="no start", bound=np.nan)

    monkeypatch.setattr(decomposition, "solve_qcqp", infeasible)
    with pytest.raises(DecompositionError,
                       match=r"^monolithic relaxation ended infeasible "
                             r"\(no start\)$"):
        mpc_solve(inst, loads4, plan42, mode="dual-init")
    with caplog.at_level(logging.WARNING, logger=decomposition.__name__):
        got = mpc_solve(inst, loads4, plan42, iterations=1, mode="zero-init")
    assert [r.getMessage() for r in caplog.records
            if r.name == decomposition.__name__] == [
        "monolithic relaxation ended infeasible (no start); the plan is "
        "reported without a lower bound"]
    assert got.bound_detail == "monolithic relaxation ended infeasible (no start)"
    assert math.isnan(got.lower_bound) and math.isnan(got.gap_percent)
    assert got.objective == rh42.objective


def test_grid_import_is_checked_at_the_slack_bus(inst, loads4):
    grid = dataclasses.replace(inst, grid_connected=True)
    model = assemble(grid, loads4)
    plan = extract_plan(model, solve_miqcqp(model).x)
    # the grid is free: it serves the whole load at the slack bus b1
    assert plan_costs(grid, plan).total == 0.0
    np.testing.assert_allclose(plan.series[("grid_p", "b1")], 0.4, atol=1e-6)
    np.testing.assert_allclose(plan.series[("grid_q", "b1")], 0.1, atol=1e-6)
    assert check_feasibility(grid, loads4, plan).ok

    plan.series[("grid_p", "b1")][2] += 0.1
    report = check_feasibility(grid, loads4, plan)
    assert [v[:3] for v in report.violations] == [("balance_p", "b1", 2)]
    assert report.max_violation == pytest.approx(0.1, abs=1e-6)


def test_nan_in_a_plan_is_a_violation(inst, loads4):
    model = assemble(inst, loads4)
    plan = extract_plan(model, solve_miqcqp(model).x)
    assert check_feasibility(inst, loads4, plan).ok
    for key in (("p_b", "bat1"), ("sc_b", "bat1"), ("v", "b2"),
                ("shed_p", "b2"), ("x_d", "g1"), ("p_line", "l1"),
                ("s_b", "bat1")):
        bad = copy.deepcopy(plan)
        if key in bad.builds:
            bad.builds[key] = np.nan
        else:
            bad.series[key][1] = np.nan
        report = check_feasibility(inst, loads4, bad)
        assert not report.ok, key
        assert report.max_violation == np.inf, key
        assert report.worst(1)[0][3] == np.inf, key


def test_stage_search_without_an_incumbent_is_named(pair, monkeypatch):
    # stage 1's search ends with no incumbent: the sweep cannot go on
    inst, loads = pair
    solve = decomposition.solve_miqcqp
    calls = []

    def no_incumbent_in_stage_1(model, **kwargs):
        calls.append(model.window)
        if len(calls) == 2:
            return MipResult(status="node-limit", x=None, objective=math.inf,
                             best_bound=-math.inf, gap=math.inf, nodes=0,
                             binaries=None)
        return solve(model, **kwargs)

    monkeypatch.setattr(decomposition, "solve_miqcqp", no_incumbent_in_stage_1)
    with pytest.raises(DecompositionError,
                       match=r"^sweep 1, stage 1: stage search ended "
                             r"node-limit$") as info:
        rh_solve(inst, loads, partition(6, 3))
    assert calls == [(0, 2), (2, 4)]
    assert isinstance(info.value.__cause__, DecompositionError)
