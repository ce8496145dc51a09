"""Model builder against closed-form counts, hand-checked rows, and an
independent conic solver.

Oracles come first: a translator from ConvexProgram to cvxpy (solved
with CLARABEL, no code shared with the in-tree engine), a text parser
for the model dump format, and closed-form column/row count formulas
derived from the constraint families by hand.  Without cvxpy the conic
oracle is the in-tree engine, trusted only where its result passes
`certify` or is within 1e-7 of its weak-duality bound.
"""

import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import microplan

try:
    import cvxpy as cp
except ImportError:     # the engine, held to its own proofs, stands in
    cp = None

from microplan import formulation
from microplan.convex import ConvexProgram, certify, solve_qcqp
from microplan.decomposition import partition
from microplan.formulation import (
    BUILD_KINDS, FormulationError, INIT_KINDS, ModelBuilder, assemble,
    build_seamed, check_feasibility, coupling_slots, dump_model, extract_plan,
    fix_binaries, horizon_start_boundary, plan_costs, relax_integrality,
)
from microplan.instance import (
    BatterySpec, Bus, GeneratorSpec, Line, LoadProfile, NetworkInstance,
)

INF = np.inf


# ---------------------------------------------------------------------------
# oracles


def cvx_solve(prog, pins=()):
    """Solve a ConvexProgram with cvxpy/CLARABEL, optionally pinning
    columns to values.  Returns (status, objective incl. constant, x).
    Without cvxpy, see `engine_solve`."""
    if cp is None:
        return engine_solve(prog, pins)
    x = cp.Variable(prog.n)
    cons = []
    fin_l = np.isfinite(prog.l)
    fin_u = np.isfinite(prog.u)
    ax = prog.a @ x
    eqr = fin_l & fin_u & (prog.l == prog.u)
    if eqr.any():
        cons.append(ax[np.where(eqr)[0]] == prog.l[eqr])
    lo = fin_l & ~eqr
    if lo.any():
        cons.append(ax[np.where(lo)[0]] >= prog.l[lo])
    hi = fin_u & ~eqr
    if hi.any():
        cons.append(ax[np.where(hi)[0]] <= prog.u[hi])
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
    for j, v in pins:
        cons.append(x[j] == v)
    obj = 0.5 * cp.sum(cp.multiply(prog.p_diag, cp.square(x))) + prog.q @ x
    problem = cp.Problem(cp.Minimize(obj), cons)
    problem.solve(solver=cp.CLARABEL)
    if problem.status.startswith("optimal"):
        return "optimal", float(problem.value) + prog.const, x.value
    return problem.status, None, None


def engine_solve(prog, pins=()):
    """The oracle without cvxpy: `solve_qcqp` on a copy of `prog` with
    each pinned column's bounds set to its value.  Its result stands
    only if it is certified, or proven optimal by weak duality to
    1e-7 max(1, |objective|); an infeasible or unbounded status is
    returned as it is, and any other result fails the test."""
    lb, ub = prog.lb.copy(), prog.ub.copy()
    for j, v in pins:
        lb[j] = ub[j] = v
    pinned = ConvexProgram(prog.p_diag, prog.q, prog.a, prog.l, prog.u,
                           lb, ub, prog.cones, prog.const)
    sol = solve_qcqp(pinned)
    if sol.status in ("infeasible", "unbounded"):
        return sol.status, None, None
    certified = certify(pinned, sol.x, sol.y_rows, sol.y_bounds,
                        sol.cone_duals).ratio <= 1.0
    proven = sol.objective - sol.bound <= 1e-7 * max(1.0, abs(sol.objective))
    if not (certified or proven):
        pytest.fail(f"oracle solve ended {sol.status} ({sol.detail}), "
                    "neither certified nor proven")
    return "optimal", sol.objective, sol.x


def parse_dump(text):
    """Read the sparse text dump back into plain structures."""
    ncols = None
    const = None
    cols = {}
    rows = []
    cones = []
    for line in text.strip().splitlines():
        tok = line.split()
        if tok[0] == "ncols":
            ncols = int(tok[1])
        elif tok[0] == "const":
            const = float(tok[1])
        elif tok[0] == "col":
            j = int(tok[1])
            lb, ub = float(tok[2]), float(tok[3])
            lin = quad = 0.0
            binary = tok[-1] == "binary"
            rest = tok[4:-1] if binary else tok[4:]
            for key, val in zip(rest[::2], rest[1::2]):
                if key == "lin":
                    lin = float(val)
                elif key == "quad":
                    quad = float(val)
            cols[j] = (lb, ub, lin, quad, binary)
        elif tok[0] == "row":
            sense, rhs = tok[1], float(tok[2])
            coefs = {}
            for item in tok[3:]:
                j, v = item.split(":")
                coefs[int(j)] = float(v)
            rows.append((sense, rhs, tuple(sorted(coefs.items()))))
        elif tok[0] == "cone":
            if tok[1] == "radius":
                cones.append((float(tok[2]), None, tuple(int(t) for t in tok[3:])))
            else:
                cones.append((0.0, int(tok[2]), tuple(int(t) for t in tok[3:])))
    return ncols, const, cols, rows, cones


def expected_counts(inst, horizon):
    """Column, row, and cone counts per family, derived by hand from the
    constraint catalogue."""
    nb = len(inst.battery_specs)
    nd = len(inst.generator_specs)
    nn = len(inst.buses)
    ne = len(inst.lines)
    hist = sum(d.history_depth for d in inst.generator_specs)
    grid = 2 if inst.grid_connected else 0
    t = horizon
    cols = (3 * nb + 3 * nd + 2 * hist
            + t * (3 * nn + 2 * ne + 6 * nd + 4 * nb + grid))
    bat_buses = len({b.bus for b in inst.battery_specs})
    gen_buses = len({d.bus for d in inst.generator_specs})
    pins = nb + 2 * nd + 2 * hist   # build slots stay unpinned when owned
    rows = {
        "balance": 2 * nn * t,
        "volt_drop": ne * t,
        "resource": bat_buses + gen_buses + nb,
        "commitment": 12 * nd * t,
        "battery": 4 * nb * t,
        "couple": pins,
    }
    return cols, sum(rows.values()), rows, (ne + nb) * t


# ---------------------------------------------------------------------------
# fixtures


def gen_bat_instance(min_up=2, min_down=2, initial_soc=1.0, base_mva=1.0,
                     ramp=0.5, grid=False):
    buses = (
        Bus("b1", 0.81, 1.21, max_generators=1),
        Bus("b2", 0.81, 1.21, max_batteries=1),
    )
    lines = (Line("l1", "b1", "b2", 0.01, 0.02, 2.0),)
    bats = (BatterySpec("bat1", "b2", 100.0, 300.0, 1.0, 2.0, 0.8, 0.7,
                        initial_soc=initial_soc, p_min=-1.0, p_max=1.0,
                        q_min=-1.0, q_max=1.0),)
    gens = (GeneratorSpec("g1", "b1", 200.0, (6.0, 35.0, 50.0),
                          min_up, min_down, ramp, ramp, 0.5, 0.1, 1.5,
                          q_min=-1.0, q_max=1.0),)
    return NetworkInstance(buses, lines, bats, gens, shed_penalty=1e7,
                           dt=0.25, base_mva=base_mva, slack_bus="b1",
                           grid_connected=grid, name="pair")


def bat_only_instance():
    buses = (Bus("b1", 0.81, 1.21, max_batteries=1),)
    bats = (BatterySpec("bat1", "b1", 100.0, 300.0, 1.0, 2.0, 0.8, 0.7,
                        initial_soc=1.0, p_min=-1.0, p_max=1.0,
                        q_min=-0.5, q_max=0.5),)
    return NetworkInstance(buses, (), bats, (), shed_penalty=1e7,
                           dt=0.25, slack_bus="b1", name="solo")


def flat_loads(inst, horizon, p=0.2, q=0.06):
    ids = tuple(b.id for b in inst.buses)
    pm = np.zeros((horizon, len(ids)))
    qm = np.zeros((horizon, len(ids)))
    pm[:, len(ids) - 1] = p
    qm[:, len(ids) - 1] = q
    return LoadProfile(horizon=horizon, bus_ids=ids, p=pm, q=qm, dt=inst.dt)


def five_bus_instance(grid=False):
    """Radial 5-bus feeder.  The slack b1 feeds b2, which has one line in
    and two out: to b3 and to the lateral b4 - b5.  The lateral's far
    line l4 is listed against the tree direction (from b5 to b4).  Bus b3
    holds a generator and a battery candidate."""
    buses = (
        Bus("b1", 0.81, 1.21, max_generators=1),
        Bus("b2", 0.81, 1.21),
        Bus("b3", 0.81, 1.21, max_batteries=1, max_generators=1),
        Bus("b4", 0.85, 1.15),
        Bus("b5", 0.81, 1.21, max_batteries=1),
    )
    lines = (
        Line("l1", "b1", "b2", 0.01, 0.02, 2.0),
        Line("l2", "b2", "b3", 0.02, 0.03, 1.5),
        Line("l3", "b2", "b4", 0.015, 0.025, 1.5),
        Line("l4", "b5", "b4", 0.02, 0.04, 1.0),
    )
    bats = (
        BatterySpec("bat1", "b3", 90.0, 250.0, 0.8, 1.6, 0.9, 0.85,
                    initial_soc=0.4, p_min=-0.8, p_max=0.8,
                    q_min=-0.5, q_max=0.5),
        BatterySpec("bat2", "b5", 60.0, 320.0, 0.5, 1.0, 0.85, 0.9,
                    initial_soc=0.0, p_min=-0.5, p_max=0.5,
                    q_min=-0.3, q_max=0.3),
    )
    gens = (
        GeneratorSpec("g1", "b1", 200.0, (6.0, 35.0, 50.0), 2, 2,
                      0.5, 0.5, 0.5, 0.1, 1.5, q_min=-1.0, q_max=1.0),
        GeneratorSpec("g2", "b3", 150.0, (4.0, 40.0, 30.0), 3, 1,
                      0.3, 0.4, 0.6, 0.05, 0.8, q_min=-0.4, q_max=0.4),
    )
    return NetworkInstance(buses, lines, bats, gens, shed_penalty=1e7,
                           dt=0.25, slack_bus="b1", grid_connected=grid,
                           name="five")


def five_bus_loads(inst, horizon=6):
    """A different demand at every load bus and step."""
    ids = tuple(b.id for b in inst.buses)
    steps = np.arange(horizon)[:, None]
    weight = np.array([0.0, 0.05, 0.12, 0.08, 0.1])
    pm = weight * (1.0 + 0.25 * np.sin(steps + np.arange(len(ids))))
    return LoadProfile(horizon=horizon, bus_ids=ids, p=pm, q=0.3 * pm,
                       dt=inst.dt)


# the middle window is shorter than g2's three-step start/stop history
FIVE_BUS_WINDOWS = [(0, 2), (2, 3), (3, 6)]


def five_bus_case(grid=False):
    inst = five_bus_instance(grid=grid)
    return inst, five_bus_loads(inst), FIVE_BUS_WINDOWS


def one_step_case():
    # one-step windows under a three-step history repeat import keys
    inst = gen_bat_instance(min_up=3, min_down=2)
    return inst, flat_loads(inst, 4), [(0, 1), (1, 2), (2, 3), (3, 4)]


def shared_bus_case():
    """Two generators and two batteries on one bus, with different
    start/stop histories, sewn over two windows: the balance, count and
    history rows each gather several candidates."""
    buses = (
        Bus("b1", 0.81, 1.21),
        Bus("b2", 0.81, 1.21, max_batteries=1, max_generators=2),
        Bus("b3", 0.85, 1.15),
    )
    lines = (
        Line("l1", "b1", "b2", 0.01, 0.02, 2.0),
        Line("l2", "b2", "b3", 0.02, 0.03, 1.5),
    )
    bats = (
        BatterySpec("bat1", "b2", 90.0, 250.0, 0.8, 1.6, 0.9, 0.85,
                    initial_soc=0.4, p_min=-0.8, p_max=0.8,
                    q_min=-0.5, q_max=0.5),
        BatterySpec("bat2", "b2", 60.0, 320.0, 0.5, 1.0, 0.85, 0.9,
                    initial_soc=0.2, p_min=-0.5, p_max=0.5,
                    q_min=-0.3, q_max=0.3),
    )
    gens = (
        GeneratorSpec("g1", "b2", 200.0, (6.0, 35.0, 50.0), 3, 1,
                      0.5, 0.5, 0.5, 0.1, 1.5, q_min=-1.0, q_max=1.0),
        GeneratorSpec("g2", "b2", 150.0, (4.0, 40.0, 30.0), 1, 2,
                      0.3, 0.4, 0.6, 0.05, 0.8, q_min=-0.4, q_max=0.4),
    )
    inst = NetworkInstance(buses, lines, bats, gens, shed_penalty=1e7,
                           dt=0.25, slack_bus="b1", name="shared")
    steps = np.arange(5)[:, None]
    pm = np.array([0.0, 0.1, 0.15]) * (1.0 + 0.2 * np.cos(steps))
    loads = LoadProfile(horizon=5, bus_ids=("b1", "b2", "b3"), p=pm,
                        q=0.4 * pm, dt=inst.dt)
    return inst, loads, [(0, 2), (2, 5)]


def shared_bus_one_step_case():
    """`shared_bus_case` over five 1-step windows, shorter than g1's
    three-step start/stop history; g1's and g2's commitment rows hold
    different entry counts."""
    inst, loads, _ = shared_bus_case()
    return inst, loads, [(t, t + 1) for t in range(5)]


def col_keys(model):
    return [model.describe_col(j) for j in range(model.n)]


def row_labels(model):
    return [model.describe_row(i) for i in range(len(model.row_coefs))]


def cone_labels(model):
    return [model.describe_cone(k) for k in range(len(model.cones))]


def make_x(model, values):
    x = np.zeros(model.n)
    for key, v in values.items():
        x[model.col(*key)] = v
    return x


def rows_of(model, family):
    return [(i, lab) for i, lab in enumerate(row_labels(model))
            if lab[0] == family]


def the_row(model, *label):
    hits = [i for i, lab in enumerate(row_labels(model)) if lab == label]
    assert len(hits) == 1, f"row {label} matched {len(hits)} times"
    return hits[0]


def row_value(model, i, x):
    return sum(c * x[j] for j, c in model.row_coefs[i].items())


def feas_error(model, x):
    """Worst violation of rows, bounds, and cones, by direct arithmetic."""
    worst = 0.0
    for coefs, lo, hi in zip(model.row_coefs, model.row_lo, model.row_hi):
        v = sum(c * x[j] for j, c in coefs.items())
        worst = max(worst, lo - v, v - hi)
    worst = max(worst, float((model.lb - x).max(initial=0.0)),
                float((x - model.ub).max(initial=0.0)))
    for cone in model.cones:
        rad = cone.radius if cone.radius_col is None else x[cone.radius_col]
        worst = max(worst, float(np.hypot(*[x[j] for j in cone.cols]) - rad))
    return worst


# ---------------------------------------------------------------------------
# layout and counts


def test_column_count_matches_closed_form():
    for inst, t in [(gen_bat_instance(), 4),
                    (gen_bat_instance(min_up=3, min_down=1, grid=True), 3),
                    (bat_only_instance(), 5)]:
        model = assemble(inst, flat_loads(inst, t))
        cols, _, _, _ = expected_counts(inst, t)
        assert model.n == cols
        assert len(set(col_keys(model))) == cols
        with pytest.raises(IndexError):
            model.describe_col(cols)


def test_row_and_cone_counts_match_closed_form():
    groups = {
        "balance": ("balance_p", "balance_q"),
        "volt_drop": ("volt_drop",),
        "resource": ("bat_count", "gen_count", "cap_if_built"),
        "commitment": ("committed_if_built", "start_stop", "start_xor_stop",
                       "p_max_if_on", "p_min_if_on", "q_max_if_on",
                       "q_min_if_on", "delivered", "ramp_up", "ramp_down",
                       "min_up", "min_down"),
        "battery": ("soc_step", "soc_if_built", "eff_dis", "eff_ch"),
        "couple": ("couple",),
    }
    for inst, t in [(gen_bat_instance(), 4),
                    (gen_bat_instance(min_up=3, min_down=1, grid=True), 3)]:
        model = assemble(inst, flat_loads(inst, t))
        _, total, per_family, ncones = expected_counts(inst, t)
        assert len(model.row_coefs) == total
        for name, fams in groups.items():
            got = sum(len(rows_of(model, f)) for f in fams)
            assert got == per_family[name], name
        assert len(model.cones) == ncones


def expected_balance(inst, bus_id, t, kind):
    """The balance row of `bus_id` at step `t` as {column key: coef},
    from the lines' endpoints and the bus's own columns."""
    power, flow, grid = ("p", "p_line", "grid_p") if kind == "balance_p" \
        else ("q", "q_line", "grid_q")
    terms = {(f"shed_{power}", bus_id, t): 1.0}
    for line in inst.lines:
        if line.to_bus == bus_id:
            terms[(flow, line.id, t)] = 1.0
        if line.from_bus == bus_id:
            terms[(flow, line.id, t)] = -1.0
    for d in inst.generator_specs:
        if d.bus == bus_id:
            terms[(f"{power}_d", d.id, t)] = 1.0
    for b in inst.battery_specs:
        if b.bus == bus_id:
            terms[(f"{power}_b", b.id, t)] = 1.0
    if inst.grid_connected and bus_id == inst.slack_bus:
        terms[(grid, bus_id, t)] = 1.0
    return terms


@pytest.mark.parametrize("grid", [False, True])
def test_balance_rows_equal_bus_incidence(grid):
    inst, loads, windows = five_bus_case(grid)
    idx = inst.bus_index()
    for model in (assemble(inst, loads),
                  build_seamed(inst, loads, windows).model):
        for kind, demand in (("balance_p", loads.p), ("balance_q", loads.q)):
            rows = rows_of(model, kind)
            assert len(rows) == len(inst.buses) * loads.horizon
            for i, (_, bus_id, t) in rows:
                want = {model.col(*key): c for key, c in
                        expected_balance(inst, bus_id, t, kind).items()}
                assert model.row_coefs[i] == want, (kind, bus_id, t)
                assert model.row_lo[i] == model.row_hi[i] \
                    == demand[t, idx[bus_id]]
    # the fixture's shape, by hand: b2 takes l1 in and sends l2 and l3
    # out; the reversed l4 flows into b4 and out of b5
    model = assemble(inst, loads)
    key_coefs = {model.describe_col(j): c for j, c in
                 model.row_coefs[the_row(model, "balance_p", "b2", 1)].items()}
    assert key_coefs == {("shed_p", "b2", 1): 1.0, ("p_line", "l1", 1): 1.0,
                         ("p_line", "l2", 1): -1.0, ("p_line", "l3", 1): -1.0}
    for bus_id, sign in (("b4", 1.0), ("b5", -1.0)):
        row = model.row_coefs[the_row(model, "balance_q", bus_id, 4)]
        assert row[model.col("q_line", "l4", 4)] == sign


def test_grid_columns_only_when_connected():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 2))
    with pytest.raises(KeyError):
        model.col("grid_p", "b1", 0)
    inst_g = gen_bat_instance(grid=True)
    model_g = assemble(inst_g, flat_loads(inst_g, 2))
    jp = model_g.col("grid_p", "b1", 0)
    assert model_g.lb[jp] == -INF and model_g.ub[jp] == INF
    # the injection enters the slack balance only
    i = the_row(model_g, "balance_p", "b1", 0)
    assert model_g.row_coefs[i][jp] == 1.0
    i2 = the_row(model_g, "balance_p", "b2", 0)
    assert jp not in model_g.row_coefs[i2]


def test_registry_unique_and_binaries_complete():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 3))
    keys = col_keys(model)
    assert [model.col(*key) for key in keys] == list(range(model.n))
    binary_kinds = {"z_b", "z_d", "x_d", "y_d", "w_d"}
    for j, key in enumerate(keys):
        if key[0] in binary_kinds:
            assert j in model.binaries, key
            assert model.lb[j] == 0.0 and model.ub[j] == 1.0
        else:
            assert j not in model.binaries, key


def test_objective_curvature_and_cone_shapes():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 3))
    assert np.all(model.p_diag >= 0.0)
    curved = {model.describe_col(j)[0]
              for j in np.flatnonzero(model.p_diag > 0)}
    assert curved == {"phat_d"}
    for cone in model.cones:
        if cone.radius_col is None:
            assert cone.radius > 0
        else:
            assert model.lb[cone.radius_col] >= 0.0


# ---------------------------------------------------------------------------
# objective terms


def test_objective_zero_at_zero_point():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 4))
    assert model.objective_value(np.zeros(model.n)) == 0.0


def test_generator_cost_terms():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 4))
    x = make_x(model, {("z_d", "g1", None): 1.0,
                       ("x_d", "g1", 0): 1.0,
                       ("phat_d", "g1", 0): 2.0})
    # 200 build + 6 no-load + 35*2 linear + 50*2^2 quadratic
    assert model.objective_value(x) == pytest.approx(476.0, abs=1e-9)


def test_shed_penalty_term():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4, p=0.5, q=0.1)
    model = assemble(inst, loads)
    x = make_x(model, {("shed_p", "b2", 1): 0.35})
    assert model.objective_value(x) == pytest.approx(3.5e6, rel=1e-12)


def test_objective_invariant_to_base_power():
    # the same physical point costs the same dollars on any power base
    inst10 = gen_bat_instance(base_mva=10.0)
    loads = flat_loads(inst10, 4, p=0.05, q=0.01)
    model = assemble(inst10, loads)
    x = make_x(model, {("z_d", "g1", None): 1.0,
                       ("x_d", "g1", 0): 1.0,
                       ("phat_d", "g1", 0): 0.2,     # 2 MW on base 10
                       ("shed_p", "b2", 1): 0.035})  # 0.35 MW
    assert model.objective_value(x) == pytest.approx(476.0 + 3.5e6, rel=1e-12)


# ---------------------------------------------------------------------------
# power flow rows


def test_voltage_drop_row_value():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 2))
    i = the_row(model, "volt_drop", "l1", 0)
    x = make_x(model, {("v", "b1", 0): 1.0,
                       ("p_line", "l1", 0): 1.0,
                       ("q_line", "l1", 0): 0.5,
                       ("v", "b2", 0): 0.96})
    assert row_value(model, i, x) == pytest.approx(0.0, abs=1e-15)
    x[model.col("v", "b2", 0)] = 0.97
    assert row_value(model, i, x) == pytest.approx(0.01, abs=1e-12)


def test_zero_load_zero_point_feasible():
    inst = gen_bat_instance(initial_soc=0.0)
    loads = flat_loads(inst, 3, p=0.0, q=0.0)
    model = assemble(inst, loads)
    x = np.zeros(model.n)
    for t in range(3):
        x[model.col("v", "b1", t)] = 1.0
        x[model.col("v", "b2", t)] = 1.0
    assert feas_error(model, x) <= 1e-12
    report = check_feasibility(inst, loads, extract_plan(model, x))
    assert report.ok


def test_line_rating_excludes_overloaded_flow():
    inst = gen_bat_instance()
    inst = NetworkInstance(inst.buses,
                           (Line("l1", "b1", "b2", 0.01, 0.02, 1.0),),
                           inst.battery_specs, inst.generator_specs,
                           shed_penalty=1e7, dt=0.25, slack_bus="b1",
                           name="tight")
    loads = flat_loads(inst, 1)
    model = assemble(inst, loads)
    cone = model.cones[cone_labels(model).index(("thermal", "l1", 0))]
    assert cone.radius == 1.0
    x = make_x(model, {("p_line", "l1", 0): 0.8, ("q_line", "l1", 0): 0.8})
    assert np.hypot(*[x[j] for j in cone.cols]) > cone.radius
    x2 = make_x(model, {("p_line", "l1", 0): 0.6, ("q_line", "l1", 0): 0.6})
    assert np.hypot(*[x2[j] for j in cone.cols]) <= cone.radius
    plan = extract_plan(model, x)
    report = check_feasibility(inst, loads, plan)
    assert any(v[0] == "thermal" for v in report.violations)


# ---------------------------------------------------------------------------
# resource limit rows


def test_battery_count_row_sums_candidates():
    buses = (Bus("b1", 0.81, 1.21, max_batteries=1),)
    bats = tuple(BatterySpec(f"bat{k}", "b1", 100.0, 300.0, 1.0, 2.0,
                             0.8, 0.7, p_min=-1.0, p_max=1.0)
                 for k in (1, 2))
    inst = NetworkInstance(buses, (), bats, (), shed_penalty=1e7, dt=0.25,
                           slack_bus="b1", name="twins")
    model = assemble(inst, flat_loads(inst, 1))
    i = the_row(model, "bat_count", "b1", None)
    assert model.row_coefs[i] == {model.col("z_b", "bat1"): 1.0,
                                  model.col("z_b", "bat2"): 1.0}
    assert model.row_lo[i] == -INF and model.row_hi[i] == 1.0


def test_capacity_needs_build_decision():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 1))
    i = the_row(model, "cap_if_built", "bat1", None)
    x = make_x(model, {("s_b", "bat1", None): 0.5})
    assert row_value(model, i, x) > model.row_hi[i]        # s>0 without build
    x[model.col("z_b", "bat1")] = 1.0
    x[model.col("s_b", "bat1")] = 1.0                      # s = m exactly
    assert row_value(model, i, x) <= model.row_hi[i] + 1e-15


# ---------------------------------------------------------------------------
# commitment rows


def test_start_stop_events_forced_by_sequence():
    inst = gen_bat_instance(min_up=1, min_down=1)
    loads = flat_loads(inst, 4)
    model = assemble(inst, loads)
    seq = [0.0, 1.0, 1.0, 0.0]
    y = [0.0, 1.0, 0.0, 0.0]
    w = [0.0, 0.0, 0.0, 1.0]
    vals = {}
    for t in range(4):
        vals[("x_d", "g1", t)] = seq[t]
        vals[("y_d", "g1", t)] = y[t]
        vals[("w_d", "g1", t)] = w[t]
    x = make_x(model, vals)
    for t in range(4):
        i = the_row(model, "start_stop", "g1", t)
        assert row_value(model, i, x) == pytest.approx(0.0, abs=1e-15)
    # moving the stop event violates the difference equation
    x[model.col("w_d", "g1", 3)] = 0.0
    i = the_row(model, "start_stop", "g1", 3)
    assert abs(row_value(model, i, x)) == pytest.approx(1.0)
    plan = extract_plan(model, x)
    report = check_feasibility(inst, loads, plan)
    assert any(v[0] == "start_stop" for v in report.violations)


def test_min_up_holds_commitment_after_start():
    inst = gen_bat_instance(min_up=3, min_down=1)
    model = assemble(inst, flat_loads(inst, 4))
    good = {("y_d", "g1", 1): 1.0}
    for t in (1, 2, 3):
        good[("x_d", "g1", t)] = 1.0
    x = make_x(model, good)
    for t in range(4):
        i = the_row(model, "min_up", "g1", t)
        assert row_value(model, i, x) <= model.row_hi[i] + 1e-15
    x[model.col("x_d", "g1", 3)] = 0.0   # quit two steps after starting
    i = the_row(model, "min_up", "g1", 3)
    assert row_value(model, i, x) == pytest.approx(1.0)
    assert model.row_hi[i] == 0.0


def test_delivered_power_ratio():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 1))
    i = the_row(model, "delivered", "g1", 0)
    x = make_x(model, {("phat_d", "g1", 0): 2.0, ("p_d", "g1", 0): 1.0})
    assert row_value(model, i, x) == pytest.approx(0.0, abs=1e-15)
    x[model.col("p_d", "g1", 0)] = 1.2
    assert row_value(model, i, x) != 0.0


def test_ramp_rows_use_boundary_power():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 8)
    slots = coupling_slots(inst)
    boundary = np.zeros(len(slots))
    k = next(i for i, s in enumerate(slots) if s.kind == "p")
    boundary[k] = 0.4
    model = assemble(inst, loads, window=(2, 6), boundary=boundary,
                     own_builds=False)
    i = the_row(model, "ramp_up", "g1", 2)
    j_imp = model.col(INIT_KINDS["p"], "g1", 1)
    assert model.row_coefs[i] == {model.col("p_d", "g1", 2): 1.0, j_imp: -1.0}
    assert model.row_hi[i] == 0.5
    pin = model.coupling.init_pin_rows[k]
    assert model.row_coefs[pin] == {j_imp: 1.0}
    assert model.row_lo[pin] == model.row_hi[pin] == 0.4


def test_commitment_history_crosses_window_start():
    inst = gen_bat_instance(min_up=2, min_down=2)
    loads = flat_loads(inst, 8)
    model = assemble(inst, loads, window=(2, 6), own_builds=False)
    i = the_row(model, "min_up", "g1", 2)
    assert model.row_coefs[i] == {
        model.col("y_d", "g1", 2): 1.0,
        model.col(INIT_KINDS["y"], "g1", 1): 1.0,
        model.col("x_d", "g1", 2): -1.0,
    }
    i = the_row(model, "min_down", "g1", 2)
    assert model.row_coefs[i] == {
        model.col("w_d", "g1", 2): 1.0,
        model.col(INIT_KINDS["w"], "g1", 1): 1.0,
        model.col("x_d", "g1", 2): 1.0,
    }


# ---------------------------------------------------------------------------
# battery rows


def test_soc_recursion_value():
    buses = (Bus("b1", 0.81, 1.21, max_batteries=1),)
    bats = (BatterySpec("bat1", "b1", 100.0, 300.0, 1.0, 6.0, 0.8, 0.7,
                        initial_soc=5.0, p_min=-1.0, p_max=1.0),)
    inst = NetworkInstance(buses, (), bats, (), shed_penalty=1e7, dt=0.25,
                           slack_bus="b1", name="deep")
    model = assemble(inst, flat_loads(inst, 1))
    i = the_row(model, "soc_step", "bat1", 0)
    x = make_x(model, {(INIT_KINDS["sc"], "bat1", -1): 5.0,
                       ("phat_b", "bat1", 0): 2.0,
                       ("sc_b", "bat1", 0): 4.5})
    assert row_value(model, i, x) == pytest.approx(0.0, abs=1e-15)
    x[model.col("sc_b", "bat1", 0)] = 4.6
    assert row_value(model, i, x) != 0.0
    # the start pin carries the stored charge into the window
    k = next(i for i, s in enumerate(coupling_slots(inst)) if s.kind == "sc")
    pin = model.coupling.init_pin_rows[k]
    assert model.row_lo[pin] == model.row_hi[pin] == 5.0


def test_efficiency_envelope_membership():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 1))
    i_dis = the_row(model, "eff_dis", "bat1", 0)
    i_ch = the_row(model, "eff_ch", "bat1", 0)

    def inside(phat, p):
        x = make_x(model, {("phat_b", "bat1", 0): phat, ("p_b", "bat1", 0): p})
        return (row_value(model, i_dis, x) <= model.row_hi[i_dis] + 1e-12
                and row_value(model, i_ch, x) <= model.row_hi[i_ch] + 1e-12)

    assert inside(1.0, 0.7)        # on the discharge curve
    assert not inside(1.0, 0.9)    # claims more output than the curve allows
    assert inside(-1.0, -1.25)     # on the charge curve


def test_relaxed_envelope_contains_both_regimes():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 1))
    i_dis = the_row(model, "eff_dis", "bat1", 0)
    i_ch = the_row(model, "eff_ch", "bat1", 0)
    i_soc = the_row(model, "soc_if_built", "bat1", 0)
    cone = model.cones[cone_labels(model).index(("bat_rating", "bat1", 0))]
    rng = np.random.default_rng(7)
    for _ in range(200):
        if rng.random() < 0.5:
            phat = rng.uniform(0.0, 1.4)
            p = 0.7 * phat
        else:
            phat = rng.uniform(-0.8, 0.0)
            p = phat / 0.8
        x = make_x(model, {("phat_b", "bat1", 0): phat,
                           ("p_b", "bat1", 0): p,
                           ("s_b", "bat1", None): 1.0,
                           ("z_b", "bat1", None): 1.0,
                           ("sc_b", "bat1", 0): rng.uniform(0.0, 2.0)})
        assert row_value(model, i_dis, x) <= 1e-12
        assert row_value(model, i_ch, x) <= 1e-12
        assert row_value(model, i_soc, x) <= 1e-12
        rad = x[cone.radius_col]
        assert np.hypot(*[x[j] for j in cone.cols]) <= rad + 1e-12


# ---------------------------------------------------------------------------
# boundary state and terminal prices


def test_boundary_slot_layout():
    inst = gen_bat_instance(min_up=2, min_down=3)
    slots = coupling_slots(inst)
    kinds = [(s.kind, s.hist) for s in slots]
    assert kinds == [("sc", 0), ("x", 0), ("p", 0),
                     ("y", 1), ("w", 1), ("y", 2), ("w", 2), ("y", 3), ("w", 3),
                     ("z_b", 0), ("s_b", 0), ("z_d", 0)]
    start = horizon_start_boundary(inst)
    assert start[0] == 1.0                 # stored charge enters as-is
    assert np.all(start[1:] == 0.0)        # cold and unbuilt otherwise


def test_boundary_pins_fix_import_columns():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 8)
    slots = coupling_slots(inst)
    boundary = np.arange(1.0, len(slots) + 1.0) / 10.0
    model = assemble(inst, loads, window=(2, 6), boundary=boundary,
                     own_builds=False)
    assert all(r is not None for r in model.coupling.init_pin_rows)
    for k, slot in enumerate(slots):
        pin = model.coupling.init_pin_rows[k]
        assert model.row_lo[pin] == model.row_hi[pin] == boundary[k]
        (j, coef), = model.row_coefs[pin].items()
        assert coef == 1.0
        assert model.describe_col(j)[0] == INIT_KINDS[slot.kind]
    owned = assemble(inst, loads, window=(0, 4))
    unpinned = [slots[k].kind for k, r in
                enumerate(owned.coupling.init_pin_rows) if r is None]
    assert sorted(unpinned) == ["s_b", "z_b", "z_d"]


def test_boundary_length_checked():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    with pytest.raises(FormulationError):
        assemble(inst, loads, boundary=np.zeros(3))
    with pytest.raises(FormulationError):
        assemble(inst, loads, duals_in=np.zeros(2))


def test_zero_terminal_prices_change_nothing():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    plain = assemble(inst, loads)
    priced = assemble(inst, loads, duals_in=np.zeros(len(coupling_slots(inst))))
    assert np.array_equal(plain.q, priced.q)
    assert np.array_equal(plain.p_diag, priced.p_diag)


def test_terminal_price_moves_final_charge():
    inst = bat_only_instance()
    loads = flat_loads(inst, 4, p=0.1, q=0.03)
    slots = coupling_slots(inst)
    k = next(i for i, s in enumerate(slots) if s.kind == "sc")

    def terminal_soc(gamma):
        duals = np.zeros(len(slots))
        duals[k] = gamma
        model = relax_integrality(assemble(inst, loads, duals_in=duals))
        status, _, x = cvx_solve(model.to_convex())
        assert status == "optimal"
        return x[model.col("sc_b", "bat1", 3)]

    # holding a unit of charge needs z >= sc/max_energy, which costs
    # fixed_cost/max_energy = 50 per unit held; the reward must beat that
    keep = terminal_soc(-200.0)
    dump = terminal_soc(+10.0)
    # serving 0.1 for one hour drains 0.1/0.7 of stored charge, waste
    # is never optimal while holding pays
    assert keep == pytest.approx(1.0 - 0.1 / 0.7, abs=1e-5)
    assert dump <= 1e-5
    assert dump <= keep - 0.25


# ---------------------------------------------------------------------------
# relax and fix


def test_relaxation_keeps_unit_bounds_and_is_idempotent():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 3))
    relaxed = relax_integrality(model)
    assert not relaxed.binaries
    for j in model.binaries:
        assert relaxed.lb[j] == 0.0 and relaxed.ub[j] == 1.0
    again = relax_integrality(relaxed)
    assert again is relaxed


def test_fix_binaries_error_paths():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 2))
    values = {j: 0.0 for j in model.binaries}
    victim = model.col("x_d", "g1", 1)
    with pytest.raises(FormulationError, match="x_d"):
        short = dict(values)
        del short[victim]
        fix_binaries(model, short)
    with pytest.raises(FormulationError, match="non-binary"):
        frac = dict(values)
        frac[victim] = 0.5
        fix_binaries(model, frac)


def test_fix_then_relax_is_noop():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 2))
    fixed = fix_binaries(model, {j: 0.0 for j in model.binaries})
    assert not fixed.binaries
    assert relax_integrality(fixed) is fixed


def test_no_builds_sheds_all_load():
    inst = gen_bat_instance(initial_soc=0.0)
    loads = flat_loads(inst, 3, p=0.2, q=0.06)
    model = assemble(inst, loads)
    fixed = fix_binaries(model, {j: 0.0 for j in model.binaries})
    x = np.zeros(fixed.n)
    for t in range(3):
        x[fixed.col("v", "b1", t)] = 1.0
        x[fixed.col("v", "b2", t)] = 1.0
        x[fixed.col("shed_p", "b2", t)] = 0.2
        x[fixed.col("shed_q", "b2", t)] = 0.06
    assert feas_error(fixed, x) <= 1e-12
    want = 1e7 * (loads.p.sum() + loads.q.sum())
    assert fixed.objective_value(x) == pytest.approx(want, rel=1e-12)
    status, value, _ = cvx_solve(fixed.to_convex())
    assert status == "optimal"
    assert value == pytest.approx(want, rel=1e-7)


def test_enumerated_incumbent_reproduced_by_fixing():
    buses = (Bus("b1", 0.81, 1.21, max_batteries=1, max_generators=1),)
    bats = (BatterySpec("bat1", "b1", 100.0, 300.0, 1.0, 1.0, 0.8, 0.7,
                        initial_soc=0.5, p_min=-1.0, p_max=1.0,
                        q_min=-1.0, q_max=1.0),)
    gens = (GeneratorSpec("g1", "b1", 200.0, (6.0, 35.0, 50.0), 1, 1,
                          10.0, 10.0, 0.5, 0.1, 1.5, q_min=-1.0, q_max=1.0),)
    inst = NetworkInstance(buses, (), bats, gens, shed_penalty=1e7, dt=0.25,
                           slack_bus="b1", name="studio")
    loads = flat_loads(inst, 1, p=0.4, q=0.1)
    model = assemble(inst, loads)
    cols = sorted(model.binaries)
    assert len(cols) == 5
    prog = relax_integrality(model).to_convex()

    # oracle: every assignment solved with the binaries pinned by
    # explicit equality constraints, never touching fix_binaries
    oracle = {}
    for bits in itertools.product((0.0, 1.0), repeat=len(cols)):
        status, value, _ = cvx_solve(prog, pins=list(zip(cols, bits)))
        oracle[bits] = value if status == "optimal" else None
    feasible = {b: v for b, v in oracle.items() if v is not None}
    assert feasible
    best_bits, best_value = min(feasible.items(), key=lambda kv: kv[1])
    assert best_value < 1e6          # some assignment serves the load

    for bits, want in oracle.items():
        fixed = fix_binaries(model, dict(zip(cols, bits)))
        status, value, _ = cvx_solve(fixed.to_convex())
        if want is None:
            assert status != "optimal", bits
        else:
            assert status == "optimal", bits
            assert value == pytest.approx(want, rel=1e-6, abs=1e-5), bits
    fixed = fix_binaries(model, dict(zip(cols, best_bits)))
    _, value, _ = cvx_solve(fixed.to_convex())
    assert value == pytest.approx(best_value, rel=1e-7, abs=1e-6)


# ---------------------------------------------------------------------------
# plans, costing, physics check, dump


def test_extracted_plan_mirrors_solution_vector():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 3))
    x = np.arange(model.n, dtype=float) / 1000.0
    plan = extract_plan(model, x)
    assert plan.start == 0 and plan.horizon == 3 and plan.dt == 0.25
    assert plan.builds[("z_d", "g1")] == x[model.col("z_d", "g1")]
    assert plan.value("sc_b", "bat1", 2) == x[model.col("sc_b", "bat1", 2)]
    assert plan.value("v", "b1", 0) == x[model.col("v", "b1", 0)]


# on a failure Hypothesis's pytest plugin imports libcst, which warns
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=40)
@given(cuts=st.sets(st.integers(1, 5)), seed=st.integers(0, 2 ** 32 - 1))
def test_keys_and_plans_agree_with_col_on_any_partition(cuts, seed):
    # some windows are shorter than the three-step start history, so
    # their import keys repeat those of the window before
    inst = gen_bat_instance(min_up=3, min_down=2)
    bounds = [0, *sorted(cuts), 6]
    model = build_seamed(inst, flat_loads(inst, 6),
                         list(zip(bounds, bounds[1:]))).model
    keys = col_keys(model)
    latest = dict(zip(keys, range(model.n)))
    assert {key: model.col(*key) for key in latest} == latest
    x = np.random.default_rng(seed).standard_normal(model.n)
    plan = extract_plan(model, x)
    assert len(plan.series) == len(model.layout.step_kinds)
    for (kind, owner), arr in plan.series.items():
        cols = [model.col(kind, owner, t) for t in range(6)]
        assert np.array_equal(arr, x[cols]), (kind, owner)
        assert not np.shares_memory(arr, x)
    assert set(plan.builds) == {(kind, owner) for kind, owner, t in keys
                                if t is None}
    for (kind, owner), value in plan.builds.items():
        assert value == x[model.col(kind, owner)]


def test_plan_costs_equal_objective_value():
    inst = gen_bat_instance(base_mva=2.0)
    model = assemble(inst, flat_loads(inst, 4))
    rng = np.random.default_rng(3)
    lo = np.where(np.isfinite(model.lb), model.lb, -1.0)
    hi = np.where(np.isfinite(model.ub), model.ub, 1.0)
    x = rng.uniform(lo, hi)
    costs = plan_costs(inst, extract_plan(model, x))
    assert costs.total == pytest.approx(model.objective_value(x), rel=1e-12)
    assert costs.generation.shape == (4,)


def test_checker_flags_soc_jump():
    inst = gen_bat_instance(initial_soc=0.0)
    loads = flat_loads(inst, 3, p=0.0, q=0.0)
    model = assemble(inst, loads)
    x = np.zeros(model.n)
    for t in range(3):
        x[model.col("v", "b1", t)] = 1.0
        x[model.col("v", "b2", t)] = 1.0
    plan = extract_plan(model, x)
    plan.series[("sc_b", "bat1")][1] += 1e-3
    report = check_feasibility(inst, loads, plan)
    assert not report.ok
    fams = {v[0] for v in report.violations}
    assert "soc_step" in fams
    assert report.max_violation == pytest.approx(1e-3, rel=1e-6)


def test_checker_flags_battery_power_outside_its_limits():
    # p_max and q_max below max_power: the rating ball alone does not hold
    # the battery to its power limits
    buses = (Bus("b1", 0.81, 1.21, max_batteries=1),)
    bats = (BatterySpec("bat1", "b1", 100.0, 300.0, 1.0, 2.0, 0.8, 0.7,
                        initial_soc=1.0, p_min=-0.6, p_max=0.5,
                        q_min=-0.4, q_max=0.3),)
    inst = NetworkInstance(buses, (), bats, (), shed_penalty=1e7, dt=0.25,
                           slack_bus="b1", name="limited")
    loads = flat_loads(inst, 2, p=0.0, q=0.0)
    model = assemble(inst, loads)
    x = make_x(model, {("z_b", "bat1", None): 1.0, ("s_b", "bat1", None): 1.0,
                       ("sc_b", "bat1", 0): 1.0, ("sc_b", "bat1", 1): 1.0,
                       ("v", "b1", 0): 1.0, ("v", "b1", 1): 1.0})
    plan = extract_plan(model, x)
    assert check_feasibility(inst, loads, plan).ok
    plan.series[("p_b", "bat1")][0] = 0.8
    plan.series[("q_b", "bat1")][1] = -0.5
    got = {v[0]: v[3] for v in check_feasibility(inst, loads, plan).violations}
    assert got["p_range"] == pytest.approx(0.3)
    assert got["q_range"] == pytest.approx(0.1)
    assert "bat_rating" not in got


def test_checker_accepts_solver_plan():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    model = relax_integrality(assemble(inst, loads))
    status, value, x = cvx_solve(model.to_convex())
    assert status == "optimal"
    plan = extract_plan(model, x)
    report = check_feasibility(inst, loads, plan, tol=1e-6)
    assert report.ok, report.worst(3)
    costs = plan_costs(inst, plan)
    assert costs.total == pytest.approx(value, rel=1e-6)


def test_load_profile_must_follow_the_bus_order():
    # load column j is read as bus j of the instance
    inst = gen_bat_instance()
    loads = flat_loads(inst, 2)
    model = assemble(inst, loads)
    plan = extract_plan(model, np.zeros(model.n))
    for ids in (("b2", "b1"), ("x", "y")):
        bad = replace(loads, bus_ids=ids)
        message = re.escape(f"{ids} are not the instance's buses "
                            "('b1', 'b2') in order")
        for call in (lambda: assemble(inst, bad),
                     lambda: build_seamed(inst, bad, [(0, 1), (1, 2)]),
                     lambda: check_feasibility(inst, bad, plan)):
            with pytest.raises(FormulationError, match=message):
                call()


def test_dump_parses_back_to_same_model(tmp_path):
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 2))
    path = dump_model(model, tmp_path / "model.txt")
    ncols, const, cols, rows, cones = parse_dump(path.read_text())
    assert ncols == model.n
    assert const == model.const
    for j in range(model.n):
        lb, ub, lin, quad, binary = cols[j]
        assert (lb, ub) == (model.lb[j], model.ub[j])
        assert lin == model.q[j] and quad == model.p_diag[j]
        assert binary == (j in model.binaries)
    want = []
    for coefs, lo, hi in zip(model.row_coefs, model.row_lo, model.row_hi):
        body = tuple(sorted((j, float(v)) for j, v in coefs.items()))
        if lo == hi:
            want.append(("==", float(lo), body))
        else:
            if np.isfinite(hi):
                want.append(("<=", float(hi), body))
            if np.isfinite(lo):
                want.append((">=", float(lo), body))
    assert sorted(map(repr, rows)) == sorted(map(repr, want))
    assert len(cones) == len(model.cones)
    for got, cone in zip(cones, model.cones):
        assert got == (cone.radius if cone.radius_col is None else 0.0,
                       cone.radius_col, tuple(cone.cols))


# ---------------------------------------------------------------------------
# seam-joined multi-window models


def test_single_window_seam_equals_monolith(tmp_path):
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    mono = assemble(inst, loads)
    seamed = build_seamed(inst, loads, [(0, 4)])
    assert seamed.seam_rows == ()
    a = dump_model(mono, tmp_path / "a.txt").read_text()
    b = dump_model(seamed.model, tmp_path / "b.txt").read_text()
    assert a == b


def test_seam_rows_tie_adjacent_windows():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    seamed = build_seamed(inst, loads, [(0, 2), (2, 4)])
    slots = coupling_slots(inst)
    assert len(seamed.seam_rows) == 1
    assert len(seamed.seam_rows[0]) == len(slots)
    model = seamed.model
    k = next(i for i, s in enumerate(slots) if s.kind == "p")
    i = seamed.seam_rows[0][k]
    assert model.describe_row(i) == ("seam", 1, "p", "g1", 0)
    assert model.row_lo[i] == model.row_hi[i] == 0.0
    coefs = model.row_coefs[i]
    assert sorted(coefs.values()) == [-1.0, 1.0]
    j_out = next(j for j, c in coefs.items() if c == -1.0)
    j_in = next(j for j, c in coefs.items() if c == 1.0)
    assert model.describe_col(j_out)[0] == "p_d"
    assert model.describe_col(j_out)[2] == 1    # last step of the first window
    assert model.describe_col(j_in)[0] == INIT_KINDS["p"]


def test_every_seam_row_ties_a_window_to_its_predecessor():
    # one-step windows are shorter than the commitment history, so the
    # start and stop history passes through the seams; every seam row
    # still holds +1 on window s and -1 on window s-1
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    windows = [(0, 1), (1, 2), (2, 3), (3, 4)]
    seamed = build_seamed(inst, loads, windows)
    sizes = [assemble(inst, loads, window=w, own_builds=(s == 0)).n
             for s, w in enumerate(windows)]
    starts = np.cumsum([0] + sizes)
    assert starts[-1] == seamed.model.n
    for s, rows in enumerate(seamed.seam_rows, start=1):
        for i in rows:
            coefs = seamed.model.row_coefs[i]
            owners = {int(np.searchsorted(starts, j, side="right")) - 1: c
                      for j, c in coefs.items()}
            assert len(coefs) == 2, seamed.model.describe_row(i)
            assert owners == {s: 1.0, s - 1: -1.0}, seamed.model.describe_row(i)


def test_seamed_relaxation_matches_monolith_optimum():
    for inst, windows in [
        (gen_bat_instance(), [(0, 2), (2, 4)]),
        # windows shorter than the commitment memory force the start and
        # stop history to pass through the seams untouched
        (gen_bat_instance(min_up=3, min_down=2),
         [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ]:
        loads = flat_loads(inst, 4)
        mono = relax_integrality(assemble(inst, loads))
        seamed = build_seamed(inst, loads, windows)
        joined = relax_integrality(seamed.model)
        s1, v1, _ = cvx_solve(mono.to_convex())
        s2, v2, _ = cvx_solve(joined.to_convex())
        assert s1 == s2 == "optimal"
        assert v2 == pytest.approx(v1, rel=1e-6, abs=1e-4)


def test_windows_must_partition_and_cover():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    with pytest.raises(FormulationError):
        build_seamed(inst, loads, [(0, 2), (3, 4)])
    with pytest.raises(FormulationError):
        build_seamed(inst, loads, [(1, 4)])
    with pytest.raises(FormulationError):
        assemble(inst, loads, window=(0, 9))
    # windows that stop short of the load horizon, and no windows at all
    with pytest.raises(FormulationError, match="load horizon 6"):
        build_seamed(inst, flat_loads(inst, 6), [(0, 2), (2, 4)])
    with pytest.raises(FormulationError):
        build_seamed(inst, loads, [])


def triplet_matrix(model):
    """The constraint matrix from `row_coefs`, one entry at a time."""
    rows, cols, vals = [], [], []
    for i, coefs in enumerate(model.row_coefs):
        for j, v in coefs.items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(model.row_coefs), model.n)).toarray()


@pytest.mark.parametrize("case", [five_bus_case, one_step_case,
                                  shared_bus_case, shared_bus_one_step_case])
def test_seamed_blocks_equal_stage_models(case):
    inst, loads, windows = case()
    seamed = build_seamed(inst, loads, windows)
    joined = seamed.model
    col_off = row_off = cone_off = 0
    index = {}
    for s, w in enumerate(windows):
        stage = assemble(inst, loads, window=w, own_builds=(s == 0))
        # window 0 keeps its horizon-start pins; later windows drop theirs,
        # which come last in the stage model
        pins = sum(i is not None for i in stage.coupling.init_pin_rows)
        m = len(stage.row_coefs) - (0 if s == 0 else pins)
        cols = slice(col_off, col_off + stage.n)
        assert [joined.describe_col(j) for j in range(joined.n)[cols]] \
            == col_keys(stage)
        for name in ("lb", "ub", "q", "p_diag"):
            assert np.array_equal(getattr(joined, name)[cols],
                                  getattr(stage, name)), (s, name)
        assert {j - col_off for j in joined.binaries
                if col_off <= j < col_off + stage.n} == stage.binaries
        for i in range(m):
            assert [(j - col_off, v) for j, v in
                    joined.row_coefs[row_off + i].items()] \
                == list(stage.row_coefs[i].items()), (s, i)
            assert joined.describe_row(row_off + i) == stage.describe_row(i)
            assert joined.row_lo[row_off + i] == stage.row_lo[i]
            assert joined.row_hi[row_off + i] == stage.row_hi[i]
        for k, cone in enumerate(stage.cones):
            got = joined.cones[cone_off + k]
            assert tuple(j - col_off for j in got.cols) == cone.cols
            assert got.radius == cone.radius
            assert (None if got.radius_col is None
                    else got.radius_col - col_off) == cone.radius_col
            assert joined.describe_cone(cone_off + k) \
                == stage.describe_cone(k)
        for j, key in enumerate(col_keys(stage)):
            index[key] = j + col_off
        col_off += stage.n
        row_off += m
        cone_off += len(stage.cones)
    # the blocks tile the model, and the seam rows follow them
    assert col_off == joined.n and cone_off == len(joined.cones)
    seam = [i for rows in seamed.seam_rows for i in rows]
    assert seam == list(range(row_off, len(joined.row_coefs)))
    # a key repeated across windows resolves to the latest window
    assert {key: joined.col(*key) for key in index} == index
    assert np.array_equal(joined.to_convex().a.toarray(),
                          triplet_matrix(joined))


def layout_digest(model):
    """SHA-256 over a model's program arrays and its layout metadata.
    Index arrays are hashed as int64 and the matrix in sorted CSR form,
    so the digest does not depend on the platform or on entry order."""
    prog = model.to_convex()
    a = prog.a.tocsr(copy=True)
    a.sort_indices()
    h = hashlib.sha256()
    for arr in (a.indptr, a.indices):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    for arr in (a.data, prog.l, prog.u, prog.lb, prog.ub, prog.q, prog.p_diag):
        h.update(np.asarray(arr, dtype=np.float64).tobytes())
    h.update(repr([(tuple(int(j) for j in c.cols), float(c.radius),
                    None if c.radius_col is None else int(c.radius_col))
                   for c in prog.cones]).encode())
    h.update(repr(row_labels(model)).encode())
    keys = col_keys(model)
    h.update(repr([(*key, j) for j, key in enumerate(keys)]).encode())
    # each key in first-seen order, at its latest column
    h.update(repr(list(dict(zip(keys, range(model.n))).items())).encode())
    h.update(repr(sorted(model.binaries)).encode())
    h.update(repr(model.coupling).encode())
    return h.hexdigest()


def test_layout_digests_are_pinned():
    # an intended layout change updates these and says so in CHANGES.md
    pair = gen_bat_instance()
    models = {"pair": assemble(pair, flat_loads(pair, 4))}
    for name, case in (("five", five_bus_case),
                       ("five-grid", lambda: five_bus_case(grid=True)),
                       ("one-step", one_step_case)):
        models[name] = build_seamed(*case()).model
    assert {name: layout_digest(m) for name, m in models.items()} == {
        "pair": "537f5f72c054fc630b78452abdbd6efb"
                "973102adf4fff37277e7aa553f4e61a7",
        "five": "0b58ff326e88180c43520c2d6e3ca3c6"
                "ff25d2b1b4c76328aed871d75f570d36",
        "five-grid": "4a5bb4e8049046663175327cba42ca38"
                     "ca2e4e401ff612527e5e074fbc777372",
        "one-step": "7fd809afaa9860e90d80698b5e55d3d1"
                    "b9d569046b5df6e032cb475e9dc50d43",
    }


def later_stage_model():
    """The last stage of the five-bus case: imported builds, a pinned
    boundary and priced terminal state."""
    inst, loads, windows = five_bus_case()
    k = len(coupling_slots(inst))
    return assemble(inst, loads, window=windows[-1],
                    boundary=np.linspace(0.05, 0.6, k),
                    duals_in=np.linspace(-2.0, 3.0, k), own_builds=False)


def shared_bus_one_step_cases():
    """`shared_bus_case` sewn over five 1-step windows, so the start/stop
    histories (depths 3 and 2) pass through several windows, and its
    middle 1-step stage with imported builds and a pinned boundary."""
    inst, loads, windows = shared_bus_one_step_case()
    k = len(coupling_slots(inst))
    sewn = build_seamed(inst, loads, windows).model
    stage = assemble(inst, loads, window=(2, 3),
                     boundary=np.linspace(0.05, 0.6, k), own_builds=False)
    return sewn, stage


def pinned_models():
    pair = gen_bat_instance()
    models = {"pair": assemble(pair, flat_loads(pair, 4))}
    for name, case in (("five", five_bus_case),
                       ("five-grid", lambda: five_bus_case(grid=True)),
                       ("one-step", one_step_case),
                       ("shared-bus", shared_bus_case)):
        models[name] = build_seamed(*case()).model
    models["later-stage"] = later_stage_model()
    models["shared-bus-1-step"], models["shared-bus-stage"] = \
        shared_bus_one_step_cases()
    return models


def pinned_digests():
    return {name: layout_digest(m) for name, m in pinned_models().items()}


# digests taken before the builder wrote array blocks; the four
# models of test_layout_digests_are_pinned are pinned there
PINNED_LAYOUTS = {
    "shared-bus": "26c8e37c33f2bcba08e67f7d2b7887d5"
                  "a7d4e3d522caf57b0a2c359ff6f16be7",
    "later-stage": "9ca2ea3e5efbd7a56e4ceda3d1ed1949"
                   "f9e1c1e17926c270abd82e2c81b30a40",
    # taken before each window's families were read from one term table
    "shared-bus-1-step": "d60946666b323da53fe023459dc45654"
                         "e3c608071e01048c1753b555140f1eca",
    "shared-bus-stage": "e0e31a7954b279895746f99b8be5458a"
                        "733bb3b9d3269e1e578e164cd933a7d5",
}


def test_more_layout_digests_are_pinned():
    models = pinned_models()
    assert {name: layout_digest(models[name]) for name in PINNED_LAYOUTS} \
        == PINNED_LAYOUTS


def test_digests_do_not_depend_on_the_hash_seed():
    # a builder that walks a set, or a np.unique over strings, would give
    # one layout under a fixed hash seed and another under the next
    probe = "import json, test_formulation as t; print(json.dumps(t.pinned_digests()))"
    path = os.pathsep.join([str(Path(__file__).parent),
                            str(Path(microplan.__file__).parents[1])])
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=env)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    here = json.loads(json.dumps(pinned_digests()))
    assert runs[0] == runs[1] == here


def test_duplicate_column_rejected():
    # two lines under one id would share their flow columns
    buses = (Bus("b1", 0.81, 1.21), Bus("b2", 0.81, 1.21),
             Bus("b3", 0.81, 1.21))
    lines = (Line("l1", "b1", "b2", 0.01, 0.02, 2.0),
             Line("l1", "b2", "b3", 0.01, 0.02, 2.0))
    inst = NetworkInstance(buses, lines, (), (), shed_penalty=1e7, dt=0.25)
    with pytest.raises(FormulationError,
                       match=r"duplicate column \('p_line', 'l1', 0\)"):
        assemble(inst, flat_loads(inst, 2))


def test_to_convex_shares_the_model_matrix():
    # the model's constraint matrix is the engine's, not a copy of it
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 3))
    prog = model.to_convex()
    assert prog.a is model.a
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(prog.a, name),
                                getattr(model.a, name)), name
    # row_coefs reads each row back from that matrix
    rows = model.row_coefs
    assert len(rows) == prog.m
    dense = prog.a.toarray()
    i = the_row(model, "soc_step", "bat1", 1)
    assert rows[i] == {j: dense[i, j] for j in np.flatnonzero(dense[i])}
    assert rows[-1] == rows[len(rows) - 1]
    with pytest.raises(IndexError):
        rows[len(rows)]


def coo_matrix_of(a):
    """The CSR matrix that a (row, column, coefficient) construction
    makes of `a`'s entries, given in shuffled order: sorted by row, then
    by column, with repeated positions summed."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    order = np.random.default_rng(0).permutation(a.nnz)
    return sp.csr_matrix((a.data[order], (rows[order], a.indices[order])),
                         shape=a.shape)


def assert_canonical_csr(model):
    """`model.a` is the matrix a COO construction of its entries makes,
    down to the index types, and the engine takes it as it is."""
    a, want = model.a, coo_matrix_of(model.a)
    assert type(a) is sp.csr_matrix and a.has_canonical_format
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(a, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert model.to_convex().a is a


def test_matrix_is_written_in_csr_order():
    # every kind of model: full, seam-joined, stages with and without
    # builds, pinned and priced; their entries are pinned by the digests
    for model in pinned_models().values():
        assert_canonical_csr(model)


def test_matrix_with_64_bit_indices(monkeypatch):
    # a model too large for 32-bit indices writes the same matrix with
    # 64-bit index arithmetic
    built = pinned_models()
    monkeypatch.setattr(formulation, "_INT32_MAX", 0)
    inst = gen_bat_instance()
    assert ModelBuilder(inst, flat_loads(inst, 4), [(0, 4)]).indices.dtype \
        == np.int64
    for name, model in pinned_models().items():
        want = built[name].a
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(model.a, key), getattr(want, key)), \
                (name, key)


def feeder_models(seed):
    """The benchmark feeder's full, seam-joined and stage models, a stage
    with its own builds, one pinned at a boundary and one priced."""
    from workloads import feeder_instance, feeder_loads
    inst = feeder_instance(seed)
    loads = feeder_loads(inst, seed)
    windows = partition(96, 8).windows
    k = len(coupling_slots(inst))
    return {
        "full": assemble(inst, loads),
        "seamed": build_seamed(inst, loads, windows).model,
        "stage": assemble(inst, loads, window=windows[0]),
        "pinned": assemble(inst, loads, window=windows[3], own_builds=False,
                           boundary=np.linspace(0.0, 0.5, k)),
        "priced": assemble(inst, loads, window=windows[5], own_builds=False,
                           duals_in=np.linspace(-2.0, 3.0, k)),
    }


def matrix_digest(a):
    h = hashlib.sha256()
    for arr in (a.indptr, a.indices):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    h.update(np.asarray(a.data, dtype=np.float64).tobytes())
    return h.hexdigest()[:32]


# the constraint matrices of the builder that made them from (row,
# column, coefficient) entries by one COO-to-CSR construction; a pinned
# and a priced stage share theirs
FEEDER_MATRICES = {
    0: {"full": "28bd427c90ab826719fac928744172cc",
        "seamed": "e975aa9234575db289f9ab07c730040c",
        "stage": "1b92eff7a528c50dfa8a5ee52ad00b78",
        "pinned": "e1b4daf62e38fb54732f301ec999a8c6",
        "priced": "e1b4daf62e38fb54732f301ec999a8c6"},
    1: {"full": "998eba1dc86e7c1d796d2f422d68ef65",
        "seamed": "ca6c594eb523418bf62f2e79c05b3078",
        "stage": "9c27f33f5dcf3e2f661895b8103b0809",
        "pinned": "02f3805c7603da352f7ca6678a47e6d1",
        "priced": "02f3805c7603da352f7ca6678a47e6d1"},
    2: {"full": "20e8f8c781b8a0130eed3cfc0a50ddd1",
        "seamed": "39b7d132bffb522a5dfa9336068492f3",
        "stage": "75cd31ca0a9c2873fbdd00429f7ccf4f",
        "pinned": "fcb9418bfa515bb8343e7e9f650bd3df",
        "priced": "fcb9418bfa515bb8343e7e9f650bd3df"},
}


@pytest.mark.parametrize("seed", sorted(FEEDER_MATRICES))
def test_feeder_matrices_equal_the_coo_construction(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    models = feeder_models(seed)
    assert {kind: matrix_digest(m.a) for kind, m in models.items()} \
        == FEEDER_MATRICES[seed]
    for model in models.values():
        assert_canonical_csr(model)


# the slot kind of the state each step column kind carries
STATE_OF = {"sc_b": "sc", "x_d": "x", "p_d": "p", "y_d": "y", "w_d": "w"}


def term_col(model, kind, owner, lag, t):
    """The column a term of `kind`, `owner` and `lag` reads at time `t`
    (None for a row once) of a single-window model, found by key: a
    build decision at the window's own or imported build column, a step
    column at ``t - lag``, or, before the window start, the column
    importing that step's state."""
    (_, start, _, owned), = model.col_blocks
    if kind in BUILD_KINDS:
        return model.col(kind, owner) if owned \
            else model.col(INIT_KINDS[kind], owner, start)
    if t - lag >= start:
        return model.col(kind, owner, t - lag)
    return model.col(INIT_KINDS[STATE_OF[kind]], owner, t - lag)


def assert_rows_follow_their_specs(model, loads):
    """Every labelled row of a single-window model holds its family's
    terms at their columns and its family's bounds, balance rows bounded
    by the loads; every ball holds its two columns and its radius or
    radius column; and each family has a row (ball) at every step."""
    lay = model.layout
    inst = lay.instance
    network, _ = lay._network()
    families = [f for groups in (network, lay._resource_limits(),
                                 [lay._commitment(d)
                                  for d in inst.generator_specs],
                                 [lay._storage(b) for b in inst.battery_specs])
                for group in groups for f in group]
    specs = {(name, owner): (terms, lo, hi)
             for name, owner, terms, lo, hi in families}
    start, end = model.window
    bus = {b.id: j for j, b in enumerate(inst.buses)}
    seen = set()
    for i, label in enumerate(row_labels(model)):
        if label[0] == "couple":
            continue
        name, owner, t = label
        seen.add(label)
        terms, lo, hi = specs[(name, owner)]
        want = {term_col(model, kind, o, lag, t): coef
                for kind, o, lag, coef in terms}
        assert len(want) == len(terms), label
        assert model.row_coefs[i] == want, label
        if name in ("balance_p", "balance_q"):
            lo = hi = (loads.p if name == "balance_p" else loads.q)[t,
                                                                   bus[owner]]
        assert (model.row_lo[i], model.row_hi[i]) == (lo, hi), label
    once = {"bat_count", "gen_count", "cap_if_built"}
    assert seen == {(name, owner, None if name in once else t)
                    for name, owner in specs for t in range(start, end)}

    balls = {("thermal", line.id): ("p_line", "q_line", line.s_max, None)
             for line in inst.lines}
    balls.update({("bat_rating", b.id): ("p_b", "q_b", 0.0, "s_b")
                  for b in inst.battery_specs})
    seen = set()
    for k, (name, owner, t) in enumerate(cone_labels(model)):
        seen.add((name, owner, t))
        p, q, radius, radius_kind = balls[(name, owner)]
        cone = model.cones[k]
        assert cone.cols == (model.col(p, owner, t), model.col(q, owner, t))
        assert cone.radius == radius
        assert cone.radius_col == (None if radius_kind is None else
                                   term_col(model, radius_kind, owner, 0, t))
    assert seen == {(name, owner, t) for name, owner in balls
                    for t in range(start, end)}


def test_rows_follow_their_family_specs(monkeypatch):
    # single-window models only: in a seam-joined model, `col` finds the
    # latest window's column of an import key that windows share
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    from workloads import feeder_instance, feeder_loads
    inst = feeder_instance(0)
    loads = feeder_loads(inst, 0)
    models = [(m, loads) for kind, m in feeder_models(0).items()
              if kind in ("stage", "pinned", "priced")]
    _, five_loads, _ = five_bus_case()
    _, shared_loads, _ = shared_bus_case()
    models += [(later_stage_model(), five_loads),
               (shared_bus_one_step_cases()[1], shared_loads)]
    for model, model_loads in models:
        assert len(model.col_blocks) == 1
        assert_rows_follow_their_specs(model, model_loads)


def assert_same_model(got, want):
    """Every array with its dtype, the binaries, the coupling and every
    column, row and ball label of `got` equal `want`'s."""
    for name in ("p_diag", "q", "row_lo", "row_hi", "lb", "ub"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.a, name), getattr(want.a, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("cols", "owner", "radius", "radius_col"):
        a, b = getattr(got.cones, name), getattr(want.cones, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.n, got.const, got.a.shape, got.window, got.dt) \
        == (want.n, want.const, want.a.shape, want.window, want.dt)
    assert got.binaries == want.binaries
    assert got.coupling == want.coupling
    assert got.col_blocks == want.col_blocks
    assert col_keys(got) == col_keys(want)
    assert row_labels(got) == row_labels(want)
    assert cone_labels(got) == cone_labels(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_templates_write_the_models_they_were_made_for(seed, monkeypatch):
    # each window is copied from the template of its shape; a model made
    # with every template made afresh equals one from kept templates
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    from workloads import feeder_instance, feeder_loads
    inst = feeder_instance(seed)
    loads = feeder_loads(inst, seed)
    windows = partition(96, 8).windows
    k = len(coupling_slots(inst))
    builds = [lambda: build_seamed(inst, loads, windows).model]
    for s, w in enumerate(windows):
        builds.append(lambda s=s, w=w: assemble(
            inst, loads, window=w, own_builds=(s == 0),
            boundary=np.linspace(0.0, 0.5, k) if s % 2 else None,
            duals_in=np.linspace(-2.0, 3.0, k) if s < len(windows) - 1
            else None))
    lay = formulation._layout(inst, loads.dt)
    cold = []
    for build in builds:
        lay.templates.clear()
        cold.append(build())
    for build in reversed(builds):     # each shape's template made once
        build()
    warm = [build() for build in builds]
    for got, want in zip(warm, cold):
        assert_same_model(got, want)
    # one template per length, whether a window owns the builds, is
    # pinned to a boundary or sewn to the window before it
    assert sorted(lay.templates) == [12]
    template = lay.template(12)
    assert lay.template(12) is template
    for arr in template:
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable
    # so is every array of the layout's tables, shared by every builder
    for arr in (*lay.row_table, *lay.ball_table, lay.bounds, lay.loaded,
                lay.radius, lay.radius_col):
        assert not arr.flags.writeable
    # a model's arrays are its own, not the template's
    assert not np.shares_memory(warm[2].a.data, template.data)


def seamed_five_bus():
    inst, loads, windows = five_bus_case()
    return build_seamed(inst, loads, windows).model


@pytest.mark.parametrize("name", ["row_coefs", "cones"])
def test_views_index_like_lists(name):
    # a seam-joined model's views span windows and blocks of every kind
    view = getattr(seamed_five_bus(), name)
    items = list(view)
    n = len(items)
    assert len(view) == n > 10
    for i in (0, 1, n - 1, -1, -n, np.int64(3)):
        assert view[i] == items[i], i
    for part in (slice(0, 2), slice(-3, None), slice(None, None, -7),
                 slice(5, 2), slice(n - 2, n + 5)):
        got = view[part]
        assert type(got) is list and got == items[part], part
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]


@pytest.mark.parametrize("name", ["describe_col", "describe_row",
                                  "describe_cone"])
def test_describe_indexes_like_a_list(name):
    # a seam-joined model's windows and blocks of every kind
    model = seamed_five_bus()
    describe = getattr(model, name)
    n = {"describe_col": model.n, "describe_row": len(model.row_coefs),
         "describe_cone": len(model.cones)}[name]
    items = [describe(i) for i in range(n)]
    assert n > 10 and items[0] != items[-1]
    for i in (0, 1, n - 1, -1, -n, np.int64(3), np.int32(-2)):
        assert describe(i) == items[i], i
    for i in (n, -n - 1, np.int64(n)):
        with pytest.raises(IndexError):
            describe(i)


def test_builds_add_no_object_per_column():
    # with the layout cached, a build makes a few Python objects per
    # window and block; one per column would be thousands
    inst = five_bus_instance()
    loads = five_bus_loads(inst, 96)
    builds = {"assemble": lambda: assemble(inst, loads),
              "build_seamed": lambda: build_seamed(inst, loads,
                                                   partition(96, 8).windows)}
    for name, build in builds.items():
        build()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            built = build()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert getattr(built, "model", built).n >= 4150
        assert added < 1000, (name, added)


def test_network_without_candidates():
    # no build, import or commitment columns: only the network rows
    buses = (Bus("b1", 0.81, 1.21), Bus("b2", 0.81, 1.21))
    lines = (Line("l1", "b1", "b2", 0.01, 0.02, 2.0),)
    inst = NetworkInstance(buses, lines, (), (), shed_penalty=1e7, dt=0.25)
    loads = flat_loads(inst, 3)
    model = build_seamed(inst, loads, [(0, 1), (1, 3)]).model
    cols, n_rows, _, n_cones = expected_counts(inst, 3)
    assert (model.n, len(model.row_coefs), len(model.cones)) \
        == (cols, n_rows, n_cones)
    assert not model.binaries and model.coupling.slots == ()
    assert np.array_equal(model.to_convex().a.toarray(), triplet_matrix(model))


def test_instance_holding_lists_assembles():
    # the instance stores its lists as tuples, so it hashes, equals the
    # tuple-built one and shares its cached layout
    inst = gen_bat_instance()
    listed = NetworkInstance(list(inst.buses), list(inst.lines),
                             list(inst.battery_specs),
                             list(inst.generator_specs), shed_penalty=1e7,
                             dt=0.25, slack_bus="b1", name="pair")
    loads = flat_loads(inst, 4)
    assert layout_digest(assemble(listed, loads)) \
        == layout_digest(assemble(inst, loads))


def test_instance_mixing_lists_and_tuples_assembles():
    inst = gen_bat_instance()
    mixed = NetworkInstance(inst.buses, inst.lines, list(inst.battery_specs),
                            tuple(inst.generator_specs), shed_penalty=1e7,
                            dt=0.25, slack_bus="b1", name="pair")
    assert hash(mixed) == hash(inst)
    loads = flat_loads(inst, 4)
    assert layout_digest(assemble(mixed, loads)) \
        == layout_digest(assemble(inst, loads))
