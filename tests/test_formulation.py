"""Model builder against closed-form counts, hand-checked rows, and an
independent conic solver.

Oracles come first: a translator from ConvexProgram to cvxpy (solved
with CLARABEL, no code shared with the in-tree engine), a text parser
for the model dump format, and closed-form column/row count formulas
derived from the constraint families by hand.
"""

import itertools

import numpy as np
import pytest

try:
    import cvxpy as cp
except ImportError:     # the oracles skip the cross-check without it
    cp = None

from microplan.formulation import (
    FormulationError, INIT_KINDS, ModelBuilder, assemble, build_seamed,
    check_feasibility, coupling_slots, dump_model, extract_plan, fix_binaries,
    horizon_start_boundary, plan_costs, relax_integrality,
)
from microplan.instance import (
    BatterySpec, Bus, GeneratorSpec, Line, LoadProfile, NetworkInstance,
)

INF = np.inf


# ---------------------------------------------------------------------------
# oracles


def cvx_solve(prog, pins=()):
    """Solve a ConvexProgram with cvxpy/CLARABEL, optionally pinning
    columns to values.  Returns (status, objective incl. constant, x)."""
    if cp is None:
        pytest.skip("cvxpy is not installed")
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


def make_x(model, values):
    x = np.zeros(model.n)
    for key, v in values.items():
        x[model.col(*key)] = v
    return x


def rows_of(model, family):
    return [(i, lab) for i, lab in enumerate(model.row_labels)
            if lab[0] == family]


def the_row(model, *label):
    hits = [i for i, lab in enumerate(model.row_labels) if lab == label]
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
        assert len(model.col_refs) == cols
        assert len(model.col_index) == cols


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


def test_grid_columns_only_when_connected():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 2))
    assert ("grid_p", "b1", 0) not in model.col_index
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
    assert sorted(model.col_index.values()) == list(range(model.n))
    binary_kinds = {"z_b", "z_d", "x_d", "y_d", "w_d"}
    for ref in model.col_refs:
        if ref.kind in binary_kinds:
            assert ref.col in model.binaries, ref
            assert model.lb[ref.col] == 0.0 and model.ub[ref.col] == 1.0
        else:
            assert ref.col not in model.binaries, ref


def test_objective_curvature_and_cone_shapes():
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 3))
    assert np.all(model.p_diag >= 0.0)
    curved = {ref.kind for ref in model.col_refs if model.p_diag[ref.col] > 0}
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
    cone = model.cones[model.cone_labels.index(("thermal", "l1", 0))]
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
    cone = model.cones[model.cone_labels.index(("bat_rating", "bat1", 0))]
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
        assert model.col_refs[j].kind == INIT_KINDS[slot.kind]
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
    assert model.row_labels[i] == ("seam", 1, "p", "g1", 0)
    assert model.row_lo[i] == model.row_hi[i] == 0.0
    coefs = model.row_coefs[i]
    assert sorted(coefs.values()) == [-1.0, 1.0]
    j_out = next(j for j, c in coefs.items() if c == -1.0)
    j_in = next(j for j, c in coefs.items() if c == 1.0)
    assert model.col_refs[j_out].kind == "p_d"
    assert model.col_refs[j_out].time == 1      # last step of the first window
    assert model.col_refs[j_in].kind == INIT_KINDS["p"]


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
            assert len(coefs) == 2, seamed.model.row_labels[i]
            assert owners == {s: 1.0, s - 1: -1.0}, seamed.model.row_labels[i]


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
