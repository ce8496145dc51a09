"""Branch-and-bound against an exhaustive enumeration oracle.

The oracle walks every binary assignment depth-first, discarding a
partial assignment only when a row made purely of binaries and pinned
constants can no longer be satisfied by any completion (such rows are
in the model, so nothing feasible is lost).  Each surviving leaf gets
a continuous solve, through cvxpy/CLARABEL where cvxpy is installed and
through the engine's `solve_qcqp` where it is not; the best leaf is the
exact mixed-binary optimum the search must reproduce.
"""

import logging
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from test_formulation import (
    bat_only_instance, cp, cvx_solve, five_bus_case, flat_loads, gen_bat_instance,
)

from microplan import convex, mip
from microplan.convex import (
    EngineError, PrimalDualSolution, QpWorkspace, certify, get_duals, solve_qcqp,
)
from microplan.decomposition import DecompositionError, partition, rh_solve
from microplan.formulation import (
    FormulationError, assemble, build_seamed, coupling_slots, fix_binaries,
    horizon_start_boundary,
)
from microplan.instance import synth_load
from microplan.mip import (
    MipResult, _NodeSolver, _Tightener, solve_fixed_then_duals, solve_miqcqp,
)


# ---------------------------------------------------------------------------
# oracle


def discrete_rows(model):
    """Rows over binaries and pinned constants only, with the constant
    part folded in.  Returns (offset, [(col, coef)...], lo, hi) tuples
    and the map of pinned columns."""
    consts = {}
    for coefs, lo, hi in zip(model.row_coefs, model.row_lo, model.row_hi):
        if len(coefs) == 1 and lo == hi:
            (j, c), = coefs.items()
            if c != 0.0 and j not in model.binaries:
                consts[j] = lo / c
    for j in range(model.n):
        if model.lb[j] == model.ub[j]:
            consts[j] = float(model.lb[j])
    rows = []
    known = model.binaries | set(consts)
    for coefs, lo, hi in zip(model.row_coefs, model.row_lo, model.row_hi):
        if not coefs or not set(coefs) <= known:
            continue
        offset = sum(c * consts[j] for j, c in coefs.items() if j in consts)
        part = [(j, c) for j, c in coefs.items() if j not in consts]
        if part:
            rows.append((offset, part, lo, hi))
    return rows, consts


def completable(assign, rows):
    """Interval check: can some 0/1 completion satisfy every row?"""
    for offset, part, lo, hi in rows:
        least = most = offset
        for j, c in part:
            v = assign.get(j)
            if v is None:
                if c > 0.0:
                    most += c
                else:
                    least += c
            else:
                least += c * v
                most += c * v
        if most < lo - 1e-9 or least > hi + 1e-9:
            return False
    return True


def leaf_solve(prog):
    """(status, objective) of one leaf: by cvxpy/CLARABEL, or by
    `solve_qcqp` when cvxpy is not installed."""
    if cp is None:
        sol = solve_qcqp(prog)
        return sol.status, sol.objective
    status, val, _ = cvx_solve(prog)
    return status, val


def enumerate_binary_optimum(model):
    """Exhaustive enumeration: every feasible binary assignment, solved
    as a pinned continuous problem by the independent conic solver, or,
    without cvxpy, by `solve_qcqp`, a leaf counting only when its solve
    is ``optimal``.  Returns (best value, best assignment, leaf count)."""
    rows, consts = discrete_rows(model)
    free = sorted(j for j in model.binaries if model.lb[j] < model.ub[j])
    forced = {j: consts[j] for j in model.binaries if j in consts}
    best = [np.inf, None]
    leaves = [0]

    def walk(k, assign):
        if not completable(assign, rows):
            return
        if k == len(free):
            leaves[0] += 1
            full = dict(forced)
            full.update(assign)
            status, val = leaf_solve(fix_binaries(model, full).to_convex())
            if status == "optimal" and val < best[0]:
                best[0] = val
                best[1] = full
            return
        j = free[k]
        for v in (0.0, 1.0):
            assign[j] = v
            walk(k + 1, assign)
            del assign[j]

    walk(0, {})
    return best[0], best[1], leaves[0]


# ---------------------------------------------------------------------------
# shared cases


@pytest.fixture(scope="module")
def two_step():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 2)
    return assemble(inst, loads)


@pytest.fixture(scope="module")
def three_step():
    inst = gen_bat_instance(min_up=1, min_down=1)
    loads = flat_loads(inst, 3, p=0.4, q=0.1)
    return assemble(inst, loads)


@pytest.fixture(scope="module")
def two_step_oracle(two_step):
    return enumerate_binary_optimum(two_step)


@pytest.fixture(scope="module")
def three_step_oracle(three_step):
    return enumerate_binary_optimum(three_step)


@pytest.fixture(scope="module")
def two_step_result(two_step):
    return solve_miqcqp(two_step)


@pytest.fixture(scope="module")
def three_step_result(three_step):
    return solve_miqcqp(three_step)


# ---------------------------------------------------------------------------
# the oracle itself


def test_oracle_walks_exactly_the_discrete_feasible_assignments(two_step):
    # blind 2^8 sweep with direct row arithmetic; the pruned walk must
    # keep precisely the assignments every discrete row accepts
    rows, _ = discrete_rows(two_step)
    free = sorted(j for j in two_step.binaries
                  if two_step.lb[j] < two_step.ub[j])
    assert len(free) == 8
    blind = 0
    for bits in range(2 ** len(free)):
        assign = {j: float((bits >> k) & 1) for k, j in enumerate(free)}
        ok = all(lo - 1e-9 <= offset + sum(c * assign[j] for j, c in part)
                 <= hi + 1e-9 for offset, part, lo, hi in rows)
        blind += ok
    _, _, leaves = enumerate_binary_optimum(two_step)
    assert leaves == blind
    assert 0 < leaves < 2 ** len(free)


def test_oracle_minimum_is_a_feasible_assignment(two_step, two_step_oracle):
    value, assignment, _ = two_step_oracle
    assert np.isfinite(value)
    assert set(assignment) == set(two_step.binaries)
    status, val, _ = cvx_solve(fix_binaries(two_step, assignment).to_convex())
    assert status == "optimal"
    assert val == pytest.approx(value, rel=1e-9)


# ---------------------------------------------------------------------------
# search correctness


def test_matches_enumeration_two_step(two_step_oracle, two_step_result):
    value, _, _ = two_step_oracle
    res = two_step_result
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(value, rel=1e-6)
    assert res.gap <= 1e-4


def test_matches_enumeration_three_step(three_step_oracle, three_step_result):
    value, _, _ = three_step_oracle
    res = three_step_result
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(value, rel=1e-6)


def test_search_actually_branches(three_step_result):
    assert three_step_result.nodes > 1


def test_incumbent_binaries_are_exact_and_feasible(two_step, two_step_result):
    res = two_step_result
    assert set(res.binaries) == set(two_step.binaries)
    for v in res.binaries.values():
        assert v in (0.0, 1.0)
    rows, _ = discrete_rows(two_step)
    assert completable(dict(res.binaries), rows)
    # the primal iterate carries the same values to integer tolerance
    for j, v in res.binaries.items():
        assert abs(res.x[j] - v) <= 1e-5


def test_bound_does_not_exceed_incumbent(two_step_result, three_step_result):
    for res in (two_step_result, three_step_result):
        assert res.best_bound <= res.objective + 1e-9 * max(1.0, abs(res.objective))


def test_all_binaries_fixed_is_a_single_node(two_step, two_step_oracle):
    _, assignment, _ = two_step_oracle
    fixed = fix_binaries(two_step, assignment)
    res = solve_miqcqp(fixed)
    assert res.nodes == 1
    assert res.status == "optimal-within-gap"
    # the one node's bound is the weak-duality bound of its interior
    # point, which proves the incumbent to the engine's 1e-9 termination
    assert 0.0 <= res.gap <= 1e-9
    direct = solve_qcqp(fixed.to_convex())
    assert res.objective == pytest.approx(direct.objective, rel=1e-9)


def test_gap_over_a_zero_bound_is_absolute():
    # with no load the optimum is 0 USD: a valid bound sits at or below
    # it and the incumbent at or above it, and over the 1 USD floor the
    # rounding residue between them is an absolute, not a relative, gap
    inst = gen_bat_instance()
    res = solve_miqcqp(assemble(inst, flat_loads(inst, 4, p=0.0, q=0.0)))
    assert res.status == "optimal-within-gap"
    assert res.best_bound <= 0.0 <= res.objective
    assert res.gap == res.objective - res.best_bound
    assert res.gap <= convex.EPS_ABS


def test_infeasible_row_reported_at_root(two_step):
    # an empty row that must reach -1
    bad = replace(
        two_step,
        a=sp.vstack([two_step.a, sp.csr_matrix((1, two_step.n))],
                    format="csr"),
        row_lo=np.append(two_step.row_lo, -np.inf),
        row_hi=np.append(two_step.row_hi, -1.0),
    )
    res = solve_miqcqp(bad)
    assert res.status == "infeasible"
    assert res.x is None
    assert res.solution is None
    assert res.objective == np.inf


def node_records(caplog, model):
    """The search's DEBUG node records, one (node, depth, bound,
    incumbent, gap) tuple per explored node, and its result."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=mip.__name__):
        res = solve_miqcqp(model)
    return [r.args for r in caplog.records if r.name == mip.__name__], res


def test_identical_runs_and_inert_seed(three_step, caplog):
    log_a, a = node_records(caplog, three_step)
    log_b, b = node_records(caplog, three_step)
    assert a.nodes == b.nodes
    assert log_a == log_b
    assert a.objective == b.objective
    assert a.binaries == b.binaries
    assert np.array_equal(a.x, b.x)


def test_node_log_records(three_step, caplog):
    body, res = node_records(caplog, three_step)
    assert len(body) == res.nodes
    assert [r[0] for r in body] == list(range(1, res.nodes + 1))
    bounds = [r[2] for r in body]
    for prev, nxt in zip(bounds, bounds[1:]):
        assert nxt >= prev - 1e-9   # the proven bound only tightens
    assert body[-1][4] <= 1e-4


# ---------------------------------------------------------------------------
# fixed-binary resolve and its duals


def test_fixed_resolve_reproduces_incumbent(two_step, two_step_result):
    res = two_step_result
    sol = solve_fixed_then_duals(two_step, res.binaries)
    assert sol.objective == pytest.approx(res.objective, rel=1e-6)
    assert sol.y_rows.shape == (len(two_step.row_coefs),)


def test_incumbent_solution_is_the_fixed_binary_solve():
    # a later stage: the builds are pinned boundary data, not binaries, so
    # the incumbent's program (binaries fixed, `_Tightener` bounds) is the
    # program of `fix_binaries`, and its pin duals need no second solve
    inst = gen_bat_instance()
    built = {"z_b": 1.0, "z_d": 1.0, "s_b": 0.5, "sc": 0.05}
    boundary = np.array([built.get(slot.kind, 0.0)
                         for slot in coupling_slots(inst)])
    model = assemble(inst, flat_loads(inst, 4, p=0.4, q=0.1), window=(2, 4),
                     boundary=boundary, own_builds=False)
    res = solve_miqcqp(model)
    assert res.status == "optimal-within-gap"
    assert res.nodes > 1
    sol = res.solution
    assert sol.status == "optimal"
    assert certify(sol.program, sol.x, sol.y_rows, sol.y_bounds,
                   sol.cone_duals).ratio <= 1.0
    assert np.array_equal(sol.x, res.x)
    pins = [r for r in model.coupling.init_pin_rows if r is not None]
    fixed = solve_fixed_then_duals(model, res.binaries)
    # two certified solves of one program, the incumbent's polished from
    # its node's point: they agree to rounding, not bit for bit
    np.testing.assert_allclose(get_duals(sol, pins), get_duals(fixed, pins),
                               rtol=1e-9, atol=1e-9)


def test_integral_node_confirmed_by_polish(two_step, two_step_result):
    # the incumbent came from an integral node: its point was polished
    # on the fixed-binary program, with no interior-point step
    res = two_step_result
    sol = res.solution
    assert (sol.status, sol.detail, sol.iterations) == ("optimal", "polished", 0)
    prog = sol.program
    assert certify(prog, sol.x, sol.y_rows, sol.y_bounds,
                   sol.cone_duals).ratio <= 1.0
    fixed = fix_binaries(two_step, res.binaries).to_convex()
    lb, ub = fixed.lb.copy(), fixed.ub.copy()
    assert _Tightener(two_step).apply(lb, ub)
    assert np.array_equal(prog.lb, lb) and np.array_equal(prog.ub, ub)
    assert res.objective == pytest.approx(solve_qcqp(fixed).objective, rel=1e-9)


def test_confirm_solves_cold_when_the_start_does_not_certify(two_step,
                                                            two_step_result):
    # a zero start breaks the load balance, so its polish does not
    # certify and the confirmation is the cold solve of the same view
    solver = _NodeSolver(two_step)
    fixings = tuple(two_step_result.binaries.items())
    ws = solver.view(fixings)
    prog = ws.prog
    zero = PrimalDualSolution("optimal", np.zeros(prog.n), np.zeros(prog.m),
                              np.zeros(prog.n), 0.0, 0.0, 0.0, 0, 0.0,
                              cone_duals=np.zeros(len(prog.cones)))
    assert ws.polish_from(zero) is None
    got = solver.confirm(fixings, zero)
    cold = solver.view(fixings).solve()
    assert got.iterations > 0
    for key in ("x", "y_rows", "y_bounds", "cone_duals"):
        assert np.array_equal(getattr(got, key), getattr(cold, key)), key
    for key in ("status", "detail", "iterations", "objective", "bound"):
        assert getattr(got, key) == getattr(cold, key), key


def test_node_that_stops_short_is_polished(monkeypatch):
    # every node's interior point stops short with a bound 1e-3 USD below
    # what it proves: unpolished, the zero-cost middle stage closes with
    # gap 1e-3 and reads `feasible`
    interior = QpWorkspace.interior

    def short(self):
        sol = interior(self)
        return replace(sol, status="iteration-limit", bound=sol.bound - 1e-3)

    monkeypatch.setattr(QpWorkspace, "interior", short)
    inst = gen_bat_instance()
    res = rh_solve(inst, flat_loads(inst, 6), partition(6, 3))
    assert [s.status for s in res.stage_stats] == ["optimal-within-gap"] * 3


@pytest.mark.parametrize("short, polishes", [(1e-6, 0), (1e-2, 1)],
                         ids=["within-gap", "outside-gap"])
def test_node_polished_only_outside_its_gap(two_step, monkeypatch, short,
                                            polishes):
    # an interior point that stops short is polished only where its own
    # gap, from its point's objective down to its bound, exceeds gap_tol
    interior, polish_from = QpWorkspace.interior, QpWorkspace.polish_from
    starts = []

    def stopped(self):
        sol = interior(self)
        return replace(sol, status="iteration-limit", bound=sol.objective
                       - short * max(abs(sol.objective), 1.0))

    def counted(self, start):
        starts.append(start)
        return polish_from(self, start)

    monkeypatch.setattr(QpWorkspace, "interior", stopped)
    monkeypatch.setattr(QpWorkspace, "polish_from", counted)
    sol = _NodeSolver(two_step).relax((), gap_tol=1e-4)
    assert len(starts) == polishes
    if not polishes:
        assert sol.status == "iteration-limit"


def test_root_relaxation_with_an_unbounded_proof_is_polished():
    # the grid columns are free and cost nothing, so the root's
    # weak-duality bound is -inf: its interior point is not proven, and
    # the node takes the polish of it rather than an unpolished optimal
    inst = gen_bat_instance(grid=True)
    model = assemble(inst, flat_loads(inst, 4))
    sol = _NodeSolver(model).relax((), 1e-4)
    assert (sol.status, sol.polished) == ("optimal", True)
    res = solve_miqcqp(model)
    assert (res.status, res.nodes) == ("optimal-within-gap", 1)


def test_fractional_picks_the_farthest_binary_lowest_on_ties(two_step):
    solver = _NodeSolver(two_step)
    b = solver.binaries
    x = np.zeros(two_step.n)
    x[b[0]] = 1.0 - 0.5 * mip.INT_TOL     # integral to tolerance
    assert solver.fractional(x) is None
    x[b[3]], x[b[1]], x[b[2]] = 0.75, 0.25, 0.125
    assert solver.fractional(x) == b[1]   # 0.25 from 0 ties 0.25 from 1
    x[b[4]] = 0.45
    assert solver.fractional(x) == b[4]


def test_fixed_resolve_requires_every_binary(two_step, two_step_result):
    partial = dict(two_step_result.binaries)
    partial.pop(next(iter(partial)))
    with pytest.raises(FormulationError):
        solve_fixed_then_duals(two_step, partial)


def test_absent_battery_has_zero_boundary_price():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 2, p=0.0, q=0.0)
    model = assemble(inst, loads)
    off = {j: 0.0 for j in model.binaries}
    sol = solve_fixed_then_duals(model, off)
    soc_pin = model.coupling.init_pin_rows[0]
    assert model.coupling.slots[0].kind == "sc"
    assert abs(get_duals(sol, [soc_pin])[0]) <= 1e-5


def test_boundary_soc_price_matches_finite_difference():
    # an energy-starved battery: every step sheds load, so the optimal
    # value is locally linear in the starting charge and the central
    # difference is exact up to solver noise
    inst = bat_only_instance()
    loads = flat_loads(inst, 4, p=1.0, q=0.0)
    jz = assemble(inst, loads).col("z_b", "bat1")
    built = {jz: 1.0}

    def value_at(soc):
        boundary = horizon_start_boundary(inst).copy()
        boundary[0] = soc
        model = assemble(inst, loads, boundary=boundary)
        status, val, _ = cvx_solve(fix_binaries(model, built).to_convex())
        assert status == "optimal"
        return val

    h = 0.02
    fd = (value_at(1.0 + h) - value_at(1.0 - h)) / (2.0 * h)
    center = assemble(inst, loads)
    sol = solve_fixed_then_duals(center, built)
    pin = center.coupling.init_pin_rows[0]
    dual = get_duals(sol, [pin])[0]
    # an equality pin's multiplier is the negative sensitivity
    assert -dual == pytest.approx(fd, rel=1e-4)


def test_result_dataclass_round_trip(two_step_result):
    res = two_step_result
    assert isinstance(res, MipResult)
    assert res.solve_time > 0.0


def scanned_gates(model):
    """The gate rows found by a scan of every row, in row order:
    (row, x, z, a, b) for each two-entry row ``a x - b z <= 0`` with
    a, b > 0 and z binary."""
    gates = []
    for i, coefs in enumerate(model.row_coefs):
        if len(coefs) != 2 or model.row_lo[i] != -np.inf or model.row_hi[i] != 0.0:
            continue
        (j, c), (k, d) = sorted(coefs.items(), key=lambda item: -item[1])
        if c > 0.0 > d and k in model.binaries:
            gates.append((i, j, k, c, -d))
    return gates


def tightener_gates(tight):
    return list(zip(tight.x.tolist(), tight.z.tolist(), tight.a.tolist(),
                    tight.b.tolist()))


def test_tightener_finds_the_columns_of_a_scan():
    # the tightener's gates are the scan's: every if-built row, every
    # if-on upper row and a one-step min_up; a later stage imports its
    # builds, which are no binaries there, so only commitment gates it
    pair = gen_bat_instance()
    inst, loads, windows = five_bus_case()
    models = {
        "2-bus": assemble(pair, flat_loads(pair, 4)),
        "2-bus, min_up 1": assemble(gen_bat_instance(min_up=1),
                                    flat_loads(pair, 4)),
        "5-bus": assemble(inst, loads),
        "later stage": assemble(inst, loads, window=(2, 6), own_builds=False),
        "seam-joined": build_seamed(inst, loads, windows).model,
    }
    if_on = {"p_max_if_on", "q_max_if_on"}
    if_built = {"cap_if_built", "soc_if_built", "committed_if_built"}
    for name, model in models.items():
        scan = scanned_gates(model)
        assert tightener_gates(_Tightener(model)) == [g[1:] for g in scan], name
        families = {model.describe_row(g[0])[0] for g in scan}
        want = if_on | (set() if name == "later stage" else if_built) \
            | ({"min_up"} if name == "2-bus, min_up 1" else set())
        assert families == want, name


def test_an_explicit_zero_is_no_gate():
    # either entry of the battery cap stored as an explicit zero takes
    # that row, and only it, out of the gates
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 4))
    gates = tightener_gates(_Tightener(model))
    sb, zb = model.col("s_b", "bat1"), model.col("z_b", "bat1")
    (row, *cap), = [g for g in scanned_gates(model) if g[1:3] == (sb, zb)]
    for k in range(2):
        a = model.a.copy()
        a.data[a.indptr[row] + k] = 0.0
        assert a.indptr[row + 1] - a.indptr[row] == 2
        got = tightener_gates(_Tightener(replace(model, a=a)))
        assert got == [g for g in gates if g != tuple(cap)]


def test_commitment_gate_moves_both_bounds():
    # z_d fixed to 0 leaves no commitment upper bound above 0, and one
    # committed step forces z_d up to 1; z_b fixed to 0 caps the
    # battery's size and every state of charge at 0, and x_d fixed to 0
    # caps that step's generator output at 0
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 4, p=0.4, q=0.1))
    tight = _Tightener(model)
    jz = model.col("z_d", "g1")
    xs = np.array([model.col("x_d", "g1", t) for t in range(4)])
    assert np.all(model.ub[xs] == 1.0)
    lb, ub = model.lb.copy(), model.ub.copy()
    ub[jz] = 0.0
    assert tight.apply(lb, ub)
    assert np.all(ub[xs] == 0.0)

    lb, ub = model.lb.copy(), model.ub.copy()
    lb[xs[2]] = 1.0
    assert tight.apply(lb, ub)
    assert lb[jz] == 1.0 and np.all(ub[xs] == 1.0)

    zb = model.col("z_b", "bat1")
    caps = [model.col("s_b", "bat1")] + [model.col("sc_b", "bat1", t)
                                         for t in range(4)]
    assert np.all(model.ub[caps] > 0.0)
    lb, ub = model.lb.copy(), model.ub.copy()
    ub[zb] = 0.0
    assert tight.apply(lb, ub)
    assert np.all(ub[caps] == 0.0)

    out = [model.col(kind, "g1", t) for t in range(4) for kind in ("phat_d", "q_d")]
    assert np.all(model.ub[out] > 0.0)
    lb, ub = model.lb.copy(), model.ub.copy()
    ub[xs[1]] = 0.0
    assert tight.apply(lb, ub)
    assert np.all(ub[out[2:4]] == 0.0)
    assert np.all(ub[out[:2] + out[4:]] == model.ub[out[:2] + out[4:]])


def test_gate_rows_bound_the_search_work(monkeypatch):
    # the 2-bus synth_load draw over 4 steps, every binary searched: 98
    # SuperLU factorizations with every gate row propagated, 118 with
    # only the battery caps and the commitment gates
    inst = gen_bat_instance()
    model = assemble(inst, synth_load(inst, 1, 0.25, {"b2": 0.4}, seed=0),
                     window=(0, 4))
    count, splu = [0], convex.spla.splu

    def counted(*args, **kwargs):
        count[0] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(convex.spla, "splu", counted)
    res = solve_miqcqp(model)
    assert res.status == "optimal-within-gap"
    assert count[0] <= 105


def test_budget_exits():
    # the 2-bus T=4 monolith closes in 3 nodes; cut short after one, it
    # keeps the root's rounded incumbent, and with no time at all it
    # has none
    inst = gen_bat_instance()
    model = assemble(inst, flat_loads(inst, 4, p=0.4, q=0.1))
    full = solve_miqcqp(model)
    assert full.status == "optimal-within-gap" and full.nodes == 3
    assert full.objective == pytest.approx(223.6931687685298, rel=1e-9)

    one = solve_miqcqp(model, node_limit=1)
    assert one.status == "feasible" and one.nodes == 1
    assert one.best_bound == pytest.approx(164.924225, rel=1e-8)
    assert one.best_bound <= full.objective <= one.objective
    assert one.gap > 1e-4 and one.x is not None and one.binaries

    none = solve_miqcqp(model, time_limit=0)
    assert none.status == "node-limit" and none.nodes == 0
    assert none.x is None and none.binaries is None and none.solution is None
    assert none.objective == np.inf and none.best_bound == -np.inf


def test_unusable_limits_are_rejected(two_step, two_step_result):
    # a gap_tol below 0 or NaN is never met, so a closed search would read
    # `feasible`; a NaN time_limit never expires; a negative node_limit
    # stops before the root
    for limit, value in (("gap_tol", -1.0), ("gap_tol", np.nan),
                         ("gap_tol", np.inf), ("node_limit", -3),
                         ("time_limit", np.nan), ("time_limit", -1.0)):
        with pytest.raises(EngineError, match=limit):
            solve_miqcqp(two_step, **{limit: value})
    res = solve_miqcqp(two_step, gap_tol=0.0, time_limit=np.inf)
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(two_step_result.objective, rel=1e-6)


def test_zero_gap_tol_asks_no_more_than_the_engine_proves(
        two_step, two_step_result, monkeypatch):
    # every node bound is held 1e-12 below the optimum, so the search's
    # bound stays 1e-12 below its incumbent: far inside the EPS_GAP by
    # which the engine proves an unpolished point optimal, which is as
    # close as any gap test may ask a search to close
    relax = _NodeSolver.relax
    cap = two_step_result.objective - 1e-12 * abs(two_step_result.objective)

    def shaded(self, fixings, gap_tol):
        sol = relax(self, fixings, gap_tol)
        if sol is not None and sol.status != "infeasible":
            sol.bound = min(sol.bound, cap)
        return sol

    monkeypatch.setattr(_NodeSolver, "relax", shaded)
    res = solve_miqcqp(two_step, gap_tol=0.0)
    assert res.status == "optimal-within-gap"
    assert 0.0 < res.gap <= convex.EPS_GAP


def test_every_explored_node_is_popped_best_first(three_step, monkeypatch):
    # each node relaxation is of the node just taken off the heap, and the
    # heap gives them up in nondecreasing order of their queued bound
    events, bounds = [], []
    heappop, relax = mip.heapq.heappop, _NodeSolver.relax

    def popped(heap):
        bound, seq, node = heappop(heap)
        events.append(("pop", node.fixings))
        bounds.append(bound)
        return bound, seq, node

    def relaxed(self, fixings, gap_tol):
        events.append(("relax", fixings))
        return relax(self, fixings, gap_tol)

    monkeypatch.setattr(mip, "heapq", SimpleNamespace(
        heappush=mip.heapq.heappush, heappop=popped))
    monkeypatch.setattr(_NodeSolver, "relax", relaxed)
    res = solve_miqcqp(three_step)
    assert res.status == "optimal-within-gap"
    relaxes = [k for k, (kind, _) in enumerate(events) if kind == "relax"]
    assert len(relaxes) == res.nodes > 1
    assert events[0][0] == "pop"
    assert all(events[k - 1] == ("pop", events[k][1]) for k in relaxes)
    assert bounds == sorted(bounds)


def test_nodes_pruned_at_pop_bound_the_result(monkeypatch):
    # the 5-bus monolith explores 21 nodes and pops 16 more that the
    # incumbent prunes unexplored; the result's bound is at most the
    # bound each of those was queued with
    events, bounds = [], []
    heappop, relax = mip.heapq.heappop, _NodeSolver.relax

    def popped(heap):
        bound, seq, node = heappop(heap)
        events.append("pop")
        bounds.append(bound)
        return bound, seq, node

    def relaxed(self, fixings, gap_tol):
        events.append("relax")
        return relax(self, fixings, gap_tol)

    monkeypatch.setattr(mip, "heapq", SimpleNamespace(
        heappush=mip.heapq.heappush, heappop=popped))
    monkeypatch.setattr(_NodeSolver, "relax", relaxed)
    res = solve_miqcqp(assemble(*five_bus_case()[:2]))
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(377.0528076191225, rel=1e-9)
    assert res.nodes == events.count("relax") == 21
    pops = [k for k, kind in enumerate(events) if kind == "pop"]
    pruned = [b for b, k in zip(bounds, pops) if events[k + 1:k + 2] != ["relax"]]
    assert len(pruned) == 16
    assert all(res.best_bound <= b for b in pruned)


def test_unconfirmed_candidates_leave_the_search_at_node_limit(two_step,
                                                               monkeypatch):
    # every confirming solve fails: the integral nodes are feasible, so
    # the search ends without an incumbent but with their finite bound,
    # which is node-limit, not infeasible
    monkeypatch.setattr(_NodeSolver, "confirm", lambda self, fixings, start: None)
    res = solve_miqcqp(two_step)
    assert res.status == "node-limit" and res.nodes == 9
    assert res.best_bound == pytest.approx(162.6418390632267, rel=1e-9)
    assert res.x is None and res.binaries is None and res.objective == np.inf
    inst = gen_bat_instance()
    with pytest.raises(DecompositionError,
                       match="stage search ended node-limit$"):
        rh_solve(inst, flat_loads(inst, 2), partition(2, 1))


def test_contradictory_fixings_have_no_view(two_step, two_step_result,
                                            monkeypatch):
    # x_d committed under an unbuilt z_d: no view, relaxation or
    # confirmation; a root point rounding to that pair is no incumbent
    jx, jz = two_step.col("x_d", "g1", 0), two_step.col("z_d", "g1")
    solver = _NodeSolver(two_step)
    clash = ((jx, 1.0), (jz, 0.0))
    assert solver.view(clash) is None
    assert solver.relax(clash, 1e-4) is None
    assert solver.confirm(clash, two_step_result.solution) is None

    relax, confirm = _NodeSolver.relax, _NodeSolver.confirm
    confirmed = []

    def rounding_to_the_clash(self, fixings, gap_tol):
        sol = relax(self, fixings, gap_tol)
        sol.x[jx], sol.x[jz] = 0.9, 0.1
        return sol

    def recorded(self, fixings, start):
        confirmed.append((dict(fixings), confirm(self, fixings, start)))
        return confirmed[-1][1]

    monkeypatch.setattr(_NodeSolver, "relax", rounding_to_the_clash)
    monkeypatch.setattr(_NodeSolver, "confirm", recorded)
    res = solve_miqcqp(two_step, node_limit=1)
    (fixings, sol), = confirmed
    assert (fixings[jx], fixings[jz], sol) == (1.0, 0.0, None)
    assert (res.status, res.nodes, res.binaries) == ("node-limit", 1, None)
    assert res.objective == np.inf
