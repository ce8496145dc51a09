"""Benchmark inputs, the three workloads, and the checks on their outputs.

Every op is a closed-loop call into the public ``microplan`` API with
default solver settings.  Ops call through module attributes
(``formulation.assemble``, not a name imported here) so that the traced
run, which rebinds those attributes, sees every call.

An op's output is checked from outside, by the rules in NOTES.md.  A check
yields an :class:`Outcome`: ``failures`` lists every broken rule (empty
means success) and ``wrong`` marks a result the program presented as a
success although a check on it failed.  A non-optimal status is a failure,
never a success, but it is not a wrong answer: the program said so itself.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from microplan import convex, decomposition, formulation, instance, mip
from microplan.instance import (
    BatterySpec, Bus, GeneratorSpec, Line, LoadProfile, NetworkInstance,
)

TOL = 1e-6            # feasibility tolerance for every check
COST_RTOL = 1e-6      # recomputed cost against the reported objective
OPTIMAL = "optimal"
MIP_OPTIMAL = "optimal-within-gap"

FEEDER_BUSES, FEEDER_BATTERIES, FEEDER_GENERATORS = 30, 6, 4
FEEDER_HORIZON = 96   # one day at 15-minute steps
FEEDER_STAGES = 8


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    wrong: bool = False
    quality: dict = field(default_factory=dict)   # name -> (value, unit)


@dataclass
class Op:
    name: str
    run: Callable[[], object]          # the timed call
    check: Callable[[object], Outcome]  # untimed, on run()'s return value


# ---------------------------------------------------------------------------
# instances


def pair_instance() -> NetworkInstance:
    """The test suite's 2-bus case: a diesel candidate at the slack bus and
    a battery candidate at the load bus."""
    buses = (
        Bus("b1", 0.81, 1.21, max_generators=1),
        Bus("b2", 0.81, 1.21, max_batteries=1),
    )
    lines = (Line("l1", "b1", "b2", 0.01, 0.02, 2.0),)
    bats = (BatterySpec("bat1", "b2", 100.0, 300.0, 1.0, 2.0, 0.8, 0.7,
                        initial_soc=1.0, p_min=-1.0, p_max=1.0,
                        q_min=-1.0, q_max=1.0),)
    gens = (GeneratorSpec("g1", "b1", 200.0, (6.0, 35.0, 50.0),
                          2, 2, 0.5, 0.5, 0.5, 0.1, 1.5,
                          q_min=-1.0, q_max=1.0),)
    return NetworkInstance(buses, lines, bats, gens, shed_penalty=1e7,
                           dt=0.25, base_mva=1.0, slack_bus="b1",
                           name="pair")


def flat_loads(inst: NetworkInstance, horizon: int, p=0.4, q=0.1) -> LoadProfile:
    """The tests' flat profile: constant demand on the last bus only."""
    ids = tuple(b.id for b in inst.buses)
    pm = np.zeros((horizon, len(ids)))
    qm = np.zeros((horizon, len(ids)))
    pm[:, -1] = p
    qm[:, -1] = q
    return LoadProfile(horizon=horizon, bus_ids=ids, p=pm, q=qm, dt=inst.dt)


def feeder_instance(seed: int) -> NetworkInstance:
    """Seeded radial feeder.  The topology and every parameter vary with
    the seed; the sizes that set the model dimensions (bus, line and
    candidate counts, commitment history depth) do not."""
    rng = np.random.default_rng(seed)
    n_buses = FEEDER_BUSES
    ids = [f"n{i:02d}" for i in range(n_buses)]
    # each bus hangs off one of the few buses before it: a tree with
    # laterals, several levels deep
    parents = [int(rng.integers(max(0, i - 4), i)) for i in range(1, n_buses)]
    others = np.arange(1, n_buses)
    bat_at = sorted(int(i) for i in
                    rng.choice(others, FEEDER_BATTERIES, replace=False))
    gen_at = [0] + sorted(int(i) for i in
                          rng.choice(others, FEEDER_GENERATORS - 1, replace=False))

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    buses = tuple(Bus(ids[i], 0.81, 1.21,
                      max_batteries=int(i in bat_at),
                      max_generators=int(i in gen_at))
                  for i in range(n_buses))
    lines = tuple(Line(f"l{i:02d}", ids[p], ids[i], u(0.002, 0.01),
                       u(0.004, 0.02), u(1.0, 3.0))
                  for i, p in zip(range(1, n_buses), parents))
    bats = []
    for k, i in enumerate(bat_at):
        power, energy = u(0.2, 0.5), u(0.5, 1.5)
        bats.append(BatterySpec(
            f"bat{k}", ids[i], u(50, 150), u(200, 400), power, energy,
            u(0.85, 0.95), u(0.85, 0.95), initial_soc=0.5 * energy,
            p_min=-power, p_max=power, q_min=-power, q_max=power))
    gens = []
    for k, i in enumerate(gen_at):
        ramp = u(0.2, 0.5)
        gens.append(GeneratorSpec(
            f"g{k}", ids[i], u(100, 300), (u(2, 8), u(20, 50), u(10, 60)),
            2, int(rng.integers(1, 3)), ramp, ramp, u(0.4, 0.6),
            u(0.05, 0.15), u(0.8, 1.5), q_min=-0.5, q_max=0.5))
    inst = NetworkInstance(tuple(buses), lines, tuple(bats), tuple(gens),
                           shed_penalty=1e5, dt=0.25, base_mva=1.0,
                           slack_bus=ids[0], name=f"feeder-{seed}")
    if not instance.validate_radial(inst).is_radial:
        raise ValueError("generated feeder is not radial")
    return inst


def feeder_loads(inst: NetworkInstance, seed: int) -> LoadProfile:
    rng = np.random.default_rng([seed, 1])
    base = {b.id: float(rng.uniform(0.01, 0.06))
            for b in inst.buses if b.id != inst.slack_bus}
    return instance.synth_load(inst, 1, inst.dt, base, seed=seed)


# ---------------------------------------------------------------------------
# model sizes in closed form, derived from the constraint families


def _sizes(inst):
    nb, nd = len(inst.battery_specs), len(inst.generator_specs)
    hist = sum(d.history_depth for d in inst.generator_specs)
    per_step_cols = (3 * len(inst.buses) + 2 * len(inst.lines) + 6 * nd
                     + 4 * nb + (2 if inst.grid_connected else 0))
    per_step_rows = 2 * len(inst.buses) + len(inst.lines) + 12 * nd + 4 * nb
    fixed_cols = 3 * nb + 3 * nd + 2 * hist          # builds + imported state
    resource_rows = (len({b.bus for b in inst.battery_specs})
                     + len({d.bus for d in inst.generator_specs}) + nb)
    state_pins = nb + 2 * nd + 2 * hist               # sc, x, p, y, w
    slots = state_pins + 2 * nb + nd                  # plus z_b, s_b, z_d
    return dict(nb=nb, nd=nd, per_step_cols=per_step_cols,
                per_step_rows=per_step_rows, fixed_cols=fixed_cols,
                resource_rows=resource_rows, state_pins=state_pins,
                slots=slots, cones_per_step=len(inst.lines) + nb)


def window_counts(inst, steps, own_builds=True):
    """(cols, rows, cones, binaries) of ``assemble`` over `steps` steps.
    A window that does not own the build decisions pins them as imported
    state instead of deciding them."""
    z = _sizes(inst)
    pins = z["state_pins"] if own_builds else z["slots"]
    return (z["fixed_cols"] + steps * z["per_step_cols"],
            z["resource_rows"] + pins + steps * z["per_step_rows"],
            steps * z["cones_per_step"],
            (z["nb"] + z["nd"] if own_builds else 0) + 3 * z["nd"] * steps)


def seamed_counts(inst, windows):
    """(cols, rows, cones, binaries) of ``build_seamed``: each window's own
    columns and rows, the true start pinned once, one seam row per slot at
    every interior boundary."""
    z = _sizes(inst)
    horizon = windows[-1][1] - windows[0][0]
    k = len(windows)
    return (k * z["fixed_cols"] + horizon * z["per_step_cols"],
            k * z["resource_rows"] + z["state_pins"]
            + horizon * z["per_step_rows"] + (k - 1) * z["slots"],
            horizon * z["cones_per_step"],
            z["nb"] + z["nd"] + 3 * z["nd"] * horizon)


def model_counts(model) -> tuple:
    return (model.n, len(model.row_coefs), len(model.cones), len(model.binaries))


def count_failures(label, model, prog, expected) -> list:
    got = model_counts(model)
    out = []
    if got != tuple(expected):
        out.append(f"{label}: counts {got} != closed form {tuple(expected)}")
    if (prog.n, prog.m, len(prog.cones)) != got[:3]:
        out.append(f"{label}: program shape {(prog.n, prog.m, len(prog.cones))} "
                   f"!= model {got[:3]}")
    return out


# ---------------------------------------------------------------------------
# checks on solver output


def violation(prog, x) -> float:
    """Worst breach of rows, bounds and norm balls, by direct arithmetic."""
    x = np.asarray(x, dtype=float)
    worst = 0.0
    if prog.m:
        ax = prog.a @ x
        worst = max(worst, float(np.max(prog.l - ax)), float(np.max(ax - prog.u)))
    worst = max(worst, float(np.max(prog.lb - x)), float(np.max(x - prog.ub)))
    for cone in prog.cones:
        radius = cone.radius if cone.radius_col is None else x[cone.radius_col]
        worst = max(worst, float(np.linalg.norm(x[list(cone.cols)])) - radius)
    return worst


def objective(prog, x) -> float:
    x = np.asarray(x, dtype=float)
    return 0.5 * float(np.sum(prog.p_diag * x * x)) + float(prog.q @ x) + prog.const


def _cost_matches(recomputed, reported):
    return abs(recomputed - reported) <= COST_RTOL * max(1.0, abs(reported))


def check_convex(prog, sol, label) -> Outcome:
    if sol.status != OPTIMAL:
        return Outcome([f"status {sol.status} ({sol.detail})"])
    out = Outcome()
    worst = violation(prog, sol.x)
    if not worst <= TOL:
        out.failures.append(f"x breaks the program by {worst:.3e}")
    if not _cost_matches(objective(prog, sol.x), sol.objective):
        out.failures.append(f"objective {sol.objective!r} does not match x")
    out.wrong = bool(out.failures)
    out.quality[f"relaxed_cost.{label}"] = (sol.objective, "USD")
    return out


def shed_mwh(inst, plan) -> float:
    total = sum(float(plan.series.get(("shed_p", b.id), np.zeros(0)).sum())
                for b in inst.buses)
    return total * inst.base_mva * plan.dt


def _check_plan(inst, loads, plan, reported, lower_bound):
    """(failures, recomputed cost) of a plan against its reported
    objective and lower bound."""
    out = []
    report = formulation.check_feasibility(inst, loads, plan, tol=TOL)
    if not report.ok:
        out.append(f"plan infeasible, worst {report.worst(3)}")
    cost = formulation.plan_costs(inst, plan).total
    if not _cost_matches(cost, reported):
        out.append(f"recomputed cost {cost!r} != reported {reported!r}")
    if lower_bound > cost + COST_RTOL * max(1.0, abs(cost)):
        out.append(f"lower bound {lower_bound!r} exceeds plan cost {cost!r}")
    return out, cost


def check_mip(inst, loads, model, res) -> Outcome:
    if res.status != MIP_OPTIMAL:
        return Outcome([f"status {res.status} (gap {res.gap:.3e})"])
    out = Outcome()
    worst = violation(model.to_convex(), res.x)
    if not worst <= TOL:
        out.failures.append(f"x breaks the model by {worst:.3e}")
    frac = max((abs(res.x[j] - round(res.x[j])) for j in model.binaries),
               default=0.0)
    if frac > TOL:
        out.failures.append(f"binary off integer by {frac:.3e}")
    plan = formulation.extract_plan(model, res.x)
    failures, cost = _check_plan(inst, loads, plan, res.objective,
                                 res.best_bound)
    out.failures += failures
    out.wrong = bool(out.failures)
    out.quality["plan_cost.mono"] = (cost, "USD")
    return out


def check_sweep(inst, loads, sol, label) -> Outcome:
    """Stage statuses below optimal-within-gap fail the op; only a broken
    plan, cost or bound makes it wrong."""
    out = Outcome([f"sweep {st.sweep} stage {st.stage} ended {st.status} "
                   f"(gap {st.gap:.3e})"
                   for st in sol.stage_stats if st.status != MIP_OPTIMAL])
    failures, cost = _check_plan(inst, loads, sol.plan, sol.objective,
                                 sol.lower_bound)
    out.failures += failures
    out.wrong = bool(failures)
    out.quality[f"plan_cost.{label}"] = (cost, "USD")
    out.quality[f"shed_mwh.{label}"] = (shed_mwh(inst, sol.plan), "MWh")
    if label == "mpc":
        out.quality["gap_pct.mpc"] = (sol.gap_percent, "%")
    return out


def guarded(check):
    """A check that raises on the program's output counts as a wrong
    answer, not as a crash of the benchmark."""
    def run(result):
        try:
            return check(result)
        except Exception as exc:   # noqa: BLE001 - reported as a failure
            return Outcome([f"check raised {type(exc).__name__}: {exc}"],
                           wrong=True)
    return run


# ---------------------------------------------------------------------------
# workloads


def relax_ladder(seed: int, scratch: Path) -> list:
    """Cold convex solves of the relaxed 2-bus monolith, T = 4, 8, 12.

    The load draw is fixed (seed 0), not taken from the workload seed: how
    long the engine runs depends so strongly on the draw that a seeded draw
    would spread the runs far wider than any bound (NOTES.md gives the
    numbers).  Draw 0 keeps the T=8 iteration-limit cliff in."""
    del seed, scratch
    pair = pair_instance()
    loads = instance.synth_load(pair, 1, 0.25, {"b2": 0.4}, seed=0)
    ops = []
    for t in (4, 8, 12):
        prog = formulation.relax_integrality(
            formulation.assemble(pair, loads, window=(0, t))).to_convex()
        ops.append(Op(f"relaxed_T{t}",
                      lambda prog=prog: convex.solve_qcqp(prog),
                      guarded(lambda sol, prog=prog, t=t:
                              check_convex(prog, sol, f"T{t}"))))
    return ops


def sweep_pair(seed: int, scratch: Path) -> list:
    """The mixed-integer path on the 2-bus case with the tests' flat
    profile: the monolith at T=4, then receding horizon and two priced
    sweeps at T=6 over 3 stages.  Seed-independent: see NOTES.md."""
    del seed, scratch
    pair = pair_instance()
    flat4, flat6 = flat_loads(pair, 4), flat_loads(pair, 6)
    model4 = formulation.assemble(pair, flat4)

    def mono():
        return mip.solve_miqcqp(formulation.assemble(pair, flat4))

    def rh():
        return decomposition.rh_solve(pair, flat6,
                                      decomposition.partition(6, 3))

    def mpc():
        return decomposition.mpc_solve(pair, flat6,
                                       decomposition.partition(6, 3),
                                       iterations=2, mode="dual-init")

    return [
        Op("mono_T4", mono, guarded(lambda r: check_mip(pair, flat4, model4, r))),
        Op("rh_T6", rh, guarded(lambda s: check_sweep(pair, flat6, s, "rh"))),
        Op("mpc_T6", mpc, guarded(lambda s: check_sweep(pair, flat6, s, "mpc"))),
    ]


def feeder_build(seed: int, scratch: Path) -> list:
    """Model build for the seeded 30-bus feeder over one day (T=96): file
    round trip, the full-horizon model, the seam-joined model, and the
    per-stage models, each with its ``to_convex``."""
    feeder = feeder_instance(seed)
    loads = feeder_loads(feeder, seed)
    windows = decomposition.partition(FEEDER_HORIZON, FEEDER_STAGES).windows

    def round_trip():
        folder = scratch / "feeder"
        try:
            instance.write_instance(feeder, folder)
            back = instance.parse_instance(folder)
            instance.write_loads(loads, feeder, folder / "loads.csv")
            back_loads = instance.parse_loads(folder / "loads.csv", back,
                                              loads.dt)
        finally:
            shutil.rmtree(folder, ignore_errors=True)
        return back, back_loads

    def check_round_trip(result):
        back, back_loads = result
        out = Outcome()
        if back != feeder:
            out.failures.append("instance changed in the file round trip")
        if not (np.array_equal(back_loads.p, loads.p)
                and np.array_equal(back_loads.q, loads.q)):
            out.failures.append("loads changed in the file round trip")
        out.wrong = bool(out.failures)
        return out

    def full():
        model = formulation.assemble(feeder, loads)
        return model, model.to_convex()

    def seamed():
        sm = formulation.build_seamed(feeder, loads, windows)
        return sm.model, sm.model.to_convex()

    def stages():
        out = []
        for s, w in enumerate(windows):
            model = formulation.assemble(feeder, loads, window=w,
                                         own_builds=(s == 0))
            out.append((model, model.to_convex()))
        return out

    def sized(label, expected):
        def check(result):
            fails = count_failures(label, *result, expected)
            return Outcome(fails, wrong=bool(fails))
        return check

    def check_stages(result):
        fails = []
        for s, ((model, prog), w) in enumerate(zip(result, windows)):
            fails += count_failures(
                f"stage {s}", model, prog,
                window_counts(feeder, w[1] - w[0], own_builds=(s == 0)))
        return Outcome(fails, wrong=bool(fails))

    return [
        Op("io_round_trip", round_trip, guarded(check_round_trip)),
        Op("assemble_full", full,
           guarded(sized("full", window_counts(feeder, loads.horizon)))),
        Op("build_seamed", seamed,
           guarded(sized("seamed", seamed_counts(feeder, windows)))),
        Op("stage_models", stages, guarded(check_stages)),
    ]


WORKLOADS = {
    "relax-ladder": relax_ladder,
    "sweep-pair": sweep_pair,
    "feeder-build": feeder_build,
}
