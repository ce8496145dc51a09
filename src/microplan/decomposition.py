"""Stage partitioning and the dual-communicating forward sweep.

The horizon is split into contiguous stage windows.  One routine runs a
forward sweep: each stage starts from the previous stage's terminal
state, and prices its own terminal state with the boundary duals the
downstream stage produced in the previous sweep (the last stage is never
priced).  Build decisions belong to the first stage; later stages
receive them as pinned boundary data.

Each stage is solved by branch and bound, whose incumbent solve carries
the pin duals.  One unpriced sweep is the receding-horizon baseline,
and repeated sweeps refine the prices; the best stitched plan is kept.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .convex import get_duals, solve_qcqp
from .formulation import (
    MdopModel, OperatingPlan, assemble, build_seamed, coupling_slots,
    extract_plan, plan_costs,
)
# solve_fixed_then_duals stays bound here: bench/tracer.py wraps it by this name
from .mip import _relative_gap, solve_fixed_then_duals, solve_miqcqp  # noqa: F401

log = logging.getLogger(__name__)

SEAM_TOL = 1e-8
BINARY_SLOT_KINDS = ("x", "y", "w", "z_b", "z_d")


class DecompositionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# stage layout and boundary data


@dataclass(frozen=True)
class StagePlan:
    """Contiguous stage windows covering [0, T)."""
    steps_per_stage: int
    windows: tuple   # ((start, end), ...)

    @property
    def stage_count(self):
        return len(self.windows)

    @property
    def horizon(self):
        return self.windows[-1][1]


def partition(horizon: int, stages: int) -> StagePlan:
    """Split [0, horizon) into `stages` windows of ceil(horizon/stages)
    steps each, the last one shorter when the division is uneven.

    When the rounding exhausts the horizon early (say 10 steps over 6
    stages: five windows of 2), the trailing empty windows are dropped
    and the plan carries the achievable stage count.
    """
    if stages < 1:
        raise DecompositionError("stage count must be >= 1")
    if stages > horizon:
        raise DecompositionError(
            f"cannot cut {horizon} steps into {stages} stages")
    k = math.ceil(horizon / stages)
    windows = []
    start = 0
    while start < horizon:
        windows.append((start, min(start + k, horizon)))
        start += k
    if len(windows) != stages:
        log.warning("stage count reduced from %d to %d by rounding",
                    stages, len(windows))
    return StagePlan(steps_per_stage=k, windows=tuple(windows))


def _handoff(model: MdopModel, x) -> np.ndarray:
    """The state `model` hands the next stage at point `x`: its terminal
    values in coupling-slot order.  Binary state picked off an optimal
    point carries solver noise, so binary slots within 1e-6 of an integer
    are handed on as that integer."""
    vals = np.asarray(x, dtype=float)[list(model.coupling.terminal_cols)]
    binary = np.array([slot.kind in BINARY_SLOT_KINDS
                       for slot in model.coupling.slots], dtype=bool)
    ints = np.round(vals) + 0.0      # + 0.0: a rounded -1e-17 is 0.0, not -0.0
    snap = binary & (np.abs(vals - ints) <= 1e-6)
    vals[snap] = ints[snap]
    return vals


# ---------------------------------------------------------------------------
# stitched plans


@dataclass
class StageStat:
    sweep: int
    stage: int
    status: str
    objective: float    # stage objective, cost-to-go term included
    nodes: int
    gap: float
    solve_time: float

    def key(self):
        """Reproducible fields only; wall time excluded."""
        return (self.sweep, self.stage, self.status, self.objective,
                self.nodes, self.gap)


@dataclass
class PlanSolution:
    """A full-horizon operating plan with its cost accounting.

    The objective is recomputed from the trajectories alone, so
    cost-to-go pricing never leaks into reported totals."""
    plan: OperatingPlan
    builds: dict
    objective: float
    stage_costs: list            # (build, generation, shed) per stage
    lower_bound: float
    gap_percent: float
    stage_stats: list
    sweep_objectives: list
    stage_plan: StagePlan
    bound_detail: str = ""       # how the bound's solve ended; empty when optimal

    def equals(self, other) -> bool:
        """Exact equality of every reproducible field."""
        if set(self.plan.series) != set(other.plan.series):
            return False
        if any(not np.array_equal(self.plan.series[k], other.plan.series[k])
               for k in self.plan.series):
            return False
        return (self.builds == other.builds
                and self.objective == other.objective
                and self.stage_costs == other.stage_costs
                and np.array_equal([self.lower_bound, self.gap_percent],
                                   [other.lower_bound, other.gap_percent],
                                   equal_nan=True)
                and self.bound_detail == other.bound_detail
                and self.sweep_objectives == other.sweep_objectives
                and [s.key() for s in self.stage_stats]
                == [s.key() for s in other.stage_stats])


def relative_gap(ub: float, lb: float) -> float:
    """Optimality gap in percent, over the bound with a 1 USD floor."""
    return 100.0 * _relative_gap(ub, lb)


def stitch(instance, loads, plan: StagePlan, stage_models, stage_xs,
           lower_bound=np.nan):
    """Concatenate per-stage trajectories into one full-horizon plan.

    Seam handoffs are re-verified: every stage's imported state must
    equal its predecessor's terminal state to SEAM_TOL.  Costs are
    recomputed from the trajectories; the build cost appears exactly
    once, in the first stage's bucket.
    """
    plans = [extract_plan(m, x) for m, x in zip(stage_models, stage_xs)]
    slots = coupling_slots(instance)
    for s in range(1, len(stage_models)):
        prev_m, prev_x = stage_models[s - 1], stage_xs[s - 1]
        cur_m, cur_x = stage_models[s], stage_xs[s]
        out = np.asarray(prev_x)[list(prev_m.coupling.terminal_cols)]
        got = cur_m.a[list(cur_m.coupling.init_pin_rows)] @ cur_x
        torn = np.flatnonzero(np.abs(got - out)
                              > SEAM_TOL * (1.0 + np.abs(out)))
        if torn.size:
            k = torn[0]
            raise DecompositionError(
                f"seam {s} breaks on {slots[k].kind}/{slots[k].owner}: "
                f"{float(got[k])!r} != {float(out[k])!r}")

    horizon = plan.horizon
    series = {}
    for p in plans:
        for key, arr in p.series.items():
            dst = series.get(key)
            if dst is None:
                dst = np.zeros(horizon)
                series[key] = dst
            dst[p.start:p.start + p.horizon] = arr
    merged = OperatingPlan(start=0, horizon=horizon, dt=loads.dt,
                           builds=dict(plans[0].builds), series=series)

    costs = plan_costs(instance, merged)
    stage_costs = []
    for s, (a, b) in enumerate(plan.windows):
        stage_costs.append((
            costs.build if s == 0 else 0.0,
            float(costs.generation[a:b].sum()),
            float(costs.shed[a:b].sum()),
        ))
    total = costs.total
    return PlanSolution(
        plan=merged,
        builds=merged.builds,
        objective=total,
        stage_costs=stage_costs,
        lower_bound=float(lower_bound),
        gap_percent=relative_gap(total, lower_bound)
        if np.isfinite(lower_bound) else np.nan,
        stage_stats=[],
        sweep_objectives=[],
        stage_plan=plan,
    )


# ---------------------------------------------------------------------------
# the forward sweep


def _check_coverage(loads, plan):
    if plan.horizon != loads.horizon:
        raise DecompositionError(
            f"stage plan covers {plan.horizon} steps but the loads cover "
            f"{loads.horizon}")


def _warn_short_windows(instance, plan):
    depth = max((d.history_depth for d in instance.generator_specs),
                default=0)
    shortest = min(b - a for a, b in plan.windows)
    if shortest < depth:
        log.warning("shortest stage window (%d steps) is below the longest "
                    "commitment history (%d); seams will carry partial "
                    "history", shortest, depth)


def _relaxed_monolith(instance, loads, plan):
    """Seam-joined continuous relaxation: the lower bound, and the seam
    duals that seed the boundary prices.  Returns the seamed model, the
    solution and, when that solution is not optimal, why ("" otherwise)."""
    seamed = build_seamed(instance, loads, plan.windows)
    sol = solve_qcqp(seamed.model.to_convex())
    failure = "" if sol.status == "optimal" \
        else f"monolithic relaxation ended {sol.status} ({sol.detail})"
    return seamed, sol, failure


def _seam_prices(seamed, sol):
    """One price array per interior boundary, in coupling-slot order,
    from the seam-row duals.

    The dual of a seam equality is the negative marginal cost of state
    arriving at that boundary; negating it prices the upstream terminal
    variables so the first sweep already sees downstream scarcity.
    """
    return [-get_duals(sol, list(rows)) for rows in seamed.seam_rows]


def init_duals(instance, loads, plan: StagePlan):
    """Boundary prices seeded from the relaxed monolith: one array in
    coupling-slot order per interior boundary (stage count minus 1)."""
    _check_coverage(loads, plan)
    seamed, sol, failure = _relaxed_monolith(instance, loads, plan)
    if failure:
        raise DecompositionError(failure)
    return _seam_prices(seamed, sol)


def _sweep(instance, loads, plan: StagePlan, prices, sweep, gap_tol,
           node_limit, time_limit):
    """One forward pass over the stage windows.

    Stage 0 starts from the horizon start, stage s from stage s-1's
    terminal state (:func:`_handoff`), and stage s prices its own
    terminal state with the array ``prices[s]``; the last stage is never
    priced and hands nothing on.  Each stage is solved by branch and
    bound, and its incumbent's engine solution supplies the stage point
    and pin duals.  The negated duals of stage s's boundary pins are the
    price stage s-1 sees in the next sweep.
    Returns the stage models, their points, the new prices and one
    StageStat per stage.
    """
    boundary = None     # assemble reads None as the horizon start
    models, xs, new_prices, stats = [], [], [], []
    for s, window in enumerate(plan.windows):
        duals_in = prices[s] if s < plan.stage_count - 1 else None
        try:
            model = assemble(instance, loads, window=window,
                             boundary=boundary, duals_in=duals_in,
                             own_builds=(s == 0))
            res = solve_miqcqp(model, gap_tol=gap_tol, node_limit=node_limit,
                               time_limit=time_limit)
            if res.binaries is None:
                raise DecompositionError(f"stage search ended {res.status}")
        except Exception as exc:
            raise DecompositionError(
                f"sweep {sweep}, stage {s}: {exc}") from exc
        sol = res.solution
        stats.append(StageStat(sweep=sweep, stage=s, status=res.status,
                               objective=res.objective, nodes=res.nodes,
                               gap=res.gap, solve_time=res.solve_time))
        models.append(model)
        xs.append(sol.x)
        if s > 0:
            new_prices.append(
                -get_duals(sol, list(model.coupling.init_pin_rows)))
        if s < plan.stage_count - 1:
            boundary = _handoff(model, sol.x)
    return models, xs, new_prices, stats


# ---------------------------------------------------------------------------
# mixed-integer sweeps


def mpc_solve(instance, loads, plan: StagePlan, iterations: int = 3,
              mode: str = "dual-init", gap_tol: float = 1e-4,
              node_limit: int = 100_000, time_limit: float = 600.0) -> PlanSolution:
    """Iterated forward sweeps with boundary-price feedback.

    Each stage is solved by branch and bound; its x and pin duals come
    from the engine solution of the incumbent, the stage program with
    every binary fixed.  `dual-init` seeds the first sweep's prices from
    the relaxed monolith; `zero-init` starts unpriced, which makes the
    first sweep the receding-horizon baseline.
    The best stitched plan over all sweeps is returned; its bound is the
    weak-duality bound of the relaxed monolith's result, which holds
    whether or not that solve converged.  That result is optimal either
    certified, polished to the engine's optimality conditions, or
    proven, unpolished (detail ``polish rejected``) but feasible and
    within 1e-7 × max(1 USD, |objective|) of its bound; a proven
    result's prices are the interior point's multipliers, which prove
    the bound but need not be stationary.  When it is not optimal,
    `dual-init` raises, having no prices; `zero-init` needs it only for
    the bound, so it reports the bound its multipliers prove (NaN if it
    ended infeasible or unbounded), with the reason in `bound_detail`.
    """
    if iterations < 1:
        raise DecompositionError("iteration count must be >= 1")
    if mode not in ("dual-init", "zero-init"):
        raise DecompositionError(f"unknown mode {mode!r}")
    _check_coverage(loads, plan)
    _warn_short_windows(instance, plan)
    seamed, relaxed_sol, failure = _relaxed_monolith(instance, loads, plan)
    if failure and mode == "dual-init":
        raise DecompositionError(failure)
    lower_bound = relaxed_sol.bound
    if failure:
        log.warning("%s; the plan is reported %s", failure,
                    "with the bound its last iterate proves"
                    if np.isfinite(lower_bound) else "without a lower bound")
    if mode == "dual-init":
        prices = _seam_prices(seamed, relaxed_sol)
    else:
        prices = [np.zeros(len(coupling_slots(instance)))
                  for _ in range(plan.stage_count - 1)]

    best = None
    stats, sweep_objectives = [], []
    for sweep in range(1, iterations + 1):
        models, xs, prices, sweep_stats = _sweep(
            instance, loads, plan, prices, sweep, gap_tol, node_limit,
            time_limit)
        stats += sweep_stats
        stitched = stitch(instance, loads, plan, models, xs,
                          lower_bound=lower_bound)
        sweep_objectives.append(stitched.objective)
        if best is None or stitched.objective < best.objective:
            best = stitched

    best.stage_stats = stats
    best.sweep_objectives = sweep_objectives
    best.bound_detail = failure
    return best


def rh_solve(instance, loads, plan: StagePlan, gap_tol: float = 1e-4,
             node_limit: int = 100_000, time_limit: float = 600.0) -> PlanSolution:
    """One forward sweep with zero boundary prices."""
    return mpc_solve(instance, loads, plan, iterations=1, mode="zero-init",
                     gap_tol=gap_tol, node_limit=node_limit,
                     time_limit=time_limit)
