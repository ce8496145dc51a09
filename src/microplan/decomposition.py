"""Stage partitioning and the dual-communicating forward sweep.

The horizon is split into contiguous stage windows.  One routine runs a
forward sweep: each stage starts from the previous stage's terminal
state, and prices its own terminal state with the boundary duals the
downstream stage produced in the previous sweep (the last stage is never
priced).  Build decisions belong to the first stage; later stages
receive them as pinned boundary data.

Two stage solvers drive that sweep.  With branch and bound, whose
incumbent solve carries the pin duals, one unpriced sweep is the
receding-horizon baseline and repeated sweeps refine the prices; the
best stitched plan is kept.  With the relaxed stage problems, the sweep
is a block Gauss-Seidel pass over the continuous monolith, and its
progress is the KKT residual of the merged primal-dual point on the
seam-joined model.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .convex import certify, get_duals, solve_qcqp
from .formulation import (
    MdopModel, OperatingPlan, assemble, build_seamed, coupling_slots,
    extract_plan, horizon_start_boundary, plan_costs, relax_integrality,
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
    stage_count: int
    steps_per_stage: int
    windows: tuple   # ((start, end), ...)

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
    return StagePlan(stage_count=len(windows), steps_per_stage=k,
                     windows=tuple(windows))


@dataclass(frozen=True)
class BoundaryState:
    """State handed across a stage boundary, aligned with the coupling
    slot layout: battery charge, commitment, delivered power, start and
    stop history, and the build decisions."""
    values: np.ndarray
    slots: tuple

    def value(self, kind, owner, hist=0):
        for k, slot in enumerate(self.slots):
            if (slot.kind, slot.owner, slot.hist) == (kind, owner, hist):
                return float(self.values[k])
        raise KeyError((kind, owner, hist))

    @classmethod
    def horizon_start(cls, instance):
        return cls(values=horizon_start_boundary(instance),
                   slots=coupling_slots(instance))

    @classmethod
    def from_terminal(cls, model: MdopModel, x, snap=True):
        vals = np.asarray(x, dtype=float)[list(model.coupling.terminal_cols)]
        if snap:
            # binary state picked off an optimal point carries solver
            # noise; hand exact integers downstream
            for k, slot in enumerate(model.coupling.slots):
                if slot.kind in BINARY_SLOT_KINDS \
                        and abs(vals[k] - round(vals[k])) <= 1e-6:
                    vals[k] = float(round(vals[k]))
        return cls(values=vals, slots=model.coupling.slots)


@dataclass(frozen=True)
class DualVector:
    """Marginal system cost of boundary state delivered to a stage: the
    price a predecessor should see on its terminal variables."""
    values: np.ndarray
    slots: tuple

    def __post_init__(self):
        if len(self.values) != len(self.slots):
            raise DecompositionError("price vector does not match slot layout")
        if not np.all(np.isfinite(self.values)):
            raise DecompositionError("boundary prices must be finite")

    @classmethod
    def zero(cls, instance):
        slots = coupling_slots(instance)
        return cls(values=np.zeros(len(slots)), slots=slots)


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
    relaxed = relax_integrality(seamed.model)
    sol = solve_qcqp(relaxed.to_convex())
    failure = "" if sol.status == "optimal" \
        else f"monolithic relaxation ended {sol.status} ({sol.detail})"
    return seamed, sol, failure


def _seam_prices(seamed, sol):
    """One DualVector per interior boundary from the seam-row duals.

    The dual of a seam equality is the negative marginal cost of state
    arriving at that boundary; negating it prices the upstream terminal
    variables so the first sweep already sees downstream scarcity.
    """
    slots = seamed.model.coupling.slots
    return [DualVector(values=-get_duals(sol, list(rows)), slots=slots)
            for rows in seamed.seam_rows]


def init_duals(instance, loads, plan: StagePlan):
    """Boundary prices seeded from the relaxed monolith, one DualVector
    per interior boundary (stage count minus 1)."""
    _check_coverage(loads, plan)
    seamed, sol, failure = _relaxed_monolith(instance, loads, plan)
    if failure:
        raise DecompositionError(failure)
    return _seam_prices(seamed, sol)


def _sweep(instance, loads, plan: StagePlan, prices, solve_stage, snap,
           sweep):
    """One forward pass over the stage windows.

    Stage s starts from stage s-1's terminal state and prices its own
    terminal state with ``prices[s]``; the last stage is never priced.
    ``solve_stage(s, model)`` returns an optimal PrimalDualSolution of
    the stage model.  The negated duals of stage s's boundary pins are
    the price stage s-1 sees in the next sweep.  ``snap`` rounds binary
    terminal slots to exact integers before they are handed on.
    Returns the stage models, their solutions and the new prices.
    """
    boundary = BoundaryState.horizon_start(instance)
    models, sols, new_prices = [], [], []
    for s, window in enumerate(plan.windows):
        duals_in = prices[s].values if s < plan.stage_count - 1 else None
        try:
            model = assemble(instance, loads, window=window,
                             boundary=boundary.values, duals_in=duals_in,
                             own_builds=(s == 0))
            sol = solve_stage(s, model)
        except Exception as exc:
            raise DecompositionError(
                f"sweep {sweep}, stage {s}: {exc}") from exc
        models.append(model)
        sols.append(sol)
        if s > 0:
            pins = list(model.coupling.init_pin_rows)
            new_prices.append(DualVector(values=-get_duals(sol, pins),
                                         slots=model.coupling.slots))
        boundary = BoundaryState.from_terminal(model, sol.x, snap=snap)
    return models, sols, new_prices


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
    whether or not that solve converged.  When it is not optimal,
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
        prices = [DualVector.zero(instance)
                  for _ in range(plan.stage_count - 1)]

    stats = []

    def solve_stage(s, model):
        res = solve_miqcqp(model, gap_tol=gap_tol, node_limit=node_limit,
                           time_limit=time_limit)
        if res.binaries is None:
            raise DecompositionError(f"stage search ended {res.status}")
        stats.append(StageStat(sweep=sweep, stage=s, status=res.status,
                               objective=res.objective, nodes=res.nodes,
                               gap=res.gap, solve_time=res.solve_time))
        return res.solution

    best = None
    sweep_objectives = []
    for sweep in range(1, iterations + 1):
        models, sols, prices = _sweep(instance, loads, plan, prices,
                                      solve_stage, snap=True, sweep=sweep)
        stitched = stitch(instance, loads, plan, models,
                          [sol.x for sol in sols], lower_bound=lower_bound)
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


# ---------------------------------------------------------------------------
# relaxed sweeps as a convex decomposition


@dataclass
class RelaxedSweepResult:
    """Merged primal-dual point on the seam-joined relaxation, with the
    sweep-by-sweep system residual history."""
    x: np.ndarray
    y_rows: np.ndarray
    y_bounds: np.ndarray
    cone_duals: np.ndarray
    objective: float
    residuals: list
    sweeps: int
    converged: bool


def gauss_seidel_relaxed(instance, loads, plan: StagePlan,
                         max_sweeps: int = 200,
                         tol: float = 1e-5) -> RelaxedSweepResult:
    """Forward sweeps over the relaxed stage problems until the merged
    point satisfies the monolithic KKT system to `tol`.

    Each stage is solved relaxed by one cold conic solve, whose ball
    multipliers enter the merged point as they are.  With every piece
    convex the iteration is a block Gauss-Seidel pass over the
    monolith's optimality system, and the merged residual (the worse of
    :func:`certify`'s primal violation and stationarity residual) is the
    convergence measure.  A single stage satisfies the system in one
    sweep.  Divergence (the residual growing tenfold over five sweeps)
    raises DecompositionError.
    """
    _check_coverage(loads, plan)
    _warn_short_windows(instance, plan)
    seamed = build_seamed(instance, loads, plan.windows)
    merged_model = relax_integrality(seamed.model)
    merged_prog = merged_model.to_convex()
    prices = [DualVector.zero(instance) for _ in range(plan.stage_count - 1)]

    def solve_stage(s, model):
        sol = solve_qcqp(relax_integrality(model).to_convex())
        if sol.status != "optimal":
            raise DecompositionError(
                f"relaxed solve ended {sol.status} ({sol.detail})")
        return sol

    residuals = []
    result = None
    for sweep in range(1, max_sweeps + 1):
        models, sols, prices = _sweep(instance, loads, plan, prices,
                                      solve_stage, snap=False, sweep=sweep)
        # each stage is one block of the seam-joined layout; a stage's
        # pins stand in for the seam rows in front of it
        x = np.zeros(merged_prog.n)
        y_rows = np.zeros(merged_prog.m)
        y_bounds = np.zeros(merged_prog.n)
        cone_duals = np.zeros(len(merged_prog.cones))
        col = row = cone = 0
        for s, (model, sol) in enumerate(zip(models, sols)):
            pins = list(model.coupling.init_pin_rows)
            n_rows = model.a.shape[0] - (len(pins) if s else 0)
            x[col:col + model.n] = sol.x
            y_bounds[col:col + model.n] = sol.y_bounds
            y_rows[row:row + n_rows] = sol.y_rows[:n_rows]
            cone_duals[cone:cone + len(model.cones)] = sol.cone_duals
            if s > 0:
                # fresh pin duals on the seam rows make the upstream
                # terminal residual the price-update mismatch
                y_rows[list(seamed.seam_rows[s - 1])] = sol.y_rows[pins]
            col += model.n
            row += n_rows
            cone += len(model.cones)
        cert = certify(merged_prog, x, y_rows, y_bounds, cone_duals)
        res = max(cert.prim, cert.stat)
        residuals.append(res)
        result = RelaxedSweepResult(
            x=x, y_rows=y_rows, y_bounds=y_bounds, cone_duals=cone_duals,
            objective=merged_model.objective_value(x), residuals=residuals,
            sweeps=sweep, converged=res <= tol)
        if res <= tol:
            return result
        if len(residuals) >= 6 \
                and residuals[-1] > 10.0 * min(residuals[-6:-1]):
            raise DecompositionError(
                f"sweep residual diverging: {residuals[-6:]}")
    return result
