"""Branch-and-bound over convex relaxations.

The search is best-first, in one loop: before each pick the budget is
checked, then the open node of lowest bound is popped and explored
once.  A fractional node queues both children with its own bound, the
branch away from the relaxation value first, which wins ties.
Incumbents come from integral nodes and from rounding the relaxation
at node 1 and at every 50th node.

The search builds one engine workspace for its base program, and each
node takes a view of it with the node's bounds.  A node relaxation is
the conic interior point: the search uses only its point, to branch
on, and the weak-duality bound of its multipliers, which holds whether
or not it converged.  The engine labels that point by one rule:
``optimal`` only if proven, its bound within 1e-7 of its objective.
An ``iteration-limit`` point, stopped short or unproven, may prove a
bound below the node's optimum (-inf, with a free costless column),
enough to leave a zero-cost stage short of its gap, so its point is
polished, and the polish stands in for it where it certifies.  A node
whose own gap, the relative gap between the objective of its point
and its bound, is already within the search's ``gap_tol`` is not
polished: its bound is as close to its point as the search asks of any
bound.  Otherwise the polish runs only where its output is used: a
node whose binaries are rounded into an incumbent candidate (an
integral node, or the rounding heuristic's) hands its point to the
solve that confirms them, which polishes it and solves cold only if the
polish does not certify; the incumbent's certified point and duals
price the seams.  Each explored node is logged at DEBUG level on this
module's logger, with its number, depth, bound, incumbent and gap.  That
bound, and the result's, is the least over the open nodes, the nodes
closed unbranched and the incumbent, a confirmed integral node's -inf
counting as +inf; a search without an incumbent is ``infeasible`` only
when it is +inf, and ``node-limit`` otherwise.
"""

import heapq
import logging
import time
from dataclasses import dataclass

import numpy as np

from .convex import EPS_GAP, EngineError, PrimalDualSolution, QpWorkspace, solve_qcqp
from .formulation import MdopModel, fix_binaries

log = logging.getLogger(__name__)

INT_TOL = 1e-5


@dataclass(frozen=True)
class BnbNode:
    """Open subproblem: branching fixings on binary columns, the
    relaxation bound inherited from the parent, and tree depth.

    Columns absent from `fixings` keep their [0, 1] relaxation."""
    fixings: tuple      # ((column, value), ...) in branching order
    bound: float
    depth: int


@dataclass
class MipResult:
    # with an incumbent, optimal-within-gap or feasible; without one,
    # infeasible when `best_bound` is +inf, and node-limit otherwise: the
    # search stopped at a limit, or no solve confirmed a candidate
    status: str
    x: np.ndarray | None
    objective: float           # incumbent value, inf when none found
    best_bound: float
    gap: float                 # relative, (obj - bound) / max(|bound|, 1)
    nodes: int
    binaries: dict | None      # column -> {0.0, 1.0} of the incumbent
    solve_time: float = 0.0
    # the engine solution the incumbent came from, None without one: a
    # certified optimum of the relaxed model with every binary fixed and
    # the `_Tightener` bounds applied, so its duals price every model
    # row; it is the polish of the rounded node's point when that
    # certifies, and a cold solve otherwise
    solution: PrimalDualSolution | None = None


def _relative_gap(ub, lb):
    """Gap over the bound, with the engine's 1 USD floor: a bound of
    zero leaves rounding residue an absolute, not a relative, gap."""
    if not np.isfinite(ub) or not np.isfinite(lb):
        return np.inf
    return (ub - lb) / max(abs(lb), 1.0)


class _Tightener:
    """Build-decision bound propagation, the only presolve performed:
    battery capacity is capped by the build binary's upper bound, and
    commitment is squeezed against the build binary from both sides."""

    def __init__(self, model: MdopModel):
        start, end = model.window
        slots = model.coupling.slots
        self.base_ub = np.asarray(model.ub, dtype=float)
        self.caps = []      # (s_b column, z_b column) with cap = ub_z * base ub_s
        self.gates = []     # (z_d column, x_d columns)
        # the build binaries exist only where a window owns the builds
        if not any(owned for *_, owned in model.col_blocks):
            return
        for b in sorted({s.owner for s in slots if s.kind == "s_b"}):
            self.caps.append((model.col("s_b", b), model.col("z_b", b)))
        for g in sorted({s.owner for s in slots if s.kind == "x"}):
            self.gates.append((model.col("z_d", g), np.array(
                [model.col("x_d", g, t) for t in range(start, end)])))

    def apply(self, lb, ub):
        """Tighten in place; returns False on a contradiction."""
        for js, jz in self.caps:
            ub[js] = min(ub[js], ub[jz] * self.base_ub[js])
        for jz, xs in self.gates:
            ub[xs] = np.minimum(ub[xs], ub[jz])
            lb[jz] = max(lb[jz], lb[xs].max(initial=0.0))
        return bool(np.all(lb <= ub))


class _NodeSolver:
    """Shared relaxation machinery: one engine workspace for the whole
    search, on the base program, and bound construction from fixings."""

    def __init__(self, model):
        self.workspace = QpWorkspace(model.to_convex())
        self.binaries = np.array(sorted(model.binaries), dtype=int)
        self.tightener = _Tightener(model)

    def view(self, fixings):
        """The search's workspace with the bounds of `fixings`, None if
        they contradict."""
        lb = self.workspace.prog.lb.copy()
        ub = self.workspace.prog.ub.copy()
        for j, v in fixings:
            lb[j] = ub[j] = v
        if not self.tightener.apply(lb, ub):
            return None
        return self.workspace.with_bounds(lb, ub)

    def relax(self, fixings, gap_tol):
        """The node relaxation by the interior point: a point to branch
        on and the bound its multipliers prove.  An interior point that
        is not proven optimal may prove a bound below the node's
        optimum, so its point is polished, unless its objective is
        already within `gap_tol` of that bound, and the polish is the
        relaxation when it certifies."""
        ws = self.view(fixings)
        if ws is None:
            return None
        sol = ws.interior()
        if sol.status != "iteration-limit" \
                or _relative_gap(sol.objective, sol.bound) <= gap_tol:
            return sol
        polished = ws.polish_from(sol)
        return sol if polished is None else polished

    def confirm(self, fixings, start):
        """The program with the bounds of `fixings`, solved from
        `start`: the polish of its point, or a cold solve if that does
        not certify."""
        ws = self.view(fixings)
        if ws is None:
            return None
        sol = ws.polish_from(start)
        return ws.solve() if sol is None else sol

    def fractional(self, x):
        """Unfixed binary farthest from integer, lowest column on ties."""
        xb = x[self.binaries]
        off = np.abs(xb - np.round(xb))
        if not off.size or off.max() <= INT_TOL:
            return None
        return int(self.binaries[np.argmax(off)])


def solve_miqcqp(model: MdopModel, gap_tol: float = 1e-4,
                 node_limit: int = 100_000, time_limit: float = 600.0) -> MipResult:
    """Solve the mixed-binary model to the requested relative gap, or
    to the engine's EPS_GAP if that is larger: an unpolished node point
    is proven only to within EPS_GAP of its bound.

    Best-first: until the heap empties, `node_limit` nodes are explored
    or `time_limit` seconds pass (checked before each pick), the open
    node of lowest bound is popped, and a fractional one queues both
    children with its bound.  A limit below 0 or NaN, or an infinite
    `gap_tol`, raises `EngineError`.

    The search is deterministic for fixed inputs.  Each explored node is
    logged at DEBUG level (see the module docstring).
    """
    t0 = time.perf_counter()
    # NaN fails every comparison, so each test also rejects it
    for name, value, usable, rule in (
            ("gap_tol", gap_tol, 0.0 <= gap_tol < np.inf, "finite and >= 0"),
            ("node_limit", node_limit, node_limit >= 0, ">= 0"),
            ("time_limit", time_limit, time_limit >= 0.0, ">= 0")):
        if not usable:
            raise EngineError(f"{name} must be {rule}, got {value!r}")
    solver = _NodeSolver(model)
    # no gap test asks for more than the engine proves of a point
    close = max(gap_tol, EPS_GAP)

    ub = np.inf
    inc_sol = None
    inc_fix = None
    lb_floor = np.inf      # min bound over nodes closed without branching
    nodes = 0
    heap = []
    seq = 0
    heapq.heappush(heap, (-np.inf, seq, BnbNode((), -np.inf, 0)))

    def prunable(bound):
        return _relative_gap(ub, bound) <= close

    def out_of_budget():
        return nodes >= node_limit or time.perf_counter() - t0 > time_limit

    def best_bound(extra=np.inf):
        frontier = heap[0][0] if heap else np.inf
        return min(frontier, lb_floor, extra, ub)

    def log_node(depth, extra=np.inf):
        bound = best_bound(extra)
        log.debug("node %d: depth %d, bound %s, incumbent %s, gap %s",
                  nodes, depth, bound, ub, _relative_gap(ub, bound))

    def accept(fixings, sol):
        """Install an incumbent candidate.  Binaries the relaxation left
        free are rounded to exact integers, and the convex rest is
        confirmed from the node's point, which the engine polishes
        before any cold solve; the result is certified at engine
        tolerance.  Returns whether the candidate was confirmed."""
        nonlocal ub, inc_sol, inc_fix
        full = dict(fixings)
        for j in solver.binaries.tolist():
            if j not in full:
                full[j] = float(round(sol.x[j]))
        cand = solver.confirm(tuple(full.items()), sol)
        if cand is None or cand.status != "optimal":
            return False
        if cand.objective < ub - 1e-12:
            ub = cand.objective
            inc_sol = cand
            inc_fix = full
        return True

    while heap and not out_of_budget():
        bound0, _, node = heapq.heappop(heap)
        if prunable(bound0):
            lb_floor = min(lb_floor, bound0)
            continue
        nodes += 1
        sol = solver.relax(node.fixings, gap_tol)
        if sol is None or sol.status == "infeasible":
            log_node(node.depth)
            continue
        if sol.status == "unbounded":
            raise EngineError("node relaxation is unbounded")
        # weak duality: any multipliers bound the node, converged or not
        bound = max(node.bound, sol.bound)
        jstar = solver.fractional(sol.x)
        if jstar is None or nodes == 1 or nodes % 50 == 0:
            # integral, or the rounding heuristic; a confirmed integral
            # node resolves its region, even with no finite bound on it
            if accept(node.fixings, sol) and jstar is None and bound == -np.inf:
                bound = np.inf
        log_node(node.depth, bound)
        if jstar is None or prunable(bound):
            lb_floor = min(lb_floor, bound)
            continue
        near = float(round(sol.x[jstar]))
        for value in (1.0 - near, near):
            seq += 1
            heapq.heappush(heap, (bound, seq, BnbNode(
                node.fixings + ((jstar, value),), bound, node.depth + 1)))

    lb = best_bound()
    gap = _relative_gap(ub, lb)

    if inc_sol is None:
        status = "infeasible" if lb == np.inf else "node-limit"
    elif gap <= close:
        status = "optimal-within-gap"
        gap = max(gap, 0.0)
    else:
        status = "feasible"

    return MipResult(
        status=status,
        x=None if inc_sol is None else inc_sol.x,
        objective=ub,
        best_bound=lb,
        gap=gap,
        nodes=nodes,
        binaries=inc_fix,
        solve_time=time.perf_counter() - t0,
        solution=inc_sol,
    )


def solve_fixed_then_duals(model: MdopModel, binaries) -> PrimalDualSolution:
    """Convex solve with every binary fixed; the returned solution
    carries duals for all model rows, including the boundary pins.

    Shed variables make any binary assignment servable, so a
    non-optimal outcome is an engine failure, not a model property."""
    fixed = fix_binaries(model, binaries)
    sol = solve_qcqp(fixed.to_convex())
    if sol.status != "optimal":
        raise EngineError(
            f"fixed-binary solve ended {sol.status} ({sol.detail})")
    return sol
