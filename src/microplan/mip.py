"""Branch-and-bound over convex relaxations.

The search is best-first with a depth-first plunge after every pick:
the most promising open node is popped, and its children are followed
downward (rounding the branch variable toward the relaxation value
first) until the chain is pruned, infeasible, or integral.  Plunging
finds incumbents early; the heap keeps the global bound honest.

Each node relaxation is one cold solve of the conic interior point on
the base program with the node's bounds; nothing else passes between
nodes.
"""

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .convex import (
    ConvexProgram, EngineError, PrimalDualSolution, Settings, solve_qcqp,
)
from .formulation import MdopModel, fix_binaries, relax_integrality

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
    status: str                # optimal-within-gap | feasible | infeasible | node-limit
    x: np.ndarray | None
    objective: float           # incumbent value, inf when none found
    best_bound: float
    gap: float                 # relative, (obj - bound) / max(|bound|, 1)
    nodes: int
    binaries: dict | None      # column -> {0.0, 1.0} of the incumbent
    log: list = field(default_factory=list)
    solve_time: float = 0.0
    # the engine solution the incumbent came from, None without one: an
    # optimal solve of the relaxed model with every binary fixed and the
    # `_Tightener` bounds applied, so its duals price every model row
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
            np.minimum(ub[xs], ub[jz], out=ub[xs])
            lb[jz] = max(lb[jz], lb[xs].max(initial=0.0))
        return bool(np.all(lb <= ub))


class _NodeSolver:
    """Shared relaxation machinery: the base program and bound
    construction from fixings."""

    def __init__(self, model, settings):
        self.base = relax_integrality(model).to_convex()
        self.binaries = sorted(model.binaries)
        self.tightener = _Tightener(model)
        self.settings = settings

    def bounds(self, fixings):
        lb = self.base.lb.copy()
        ub = self.base.ub.copy()
        for j, v in fixings:
            lb[j] = ub[j] = v
        if not self.tightener.apply(lb, ub):
            return None
        return lb, ub

    def solve(self, fixings):
        made = self.bounds(fixings)
        if made is None:
            return None
        lb, ub = made
        prog = ConvexProgram(self.base.p_diag, self.base.q, self.base.a,
                             self.base.l, self.base.u, lb, ub,
                             self.base.cones, self.base.const)
        return solve_qcqp(prog, settings=self.settings)

    def fractional(self, x):
        """Unfixed binary farthest from integer, lowest column on ties."""
        best = None
        for j in self.binaries:
            f = abs(x[j] - round(x[j]))
            if f > INT_TOL and (best is None or f > best[0]):
                best = (f, j)
        return None if best is None else best[1]


def solve_miqcqp(model: MdopModel, gap_tol: float = 1e-4,
                 node_limit: int = 100_000, time_limit: float = 600.0,
                 settings: Settings = Settings(), log_path=None) -> MipResult:
    """Solve the mixed-binary model to the requested relative gap.

    The search is deterministic for fixed inputs.  `log_path`, when
    given, receives a CSV trace with one row per explored node.
    """
    t0 = time.perf_counter()
    solver = _NodeSolver(model, settings)
    log = []

    ub = np.inf
    inc_sol = None
    inc_fix = None
    lb_floor = np.inf      # min bound over nodes pruned by the gap test
    nodes = 0
    heap = []
    seq = 0
    heapq.heappush(heap, (-np.inf, seq, BnbNode((), -np.inf, 0)))

    def prunable(bound):
        return _relative_gap(ub, bound) <= gap_tol

    def out_of_budget():
        return nodes >= node_limit or time.perf_counter() - t0 > time_limit

    def best_bound(extra=np.inf):
        frontier = heap[0][0] if heap else np.inf
        return min(frontier, lb_floor, extra, ub)

    def accept(fixings, sol):
        """Install an incumbent candidate.  Binaries the relaxation left
        free are rounded to exact integers and the convex rest is
        re-solved, which re-verifies feasibility at engine tolerance;
        a converged solution whose binaries were all pinned by `fixings`
        is already exact and is taken as is."""
        nonlocal ub, inc_sol, inc_fix
        full = dict(fixings)
        extra = [j for j in solver.binaries if j not in full]
        for j in extra:
            full[j] = float(round(sol.x[j]))
        if extra or sol.status != "optimal":
            cand = solver.solve(tuple(full.items()))
            if cand is None or cand.status != "optimal":
                return
        else:
            cand = sol
        if cand.objective < ub - 1e-12:
            ub = cand.objective
            inc_sol = cand
            inc_fix = full

    interrupted = False
    while heap:
        bound0, _, node = heapq.heappop(heap)
        if prunable(bound0):
            lb_floor = min(lb_floor, bound0)
            continue
        if out_of_budget():
            heapq.heappush(heap, (bound0, 0, node))
            interrupted = True
            break

        # plunge: follow the rounded child until the chain dies
        cur = node
        while cur is not None:
            if out_of_budget():
                heapq.heappush(heap, (cur.bound, seq + 10 ** 9, cur))
                interrupted = True
                break
            nodes += 1
            sol = solver.solve(cur.fixings)
            if sol is None or sol.status == "infeasible":
                log.append((nodes, cur.depth, best_bound(), ub,
                            _relative_gap(ub, best_bound())))
                break
            if sol.status == "unbounded":
                raise EngineError("node relaxation is unbounded")
            if sol.status == "optimal":
                bound = max(cur.bound, sol.objective)
            else:
                bound = cur.bound   # an unconverged value proves nothing
            jstar = solver.fractional(sol.x)
            if jstar is None:
                accept(cur.fixings, sol)
            elif nodes == 1 or nodes % 50 == 0:
                accept(cur.fixings, sol)   # rounding heuristic
            log.append((nodes, cur.depth, best_bound(bound), ub,
                        _relative_gap(ub, best_bound(bound))))
            if jstar is None or prunable(bound):
                lb_floor = min(lb_floor, bound)
                break
            near = float(round(sol.x[jstar]))
            seq += 1
            heapq.heappush(heap, (bound, seq,
                                  BnbNode(cur.fixings + ((jstar, 1.0 - near),),
                                          bound, cur.depth + 1)))
            cur = BnbNode(cur.fixings + ((jstar, near),), bound, cur.depth + 1)
        if interrupted:
            break

    cands = [b for b, _, _ in heap]
    if np.isfinite(lb_floor):
        cands.append(lb_floor)
    if np.isfinite(ub):
        cands.append(ub)    # the incumbent's region is resolved exactly
    lb = min(cands) if cands else ub    # empty frontier: tree fully resolved
    gap = _relative_gap(ub, lb)

    if inc_sol is None:
        status = "node-limit" if interrupted else "infeasible"
    elif gap <= gap_tol:
        status = "optimal-within-gap"
        gap = max(gap, 0.0)
    else:
        status = "feasible"

    result = MipResult(
        status=status,
        x=None if inc_sol is None else inc_sol.x,
        objective=ub,
        best_bound=lb,
        gap=gap,
        nodes=nodes,
        binaries=inc_fix,
        log=log,
        solve_time=time.perf_counter() - t0,
        solution=inc_sol,
    )
    if log_path is not None:
        write_node_log(result, log_path)
    return result


def write_node_log(result: MipResult, path):
    with open(path, "w") as fh:
        fh.write("node,depth,bound,incumbent,gap\n")
        for node, depth, bound, inc, gap in result.log:
            fh.write(f"{node},{depth},{bound!r},{inc!r},{gap!r}\n")


def solve_fixed_then_duals(model: MdopModel, binaries,
                           settings: Settings = Settings()) -> PrimalDualSolution:
    """Convex solve with every binary fixed; the returned solution
    carries duals for all model rows, including the boundary pins.

    Shed variables make any binary assignment servable, so a
    non-optimal outcome is an engine failure, not a model property."""
    fixed = fix_binaries(model, binaries)
    sol = solve_qcqp(fixed.to_convex(), settings=settings)
    if sol.status != "optimal":
        raise EngineError(
            f"fixed-binary solve ended {sol.status} ({sol.detail})")
    return sol
