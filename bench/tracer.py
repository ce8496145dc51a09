"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps the package's public functions where they are bound:
``solve_qcqp`` is rebound separately in ``microplan.convex``,
``microplan.mip`` and ``microplan.decomposition``, so a span records the
site it was called through, and node solves stay apart from the relaxed
monolith.  It also wraps ``scipy.sparse.linalg.splu`` to count
factorizations, their fill and the back-solves made with them.  Spans are
kept in memory and written out once, at the end.

The program is single-threaded, so spans nest strictly and no time is
spent waiting; a span's self time is its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from microplan import convex, decomposition, formulation, instance, mip


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    site: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.backsolves = 0
        self.backsolve_s = 0.0
        self._stack = []
        self._patches = []

    def call(self, name, site, fn, args=(), kwargs=None, hook=None):
        """Run ``fn`` inside a new span; ``hook(tracer, span, args, kwargs,
        result)`` records attributes after the span closes and returns the
        value handed back to the caller."""
        kwargs = kwargs or {}
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, site, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            result = hook(self, span, args, kwargs, result)
        return result

    def _wrap(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        site = getattr(owner, "__name__", str(owner))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, site, original, args, kwargs, hook)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        for owner, attr, name, hook in _TARGETS:
            self._wrap(owner, attr, name, hook)
        self._wrap(spla, "splu", "convex.splu", _lu_hook)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "site": s.site, "start": s.start, "end": s.end,
                    "attrs": s.attrs}, default=float) + "\n")


class _CountedLU:
    """SuperLU stand-in that counts and times back-solves."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._lu.solve(rhs, *args, **kwargs)
        self._tracer.backsolve_s += time.perf_counter() - t0
        self._tracer.backsolves += 1
        return out


# ---------------------------------------------------------------------------
# hooks: attributes recorded on each span


def _lu_hook(tracer, span, args, kwargs, lu):
    span.attrs["nnz"] = int(lu.L.nnz + lu.U.nnz)
    return _CountedLU(lu, tracer)


def _model_hook(tracer, span, args, kwargs, built):
    model = getattr(built, "model", built)   # a SeamedModel wraps its model
    span.attrs.update(cols=model.n, rows=len(model.row_coefs),
                      cones=len(model.cones), binaries=len(model.binaries))
    return built


def _qcqp_hook(tracer, span, args, kwargs, sol):
    prog = args[0]
    span.attrs.update(status=sol.status, polished=bool(sol.polished),
                      cut_rows=span.attrs.pop("last_m", prog.m) - prog.m)
    return sol


def _ws_solve_hook(tracer, span, args, kwargs, sol):
    ws = args[0]
    warm = args[1] if len(args) > 1 else kwargs.get("warm_start")
    span.attrs.update(iterations=int(sol.iterations), warm=warm is not None)
    if span.parent is not None:
        tracer.spans[span.parent].attrs["last_m"] = ws.prog.m
    return sol


def _mip_hook(tracer, span, args, kwargs, res):
    span.attrs.update(status=res.status, nodes=int(res.nodes))
    return res


def _sweep_hook(tracer, span, args, kwargs, sol):
    objs = list(sol.sweep_objectives)
    span.attrs.update(sweeps=len(objs), stage_solves=len(sol.stage_stats),
                      cost_ratio=min(objs) / objs[0] if objs and objs[0] else 1.0)
    return sol


_TARGETS = [
    (instance, "parse_instance", "instance.parse_instance", None),
    (instance, "write_instance", "instance.write_instance", None),
    (instance, "parse_loads", "instance.parse_loads", None),
    (instance, "write_loads", "instance.write_loads", None),
    (formulation, "assemble", "formulation.assemble", _model_hook),
    (decomposition, "assemble", "formulation.assemble", _model_hook),
    (formulation, "build_seamed", "formulation.build_seamed", _model_hook),
    (decomposition, "build_seamed", "formulation.build_seamed", _model_hook),
    (formulation.MdopModel, "to_convex", "formulation.to_convex", None),
    (formulation, "extract_plan", "formulation.extract_plan", None),
    (decomposition, "extract_plan", "formulation.extract_plan", None),
    (formulation, "plan_costs", "formulation.plan_costs", None),
    (decomposition, "plan_costs", "formulation.plan_costs", None),
    (formulation, "check_feasibility", "formulation.check_feasibility", None),
    (convex, "solve_qcqp", "convex.solve_qcqp", _qcqp_hook),
    (mip, "solve_qcqp", "convex.solve_qcqp", _qcqp_hook),
    (decomposition, "solve_qcqp", "convex.solve_qcqp", _qcqp_hook),
    (convex.QpWorkspace, "__init__", "convex.workspace_build", None),
    (convex.QpWorkspace, "solve", "convex.cut_round", _ws_solve_hook),
    (mip, "solve_miqcqp", "mip.solve_miqcqp", _mip_hook),
    (decomposition, "solve_miqcqp", "mip.solve_miqcqp", _mip_hook),
    (mip, "solve_fixed_then_duals", "mip.fixed_resolve", None),
    (decomposition, "solve_fixed_then_duals", "mip.fixed_resolve", None),
    (decomposition, "mpc_solve", "decomposition.mpc_solve", _sweep_hook),
    (decomposition, "rh_solve", "decomposition.rh_solve", _sweep_hook),
    (decomposition, "_relaxed_monolith", "decomposition.relaxed_monolith", None),
    (decomposition, "stitch", "decomposition.stitch", None),
]


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


PER_LAYER = [
    ("instance.io_s", "s"), ("instance.io_calls", "count"),
    ("formulation.assemble_s", "s"), ("formulation.assemble_calls", "count"),
    ("formulation.build_seamed_s", "s"), ("formulation.to_convex_s", "s"),
    ("formulation.to_convex_calls", "count"), ("formulation.check_s", "s"),
    ("formulation.cols", "count"), ("formulation.rows", "count"),
    ("formulation.cones", "count"), ("formulation.binaries", "count"),
    ("convex.solve_s", "s"), ("convex.solve_calls", "count"),
    ("convex.cut_rounds", "count"), ("convex.cut_rows", "count"),
    ("convex.iterations", "count"), ("convex.not_optimal", "count"),
    ("convex.polished_ratio", "ratio"), ("convex.warm_started_ratio", "ratio"),
    ("convex.workspace_builds", "count"), ("convex.workspace_build_s", "s"),
    ("convex.factorizations", "count"), ("convex.factorize_s", "s"),
    ("convex.factor_nnz", "count"), ("convex.backsolves", "count"),
    ("convex.backsolve_s", "s"),
    ("mip.solve_s", "s"), ("mip.solve_calls", "count"), ("mip.nodes", "count"),
    ("mip.node_solves", "count"), ("mip.solves_per_node", "ratio"),
    ("mip.not_within_gap", "count"), ("mip.fixed_resolve_s", "s"),
    ("decomposition.self_s", "s"), ("decomposition.calls", "count"),
    ("decomposition.sweeps", "count"), ("decomposition.stage_solves", "count"),
    ("decomposition.relaxed_monolith_s", "s"), ("decomposition.stitch_s", "s"),
    ("decomposition.sweep_cost_ratio", "ratio"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metric name -> value, from one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by.get(n, ())]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def attr_sum_of(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    def attr_sum(key, *names):
        return attr_sum_of(named(*names), key)

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    io = ("instance.parse_instance", "instance.write_instance",
          "instance.parse_loads", "instance.write_loads")
    models = ("formulation.assemble", "formulation.build_seamed")
    qcqp = named("convex.solve_qcqp")
    rounds = named("convex.cut_round")
    mips = named("mip.solve_miqcqp")
    decomp = [s for s in spans if s.name.startswith("decomposition.")]
    top = [s for s in named("decomposition.mpc_solve", "decomposition.rh_solve")
           if not (parent_name(s) or "").startswith("decomposition.")]
    node_solves = sum(parent_name(s) == "mip.solve_miqcqp" for s in qcqp)
    nodes = attr_sum("nodes", "mip.solve_miqcqp")
    return {
        "instance.io_s": total(*io),
        "instance.io_calls": len(named(*io)),
        "formulation.assemble_s": total("formulation.assemble"),
        "formulation.assemble_calls": len(named("formulation.assemble")),
        "formulation.build_seamed_s": total("formulation.build_seamed"),
        "formulation.to_convex_s": total("formulation.to_convex"),
        "formulation.to_convex_calls": len(named("formulation.to_convex")),
        "formulation.check_s": total("formulation.extract_plan",
                                     "formulation.plan_costs",
                                     "formulation.check_feasibility"),
        "formulation.cols": attr_sum("cols", *models),
        "formulation.rows": attr_sum("rows", *models),
        "formulation.cones": attr_sum("cones", *models),
        "formulation.binaries": attr_sum("binaries", *models),
        "convex.solve_s": total("convex.solve_qcqp"),
        "convex.solve_calls": len(qcqp),
        "convex.cut_rounds": len(rounds),
        "convex.cut_rows": attr_sum("cut_rows", "convex.solve_qcqp"),
        "convex.iterations": attr_sum("iterations", "convex.cut_round"),
        "convex.not_optimal": sum(s.attrs.get("status") != "optimal" for s in qcqp),
        "convex.polished_ratio": _ratio(attr_sum("polished", "convex.solve_qcqp"),
                                        len(qcqp)),
        "convex.warm_started_ratio": _ratio(attr_sum("warm", "convex.cut_round"),
                                            len(rounds)),
        "convex.workspace_builds": len(named("convex.workspace_build")),
        "convex.workspace_build_s": total("convex.workspace_build"),
        "convex.factorizations": len(named("convex.splu")),
        "convex.factorize_s": total("convex.splu"),
        "convex.factor_nnz": attr_sum("nnz", "convex.splu"),
        "convex.backsolves": tracer.backsolves,
        "convex.backsolve_s": tracer.backsolve_s,
        "mip.solve_s": sum(own[s.id] for s in mips),
        "mip.solve_calls": len(mips),
        "mip.nodes": nodes,
        "mip.node_solves": node_solves,
        "mip.solves_per_node": _ratio(node_solves, nodes),
        "mip.not_within_gap": sum(s.attrs.get("status") != "optimal-within-gap"
                                  for s in mips),
        "mip.fixed_resolve_s": total("mip.fixed_resolve"),
        "decomposition.self_s": sum(own[s.id] for s in decomp),
        "decomposition.calls": len(top),
        "decomposition.sweeps": attr_sum_of(top, "sweeps"),
        "decomposition.stage_solves": attr_sum_of(top, "stage_solves"),
        "decomposition.relaxed_monolith_s": total("decomposition.relaxed_monolith"),
        "decomposition.stitch_s": total("decomposition.stitch"),
        "decomposition.sweep_cost_ratio": min(
            (s.attrs["cost_ratio"] for s in top if "cost_ratio" in s.attrs), default=0.0),
    }
