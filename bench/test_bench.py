"""Tests of the benchmark's own code: span arithmetic, failure counting,
input generation and the closed-form model sizes.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from microplan import convex, decomposition, formulation  # noqa: E402
from microplan.instance import validate_radial  # noqa: E402


def spans_from(rows):
    """(id, parent, name, start, end, attrs) rows -> Span list."""
    return [tr.Span(i, p, name, "test", a, b, dict(attrs))
            for i, p, name, a, b, attrs in rows]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = spans_from([
        (0, None, "root", 0.0, 10.0, {}),
        (1, 0, "a", 1.0, 4.0, {}),
        (2, 1, "a.child", 2.0, 3.0, {}),
        (3, 0, "b", 5.0, 9.0, {}),
        (4, 0, "c", 8.0, 11.0, {}),   # overlaps b and overruns the root
    ])
    own = tr.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 5.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(3.0)


def test_layer_metrics_on_hand_built_tree():
    t = tr.Tracer()
    t.spans = spans_from([
        (0, None, "decomposition.mpc_solve", 0.0, 20.0,
         {"sweeps": 2, "stage_solves": 8, "cost_ratio": 0.25}),
        (1, 0, "decomposition.relaxed_monolith", 0.0, 3.0, {}),
        (2, 1, "convex.solve_qcqp", 0.5, 2.5,
         {"status": "optimal", "polished": True, "cut_rows": 4}),
        (3, 0, "mip.solve_miqcqp", 4.0, 14.0,
         {"status": "optimal-within-gap", "nodes": 3}),
        (4, 3, "convex.solve_qcqp", 5.0, 8.0,
         {"status": "optimal", "polished": False, "cut_rows": 1}),
        (5, 3, "convex.solve_qcqp", 9.0, 10.0,
         {"status": "iteration-limit", "polished": False, "cut_rows": 0}),
    ])
    m = tr.layer_metrics(t)
    assert m["mip.solve_s"] == pytest.approx(10.0 - 4.0)
    assert m["mip.node_solves"] == 2
    assert m["mip.solves_per_node"] == pytest.approx(2 / 3)
    assert m["convex.solve_calls"] == 3
    assert m["convex.solve_s"] == pytest.approx(6.0)
    assert m["convex.not_optimal"] == 1
    assert m["convex.cut_rows"] == 5
    assert m["convex.polished_ratio"] == pytest.approx(1 / 3)
    # self time of the decomposition spans: 20 - 3 - 10, plus 3 - 2
    assert m["decomposition.self_s"] == pytest.approx(8.0)
    assert m["decomposition.calls"] == 1
    assert m["decomposition.sweeps"] == 2
    assert m["decomposition.sweep_cost_ratio"] == 0.25
    assert set(m) == {name for name, _ in tr.PER_LAYER}


def test_tracer_records_and_restores_bindings():
    pair = wl.pair_instance()
    loads = wl.flat_loads(pair, 2)
    originals = (formulation.assemble, decomposition.assemble,
                 formulation.MdopModel.to_convex)
    t = tr.Tracer()
    t.install()
    try:
        formulation.assemble(pair, loads).to_convex()
    finally:
        t.uninstall()
    assert (formulation.assemble, decomposition.assemble,
            formulation.MdopModel.to_convex) == originals
    names = [s.name for s in t.spans]
    assert names == ["formulation.assemble", "formulation.to_convex"]
    assert t.spans[0].attrs["cols"] == wl.window_counts(pair, 2)[0]


def _relaxed_pair(steps=2):
    pair = wl.pair_instance()
    model = formulation.relax_integrality(
        formulation.assemble(pair, wl.flat_loads(pair, steps)))
    return model.to_convex()


def _solution(prog, status, x):
    return convex.PrimalDualSolution(
        status=status, x=x, y_rows=np.zeros(prog.m), y_bounds=np.zeros(prog.n),
        objective=prog.objective(x), prim_res=1.0, dual_res=1.0,
        iterations=200_000, solve_time=0.0)


def test_iteration_limit_counts_as_failed_not_wrong():
    prog = _relaxed_pair()
    sol = _solution(prog, "iteration-limit", np.zeros(prog.n))
    outcome = wl.check_convex(prog, sol, "T2")
    assert outcome.failures and not outcome.wrong

    op = wl.Op("stalled", lambda: sol,
               wl.guarded(lambda s: wl.check_convex(prog, s, "T2")))
    summary = worker.summarize([worker.run_pass([op])])
    assert (summary["attempted"], summary["failed"]) == (1, 1)
    assert summary["success_frac"] == 0.0
    assert summary["correct"]


def test_optimal_status_on_a_broken_point_is_wrong():
    prog = _relaxed_pair()
    x = np.clip(np.zeros(prog.n), prog.lb, prog.ub)   # breaks the balances
    outcome = wl.check_convex(prog, _solution(prog, "optimal", x), "T2")
    assert outcome.failures and outcome.wrong


def test_raising_op_is_failed():
    def boom():
        raise RuntimeError("engine gave up")
    summary = worker.summarize([worker.run_pass([wl.Op("boom", boom, None)])])
    assert (summary["attempted"], summary["failed"]) == (1, 1)
    assert summary["correct"]


def test_feeder_is_seeded_and_radial():
    a, b = wl.feeder_instance(7), wl.feeder_instance(7)
    assert a == b
    assert validate_radial(a).is_radial
    assert len(a.buses) == wl.FEEDER_BUSES
    other = wl.feeder_instance(8)
    assert other != a
    loads_a, loads_b = wl.feeder_loads(a, 7), wl.feeder_loads(b, 7)
    assert loads_a.horizon == wl.FEEDER_HORIZON
    assert np.array_equal(loads_a.p, loads_b.p)
    assert not np.array_equal(loads_a.p, wl.feeder_loads(other, 8).p)
    # the model sizes, and so the work per op, do not depend on the seed
    assert wl.window_counts(a, 96) == wl.window_counts(other, 96)


def test_closed_form_counts_match_built_models():
    pair = wl.pair_instance()
    loads = wl.flat_loads(pair, 8)
    windows = decomposition.partition(8, 4).windows
    model = formulation.assemble(pair, loads)
    assert not wl.count_failures("full", model, model.to_convex(),
                                 wl.window_counts(pair, 8))
    seamed = formulation.build_seamed(pair, loads, windows).model
    assert not wl.count_failures("seamed", seamed, seamed.to_convex(),
                                 wl.seamed_counts(pair, windows))
    for s, w in enumerate(windows):
        stage = formulation.assemble(pair, loads, window=w, own_builds=(s == 0))
        assert not wl.count_failures(
            "stage", stage, stage.to_convex(),
            wl.window_counts(pair, w[1] - w[0], own_builds=(s == 0)))
    feeder = wl.feeder_instance(3)
    big = formulation.assemble(feeder, wl.feeder_loads(feeder, 3), window=(0, 4))
    assert wl.model_counts(big) == wl.window_counts(feeder, 4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == worker.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == worker.TRACED
