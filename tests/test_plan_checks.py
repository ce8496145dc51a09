"""Checks the sweep drivers make before and around their stage solves:
plan coverage of the load horizon, a torn seam between stages, and a
receding-horizon plan that keeps the bound of a bound solve that
stalled.  Stage solves here go through branch and bound only, so this
module needs no conic oracle.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest

from microplan import decomposition
from microplan.decomposition import (
    BoundaryState, DecompositionError, gauss_seidel_relaxed, init_duals,
    mpc_solve, partition, rh_solve, stitch,
)
from microplan.formulation import assemble
from microplan.mip import solve_miqcqp

from test_formulation import flat_loads, gen_bat_instance


@pytest.fixture(scope="module")
def pair():
    inst = gen_bat_instance()
    return inst, flat_loads(inst, 6)


DRIVERS = {
    "rh_solve": rh_solve,
    "mpc_solve": mpc_solve,
    "init_duals": init_duals,
    "gauss_seidel_relaxed": gauss_seidel_relaxed,
}


@pytest.mark.parametrize("name", DRIVERS)
@pytest.mark.parametrize("steps, stages", [(4, 2), (8, 4)])
def test_plan_must_cover_the_loads(pair, name, steps, stages):
    inst, loads = pair
    with pytest.raises(DecompositionError,
                       match=f"stage plan covers {steps} steps but the "
                             f"loads cover 6"):
        DRIVERS[name](inst, loads, partition(steps, stages))


def test_torn_seam_is_detected():
    inst = gen_bat_instance()
    loads = flat_loads(inst, 4)
    plan = partition(4, 2)
    m0 = assemble(inst, loads, window=plan.windows[0])
    x0 = solve_miqcqp(m0).solution.x
    torn = BoundaryState.from_terminal(m0, x0).values.copy()
    torn[0] += 0.01
    m1 = assemble(inst, loads, window=plan.windows[1], boundary=torn,
                  own_builds=False)
    x1 = solve_miqcqp(m1).solution.x
    # the first broken slot, named with plain floats
    with pytest.raises(DecompositionError,
                       match=r"^seam 1 breaks on sc/bat1: "
                             r"-?[\d.e+-]+ != -?[\d.e+-]+$"):
        stitch(inst, loads, plan, [m0, m1], [x0, x1])


def test_receding_horizon_survives_a_failed_bound(pair, monkeypatch, caplog):
    inst, loads = pair
    plan = partition(6, 3)
    ref = rh_solve(inst, loads, plan)
    assert ref.bound_detail == "" and math.isfinite(ref.lower_bound)

    solve = decomposition.solve_qcqp

    def stalled(prog):
        return dataclasses.replace(solve(prog),
                                   status="iteration-limit", detail="stalled")

    # stage searches bind mip's solve_qcqp, so only the bound solve stalls
    monkeypatch.setattr(decomposition, "solve_qcqp", stalled)
    with caplog.at_level(logging.WARNING, logger=decomposition.__name__):
        got = rh_solve(inst, loads, plan)
    warned = [r.getMessage() for r in caplog.records
              if r.name == decomposition.__name__]
    assert warned == ["monolithic relaxation ended iteration-limit (stalled); "
                      "the plan is reported with the bound its last "
                      "iterate proves"]
    assert got.bound_detail == "monolithic relaxation ended iteration-limit (stalled)"
    # the stalled result keeps its multipliers, and so the bound they prove
    assert math.isfinite(got.lower_bound) and math.isfinite(got.gap_percent)
    assert got.lower_bound == ref.lower_bound <= ref.objective
    assert got.gap_percent == ref.gap_percent

    assert got.objective == ref.objective
    assert set(got.plan.series) == set(ref.plan.series)
    for key, arr in ref.plan.series.items():
        assert np.array_equal(got.plan.series[key], arr), key
    # every other reproducible field, builds and stage statistics included
    assert got.equals(dataclasses.replace(ref, bound_detail=got.bound_detail))

    with pytest.raises(DecompositionError,
                       match=r"monolithic relaxation ended iteration-limit"):
        mpc_solve(inst, loads, plan, mode="dual-init")
