"""Suite-wide checks on the results of the convex engine and of the
branch-and-bound search.

Every result the engine packages is checked as it is made:

- an ``optimal`` result's weak-duality bound may not exceed its
  objective by more than 1e-9 times max(1 USD, |objective|).  A bound
  above the objective would let branch and bound prune a region holding
  the optimum.
- an ``optimal`` result that is not polished is optimal by proof, so its
  objective may exceed its bound by at most 1e-7 times
  max(1 USD, |objective|).  That covers every unpolished point the
  engine labels: a branch-and-bound node's, one from
  ``QpWorkspace.interior``, and one that ``solve`` keeps when its polish
  is rejected.

Every result of ``solve_miqcqp``, called through ``mip``,
``decomposition`` or the test module's own name, is checked too:

- an ``infeasible`` search has a bound of +inf and no incumbent.
- a search with an incumbent has a bound at most BOUND_SLACK times
  max(1 USD, |objective|) above the incumbent's objective.

Every Hypothesis test runs under one profile, ``tier1``: the same
examples on every run, no example database and no deadline.  A test
sets only its own ``max_examples``.
"""

import numpy as np
import pytest
from hypothesis import settings

from microplan import convex, decomposition, mip

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

BOUND_SLACK = 1e-9
PROOF_GAP = 1e-7


@pytest.fixture(autouse=True)
def bound_at_most_objective(monkeypatch):
    package = convex.QpWorkspace._package

    def checked(self, *args, **kwargs):
        sol = package(self, *args, **kwargs)
        if sol.status == "optimal":
            slack = BOUND_SLACK * max(1.0, abs(sol.objective))
            assert sol.bound <= sol.objective + slack, (
                f"{sol.detail or 'optimal'} result: bound {sol.bound!r} is "
                f"above objective {sol.objective!r}")
            if sol.detail != "polished":
                gap = sol.objective - sol.bound
                assert gap <= PROOF_GAP * max(1.0, abs(sol.objective)), (
                    f"unpolished optimal: objective {sol.objective!r} is "
                    f"{gap!r} above its bound")
        return sol

    monkeypatch.setattr(convex.QpWorkspace, "_package", checked)


@pytest.fixture(autouse=True)
def search_bound_and_status_agree(monkeypatch, request):
    solve = mip.solve_miqcqp

    def checked(*args, **kwargs):
        res = solve(*args, **kwargs)
        if res.status == "infeasible":
            assert res.best_bound == np.inf and res.x is None, (
                f"infeasible search: bound {res.best_bound!r}, "
                f"incumbent {res.objective!r}")
        if res.x is not None:
            slack = BOUND_SLACK * max(1.0, abs(res.objective))
            assert res.best_bound <= res.objective + slack, (
                f"{res.status} search: bound {res.best_bound!r} is above "
                f"incumbent {res.objective!r}")
        return res

    # decomposition and the test modules bind the name themselves
    for module in (mip, decomposition, request.module):
        if vars(module).get("solve_miqcqp") is solve:
            monkeypatch.setattr(module, "solve_miqcqp", checked)
