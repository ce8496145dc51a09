"""Suite-wide checks on the convex engine's results.

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
"""

import pytest

from microplan import convex

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
