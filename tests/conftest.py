"""Suite-wide checks on the convex engine's results.

Every result the engine packages is checked as it is made: an
``optimal`` result's weak-duality bound may not exceed its objective by
more than 1e-9 times max(1 USD, |objective|).  A bound above the
objective would let branch and bound prune a region holding the optimum.

Every ``optimal`` result that ``QpWorkspace.interior`` reports is
optimal by proof, so its objective may exceed its bound by at most 1e-7
times max(1 USD, |objective|).  Every unpolished point the engine
labels, whether a branch-and-bound node's or one that ``solve`` keeps
when its polish is rejected, comes from there.
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
        return sol

    monkeypatch.setattr(convex.QpWorkspace, "_package", checked)


@pytest.fixture(autouse=True)
def unpolished_optimum_is_proven(monkeypatch):
    interior = convex.QpWorkspace.interior

    def checked(self):
        sol = interior(self)
        if sol.status == "optimal":
            gap = sol.objective - sol.bound
            assert gap <= PROOF_GAP * max(1.0, abs(sol.objective)), (
                f"unpolished optimal: objective {sol.objective!r} is "
                f"{gap!r} above its bound")
        return sol

    monkeypatch.setattr(convex.QpWorkspace, "interior", checked)
