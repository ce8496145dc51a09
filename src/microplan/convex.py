"""Convex QCQP engine: a conic interior point, then an active-set polish.

Solves programs of the form

    minimize    1/2 x' diag(P) x + q' x + const
    subject to  l  <= A x <= u        (linear rows)
                lb <=   x <= ub       (variable bounds)
                |x[cols]|_2 <= r      (norm-ball rows; r a constant or a
                                       designated radius variable)

in two layers.  The first is a homogeneous primal-dual interior-point
iteration with Mehrotra predictor-corrector steps, in the form ECOS and
Clarabel use.  The program is Ruiz-equilibrated and written as
``g x + s = h`` with s in a product of nonnegative rows and second-order
cones, one cone (r, x[cols]) per ball; the rows of a ball share one
scale, so the scaled cone is the same cone.  Each step factors one
regularized, refined KKT system whose (2,2) block holds the
Nesterov-Todd scaling of every cone.  The variable bounds never reach
it: a nonnegative row with a single entry folds into its column's
diagonal as a Schur complement, and its multiplier is recovered in
closed form after each back-solve.  The reduced matrix is quasi-definite
and is factored with diagonal pivots under a symmetric minimum-degree
ordering, by SuperLU with one-column panels: these matrices have no
dense supernodes for wider panels to block on.  A step computes one
frame of its slacks s and one of its multipliers z (each block's
margin, determinant and normalized block) and one scaling, and its
tests, both directions and all four step lengths read them; what stays
fixed over a solve is computed before the first step.  A determinant of
s, z or the scaled point lam at or below zero stops the step, as
"determinant underflow": rounding can leave lam on a cone's boundary
though s and z are inside, and the Jordan division divides by det(lam).
Infeasibility or unboundedness is read off the homogeneous certificates.

The second layer is the polish (:meth:`QpWorkspace.polish_from`): an
active set read off a point is resolved as an equality-constrained
system, so that solutions and duals come out at near-machine accuracy.
A row side or ball is active when its multiplier exceeds its slack or
the point sits on it.  An active ball is pinned by its tangent at the
current point, with its curvature in the objective, and re-linearized
at each pass's point until that point stops moving off the ball; a ball
at its apex, where no tangent exists, has its columns pinned to zero.
The point may be the interior point's or the solution of a program that
differs only in its bounds.  This is finite termination by active-set
identification (Ye, Math. Prog. 1992) and solution polishing as in
OSQP (Stellato et al., Math. Prog. Comp. 2020).

Every result carries a weak-duality ``bound`` on its program's optimum,
NaN only when it is ``infeasible`` or ``unbounded``.  It is computed
from the result's own stacked multipliers, which need not be optimal:
each row's multiplier is put on its valid sign and each ball's block
into its cone, and the Lagrangian, separable over the columns, is
minimized over their boxes in closed form (Neumaier & Shcherbina, Math.
Prog. 2004).  So an unconverged or unpolished result still proves a
bound.  A caller that needs only the point and the bound runs the
interior layer alone (:meth:`QpWorkspace.interior`), and a caller with
many programs that differ only in their bounds, such as the nodes of a
branch and bound, builds one workspace and takes a view of it per bound
set (:meth:`QpWorkspace.with_bounds`): the Ruiz scaling and the stacked
rows, balls and costs do not depend on the bounds and are shared.

``optimal`` means polished or proven, from every entry.  A polished
point is *certified*: it passes :func:`certify`: (1) every row, bound
and ball holds and (2) stationarity holds, entry by entry within
EPS_ABS + EPS_REL times the magnitude of the entry's terms, with every
multiplier first projected onto its valid sign, so that a multiplier on
a missing or wrong side counts as a stationarity error; (3) the
complementarity gap, each multiplier times the distance to the side it
claims, is at most EPS_ABS times max(1 USD, |objective|).  The polish
returns its pass with the lowest certificate ratio, and nothing if none
certifies.  An unpolished point, such as the interior point's, is
*proven* optimal when (1) holds and its objective exceeds its ``bound``
by at most EPS_GAP times max(1 USD, |objective|): no feasible point is
cheaper by more than that, though its multipliers may fail (2) and (3).
Otherwise it is ``iteration-limit``, with detail saying why the interior
point stopped (after at most MAX_ITER steps), if it did not meet its own
termination test.  :meth:`QpWorkspace.solve` returns the polish of the
interior point, or, when that does not certify, the interior point's
result with ``polish rejected`` in its detail.  A program whose every
column has finite bounds is never reported ``unbounded``.  Each
interior-point step is logged at DEBUG level on this module's logger,
with its step number, primal and dual residuals and objective.

Dual sign convention.  Multipliers y satisfy the stationarity condition

    diag(P) x + q + A' y_rows + y_bounds + sum_k lambda_k n_k = 0,

i.e. the Lagrangian is f + y·(row value − attained bound).  For an
equality row ``a·x = b`` the reported dual is y itself; for a one-sided
``a·x >= b`` row the dual of the inequality in its natural sense is −y
(and is nonnegative at optimality); for ``a·x <= b`` it is +y.
:func:`get_duals` applies this mapping.  Variable-bound multipliers
follow the same rule: ``max(−y_bounds, 0)`` belongs to lower bounds and
``max(y_bounds, 0)`` to upper bounds.  ``cone_duals[k]`` is lambda_k >= 0,
the multiplier of ``|x[cols]| - r <= 0``; its normal n_k is x[cols]/|x[cols]|
on the ball's columns and −1 on its radius variable.
"""

from __future__ import annotations

import copy
import logging
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

log = logging.getLogger(__name__)


class EngineError(ValueError):
    """Malformed convex program or unusable solver input."""


class ConeRow(NamedTuple):
    """Norm-ball row: sum of squares of `cols` bounded by a squared radius.

    The radius is `radius` when `radius_col` is None, otherwise the value
    of variable `radius_col` (which the program must keep nonnegative via
    its bounds).
    """
    cols: tuple
    radius: float = 0.0
    radius_col: int | None = None


class SequenceView(Sequence):
    """A read-only sequence whose items are made when read, from the
    ``_item(i)`` and ``__len__`` of a subclass.  It is indexed as a list
    is: negative indices count from the end, a slice gives a list, and an
    index past either end raises IndexError."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._item(i) for i in range(len(self))[key]]
        return self._item(range(len(self))[key])


class Cones(SequenceView):
    """The balls of a program as flat arrays: `cols`, every ball's
    columns back to back; `owner`, the ball of each, in ball order; and
    per ball its constant `radius` and its `radius_col`, -1 for a
    constant radius.  Item k is ball k as a :class:`ConeRow`."""

    def __init__(self, cols, owner, radius, radius_col):
        self.cols = np.asarray(cols, dtype=int)
        self.owner = np.asarray(owner, dtype=int)
        self.radius = np.asarray(radius, dtype=float)
        self.radius_col = np.asarray(radius_col, dtype=int)
        owner, k = self.owner, self.radius.size
        if owner.ndim != 1 or owner.shape != self.cols.shape \
                or self.radius_col.shape != (k,) \
                or np.any(owner[1:] < owner[:-1]) \
                or owner.size and not 0 <= owner[0] <= owner[-1] < k:
            raise EngineError("cone arrays do not line up")

    @classmethod
    def of(cls, rows):
        """The balls of an iterable of :class:`ConeRow`.  As -1 marks a
        constant radius, a given radius column -1 becomes -2, as invalid."""
        rows = tuple(rows)
        return cls([j for cone in rows for j in cone.cols],
                   np.repeat(np.arange(len(rows)),
                             [len(cone.cols) for cone in rows]),
                   [cone.radius for cone in rows],
                   [-1 if c.radius_col is None else -2 if c.radius_col == -1
                    else c.radius_col for c in rows])

    def __len__(self):
        return self.radius.size

    def _item(self, k):
        lo, hi = np.searchsorted(self.owner, [k, k + 1])
        rc = int(self.radius_col[k])
        return ConeRow(tuple(self.cols[lo:hi].tolist()), float(self.radius[k]),
                       None if rc == -1 else rc)


class ConvexProgram:
    """Immutable problem data with convexity checked at construction."""

    def __init__(self, p_diag, q, a, l, u, lb, ub, cones=(), const=0.0):
        self.p_diag = np.asarray(p_diag, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.n = self.q.shape[0]
        # a CSR matrix is kept as it is given, not wrapped again
        if a is None:
            a = sp.csr_matrix((0, self.n))
        self.a = a if isinstance(a, sp.csr_matrix) else sp.csr_matrix(a)
        if self.a.shape[1] != self.n:
            raise EngineError(f"A has {self.a.shape[1]} columns, expected {self.n}")
        self.m = self.a.shape[0]
        self.l = np.asarray(l, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.lb = np.asarray(lb, dtype=float)
        self.ub = np.asarray(ub, dtype=float)
        self.cones = cones if isinstance(cones, Cones) else Cones.of(cones)
        self.const = float(const)

        if self.p_diag.shape != (self.n,):
            raise EngineError("p_diag shape mismatch")
        if self.l.shape != (self.m,) or self.u.shape != (self.m,):
            raise EngineError("row bound shape mismatch")
        if self.lb.shape != (self.n,) or self.ub.shape != (self.n,):
            raise EngineError("variable bound shape mismatch")
        # only the bounds may be infinite, and nothing may be NaN
        for name, values in (("p_diag", self.p_diag), ("q", self.q),
                             ("a", self.a.data), ("const", self.const)):
            if not np.isfinite(values).all():
                raise EngineError(f"{name} holds a non-finite value")
        # nor a side that no finite value meets
        for name, values, what, never in (
                ("l", self.l, "row", np.inf), ("u", self.u, "row", -np.inf),
                ("lb", self.lb, "variable", np.inf),
                ("ub", self.ub, "variable", -np.inf)):
            if np.isnan(values).any():
                raise EngineError(f"{name} holds NaN")
            bad = np.flatnonzero(values == never)
            if bad.size:
                raise EngineError(f"{what} {bad[0]} has {name} = {never}")
        if self.p_diag.min(initial=0.0) < -1e-12:
            raise EngineError("quadratic objective has a negative diagonal entry")
        self.p_diag = np.maximum(self.p_diag, 0.0)
        if np.any(self.l > self.u + 1e-12):
            bad = int(np.argmax(self.l - self.u))
            raise EngineError(f"row {bad} has l > u")
        if np.any(self.lb > self.ub + 1e-12):
            bad = int(np.argmax(self.lb - self.ub))
            raise EngineError(f"variable {bad} has lb > ub")
        # the engine reads the balls as flat arrays
        self.cone_cols, self.cone_owner = self.cones.cols, self.cones.owner
        self.radius, self.radius_col = self.cones.radius, self.cones.radius_col
        self._check_cones()

    def _check_cones(self):
        """Name the first ball with no columns, a repeated or out-of-range
        column, a negative or non-finite constant radius, or a radius
        column out of range or among its own columns."""
        owner, cols, rc = self.cone_owner, self.cone_cols, self.radius_col
        sizes = np.bincount(owner, minlength=rc.size)
        has_radius_col = rc != -1
        bad_cols = np.zeros(len(sizes), dtype=bool)
        bad_cols[owner[(cols < 0) | (cols >= self.n)]] = True
        order = np.lexsort((cols, owner))
        o, c = owner[order], cols[order]
        bad_cols[o[1:][(o[1:] == o[:-1]) & (c[1:] == c[:-1])]] = True
        bad_rc = has_radius_col & ((rc < 0) | (rc >= self.n))
        bad_rc[owner[has_radius_col[owner] & (cols == rc[owner])]] = True
        empty = sizes == 0
        negative = ~has_radius_col & (self.radius < 0)
        infinite = ~has_radius_col & ~np.isfinite(self.radius)
        bad = empty | bad_cols | negative | infinite | bad_rc
        if not bad.any():
            return
        k = int(np.argmax(bad))
        if empty[k]:
            raise EngineError(f"cone {k} has no columns")
        if bad_cols[k]:
            raise EngineError(f"cone {k} has invalid columns")
        if negative[k]:
            raise EngineError(f"cone {k} has negative radius")
        if infinite[k]:
            raise EngineError(f"cone {k} has a non-finite radius")
        raise EngineError(f"cone {k} has invalid radius column")

    def objective(self, x):
        return 0.5 * float(x @ (self.p_diag * x)) + float(self.q @ x) + self.const


# Interior-point constants: termination and infeasibility tolerances,
# static KKT regularization, step damping, the stall window and the step
# limit; then equilibration, the tolerances of `certify`, the polish's
# proximal weight and pass limit, and the refinement's step limit and
# relative stopping tolerance
EPS_OPT = 1e-9
EPS_INF = 1e-8
KKT_REG = 1e-8
STEP_FRACTION = 0.99
STALL_ITERS = 10
MAX_ITER = 100
SCALING_ITERS = 10
EPS_ABS = 1e-8
EPS_REL = 1e-6
EPS_GAP = 1e-7
POLISH_DELTA = 1e-6
POLISH_PASSES = 8
REFINE_STEPS = 3
REFINE_TOL = 1e-13


@dataclass
class PrimalDualSolution:
    status: str                 # optimal | infeasible | unbounded | iteration-limit
    x: np.ndarray
    y_rows: np.ndarray          # raw multipliers for caller rows (see module docstring)
    y_bounds: np.ndarray        # raw multipliers for variable bounds
    objective: float
    prim_res: float
    dual_res: float
    iterations: int
    solve_time: float
    cone_duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    polished: bool = False
    detail: str = ""
    program: ConvexProgram | None = None
    bound: float = np.nan       # weak-duality bound of `program` (module docstring)


def get_duals(solution: PrimalDualSolution, rows) -> np.ndarray:
    """Duals of the requested rows under the documented sign convention.

    Equality rows report the raw multiplier; one-sided rows report the
    multiplier of the inequality in its stated sense (nonnegative at
    optimality); finite two-sided ranges report the raw multiplier.
    """
    if solution.status != "optimal":
        raise EngineError(f"duals requested from a {solution.status} solution")
    rows = np.asarray(rows, dtype=int)
    lo, hi = solution.program.l[rows], solution.program.u[rows]
    y = solution.y_rows[rows]
    # a lower-bounded row has the >= sense
    return np.where((lo != hi) & np.isinf(hi), -y, y)


class Certificate(NamedTuple):
    """Worst absolute primal violation and stationarity residual, the
    complementarity gap in dollars, and the worst ratio of any of them to
    its tolerance: at most 1 means certified."""
    prim: float
    stat: float
    gap: float
    ratio: float


def _valid_sign(y, lo, hi):
    """Multipliers projected onto their valid sign: positive only on a
    finite upper side, negative only on a finite lower side."""
    return np.clip(y, np.where(np.isfinite(lo), -np.inf, 0.0),
                   np.where(np.isfinite(hi), np.inf, 0.0))


def _primal(prog: ConvexProgram, x):
    """The primal half of :func:`certify`.  Returns the row and bound
    values v of `x` with their sides lo and hi, each ball's radius and
    column norm, the worst absolute violation of a row, bound or ball,
    and the worst ratio of a violation to its tolerance, EPS_ABS +
    EPS_REL times the magnitude of its terms."""
    owner, cols, rc = prog.cone_owner, prog.cone_cols, prog.radius_col
    v = np.concatenate([prog.a @ x, x])
    lo, hi = np.concatenate([prog.l, prog.lb]), np.concatenate([prog.u, prog.ub])
    at = np.clip(v, lo, hi)
    norm = np.sqrt(np.bincount(owner, x[cols] ** 2, minlength=rc.size))
    radius = np.where(rc >= 0, x[rc], prog.radius)
    viol = np.concatenate([np.abs(v - at), np.maximum(norm - radius, 0.0)])
    prim_ref = np.concatenate([np.maximum(np.abs(v), np.abs(at)),
                               np.maximum(np.abs(radius), norm)])
    return (v, lo, hi, radius, norm, float(viol.max(initial=0.0)),
            float((viol / (EPS_ABS + EPS_REL * prim_ref)).max(initial=0.0)))


def certify(prog: ConvexProgram, x, y_rows, y_bounds, cone_duals) -> Certificate:
    """Test a primal-dual point against the three optimality conditions
    of the module docstring.  Rows and bounds are treated alike, as
    values v with sides [lo, hi]; the stationarity floor is 1 dollar per
    unit, and the gap may be EPS_ABS times max(1, |objective|).

    A ball at its apex accepts any normal of norm at most 1.  A column
    shared by several apex balls splits its residual among them in
    proportion to their lambda: that test is sufficient but not
    necessary, so it can reject a valid point.  The formulation builds
    no balls that share a column."""
    owner, cols, rc = prog.cone_owner, prog.cone_cols, prog.radius_col
    v, lo, hi, radius, norm, prim, prim_ratio = _primal(prog, x)

    y = _valid_sign(np.concatenate([y_rows, y_bounds]).astype(float), lo, hi)
    lam = np.maximum(np.asarray(cone_duals, dtype=float), 0.0)
    px = prog.p_diag * x
    # each ball adds -lambda on its radius and lambda times the unit
    # direction of its columns, off the apex
    mult = prog.a.T @ y[:prog.m] + y[prog.m:]
    np.add.at(mult, rc[rc >= 0], -lam[rc >= 0])
    apex = norm <= EPS_ABS
    unit = np.where(apex, 0.0, lam / np.where(apex, 1.0, norm))
    np.add.at(mult, cols, unit[owner] * x[cols])
    # at the apex any normal of norm at most 1 is valid: the one that
    # cancels the columns' residual as far as lambda allows, a column of
    # several apex balls sharing its residual in proportion to lambda
    lam_at = np.where(apex, lam, 0.0)[owner]
    total = np.bincount(cols, weights=lam_at, minlength=prog.n)[cols]
    rest = (px + prog.q + mult)[cols] * lam_at / np.where(total > 0.0, total, 1.0)
    rest_norm = np.sqrt(np.bincount(owner, rest ** 2, minlength=rc.size))
    reach = np.minimum(1.0, lam / np.where(rest_norm > 0.0, rest_norm, 1.0))
    np.add.at(mult, cols, -np.where(apex, reach, 0.0)[owner] * rest)
    stat = px + prog.q + mult
    stat_ref = np.maximum.reduce([np.abs(px), np.abs(prog.q), np.abs(mult),
                                  np.ones(prog.n)])

    # each multiplier times the distance to the side it claims
    side = np.where(y > 0.0, hi, np.where(y < 0.0, lo, v))
    gap = float(np.abs(y * (side - v)).sum()
                + (lam * np.abs(radius - norm)).sum())
    ratio = max(
        prim_ratio,
        float((np.abs(stat) / (EPS_ABS + EPS_REL * stat_ref)).max(initial=0.0)),
        gap / (EPS_ABS * max(1.0, abs(prog.objective(x)))))
    return Certificate(prim, float(np.abs(stat).max(initial=0.0)), gap, ratio)


def _refined(lu, mat, shift, rhs):
    """Back-solve against the exact matrix ``mat + diag(shift)``, where
    `lu` factors `mat`, with iterative refinement.  Refinement stops once
    the residual is at most REFINE_TOL (1 + |rhs|_inf), after
    REFINE_STEPS steps, or at the first step that fails to reduce it: a
    singular system can make refinement diverge, and the best solution
    is kept."""
    sol = lu.solve(rhs)
    if not np.all(np.isfinite(sol)):
        return sol
    tol = REFINE_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    res = rhs - (mat @ sol + shift * sol)
    for _ in range(REFINE_STEPS):
        err = float(np.abs(res).max(initial=0.0))
        if err <= tol:
            break
        step = sol + lu.solve(res)
        step_res = rhs - (mat @ step + shift * step)
        if not float(np.abs(step_res).max(initial=0.0)) < err:
            break
        sol, res = step, step_res
    return sol


def _rows_of(csr, idx):
    """Entries of the rows `idx` of `csr` as (position in idx, column,
    value) triplets."""
    start, count = csr.indptr[idx], np.diff(csr.indptr)[idx]
    at = np.repeat(start - np.cumsum(count) + count, count) \
        + np.arange(int(count.sum()))
    return np.repeat(np.arange(idx.size), count), csr.indices[at], csr.data[at]


class _Frame(NamedTuple):
    """A cone vector `v` with what a step reads of it: each block's
    `margin` (head minus tail norm, positive inside) and determinant
    `det`, and, on blocks of positive determinant, `sq` = sqrt(det), the
    normalized blocks `vb` = v / sqrt(det), their heads `b0` and
    `b1` = b0 + 1.  Other blocks get the values of a unit determinant,
    which no step reads: it stops first."""
    v: np.ndarray
    margin: np.ndarray
    det: np.ndarray
    sq: np.ndarray
    vb: np.ndarray
    b0: np.ndarray
    b1: np.ndarray


class _Scaling(NamedTuple):
    """Nesterov-Todd scaling W = eta * Wbar, Wbar the hyperbolic
    reflection by `wbar`: per block `eta`, and per entry `eta_o` =
    eta[owner]; per block `w0` = wbar's head and `w1` = 1 + w0."""
    eta: np.ndarray
    eta_o: np.ndarray
    wbar: np.ndarray
    w0: np.ndarray
    w1: np.ndarray


class _Cones:
    """A product of second-order cones {v : v[0] >= |v[1:]|}, laid out
    block after block in one vector; a block of size 1 is a nonnegative
    row.  The methods act block-wise on vectors in that layout."""

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=int)
        self.count = self.sizes.size
        self.heads = np.cumsum(self.sizes) - self.sizes
        self.owner = np.repeat(np.arange(self.count), self.sizes)
        self.tail = np.ones(self.owner.size, dtype=bool)
        self.tail[self.heads] = False
        self.unit = (~self.tail).astype(float)      # the Jordan identity
        # every (i, j) pair inside a block: the pattern of W^2, its
        # J-diagonal and the block of each pair
        rep = self.sizes[self.owner]
        self.pi = np.repeat(np.arange(self.owner.size), rep)
        self.pj = np.repeat(self.heads[self.owner], rep) \
            + np.arange(self.pi.size) - np.repeat(np.cumsum(rep) - rep, rep)
        self.jdiag = np.where(self.pi == self.pj, 2.0 * self.unit[self.pi] - 1.0, 0.0)
        self.owner_pi = self.owner[self.pi]

    def _sum(self, v):
        return np.bincount(self.owner, weights=v, minlength=self.count)

    def tail_dot(self, u, v):
        return self._sum(np.where(self.tail, u * v, 0.0))

    def tail_norm(self, v):
        return np.sqrt(self.tail_dot(v, v))

    def margin(self, v):
        """Distance of each block to its cone's boundary, head minus
        tail norm: positive inside."""
        return v[self.heads] - self.tail_norm(v)

    def det(self, v):
        """Each block's determinant v0^2 - |v[1:]|^2."""
        tn = self.tail_norm(v)
        return (v[self.heads] - tn) * (v[self.heads] + tn)

    def frame(self, v):
        """The :class:`_Frame` of `v`: one tail norm serves the margin,
        the determinant and the normalized blocks."""
        v0, tn = v[self.heads], self.tail_norm(v)
        margin = v0 - tn
        det = margin * (v0 + tn)
        sq = np.sqrt(np.where(det > 0.0, det, 1.0))
        vb = v / sq[self.owner]
        b0 = vb[self.heads]
        return _Frame(v, margin, det, sq, vb, b0, b0 + 1.0)

    def prod(self, u, v):
        """Jordan product u o v."""
        out = u[self.heads][self.owner] * v + v[self.heads][self.owner] * u
        out[self.heads] = self._sum(u * v)
        return out

    def div(self, lam, det, v):
        """Jordan division: the x with lam o x = v, for lam inside with
        determinants `det`."""
        l0 = lam[self.heads]
        x0 = (l0 * v[self.heads] - self.tail_dot(lam, v)) / det
        out = (v - lam * x0[self.owner]) / l0[self.owner]
        out[self.heads] = x0
        return out

    def scaling(self, fs, fz):
        """Nesterov-Todd scaling of interior s and z, given by their
        frames: the :class:`_Scaling` W, with W z = W^-1 s = lam, and
        lam."""
        sb, zb = fs.vb, fz.vb
        gamma = np.sqrt(0.5 * (1.0 + self._sum(sb * zb)))
        wbar = (sb + np.where(self.tail, -zb, zb)) / (2.0 * gamma)[self.owner]
        eta = np.sqrt(fs.sq / fz.sq)
        w0 = wbar[self.heads]
        w = _Scaling(eta, eta[self.owner], wbar, w0, 1.0 + w0)
        return w, self.apply_w(w, fz.v)

    def apply_w(self, w, v, inverse=False):
        """W v, or W^-1 v."""
        sign = -1.0 if inverse else 1.0
        v0 = v[self.heads]
        td = self.tail_dot(w.wbar, v)
        out = v + (sign * v0 + td / w.w1)[self.owner] * w.wbar
        out[self.heads] = w.w0 * v0 + sign * td
        return out / w.eta_o if inverse else out * w.eta_o

    def w2(self, eta, wbar):
        """Entries of W^2 = eta^2 (2 wbar wbar' - J) on (pi, pj)."""
        return (eta * eta)[self.owner_pi] \
            * (2.0 * wbar[self.pi] * wbar[self.pj] - self.jdiag)

    def max_step(self, f, dv):
        """Largest step in (0, 1] keeping v + step * dv in the cones, v
        given by its frame `f`: the reflection taking v/|v|_J to the
        identity maps dv to y, and the step reaches the boundary at
        |v|_J / (|y[1:]| - y[0])."""
        d0 = dv[self.heads]
        y0 = f.b0 * d0 - self.tail_dot(f.vb, dv)
        y1 = dv - ((y0 + d0) / f.b1)[self.owner] * f.vb
        lim = self.tail_norm(y1) - y0
        # a block with lim <= sq allows a full step; dividing by a tiny lim
        # there would only overflow
        hit = lim > f.sq
        return min(1.0, float((f.sq[hit] / lim[hit]).min(initial=1.0)))


class QpWorkspace:
    """Scaled problem data of one program.

    The stacked rows are the caller rows, one bound row per variable,
    then one block per ball: its radius row, then one row per column.
    A block's values h + As x lie in the second-order cone.  The bound
    rows are stacked so that they share the equilibration, but the
    interior point factors none of their inequalities: it folds them
    into the diagonal.  A fixed column (lb = ub) stays an equality row,
    and the polish pins an active bound as a row.
    """

    def __init__(self, prog: ConvexProgram):
        n, m = prog.n, prog.m
        self.n = n
        self.cones = _Cones(1 + np.bincount(prog.cone_owner,
                                            minlength=len(prog.cones)))
        self.cone0 = m + n                   # first cone row
        self.mt = m + n + self.cones.owner.size
        self._bind(prog)
        heads, rc = self.cones.heads, prog.radius_col
        h = np.zeros(self.cones.owner.size)
        h[heads] = np.where(rc < 0, prog.radius, 0.0)
        rows = np.concatenate([heads[rc >= 0], np.flatnonzero(self.cones.tail)])
        cols = np.concatenate([rc[rc >= 0], prog.cone_cols])
        cone_a = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                               shape=(h.size, n))
        self._scale(sp.vstack([prog.a, sp.eye(n, format="csr"), cone_a],
                              format="csr"))
        self.h_cone = self.e[self.cone0:] * h
        # a ball's row holds at most one entry of As: its column and value
        # (column -1 on a constant radius's row)
        block = self.As[self.cone0:]
        has = np.diff(block.indptr) > 0
        self.cone_col, self.cone_val = np.full(h.size, -1), np.zeros(h.size)
        self.cone_col[has], self.cone_val[has] = block.indices, block.data
        # an empty row whose bounds exclude zero is its own certificate of
        # infeasibility; in the interior point its multiplier would grow
        # like 1/KKT_REG and could stall the iteration instead
        miss = np.where(np.asarray(abs(prog.a).sum(axis=1)).ravel() == 0.0,
                        np.maximum(prog.l, -prog.u), 0.0)
        self.empty_row = (int(np.argmax(miss)), float(miss.max())) \
            if miss.max(initial=0.0) > EPS_ABS else None

    # -- setup ------------------------------------------------------------

    def _bind(self, prog):
        """Take `prog` as the program: its variable bounds are the only
        stacked data that `_scale` and the cone layout leave out."""
        self.prog = prog
        cone_rows = self.mt - self.cone0
        self.l = np.concatenate([prog.l, prog.lb, np.full(cone_rows, -np.inf)])
        self.u = np.concatenate([prog.u, prog.ub, np.full(cone_rows, np.inf)])
        # with every column boxed the cost is bounded below, so a primal
        # ray of decreasing cost can only be a rounding artefact
        self.boxed = bool(np.isfinite(prog.lb).all()
                          and np.isfinite(prog.ub).all())

    def with_bounds(self, lb, ub) -> QpWorkspace:
        """A view of this workspace for its program with the variable
        bounds `lb` and `ub`.  The scaled rows, balls and costs do not
        depend on the bounds, so the view shares them, as it shares the
        empty-row check; no solve mutates them."""
        p = self.prog
        view = copy.copy(self)
        view._bind(ConvexProgram(p.p_diag, p.q, p.a, p.l, p.u, lb, ub,
                                 p.cones, p.const))
        return view

    def _scale(self, a):
        """Modified Ruiz equilibration plus cost normalization.  The rows
        of a ball share the largest scale among them, so the scaled
        block lies in the same cone."""
        n, mt, c0 = self.n, self.mt, self.cone0
        d = np.ones(n)
        e = np.ones(mt)
        c = 1.0
        p = self.prog.p_diag.copy()
        q = self.prog.q.copy()
        a = a.tocoo()
        row, col_of, mag = a.row, a.col, np.abs(a.data)
        group = np.concatenate([np.arange(c0), c0 + self.cones.owner])
        for _ in range(SCALING_ITERS):
            scaled = mag * e[row] * d[col_of]
            col_a = np.zeros(n)
            np.maximum.at(col_a, col_of, scaled)
            row_a = np.zeros(mt)
            np.maximum.at(row_a, group[row], scaled)
            row_a = row_a[group]
            col = np.maximum(np.abs(p), col_a)
            d_step = 1.0 / np.sqrt(np.where(col > 1e-12, col, 1.0))
            e_step = 1.0 / np.sqrt(np.where(row_a > 1e-12, row_a, 1.0))
            d *= d_step
            e *= e_step
            p = p * d_step * d_step
            q = q * d_step
            # cost normalization keeps the objective and constraint scales
            # comparable, which matters with very large penalty terms
            norm_cost = max(float(np.mean(np.abs(p))), float(np.abs(q).max(initial=0.0)))
            c_step = 1.0 / max(norm_cost, 1e-12) if norm_cost > 1e-12 else 1.0
            c_step = min(max(c_step, 1e-12), 1e12)
            c *= c_step
            p *= c_step
            q *= c_step
        self.d, self.e, self.c = d, e, c
        self.ps, self.qs = p, q
        self.As = sp.csr_matrix((a.data * e[row] * d[col_of], (row, col_of)),
                                shape=(mt, n))

    # -- solve ------------------------------------------------------------

    def solve(self) -> PrimalDualSolution:
        """The interior point, then the polish of its point: the result
        of :meth:`polish_from` on :meth:`interior`, with the interior
        point's step count and the total time.  When no polish pass
        certifies, the interior point's result stands, with ``polish
        rejected`` added to its detail (an ``iteration-limit`` keeps its
        reason to stop alone, if it had one)."""
        t0 = time.perf_counter()
        sol = self.interior()
        if sol.status in ("optimal", "iteration-limit"):
            polished = self.polish_from(sol)
            if polished is not None:
                polished.iterations = sol.iterations
                sol = polished
            elif sol.status == "optimal" or not sol.detail:
                sol.detail = "; ".join(filter(None, ("polish rejected", sol.detail)))
        sol.solve_time = time.perf_counter() - t0
        return sol

    def interior(self) -> PrimalDualSolution:
        """The interior point alone, with no polish: its point and
        multipliers as they stand, the bound they prove, and the label
        of that proof (module docstring)."""
        t0 = time.perf_counter()
        if self.empty_row is not None:
            row, miss = self.empty_row
            return self._package("infeasible", f"row {row} is empty",
                                 np.zeros(self.n), np.zeros(self.mt), miss,
                                 0.0, 0, time.perf_counter() - t0)
        ls, us, i_eq, i_up, i_lo = self._sides()
        # g x + s = h: equalities (s = 0), the upper and lower sides of
        # the other linear rows (s >= 0), then the ball blocks, whose
        # values h + As x enter negated
        n_lin = i_up.size + i_lo.size
        rows = np.concatenate([i_eq, i_up, i_lo, np.arange(self.cone0, self.mt)])
        sign = np.ones(rows.size)
        sign[i_eq.size + i_up.size:] = -1.0
        g = sp.diags(sign) @ self.As[rows]
        h = np.concatenate([us[i_eq], us[i_up], -ls[i_lo], self.h_cone])
        cones = _Cones(np.concatenate([np.ones(n_lin, dtype=int),
                                       self.cones.sizes]))

        status, it, (x, z, prim_res, dual_res), detail = \
            self._interior_point(g, h, i_eq.size, cones, self.e[rows])
        y = np.zeros(self.mt)
        np.add.at(y, rows, sign * z)
        return self._package(status, detail, x, y, prim_res, dual_res, it,
                             time.perf_counter() - t0)

    def polish_from(self, start: PrimalDualSolution) -> PrimalDualSolution | None:
        """The polish of a point: `start` solved this program, or one
        with its rows, balls and costs but other bounds.  Its x, clipped
        to this program's bounds, and its multipliers are scaled as this
        workspace scales (the scaling does not depend on the bounds).  A
        row side or ball is pinned when its multiplier exceeds its slack
        (a ball's slack is its distance to the cone boundary), as the
        sign alone misreads near-zero duals, or when the clipped point
        sits on it.  Returns the polished point as ``optimal`` after 0
        iterations if it certifies, else None."""
        t0 = time.perf_counter()
        prog, m, n, c0 = self.prog, self.prog.m, self.n, self.cone0
        parts = [np.asarray(v, dtype=float) for v in (
            start.x, start.y_rows, start.y_bounds, start.cone_duals)]
        if [v.shape for v in parts] != [(n,), (m,), (n,), (len(prog.cones),)]:
            raise EngineError("start does not match the program's columns, "
                              "rows and balls")
        x_sc = np.clip(parts[0], prog.lb, prog.ub) / self.d
        y = np.concatenate(parts[1:3]) * self.c / self.e[:c0]
        lam = parts[3] * self.c / self.e[c0 + self.cones.heads]
        ls, us, _, i_up, i_lo = self._sides()
        ax = self.As @ x_sc
        _, radius, norm = self._balls(ax)
        z = np.concatenate([np.maximum(y[i_up], 0.0), np.maximum(-y[i_lo], 0.0),
                            lam])
        slack = np.concatenate([us[i_up] - ax[i_up], ax[i_lo] - ls[i_lo],
                                radius - norm])
        # a side or ball the point sits on is pinned whatever its
        # multiplier: a polished start is exact there, and a zero
        # multiplier on it may be one of several optimal ones
        act = z > np.where(slack > 0.0, slack, -np.inf)
        n_lin = i_up.size + i_lo.size
        up = np.zeros(self.mt, dtype=bool)
        low = np.zeros(self.mt, dtype=bool)
        up[i_up[act[:i_up.size]]] = True
        low[i_lo[act[i_up.size:n_lin]]] = True
        polished = self._polish(low, up, act[n_lin:], lam, x_sc)
        if polished is None or polished[2].ratio > 1.0:
            return None
        x, y, cert = polished
        return self._package("optimal", "polished", x, y, cert.prim, cert.stat,
                             0, time.perf_counter() - t0)

    def _sides(self):
        """Scaled row sides (ls, us) of the stacked rows, and the indices
        of their equalities, of the finite upper sides of the other rows
        and of their finite lower sides."""
        ls = self.l * self.e
        us = self.u * self.e
        eq = (ls == us) & np.isfinite(us)
        return (ls, us, np.flatnonzero(eq), np.flatnonzero(np.isfinite(us) & ~eq),
                np.flatnonzero(np.isfinite(ls) & ~eq))

    def _interior_point(self, g, h, me, cones, e_g):
        """Homogeneous self-dual primal-dual iteration with Mehrotra
        predictor-corrector steps on the scaled program

            minimize 1/2 x' diag(ps) x + qs' x   s.t.  g x + s = h,
            s = 0 on the first `me` rows, s in `cones` on the rest,

        embedded with the homogenizing pair (tau, kappa) so that the
        limit is either a solution (tau > 0) or an infeasibility
        certificate (kappa > 0).  Returns the status, the step count,
        the point (x, z, primal residual, dual residual): the iterate
        meeting the tolerances, or the best iterate seen otherwise, and
        why an ``iteration-limit`` run stopped (empty for the other
        statuses):

        - "step limit": MAX_ITER steps were taken;
        - "stalled": mu did not halve over STALL_ITERS steps;
        - "cone boundary": rounding put s or z on a cone's boundary;
        - "determinant underflow": a block of s, z or the scaled point
          lam has a determinant at or below zero, so the scaling or the
          Jordan division by lam is undefined;
        - "factorization failed": SuperLU rejected the KKT matrix;
        - "non-finite step": the step left x, z or tau non-finite or
          tau at or below zero.

        A step computes one :class:`_Frame` of s and one of z, and one
        :class:`_Scaling`, for all its tests, directions and step lengths.
        """
        n, mg = self.n, g.shape[0]
        ps, qs, d, c = self.ps, self.qs, self.d, self.c
        gt = g.T.tocsr()
        # a nonnegative row with a single entry g_b, on column j (every
        # variable bound), leaves the factored system; `keep` lists the
        # other rows of g, `at` gives each its place in the reduced
        # system, and `full` places the reduced unknowns in the full ones
        single = me + cones.heads[cones.sizes == 1]
        bnd = single[np.diff(g.indptr)[single] == 1]
        j_b, g_b = g.indices[g.indptr[bnd]], g.data[g.indptr[bnd]]
        g_b2 = g_b * g_b
        kept = np.ones(mg, dtype=bool)
        kept[bnd] = False
        keep = np.flatnonzero(kept)
        at = np.cumsum(kept) - 1
        full = np.concatenate([np.arange(n), n + keep])
        w_kept = kept[me + cones.pi]       # a bound row's W^2 entry is its w_b
        g_k = g[keep]
        # the KKT pattern is fixed: [[P, G_k'], [G_k, 0]], the kept W^2
        # blocks and the diagonal; one CSC matrix holds it for the whole
        # solve, and each step sums its numbers into the matrix's data
        static = sp.bmat([[sp.diags(ps), g_k.T], [g_k, None]], format="coo")
        dim = n + keep.size
        diag = np.arange(dim)
        rows = np.concatenate([static.row, n + at[me + cones.pi[w_kept]], diag])
        cols = np.concatenate([static.col, n + at[me + cones.pj[w_kept]], diag])
        slots, slot_of = np.unique(cols * dim + rows, return_inverse=True)
        indptr = np.searchsorted(slots // dim, np.arange(dim + 1))
        reg = KKT_REG * np.concatenate([np.ones(n), -np.ones(keep.size)])
        kkt = sp.csc_matrix((np.zeros(slots.size), slots % dim, indptr),
                            shape=(dim, dim))

        def factor(w2):
            """Factor [[P, G'], [G, -W^2]] through its bound rows'
            Schur complement: a bound row b, with W^2 entry w_b, adds
            g_b^2 / w_b to column j's diagonal, and the kept system
            [[P + D_b, G_k'], [G_k, -W_k^2]] is factored with a static
            regularization, which refinement takes away again.  Returns
            the back-solve of the full system."""
            w_b = w2[~w_kept]
            kkt.data[:] = np.bincount(slot_of, np.concatenate([
                static.data, -w2[w_kept],
                reg + np.bincount(j_b, g_b2 / w_b, minlength=dim)]),
                slots.size)
            # regularized, the matrix is quasi-definite, so diagonal pivots
            # are stable under any symmetric fill-reducing ordering
            # (Vanderbei 1995); the panels are one column wide, as these
            # matrices have no dense supernodes for wider ones to block on
            lu = spla.splu(kkt, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, panel_size=1,
                           options=dict(SymmetricMode=True))

            def solve(rhs):
                """The bound rows' right-hand sides r_b condensed onto r_x
                as g_b r_b / w_b, the kept system solved, and the bound
                multipliers recovered as dz_b = (g_b dx_j - r_b) / w_b."""
                r_b = rhs[n + bnd]
                red = rhs[full] + np.bincount(j_b, g_b * r_b / w_b,
                                              minlength=dim)
                red = _refined(lu, kkt, -reg, red)
                out = np.empty(n + mg)
                out[full] = red
                out[n + bnd] = (g_b * red[j_b] - r_b) / w_b
                return out
            return solve

        # start from the least-squares point of the rows (W = I), with
        # slacks and multipliers shifted into the cones' interior
        rhs_tau = np.concatenate([-qs, h])
        sol = factor(cones.w2(np.ones(cones.count), cones.unit))(rhs_tau)
        x, z = sol[:n], sol[n:]
        s = np.zeros(mg)
        s[me:] = -z[me:]
        for v in (s, z):
            lowest = float(cones.margin(v[me:]).min(initial=1.0))
            if lowest < 1.0:
                v[me + cones.heads] += 1.0 - lowest
        tau = kappa = 1.0
        h_ref = float((np.abs(h) / e_g).max(initial=0.0))
        q_ref = float((np.abs(qs) / d).max(initial=0.0))

        status, reason = "iteration-limit", ""
        best = None
        mus = []
        it = 0
        while True:
            xh, zh, sh = x / tau, z / tau, s / tau
            gx, px, gtz = g @ xh, ps * xh, gt @ zh
            prim_res = float((np.abs(gx + sh - h) / e_g).max(initial=0.0))
            dual_res = float((np.abs(px + qs + gtz) / (d * c)).max(initial=0.0))
            prim_ref = 1.0 + max(float((np.abs(gx) / e_g).max(initial=0.0)),
                                 h_ref)
            dual_ref = 1.0 + max(float((np.abs(px) / d).max(initial=0.0)),
                                 float((np.abs(gtz) / d).max(initial=0.0)),
                                 q_ref) / c
            pobj = (0.5 * float(xh @ px) + float(qs @ xh)) / c
            gap = abs(float(xh @ px) + float(qs @ xh) + float(h @ zh)) / c
            log.debug("step %d: primal residual %.6e, dual residual %.6e, "
                      "objective %.10e", it, prim_res, dual_res,
                      pobj + self.prog.const)
            # the gap is in objective units (dollars) with a unit floor
            merit = max(prim_res / prim_ref, dual_res / dual_ref,
                        gap / max(1.0, abs(pobj)))
            if best is None or merit < best[0]:
                best = (merit, (xh, zh, prim_res, dual_res))
            if merit <= EPS_OPT:
                status = "optimal"
                break
            # homogeneous certificates: a dual ray proving the rows
            # inconsistent, or a primal ray of decreasing cost; G'z, P x
            # and G x + s serve the certificates and the step's residuals
            htz, qx = float(h @ z), float(qs @ x)
            gt_z, p_x, gx_s = gt @ z, ps * x, g @ x + s
            if htz < 0.0 and float((np.abs(gt_z) / d).max(initial=0.0)) \
                    <= EPS_INF * -htz:
                return "infeasible", it, best[1], ""
            if qx < 0.0 and not self.boxed:
                curv = float((np.abs(p_x) / d).max(initial=0.0))
                slip = float((np.abs(gx_s) / e_g).max(initial=0.0))
                if curv <= EPS_INF * -qx and slip <= EPS_INF * -qx / c:
                    return "unbounded", it, best[1], ""
            mu = (float(s[me:] @ z[me:]) + tau * kappa) / (cones.count + 1)
            mus.append(mu)
            # a stalled iteration (mu not halving over the window) hands
            # its best iterate to the polish, and so does an iterate that
            # rounding has put on a cone's boundary, where the scaling
            # below is undefined
            if it >= MAX_ITER:
                reason = "step limit"
                break
            if len(mus) > STALL_ITERS and mu > 0.5 * mus[-1 - STALL_ITERS]:
                reason = "stalled"
                break
            # one frame of s and one of z serve the step's every test,
            # its scaling and its step lengths
            fs, fz = cones.frame(s[me:]), cones.frame(z[me:])
            if not (fs.margin.min(initial=1.0) > 0.0
                    and fz.margin.min(initial=1.0) > 0.0):
                reason = "cone boundary"
                break
            it += 1
            # a determinant that underflows to 0 leaves the scaling
            # undefined, even inside the cone; so does lam's, which the
            # Jordan division divides by
            if not (fs.det.min(initial=1.0) > 0.0
                    and fz.det.min(initial=1.0) > 0.0):
                reason = "determinant underflow"
                break
            w, lam = cones.scaling(fs, fz)
            det_lam = cones.det(lam)
            if not det_lam.min(initial=1.0) > 0.0:
                reason = "determinant underflow"
                break
            try:
                back = factor(cones.w2(w.eta, w.wbar))
            except RuntimeError:
                reason = "factorization failed"
                break
            rx = p_x + gt_z + qs * tau
            rz = gx_s - h * tau
            xpx = float(x @ p_x)
            rtau = xpx / tau + qx + htz + kappa
            cx = 2.0 * p_x / tau + qs
            # the tau direction: one back-solve shared by both steps
            u_tau = back(rhs_tau)
            denom = float(cx @ u_tau[:n] + h @ u_tau[n:]) \
                - xpx / tau ** 2 - kappa / tau
            lam2 = cones.prod(lam, lam)

            def direction(weight, ds, dk):
                """Newton step with residuals scaled by `weight` and
                complementarity targets lam o (W^-1 ds + W dz) = -ds on
                the cones and kappa dtau + tau dkappa = -dk."""
                shift = cones.apply_w(w, cones.div(lam, det_lam, ds))
                rhs = np.concatenate([-weight * rx, -weight * rz])
                rhs[n + me:] += shift
                u = back(rhs)
                dtau = (-weight * rtau + dk / tau - float(cx @ u[:n])
                        - float(h @ u[n:])) / denom
                u += dtau * u_tau
                dz = u[n:]
                ds_vec = np.zeros(mg)
                ds_vec[me:] = -shift - cones.apply_w(w, cones.apply_w(w, dz[me:]))
                dkappa = -(dk + kappa * dtau) / tau
                step = min(cones.max_step(fs, ds_vec[me:]),
                           cones.max_step(fz, dz[me:]))
                for v, dv in ((tau, dtau), (kappa, dkappa)):
                    if dv < 0.0:
                        step = min(step, -v / dv)
                return u[:n], dz, ds_vec, dtau, dkappa, step

            _, dz_a, ds_a, dtau_a, dkappa_a, step_a = direction(
                1.0, lam2, tau * kappa)
            sigma = (1.0 - step_a) ** 3
            dx, dz, ds_vec, dtau, dkappa, step = direction(
                1.0 - sigma,
                lam2 + cones.prod(cones.apply_w(w, ds_a[me:], inverse=True),
                                  cones.apply_w(w, dz_a[me:]))
                - sigma * mu * cones.unit,
                tau * kappa + dtau_a * dkappa_a - sigma * mu)
            step *= STEP_FRACTION
            x = x + step * dx
            z = z + step * dz
            s = s + step * ds_vec
            tau += step * dtau
            kappa += step * dkappa
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))
                    and tau > 0.0):
                reason = "non-finite step"
                break
        return status, it, best[1], reason

    def _unscaled(self, x_sc, y_sc):
        """The point in the caller's units: x, row multipliers, bound
        multipliers and one multiplier per ball."""
        m, n = self.prog.m, self.n
        # interior and polished points may stray from a bound by rounding;
        # downstream stages take these values as exact boundary data
        x = np.clip(x_sc * self.d, self.l[m:m + n], self.u[m:m + n])
        y = y_sc * self.e / self.c
        # row and bound multipliers on their valid sign, as `certify`
        # reads them; a ball block's multipliers are -lambda (1, -normal)
        y_lin = _valid_sign(y[:m + n], self.l[:m + n], self.u[:m + n])
        return x, y_lin[:m], y_lin[m:], np.maximum(-y[self.cone0 + self.cones.heads], 0.0)

    def _bound(self, y_sc):
        """Weak-duality bound of the program from stacked multipliers
        `y_sc`, which need not be optimal.  Each linear row's multiplier
        goes onto its valid sign, and each ball's block -z into its cone,
        z's head raised to the norm of its tail; the bound rows are left
        to the box.  Then the Lagrangian, at most the cost at every
        feasible point, is separable: each column's 1/2 p x^2 + g x is
        minimized over its box in closed form.  It is -inf when a column
        without curvature is pushed toward an infinite bound."""
        m, c0, cones = self.prog.m, self.cone0, self.cones
        ls, us = self.l[:m] * self.e[:m], self.u[:m] * self.e[:m]
        y = np.zeros(self.mt)
        y[:m] = _valid_sign(y_sc[:m], ls, us)
        z = -y_sc[c0:]
        z[cones.heads] = np.maximum(z[cones.heads], cones.tail_norm(z))
        y[c0:] = -z
        side = np.where(y[:m] > 0.0, us, np.where(y[:m] < 0.0, ls, 0.0))
        g = self.qs + self.As.T @ y
        lo, hi = self.l[m:c0] / self.d, self.u[m:c0] / self.d
        curved = self.ps > 0.0
        x = np.where(g > 0.0, lo, np.where(g < 0.0, hi, np.clip(0.0, lo, hi)))
        x = np.where(curved, np.clip(-g / np.where(curved, self.ps, 1.0), lo, hi), x)
        xq = np.where(curved, x, 0.0)
        low = float((g * x + 0.5 * self.ps * xq * xq).sum()) \
            + float(self.h_cone @ y[c0:]) - float(y[:m] @ side)
        return low / self.c + self.prog.const

    def _package(self, status, detail, x_sc, y_sc, prim_res, dual_res,
                 it, elapsed):
        """The result of a scaled point.  An unpolished point that is
        neither infeasible nor unbounded is ``optimal`` only if proven
        (module docstring), ``iteration-limit`` otherwise."""
        x, y_rows, y_bounds, cone_duals = self._unscaled(x_sc, y_sc)
        objective = self.prog.objective(x)
        bound = np.nan
        if status not in ("infeasible", "unbounded"):
            bound = self._bound(y_sc)
            if detail != "polished":
                proven = _primal(self.prog, x)[-1] <= 1.0 and \
                    objective - bound <= EPS_GAP * max(1.0, abs(objective))
                status = "optimal" if proven else "iteration-limit"
        return PrimalDualSolution(
            status=status,
            x=x,
            y_rows=y_rows,
            y_bounds=y_bounds,
            objective=objective,
            prim_res=prim_res,
            dual_res=dual_res,
            iterations=it,
            solve_time=elapsed,
            cone_duals=cone_duals,
            polished=(detail == "polished"),
            detail=detail,
            program=self.prog,
            bound=bound,
        )

    # -- polish -----------------------------------------------------------

    def _balls(self, ax):
        """Radius and column norm of every ball, scaled, from As x."""
        val = self.h_cone + ax[self.cone0:]
        return val, val[self.cones.heads], self.cones.tail_norm(val)

    def _polish(self, low, up, act, lam, x_sc):
        """Equality-constrained resolve on the active rows `low`/`up`
        (plus every equality row) and the active balls `act`, whose
        interior-point multipliers are `lam`; returns the scaled
        candidate (x, y) with the lowest certificate ratio and that
        certificate, or None if the first factorization fails.
        Acceptance is the caller's decision.

        An active ball is pinned by its tangent u·v = r at the current
        point (u the unit direction of its columns v), and its
        curvature lam (I - u u') / |v| joins the objective, so that each
        pass is a Newton step on the ball and the re-linearized passes
        settle on it.  A ball at its apex has no tangent: its columns
        are pinned to zero, and its multiplier is the norm of theirs.

        The resolve is anchored at the iterate: the objective carries a
        proximal term (delta/2)|x - x_it|^2.  On a flat optimal face the
        pinned system is singular along the costless directions, and an
        unanchored solve drifts along them into rows it never pinned.
        The anchor keeps those components at the iterate, which satisfies
        the inactive rows; at an exact optimum it is consistent with the
        unmodified optimality conditions, so nondegenerate solutions are
        unaffected."""
        n, m, c0, cones = self.n, self.prog.m, self.cone0, self.cones
        owner, heads, tail = cones.owner, cones.heads, cones.tail
        ls = self.l * self.e
        us = self.u * self.e
        eq = ls == us          # always pinned, whatever the multiplier sign
        e_k = self.e[c0 + heads]
        ccol, cval = self.cone_col, self.cone_val
        lam = np.maximum(lam, 0.0)

        # The handed-over active set is only a guess.  Each pass solves
        # the pinned KKT system, then adds rows and balls the candidate
        # violates, drops pins whose multiplier came out wrong-signed
        # (those were slack, or redundant with other pins), and moves the
        # tangents to the candidate.  The candidate with the lowest
        # certificate ratio over all passes is returned.
        best = None
        x_lin = x_sc
        val, radius, norm = self._balls(self.As @ x_lin)

        def tangent(val, norm):
            """Block weights (-1, u) turning a ball's rows into its tangent
            row at `val`, u the unit direction of its columns."""
            return np.where(tail, val / np.where(norm > 0.0, norm, 1.0)[owner],
                            -1.0)

        for _ in range(POLISH_PASSES):
            apex = act & ((radius <= EPS_ABS * e_k) | (norm <= EPS_ABS * e_k))
            tan = act & ~apex
            coef = tangent(val, norm)
            in_t = tan[owner]
            pos = np.cumsum(tan)[owner[in_t]] - 1
            t_vals = -np.bincount(pos, weights=(coef * self.h_cone)[in_t],
                                  minlength=int(tan.sum()))
            pinned = c0 + np.flatnonzero(tail & apex[owner])
            idx = np.concatenate([np.flatnonzero(eq), np.flatnonzero(low),
                                  np.flatnonzero(up), pinned])
            vals = np.concatenate([ls[eq], ls[low], us[up],
                                   np.zeros(pinned.size), t_vals])
            nact = vals.size
            # the pinned rows of As, then one tangent row per pinned ball
            # summing its rows with the weights `coef`
            r_pin, c_pin, v_pin = _rows_of(self.As, idx)
            t_ent = in_t & (ccol >= 0)
            r_red = np.concatenate([r_pin, idx.size + pos[t_ent[in_t]]])
            c_red = np.concatenate([c_pin, ccol[t_ent]])
            v_red = np.concatenate([v_pin, (coef * cval)[t_ent]])
            # the ball's curvature lam (I - u u') / |v| on its columns
            pi, pj = cones.pi, cones.pj
            pair = tan[owner[pi]] & tail[pi] & tail[pj]
            weight = (lam / np.where(norm > 0.0, norm, 1.0))[owner[pi]]
            v_curv = (weight * ((pi == pj) - coef[pi] * coef[pj])
                      * cval[pi] * cval[pj])[pair]
            # [[diag(ps + delta) + curvature, A_red'], [A_red, -delta I]],
            # refined against the anchored system: only the dual-block
            # regularization is refined away, the proximal term stays
            diag_p, diag_d = np.arange(n), n + np.arange(nact)
            k_reg = sp.csc_matrix((
                np.concatenate([self.ps + POLISH_DELTA, v_curv, v_red, v_red,
                                np.full(nact, -POLISH_DELTA)]),
                (np.concatenate([diag_p, ccol[pi[pair]], n + r_red, c_red, diag_d]),
                 np.concatenate([diag_p, ccol[pj[pair]], c_red, n + r_red, diag_d]))),
                shape=(n + nact, n + nact))
            dual_shift = np.concatenate([np.zeros(n), np.full(nact, POLISH_DELTA)])
            try:
                lu = spla.splu(k_reg, panel_size=1)
            except RuntimeError:
                return best
            # proximal-point iteration on the pinned subproblem, reusing
            # one factorization: re-anchoring at each solution drives the
            # anchor error to zero (finitely, on polyhedral pieces), so
            # the accepted point is stationary for the unmodified
            # objective rather than stationary-up-to-delta.  It stops
            # once the anchor settles, or at the first move that fails
            # to halve the one before: along directions of little
            # curvature the iteration contracts slowly, and `certify`
            # judges the candidate where it stops
            anchor = x_lin
            sol = None
            last = np.inf
            for _ in range(10):
                rhs = np.concatenate([POLISH_DELTA * anchor - self.qs,
                                      vals])
                # redundant pins make the plain system singular along
                # dual directions, which the refinement tolerates
                sol = _refined(lu, k_reg, dual_shift, rhs)
                if not np.all(np.isfinite(sol)):
                    return best
                move = float(np.abs(sol[:n] - anchor).max(initial=0.0))
                anchor = sol[:n]
                if move <= 1e-14 * (1.0 + float(np.abs(anchor).max(initial=0.0))) \
                        or move > 0.5 * last:
                    break
                last = move

            # a column pinned at a bound sits on it exactly, so that no
            # rounding residue reaches its cost
            x_pol = sol[:n].copy()
            on = (idx >= m) & (idx < c0)
            rows = idx[on]
            x_pol[rows - m] = vals[:idx.size][on] / self.e[rows] / self.d[rows - m]
            ax = self.As @ x_pol
            val, radius, norm = self._balls(ax)
            y_pol = np.zeros(self.mt)
            y_pol[idx] = sol[n:n + idx.size]
            # a pinned ball's multipliers take its normal at the candidate,
            # which cancels the curvature term to first order
            t_full = np.zeros(cones.count)
            t_full[tan] = sol[n + idx.size:]
            y_pol[c0:] += np.where(in_t, tangent(val, norm) * t_full[owner], 0.0)
            # an apex ball's multiplier is the norm of its column pins;
            # the radius variable's bound row carries it back
            z0 = np.where(apex, cones.tail_norm(y_pol[c0:]), 0.0)
            y_pol[c0 + heads] -= z0
            rc = self.prog.radius_col
            shift = apex & (rc >= 0)
            np.add.at(y_pol, m + rc[shift],
                      z0[shift] * e_k[shift] / self.e[m + rc[shift]])
            cert = certify(self.prog, *self._unscaled(x_pol, y_pol))
            if best is None or cert.ratio < best[2].ratio:
                best = (x_pol, y_pol, cert)

            # a wrong-signed pin goes however small its multiplier: next
            # to the shed price, a threshold relative to the largest
            # multiplier would keep pins that fail `certify`
            shrink_up = up & (y_pol < 0.0)
            shrink_lo = low & (y_pol > 0.0)
            shrink_c = tan & (t_full < 0.0)
            # growing by the dominant violations only keeps the system
            # consistent; noise-level violations rejoin in later passes
            viol_up = ax - us
            viol_lo = ls - ax
            viol_c = norm - radius
            worst = max(float(viol_up.max(initial=0.0)),
                        float(viol_lo.max(initial=0.0)),
                        float(viol_c.max(initial=0.0)))
            gtol = max(1e-9, 1e-3 * worst)
            grow_up = (viol_up > gtol) & ~eq & ~up
            grow_lo = (viol_lo > gtol) & ~eq & ~low
            grow_c = (viol_c > gtol) & ~act
            # the tangents and their curvature are re-linearized at each
            # candidate until it certifies with every pinned ball holding
            # to rounding; once a candidate has certified, one that fails
            # ends the search
            if cert.ratio <= 1.0 and np.all(viol_c[tan] <= 1e-12 * (1.0 + radius[tan])) \
                    or best[2].ratio <= 1.0 < cert.ratio:
                break
            if not (grow_up.any() or grow_lo.any() or grow_c.any() or tan.any()
                    or shrink_up.any() or shrink_lo.any() or shrink_c.any()):
                break
            up = (up | grow_up) & ~shrink_up
            low = (low | grow_lo) & ~shrink_lo
            act = (act | grow_c) & ~shrink_c
            lam = np.where(tan, np.maximum(t_full, 0.0), lam)
            x_lin = x_pol
        return best


def solve_qcqp(prog: ConvexProgram) -> PrimalDualSolution:
    """Solve a program with norm-ball rows: one workspace, one conic
    interior-point solve and its polish.  `cone_duals` holds one
    multiplier per ball (see the module docstring)."""
    return QpWorkspace(prog).solve()
