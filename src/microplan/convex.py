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
Nesterov-Todd scaling of every cone, and infeasibility or unboundedness
is read off the homogeneous certificates.

The second layer is the polish: the interior point's active set is
resolved as an equality-constrained system, so that solutions and duals
come out at near-machine accuracy.  An active ball is pinned by its
tangent at the current point, with its curvature in the objective, and
re-linearized at each pass's point until that point stops moving off
the ball; a ball at its apex, where no tangent exists, has its columns
pinned to zero.

A point is reported optimal when it certifies (:func:`certify`): (1)
every row, bound and ball holds and (2) stationarity holds, entry by
entry within EPS_ABS + EPS_REL times the magnitude of the entry's terms,
with every multiplier first projected onto its valid sign, so that a
multiplier on a missing or wrong side counts as a stationarity error;
(3) the complementarity gap, each multiplier times the distance to the
side it claims, is at most EPS_ABS times max(1 USD, |objective|).  The
polish returns its pass with the lowest certificate ratio.  When no pass
certifies, the interior point's own point and duals are returned, as
``iteration-limit``, or as ``optimal`` with detail ``polish rejected``
if the interior point had met its own termination test.

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

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class EngineError(ValueError):
    """Malformed convex program or unusable solver input."""


@dataclass(frozen=True)
class ConeRow:
    """Norm-ball row: sum of squares of `cols` bounded by a squared radius.

    The radius is `radius` when `radius_col` is None, otherwise the value
    of variable `radius_col` (which the program must keep nonnegative via
    its bounds).
    """
    cols: tuple
    radius: float = 0.0
    radius_col: int | None = None


class ConvexProgram:
    """Immutable problem data with convexity checked at construction."""

    def __init__(self, p_diag, q, a, l, u, lb, ub, cones=(), const=0.0):
        self.p_diag = np.asarray(p_diag, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.n = self.q.shape[0]
        self.a = sp.csr_matrix(a) if a is not None else sp.csr_matrix((0, self.n))
        if self.a.shape[1] != self.n:
            raise EngineError(f"A has {self.a.shape[1]} columns, expected {self.n}")
        self.m = self.a.shape[0]
        self.l = np.asarray(l, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.lb = np.asarray(lb, dtype=float)
        self.ub = np.asarray(ub, dtype=float)
        self.cones = tuple(cones)
        self.const = float(const)

        if self.p_diag.shape != (self.n,):
            raise EngineError("p_diag shape mismatch")
        if self.p_diag.min(initial=0.0) < -1e-12:
            raise EngineError("quadratic objective has a negative diagonal entry")
        self.p_diag = np.maximum(self.p_diag, 0.0)
        if self.l.shape != (self.m,) or self.u.shape != (self.m,):
            raise EngineError("row bound shape mismatch")
        if self.lb.shape != (self.n,) or self.ub.shape != (self.n,):
            raise EngineError("variable bound shape mismatch")
        if np.any(self.l > self.u + 1e-12):
            bad = int(np.argmax(self.l - self.u))
            raise EngineError(f"row {bad} has l > u")
        if np.any(self.lb > self.ub + 1e-12):
            bad = int(np.argmax(self.lb - self.ub))
            raise EngineError(f"variable {bad} has lb > ub")
        for k, cone in enumerate(self.cones):
            if not cone.cols:
                raise EngineError(f"cone {k} has no columns")
            cols = set(cone.cols)
            if len(cols) != len(cone.cols) \
                    or min(cols) < 0 or max(cols) >= self.n:
                raise EngineError(f"cone {k} has invalid columns")
            if cone.radius_col is None:
                if cone.radius < 0:
                    raise EngineError(f"cone {k} has negative radius")
            elif cone.radius_col in cols or not 0 <= cone.radius_col < self.n:
                raise EngineError(f"cone {k} has invalid radius column")
        # the balls as flat arrays: every ball's columns back to back,
        # the ball owning each, and per ball its radius column (-1 for a
        # constant radius) and its constant radius
        sizes = [len(cone.cols) for cone in self.cones]
        self.cone_cols = np.array([j for cone in self.cones for j in cone.cols],
                                  dtype=int)
        self.cone_owner = np.repeat(np.arange(len(sizes)), sizes)
        self.radius_col = np.array(
            [-1 if cone.radius_col is None else cone.radius_col
             for cone in self.cones], dtype=int)
        self.radius = np.array([cone.radius for cone in self.cones], dtype=float)

    def objective(self, x):
        return 0.5 * float(x @ (self.p_diag * x)) + float(self.q @ x) + self.const


# Interior-point constants: termination and infeasibility tolerances,
# static KKT regularization, step damping and the stall window; then
# equilibration, the tolerances of `certify`, the polish's proximal
# weight and pass limit, and the refinement's step limit and relative
# stopping tolerance
EPS_OPT = 1e-9
EPS_INF = 1e-8
KKT_REG = 1e-8
STEP_FRACTION = 0.99
STALL_ITERS = 10
SCALING_ITERS = 10
EPS_ABS = 1e-8
EPS_REL = 1e-6
POLISH_DELTA = 1e-6
POLISH_PASSES = 8
REFINE_STEPS = 3
REFINE_TOL = 1e-13


@dataclass(frozen=True)
class Settings:
    max_iter: int = 100
    polish: bool = True
    log_path: str | None = None


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

    @property
    def lower_bound_duals(self):
        return np.maximum(-self.y_bounds, 0.0)

    @property
    def upper_bound_duals(self):
        return np.maximum(self.y_bounds, 0.0)


def get_duals(solution: PrimalDualSolution, rows) -> np.ndarray:
    """Duals of the requested rows under the documented sign convention.

    Equality rows report the raw multiplier; one-sided rows report the
    multiplier of the inequality in its stated sense (nonnegative at
    optimality); finite two-sided ranges report the raw multiplier.
    """
    if solution.status != "optimal":
        raise EngineError(f"duals requested from a {solution.status} solution")
    prog = solution.program
    out = np.empty(len(rows))
    for k, i in enumerate(rows):
        y = solution.y_rows[i]
        lo, hi = prog.l[i], prog.u[i]
        if lo == hi:
            out[k] = y
        elif np.isinf(hi):          # lower-bounded row, >= sense
            out[k] = -y
        else:                       # <= sense (or finite range)
            out[k] = y
    return out


class Certificate(NamedTuple):
    """Worst absolute primal violation and stationarity residual, the
    complementarity gap in dollars, and the worst ratio of any of them to
    its tolerance: at most 1 means certified."""
    prim: float
    stat: float
    gap: float
    ratio: float


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
    v = np.concatenate([prog.a @ x, x])
    lo, hi = np.concatenate([prog.l, prog.lb]), np.concatenate([prog.u, prog.ub])
    at = np.clip(v, lo, hi)
    norm = np.sqrt(np.bincount(owner, x[cols] ** 2, minlength=rc.size))
    radius = np.where(rc >= 0, x[rc], prog.radius)
    viol = np.concatenate([np.abs(v - at), np.maximum(norm - radius, 0.0)])
    prim_ref = np.concatenate([np.maximum(np.abs(v), np.abs(at)),
                               np.maximum(np.abs(radius), norm)])

    # every multiplier projected onto its valid sign: positive only on a
    # finite upper side, negative only on a finite lower side
    y = np.clip(np.concatenate([y_rows, y_bounds]).astype(float),
                np.where(np.isfinite(lo), -np.inf, 0.0),
                np.where(np.isfinite(hi), np.inf, 0.0))
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
        float((viol / (EPS_ABS + EPS_REL * prim_ref)).max(initial=0.0)),
        float((np.abs(stat) / (EPS_ABS + EPS_REL * stat_ref)).max(initial=0.0)),
        gap / (EPS_ABS * max(1.0, abs(prog.objective(x)))))
    return Certificate(float(viol.max(initial=0.0)),
                       float(np.abs(stat).max(initial=0.0)), gap, ratio)


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
        # every (i, j) pair inside a block: the pattern of W^2
        rep = self.sizes[self.owner]
        self.pi = np.repeat(np.arange(self.owner.size), rep)
        self.pj = np.repeat(self.heads[self.owner], rep) \
            + np.arange(self.pi.size) - np.repeat(np.cumsum(rep) - rep, rep)

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

    def _det(self, v):
        tn = self.tail_norm(v)
        return (v[self.heads] - tn) * (v[self.heads] + tn)

    def prod(self, u, v):
        """Jordan product u o v."""
        out = u[self.heads][self.owner] * v + v[self.heads][self.owner] * u
        out[self.heads] = self._sum(u * v)
        return out

    def div(self, lam, v):
        """Jordan division: the x with lam o x = v, for lam inside."""
        l0 = lam[self.heads]
        x0 = (l0 * v[self.heads] - self.tail_dot(lam, v)) / self._det(lam)
        out = (v - lam * x0[self.owner]) / l0[self.owner]
        out[self.heads] = x0
        return out

    def scaling(self, s, z):
        """Nesterov-Todd scaling of interior s and z: W = eta * Wbar with
        Wbar the hyperbolic reflection by wbar, W z = W^-1 s = lam."""
        det_s, det_z = self._det(s), self._det(z)
        sb = s / np.sqrt(det_s)[self.owner]
        zb = z / np.sqrt(det_z)[self.owner]
        gamma = np.sqrt(0.5 * (1.0 + self._sum(sb * zb)))
        wbar = (sb + np.where(self.tail, -zb, zb)) / (2.0 * gamma)[self.owner]
        eta = np.sqrt(np.sqrt(det_s) / np.sqrt(det_z))
        return eta, wbar, self.apply_w(eta, wbar, z)

    def apply_w(self, eta, wbar, v, inverse=False):
        """W v, or W^-1 v."""
        sign = -1.0 if inverse else 1.0
        w0, v0 = wbar[self.heads], v[self.heads]
        td = self.tail_dot(wbar, v)
        out = v + (sign * v0 + td / (1.0 + w0))[self.owner] * wbar
        out[self.heads] = w0 * v0 + sign * td
        return out / eta[self.owner] if inverse else out * eta[self.owner]

    def w2(self, eta, wbar):
        """Entries of W^2 = eta^2 (2 wbar wbar' - J) on (pi, pj)."""
        jdiag = np.where(self.pi == self.pj, 2.0 * self.unit[self.pi] - 1.0, 0.0)
        return (eta * eta)[self.owner[self.pi]] \
            * (2.0 * wbar[self.pi] * wbar[self.pj] - jdiag)

    def max_step(self, v, dv):
        """Largest step in (0, 1] keeping v + step * dv in the cones: the
        reflection taking v/|v|_J to the identity maps dv to y, and the
        step reaches the boundary at |v|_J / (|y[1:]| - y[0])."""
        sq = np.sqrt(self._det(v))
        vb = v / sq[self.owner]
        b0, d0 = vb[self.heads], dv[self.heads]
        y0 = b0 * d0 - self.tail_dot(vb, dv)
        y1 = dv - ((y0 + d0) / (b0 + 1.0))[self.owner] * vb
        lim = self.tail_norm(y1) - y0
        hit = lim > 0.0
        return min(1.0, float((sq[hit] / lim[hit]).min(initial=np.inf)))


class QpWorkspace:
    """Scaled problem data of one program.

    The stacked rows are the caller rows, one bound row per variable,
    then one block per ball: its radius row, then one row per column.
    A block's values h + As x lie in the second-order cone.
    """

    def __init__(self, prog: ConvexProgram, settings: Settings = Settings()):
        self.prog = prog
        self.settings = settings
        n, m = prog.n, prog.m
        self.n = n
        self.cones = _Cones(1 + np.bincount(prog.cone_owner,
                                            minlength=len(prog.cones)))
        self.cone0 = m + n                   # first cone row
        self.mt = m + n + self.cones.owner.size
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
        self.l = np.concatenate([prog.l, prog.lb, np.full(h.size, -np.inf)])
        self.u = np.concatenate([prog.u, prog.ub, np.full(h.size, np.inf)])

    # -- setup ------------------------------------------------------------

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
        """Interior-point solve, then the active-set polish of its point."""
        st = self.settings
        t0 = time.perf_counter()
        # an empty row whose bounds exclude zero is its own certificate of
        # infeasibility; in the interior point its multiplier would grow
        # like 1/KKT_REG and could stall the iteration instead
        prog = self.prog
        miss = np.where(np.asarray(abs(prog.a).sum(axis=1)).ravel() == 0.0,
                        np.maximum(prog.l, -prog.u), 0.0)
        if miss.max(initial=0.0) > EPS_ABS:
            return self._package("infeasible", f"row {int(np.argmax(miss))} is empty",
                                 np.zeros(self.n), np.zeros(self.mt),
                                 float(miss.max()), 0.0, 0,
                                 time.perf_counter() - t0, [])
        ls = self.l * self.e
        us = self.u * self.e
        # g x + s = h: equalities (s = 0), the upper and lower sides of
        # the other linear rows (s >= 0), then the ball blocks, whose
        # values h + As x enter negated
        eq = (ls == us) & np.isfinite(us)
        i_eq = np.flatnonzero(eq)
        i_up = np.flatnonzero(np.isfinite(us) & ~eq)
        i_lo = np.flatnonzero(np.isfinite(ls) & ~eq)
        n_lin = i_up.size + i_lo.size
        rows = np.concatenate([i_eq, i_up, i_lo, np.arange(self.cone0, self.mt)])
        sign = np.ones(rows.size)
        sign[i_eq.size + i_up.size:] = -1.0
        g = sp.diags(sign) @ self.As[rows]
        h = np.concatenate([us[i_eq], us[i_up], -ls[i_lo], self.h_cone])
        cones = _Cones(np.concatenate([np.ones(n_lin, dtype=int),
                                       self.cones.sizes]))

        log_rows = []
        status, it, (x, z, s, prim_res, dual_res) = self._interior_point(
            g, h, i_eq.size, cones, self.e[rows], log_rows)
        y = np.zeros(self.mt)
        np.add.at(y, rows, sign * z)
        detail = ""
        if st.polish and status in ("optimal", "iteration-limit"):
            # a row or ball is pinned when its multiplier exceeds its
            # slack (a ball's slack is its distance to the cone boundary);
            # the multiplier sign alone misreads near-zero duals
            z0 = z[i_eq.size:][cones.heads]
            act = z0 > cones.margin(s[i_eq.size:])
            up = np.zeros(self.mt, dtype=bool)
            low = np.zeros(self.mt, dtype=bool)
            up[i_up[act[:i_up.size]]] = True
            low[i_lo[act[i_up.size:n_lin]]] = True
            polished = self._polish(low, up, act[n_lin:], z0[n_lin:], x)
            if polished is not None and polished[2].ratio <= 1.0:
                x, y, cert = polished
                prim_res, dual_res = cert.prim, cert.stat
                status, detail = "optimal", "polished"
            elif status == "optimal":
                detail = "polish rejected"
        return self._package(status, detail, x, y, prim_res, dual_res, it,
                             time.perf_counter() - t0, log_rows)

    def _interior_point(self, g, h, me, cones, e_g, log_rows):
        """Homogeneous self-dual primal-dual iteration with Mehrotra
        predictor-corrector steps on the scaled program

            minimize 1/2 x' diag(ps) x + qs' x   s.t.  g x + s = h,
            s = 0 on the first `me` rows, s in `cones` on the rest,

        embedded with the homogenizing pair (tau, kappa) so that the
        limit is either a solution (tau > 0) or an infeasibility
        certificate (kappa > 0).  Returns the status, the step count and
        the point (x, z, s, primal residual, dual residual): the iterate
        meeting the tolerances, or the best iterate seen otherwise.
        """
        st = self.settings
        n, mg = self.n, g.shape[0]
        ps, qs, d, c = self.ps, self.qs, self.d, self.c
        gt = g.T.tocsr()
        # the KKT pattern is fixed: [[P, G'], [G, 0]], the W^2 blocks and
        # the diagonal; one CSC matrix holds it for the whole solve, and
        # each step sums its numbers into the matrix's data array
        static = sp.bmat([[sp.diags(ps), gt], [g, None]], format="coo")
        dim = n + mg
        diag = np.arange(dim)
        rows = np.concatenate([static.row, n + me + cones.pi, diag])
        cols = np.concatenate([static.col, n + me + cones.pj, diag])
        slots, slot_of = np.unique(cols * dim + rows, return_inverse=True)
        indptr = np.searchsorted(slots // dim, np.arange(dim + 1))
        reg = KKT_REG * np.concatenate([np.ones(n), -np.ones(mg)])
        kkt = sp.csc_matrix((np.zeros(slots.size), slots % dim, indptr),
                            shape=(dim, dim))

        def factor(w2):
            """Quasi-definite KKT [[P, G'], [G, -W^2]], statically
            regularized for the factorization; refinement takes the
            exact matrix as kkt - diag(reg)."""
            kkt.data[:] = np.bincount(
                slot_of, np.concatenate([static.data, -w2, reg]), slots.size)
            return spla.splu(kkt)

        # start from the least-squares point of the rows (W = I), with
        # slacks and multipliers shifted into the cones' interior
        lu = factor(cones.w2(np.ones(cones.count), cones.unit))
        sol = _refined(lu, kkt, -reg, np.concatenate([-qs, h]))
        x, z = sol[:n], sol[n:]
        s = np.zeros(mg)
        s[me:] = -z[me:]
        for v in (s, z):
            lowest = float(cones.margin(v[me:]).min(initial=1.0))
            if lowest < 1.0:
                v[me + cones.heads] += 1.0 - lowest
        tau = kappa = 1.0

        status = "iteration-limit"
        best = None
        mus = []
        it = 0
        while True:
            xh, zh, sh = x / tau, z / tau, s / tau
            gx, px, gtz = g @ xh, ps * xh, gt @ zh
            prim_res = float((np.abs(gx + sh - h) / e_g).max(initial=0.0))
            dual_res = float((np.abs(px + qs + gtz) / (d * c)).max(initial=0.0))
            prim_ref = 1.0 + max(float((np.abs(gx) / e_g).max(initial=0.0)),
                                 float((np.abs(h) / e_g).max(initial=0.0)))
            dual_ref = 1.0 + max(float((np.abs(px) / d).max(initial=0.0)),
                                 float((np.abs(gtz) / d).max(initial=0.0)),
                                 float((np.abs(qs) / d).max(initial=0.0))) / c
            pobj = (0.5 * float(xh @ px) + float(qs @ xh)) / c
            gap = abs(float(xh @ px) + float(qs @ xh) + float(h @ zh)) / c
            if st.log_path:
                log_rows.append((it, prim_res, dual_res,
                                 self.prog.objective(xh * d)))
            # the gap is in objective units (dollars) with a unit floor
            merit = max(prim_res / prim_ref, dual_res / dual_ref,
                        gap / max(1.0, abs(pobj)))
            if best is None or merit < best[0]:
                best = (merit, (xh, zh, sh, prim_res, dual_res))
            if merit <= EPS_OPT:
                status = "optimal"
                break
            # homogeneous certificates: a dual ray proving the rows
            # inconsistent, or a primal ray of decreasing cost
            htz, qx = float(h @ z), float(qs @ x)
            if htz < 0.0 and float((np.abs(gt @ z) / d).max(initial=0.0)) \
                    <= EPS_INF * -htz:
                return "infeasible", it, best[1]
            if qx < 0.0:
                curv = float((np.abs(ps * x) / d).max(initial=0.0))
                slip = float((np.abs(g @ x + s) / e_g).max(initial=0.0))
                if curv <= EPS_INF * -qx and slip <= EPS_INF * -qx / c:
                    return "unbounded", it, best[1]
            mu = (float(s[me:] @ z[me:]) + tau * kappa) / (cones.count + 1)
            mus.append(mu)
            # a stalled iteration (mu not halving over the window) hands
            # its best iterate to the polish, and so does an iterate that
            # rounding has put on a cone's boundary, where the scaling
            # below is undefined
            if it >= st.max_iter or (len(mus) > STALL_ITERS
                                     and mu > 0.5 * mus[-1 - STALL_ITERS]) \
                    or not (cones.margin(s[me:]).min(initial=1.0) > 0.0
                            and cones.margin(z[me:]).min(initial=1.0) > 0.0):
                break
            it += 1

            eta, wbar, lam = cones.scaling(s[me:], z[me:])
            try:
                lu = factor(cones.w2(eta, wbar))
            except RuntimeError:
                break
            rx = ps * x + gt @ z + qs * tau
            rz = g @ x + s - h * tau
            xpx = float(x @ (ps * x))
            rtau = xpx / tau + qx + htz + kappa
            cx = 2.0 * ps * x / tau + qs
            # the tau direction: one back-solve shared by both steps
            u_tau = _refined(lu, kkt, -reg, np.concatenate([-qs, h]))
            denom = float(cx @ u_tau[:n] + h @ u_tau[n:]) \
                - xpx / tau ** 2 - kappa / tau

            def direction(weight, ds, dk):
                """Newton step with residuals scaled by `weight` and
                complementarity targets lam o (W^-1 ds + W dz) = -ds on
                the cones and kappa dtau + tau dkappa = -dk."""
                shift = cones.apply_w(eta, wbar, cones.div(lam, ds))
                rhs = np.concatenate([-weight * rx, -weight * rz])
                rhs[n + me:] += shift
                u = _refined(lu, kkt, -reg, rhs)
                dtau = (-weight * rtau + dk / tau - float(cx @ u[:n])
                        - float(h @ u[n:])) / denom
                u += dtau * u_tau
                dz = u[n:]
                ds_vec = np.zeros(mg)
                ds_vec[me:] = -shift - cones.apply_w(
                    eta, wbar, cones.apply_w(eta, wbar, dz[me:]))
                dkappa = -(dk + kappa * dtau) / tau
                step = min(cones.max_step(s[me:], ds_vec[me:]),
                           cones.max_step(z[me:], dz[me:]))
                for v, dv in ((tau, dtau), (kappa, dkappa)):
                    if dv < 0.0:
                        step = min(step, -v / dv)
                return u[:n], dz, ds_vec, dtau, dkappa, step

            _, dz_a, ds_a, dtau_a, dkappa_a, step_a = direction(
                1.0, cones.prod(lam, lam), tau * kappa)
            sigma = (1.0 - step_a) ** 3
            dx, dz, ds_vec, dtau, dkappa, step = direction(
                1.0 - sigma,
                cones.prod(lam, lam)
                + cones.prod(cones.apply_w(eta, wbar, ds_a[me:], inverse=True),
                             cones.apply_w(eta, wbar, dz_a[me:]))
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
                break
        return status, it, best[1]

    def _unscaled(self, x_sc, y_sc):
        """The point in the caller's units: x, row multipliers, bound
        multipliers and one multiplier per ball."""
        m, n = self.prog.m, self.n
        # interior and polished points may stray from a bound by rounding;
        # downstream stages take these values as exact boundary data
        x = np.clip(x_sc * self.d, self.l[m:m + n], self.u[m:m + n])
        y = y_sc * self.e / self.c
        # a ball block's multipliers are -lambda (1, -normal)
        return x, y[:m], y[m:m + n], np.maximum(-y[self.cone0 + self.cones.heads], 0.0)

    def _package(self, status, detail, x_sc, y_sc, prim_res, dual_res,
                 it, elapsed, log_rows):
        x, y_rows, y_bounds, cone_duals = self._unscaled(x_sc, y_sc)
        if self.settings.log_path and log_rows:
            with open(self.settings.log_path, "w") as fh:
                fh.write("iter,prim_res,dual_res,obj\n")
                for row in log_rows:
                    fh.write(f"{row[0]},{row[1]:.6e},{row[2]:.6e},{row[3]:.10e}\n")
        return PrimalDualSolution(
            status=status,
            x=x,
            y_rows=y_rows,
            y_bounds=y_bounds,
            objective=self.prog.objective(x),
            prim_res=prim_res,
            dual_res=dual_res,
            iterations=it,
            solve_time=elapsed,
            cone_duals=cone_duals,
            polished=(detail == "polished"),
            detail=detail,
            program=self.prog,
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
                lu = spla.splu(k_reg)
            except RuntimeError:
                return best
            # proximal-point iteration on the pinned subproblem, reusing
            # one factorization: re-anchoring at each solution drives the
            # anchor error to zero (finitely, on polyhedral pieces), so
            # the accepted point is stationary for the unmodified
            # objective rather than stationary-up-to-delta
            anchor = x_lin
            sol = None
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
                if move <= 1e-14 * (1.0 + float(np.abs(anchor).max(initial=0.0))):
                    break

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


def solve_qp(prog: ConvexProgram,
             settings: Settings = Settings()) -> PrimalDualSolution:
    """One-shot QP solve; `prog` must have no cone rows."""
    if prog.cones:
        raise EngineError("program has cone rows; use solve_qcqp")
    return QpWorkspace(prog, settings).solve()


def solve_qcqp(prog: ConvexProgram,
               settings: Settings = Settings()) -> PrimalDualSolution:
    """Solve a program with norm-ball rows: one workspace, one conic
    interior-point solve and its polish.  `cone_duals` holds one
    multiplier per ball (see the module docstring)."""
    return QpWorkspace(prog, settings).solve()
