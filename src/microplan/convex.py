"""Convex QP/QCQP engine: interior point, tangent cuts, active-set polish.

Solves programs of the form

    minimize    1/2 x' diag(P) x + q' x + const
    subject to  l  <= A x <= u        (linear rows)
                lb <=   x <= ub       (variable bounds)
                sum_j x[c_j]^2 <= r^2 (norm-ball rows; r a constant or a
                                       designated radius variable)

in three layers.  Each QP is Ruiz-equilibrated and solved from a cold
start by a homogeneous primal-dual interior-point iteration with
Mehrotra predictor-corrector steps (the form Clarabel uses): one
regularized, refined KKT factorization per step, and infeasibility or
unboundedness read off the homogeneous certificates.  Norm-ball rows
never reach the QP: an outer loop enforces them by tangent cuts
generated on demand, one QP solve per round.  Each QP solve ends with
the polish: the interior point's active set is resolved as an
equality-constrained system, so that solutions and duals come out at
near-machine accuracy.

Dual sign convention.  Multipliers y satisfy the stationarity condition

    diag(P) x + q + A' y_rows + y_bounds = 0,

i.e. the Lagrangian is f + y·(row value − attained bound).  For an
equality row ``a·x = b`` the reported dual is y itself; for a one-sided
``a·x >= b`` row the dual of the inequality in its natural sense is −y
(and is nonnegative at optimality); for ``a·x <= b`` it is +y.
:func:`get_duals` applies this mapping.  Variable-bound multipliers
follow the same rule: ``max(−y_bounds, 0)`` belongs to lower bounds and
``max(y_bounds, 0)`` to upper bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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

    def objective(self, x):
        return 0.5 * float(x @ (self.p_diag * x)) + float(self.q @ x) + self.const


# Interior-point constants: termination and certificate tolerances,
# static KKT regularization, step damping and the stall window; then
# equilibration, and the polish's acceptance tolerances and proximal weight
EPS_OPT = 1e-9
EPS_INF = 1e-8
KKT_REG = 1e-8
STEP_FRACTION = 0.99
STALL_ITERS = 10
SCALING_ITERS = 10
EPS_ABS = 1e-8
EPS_REL = 1e-6
POLISH_DELTA = 1e-6
REFINE_STEPS = 3


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


def _meets(rp_vec, rd_vec, prim_ref, dual_ref, eps_abs, eps_rel):
    """Component-wise residual test."""
    return bool(np.all(np.abs(rp_vec) <= eps_abs + eps_rel * prim_ref)
                and np.all(np.abs(rd_vec) <= eps_abs + eps_rel * dual_ref))


def _refined(lu, mat, rhs):
    """Back-solve with iterative refinement against `mat`.  A singular
    `mat` can make refinement diverge, so the best solution is kept."""
    sol = lu.solve(rhs)
    if not np.all(np.isfinite(sol)):
        return sol
    best = sol
    best_res = float(np.abs(rhs - mat @ sol).max(initial=0.0))
    for _ in range(REFINE_STEPS):
        if best_res < 1e-15:
            break
        sol = sol + lu.solve(rhs - mat @ sol)
        res = float(np.abs(rhs - mat @ sol).max(initial=0.0))
        if res < best_res:
            best, best_res = sol, res
    return best


def _max_step(v, dv):
    """Largest step in (0, 1] keeping v + step * dv nonnegative."""
    neg = dv < 0.0
    return min(1.0, float((-v[neg] / dv[neg]).min(initial=np.inf)))


class QpWorkspace:
    """Scaled problem data for one program structure.

    Row and variable bounds may be replaced between solves; the matrix
    and its equilibration are computed once and reused, which is what
    makes branch-and-bound bound updates cheap.
    """

    def __init__(self, prog: ConvexProgram, settings: Settings = Settings()):
        self.prog = prog
        self.settings = settings
        n, m = prog.n, prog.m
        self.n = n
        self.mt = m + n                      # caller rows plus bound rows
        self._scale(sp.vstack([prog.a, sp.eye(n, format="csr")], format="csr"))
        self.l = np.concatenate([prog.l, prog.lb])
        self.u = np.concatenate([prog.u, prog.ub])

    # -- setup ------------------------------------------------------------

    def _scale(self, a):
        """Modified Ruiz equilibration plus cost normalization."""
        n, mt = self.n, self.mt
        d = np.ones(n)
        e = np.ones(mt)
        c = 1.0
        p = self.prog.p_diag.copy()
        q = self.prog.q.copy()
        a = a.astype(float)
        for _ in range(SCALING_ITERS):
            a_abs = abs(a)
            col_a = np.asarray(a_abs.max(axis=0).todense()).ravel()
            row_a = np.asarray(a_abs.max(axis=1).todense()).ravel()
            col = np.maximum(np.abs(p), col_a)
            d_step = 1.0 / np.sqrt(np.where(col > 1e-12, col, 1.0))
            e_step = 1.0 / np.sqrt(np.where(row_a > 1e-12, row_a, 1.0))
            d *= d_step
            e *= e_step
            p = p * d_step * d_step
            q = q * d_step
            a = sp.diags(e_step) @ a @ sp.diags(d_step)
            # cost normalization keeps the objective and constraint scales
            # comparable, which matters with very large penalty terms
            norm_cost = max(float(np.mean(np.abs(p))), float(np.abs(q).max(initial=0.0)))
            c_step = 1.0 / max(norm_cost, 1e-12) if norm_cost > 1e-12 else 1.0
            c_step = min(max(c_step, 1e-12), 1e12)
            c *= c_step
            p *= c_step
            q *= c_step
        self.d, self.e, self.c = d, e, c
        self.ps, self.qs, self.As = p, q, sp.csr_matrix(a)

    # -- bound updates ----------------------------------------------------

    def update_bounds(self, l=None, u=None, lb=None, ub=None):
        """Replace row/variable bounds; the next solve reclassifies rows."""
        m = self.prog.m
        if l is not None:
            self.l[:m] = l
        if u is not None:
            self.u[:m] = u
        if lb is not None:
            self.l[m:] = lb
        if ub is not None:
            self.u[m:] = ub
        if np.any(self.l > self.u + 1e-12):
            bad = int(np.argmax(self.l - self.u))
            raise EngineError(f"updated bounds cross at row {bad}")

    # -- solve ------------------------------------------------------------

    def solve(self) -> PrimalDualSolution:
        """Interior-point solve, then the active-set polish of its point."""
        st = self.settings
        t0 = time.perf_counter()
        ls = self.l * self.e
        us = self.u * self.e
        # rows are classified from the current bounds, which branch and
        # bound replaces between solves: equalities, then the upper and
        # lower sides of the remaining rows as `g x <= h` inequalities
        eq = (ls == us) & np.isfinite(us)
        i_eq = np.flatnonzero(eq)
        i_up = np.flatnonzero(np.isfinite(us) & ~eq)
        i_lo = np.flatnonzero(np.isfinite(ls) & ~eq)
        rows = np.concatenate([i_eq, i_up, i_lo])
        sign = np.ones(rows.size)
        sign[i_eq.size + i_up.size:] = -1.0
        g = sp.diags(sign) @ self.As[rows]
        h = sign * np.concatenate([us[i_eq], us[i_up], ls[i_lo]])

        log_rows = []
        status, it, (x, z, s, prim_res, dual_res) = self._interior_point(
            g, h, i_eq.size, self.e[rows], log_rows)
        y = np.zeros(self.mt)
        np.add.at(y, rows, sign * z)
        detail = ""
        if st.polish and status in ("optimal", "iteration-limit"):
            # a row is pinned on the side whose multiplier exceeds its
            # slack; the multiplier sign alone misreads near-zero duals
            act = z[i_eq.size:] > s[i_eq.size:]
            up = np.zeros(self.mt, dtype=bool)
            low = np.zeros(self.mt, dtype=bool)
            up[i_up[act[:i_up.size]]] = True
            low[i_lo[act[i_up.size:]]] = True
            acc = self._polish_accept(low, up, x)
            if acc is not None:
                x, y, prim_res, dual_res = acc
                status, detail = "optimal", "polished"
            elif status == "optimal":
                detail = "polish rejected"
        return self._package(status, detail, x, y, prim_res, dual_res, it,
                             time.perf_counter() - t0, log_rows)

    def _interior_point(self, g, h, me, e_g, log_rows):
        """Homogeneous self-dual primal-dual iteration with Mehrotra
        predictor-corrector steps on the scaled QP

            minimize 1/2 x' diag(ps) x + qs' x   s.t.  g x + s = h,
            s = 0 on the first `me` rows, s >= 0 on the rest,

        embedded with the homogenizing pair (tau, kappa) so that the
        limit is either a solution (tau > 0) or an infeasibility
        certificate (kappa > 0).  Returns the status, the step count and
        the point (x, z, s, primal residual, dual residual): the iterate
        meeting the tolerances, or the best iterate seen otherwise.
        """
        st = self.settings
        n, mg = self.n, g.shape[0]
        mi = mg - me
        ps, qs, d, c = self.ps, self.qs, self.d, self.c
        gt = g.T.tocsr()
        static = sp.bmat([[sp.diags(ps), gt], [g, None]], format="csc")
        reg = KKT_REG * sp.diags(np.concatenate([np.ones(n), -np.ones(mg)]))
        w = np.zeros(mg)

        def factor():
            """Quasi-definite KKT [[P, G'], [G, -W]], statically regularized
            for the factorization and refined against the exact matrix."""
            exact = static - sp.diags(np.concatenate([np.zeros(n), w]))
            return spla.splu((exact + reg).tocsc()), exact

        # start from the least-squares point of the rows, with slacks and
        # inequality multipliers shifted into the interior
        w[me:] = 1.0
        lu, exact = factor()
        sol = _refined(lu, exact, np.concatenate([-qs, h]))
        x, z = sol[:n], sol[n:]
        s = np.zeros(mg)
        s[me:] = -z[me:]
        for v in (s, z):
            lowest = float(v[me:].min(initial=1.0))
            if lowest < 1.0:
                v[me:] += 1.0 - lowest
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
            mu = (float(s[me:] @ z[me:]) + tau * kappa) / (mi + 1)
            mus.append(mu)
            # a stalled iteration (mu not halving over the window) hands
            # its best iterate to the polish
            if it >= st.max_iter or (len(mus) > STALL_ITERS
                                     and mu > 0.5 * mus[-1 - STALL_ITERS]):
                break
            it += 1

            w[me:] = s[me:] / z[me:]
            try:
                lu, exact = factor()
            except RuntimeError:
                break
            rx = ps * x + gt @ z + qs * tau
            rz = g @ x + s - h * tau
            xpx = float(x @ (ps * x))
            rtau = xpx / tau + qx + htz + kappa
            cx = 2.0 * ps * x / tau + qs
            # the tau direction: one back-solve shared by both steps
            u_tau = _refined(lu, exact, np.concatenate([-qs, h]))
            denom = float(cx @ u_tau[:n] + h @ u_tau[n:]) \
                - xpx / tau ** 2 - kappa / tau

            def direction(eta, ds, dk):
                """Newton step with residuals scaled by eta and
                complementarity targets ds (inequality rows), dk."""
                rhs = np.concatenate([-eta * rx, -eta * rz])
                rhs[n + me:] += ds / z[me:]
                u = _refined(lu, exact, rhs)
                dtau = (-eta * rtau + dk / tau - float(cx @ u[:n])
                        - float(h @ u[n:])) / denom
                u += dtau * u_tau
                dz = u[n:]
                ds_vec = np.zeros(mg)
                ds_vec[me:] = -(ds + s[me:] * dz[me:]) / z[me:]
                dkappa = -(dk + kappa * dtau) / tau
                step = min(_max_step(s[me:], ds_vec[me:]),
                           _max_step(z[me:], dz[me:]),
                           _max_step(np.array([tau, kappa]),
                                     np.array([dtau, dkappa])))
                return u[:n], dz, ds_vec, dtau, dkappa, step

            _, dz_a, ds_a, dtau_a, dkappa_a, step_a = direction(
                1.0, s[me:] * z[me:], tau * kappa)
            sigma = (1.0 - step_a) ** 3
            dx, dz, ds_vec, dtau, dkappa, step = direction(
                1.0 - sigma,
                s[me:] * z[me:] + ds_a[me:] * dz_a[me:] - sigma * mu,
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

    def _package(self, status, detail, x_sc, y_sc, prim_res, dual_res,
                 it, elapsed, log_rows):
        m = self.prog.m
        # interior and polished points may stray from a bound by rounding;
        # downstream stages take these values as exact boundary data
        x_un = np.clip(x_sc * self.d, self.l[m:], self.u[m:])
        y_un = y_sc * self.e / self.c
        if self.settings.log_path and log_rows:
            with open(self.settings.log_path, "w") as fh:
                fh.write("iter,prim_res,dual_res,obj\n")
                for row in log_rows:
                    fh.write(f"{row[0]},{row[1]:.6e},{row[2]:.6e},{row[3]:.10e}\n")
        return PrimalDualSolution(
            status=status,
            x=x_un,
            y_rows=y_un[:m],
            y_bounds=y_un[m:],
            objective=self.prog.objective(x_un),
            prim_res=prim_res,
            dual_res=dual_res,
            iterations=it,
            solve_time=elapsed,
            polished=(detail == "polished"),
            detail=detail,
            program=self.prog,
        )

    # -- polish -----------------------------------------------------------

    def _obj_guard(self, x_pol, x_it):
        """A mis-pinned active set passes the residual test with a point
        that is stationary for the wrong restriction; such points move
        the objective by far more than the iterate's own error."""
        obj_it = self.prog.objective(x_it * self.d)
        obj_pol = self.prog.objective(x_pol * self.d)
        return obj_pol <= obj_it + 1e-3 * (1.0 + abs(obj_it))

    def _residuals(self, x, y, z):
        """Unscaled residual vectors plus per-component reference scales.

        The acceptance test is applied component-wise: each residual
        entry is compared against eps_abs + eps_rel * (the magnitude of
        the terms feeding that entry).  A single huge coefficient, such
        as a load-shedding penalty, then buys slack only for its own
        column instead of loosening the whole test.
        """
        d, e, c = self.d, self.e, self.c
        ax = self.As @ x
        px = self.ps * x
        aty = self.As.T @ y
        rp_vec = (ax - z) / e
        rd_vec = (px + self.qs + aty) / d / c
        prim_ref = np.maximum(np.abs(ax / e), np.abs(z / e))
        # the dollar-per-unit floor keeps the test attainable when the cost
        # normalization has squeezed the scaled problem by many orders
        dual_ref = np.maximum(np.maximum(np.abs(px / d), np.abs(aty / d)) / c,
                              np.abs(self.prog.q))
        dual_ref = np.maximum(dual_ref, 1.0)
        return rp_vec, rd_vec, prim_ref, dual_ref

    def _polish_accept(self, low, up, x_sc):
        """Run the active-set resolve and test it against the configured
        tolerances.  Returns the accepted (x, y, primal residual, dual
        residual) in scaled form, or None."""
        polished = self._polish(low, up, x_sc)
        if polished is None:
            return None
        xp, yp, zp = polished
        rpp, rdp, prp, drp = self._residuals(xp, yp, zp)
        if _meets(rpp, rdp, prp, drp, EPS_ABS, EPS_REL) \
                and self._obj_guard(xp, x_sc):
            return (xp, yp, float(np.abs(rpp).max(initial=0.0)),
                    float(np.abs(rdp).max(initial=0.0)))
        return None

    def _polish(self, low, up, x_sc):
        """Equality-constrained resolve on the active set `low`/`up` (plus
        every equality row); returns the scaled candidate (x, y, z) or
        None if the factorization fails.  Acceptance is the caller's
        decision.

        The resolve is anchored at the iterate: the objective carries a
        proximal term (delta/2)|x - x_it|^2.  On a flat optimal face the
        pinned system is singular along the costless directions, and an
        unanchored solve drifts along them into rows it never pinned.
        The anchor keeps those components at the iterate, which satisfies
        the inactive rows; at an exact optimum it is consistent with the
        unmodified optimality conditions, so nondegenerate solutions are
        unaffected."""
        n = self.n
        ls = self.l * self.e
        us = self.u * self.e
        eq = ls == us          # always pinned, whatever the multiplier sign

        # The handed-over active set is only a guess.  Each pass solves
        # the pinned KKT system, then adds rows the candidate violates
        # and drops pins whose multiplier came out wrong-signed (those
        # were slack, or redundant with other pins).  The best candidate
        # over all passes is returned.
        best = None
        best_score = np.inf
        for _ in range(6):
            idx = np.concatenate([np.flatnonzero(eq), np.flatnonzero(low),
                                  np.flatnonzero(up)])
            vals = np.concatenate([ls[eq], ls[low], us[up]])
            nact = idx.size
            a_red = self.As[idx]
            k_reg = sp.bmat([
                [sp.diags(self.ps + POLISH_DELTA),
                 a_red.T if nact else sp.csc_matrix((n, 0))],
                [a_red if nact else sp.csc_matrix((0, n)),
                 -POLISH_DELTA * sp.eye(nact)],
            ], format="csc")
            if nact == 0:
                k_reg = sp.csc_matrix(sp.diags(self.ps + POLISH_DELTA))
            try:
                lu = spla.splu(k_reg)
            except RuntimeError:
                return best
            # refinement targets the anchored system: only the dual-block
            # regularization is refined away, the proximal term stays
            k_plain = sp.bmat([
                [sp.diags(self.ps + POLISH_DELTA),
                 a_red.T if nact else sp.csc_matrix((n, 0))],
                [a_red if nact else sp.csc_matrix((0, n)),
                 sp.csc_matrix((nact, nact))],
            ], format="csc") if nact else k_reg
            # proximal-point iteration on the pinned subproblem, reusing
            # one factorization: re-anchoring at each solution drives the
            # anchor error to zero (finitely, on polyhedral pieces), so
            # the accepted point is stationary for the unmodified
            # objective rather than stationary-up-to-delta
            anchor = x_sc
            sol = None
            for _ in range(10):
                rhs = np.concatenate([POLISH_DELTA * anchor - self.qs,
                                      vals])
                # redundant pins make the plain system singular along
                # dual directions, which the refinement tolerates
                sol = _refined(lu, k_plain, rhs)
                if not np.all(np.isfinite(sol)):
                    return best
                move = float(np.abs(sol[:n] - anchor).max(initial=0.0))
                anchor = sol[:n]
                if move <= 1e-14 * (1.0 + float(np.abs(anchor).max(initial=0.0))):
                    break

            x_pol = sol[:n]
            y_pol = np.zeros(self.mt)
            y_pol[idx] = sol[n:]
            ax = self.As @ x_pol
            z_pol = np.clip(ax, ls, us)
            z_pol[idx] = vals
            rp, rd, pr, dr = self._residuals(x_pol, y_pol, z_pol)
            score = max(
                float((np.abs(rp) / (EPS_ABS + EPS_REL * pr)).max(initial=0.0)),
                float((np.abs(rd) / (EPS_ABS + EPS_REL * dr)).max(initial=0.0)))
            if score < best_score:
                best, best_score = (x_pol, y_pol, z_pol), score

            stol = 1e-9 + 1e-6 * float(np.abs(y_pol).max(initial=0.0))
            shrink_up = up & (y_pol < -stol)
            shrink_lo = low & (y_pol > stol)
            # growing by the dominant violations only keeps the system
            # consistent; noise-level violations rejoin in later passes
            viol_up = ax - us
            viol_lo = ls - ax
            worst = max(float(viol_up.max(initial=0.0)),
                        float(viol_lo.max(initial=0.0)))
            gtol = max(1e-9, 1e-3 * worst)
            grow_up = (viol_up > gtol) & ~eq & ~up
            grow_lo = (viol_lo > gtol) & ~eq & ~low
            if not (grow_up.any() or grow_lo.any()
                    or shrink_up.any() or shrink_lo.any()):
                break
            up = (up | grow_up) & ~shrink_up
            low = (low | grow_lo) & ~shrink_lo
        return best


def solve_qp(prog: ConvexProgram,
             settings: Settings = Settings()) -> PrimalDualSolution:
    """One-shot QP solve; `prog` must have no cone rows."""
    if prog.cones:
        raise EngineError("program has cone rows; use solve_qcqp")
    return QpWorkspace(prog, settings).solve()


def _cut_row(prog, cone_idx, direction):
    """Tangent cut Σ a_j x_j (− radius var) <= const radius, as sparse data."""
    cone = prog.cones[cone_idx]
    cols = list(cone.cols)
    vals = list(direction)
    if cone.radius_col is None:
        hi = cone.radius
    else:
        cols.append(cone.radius_col)
        vals.append(-1.0)
        hi = 0.0
    return cols, vals, hi


def solve_qcqp(prog: ConvexProgram, cut_tol: float = 1e-7, max_rounds: int = 50,
               settings: Settings = Settings(),
               cuts: list | None = None,
               ws_cache: dict | None = None) -> PrimalDualSolution:
    """Outer-approximation loop for programs with norm-ball rows.

    `cuts` is an optional externally owned pool of (cone index, unit
    direction) pairs; cuts discovered here are appended to it, and pool
    cuts are enforced from the first round.  Cuts are tangent planes of
    the ball so they remain valid for any bound changes, which lets a
    branch-and-bound search share one pool across nodes.

    `ws_cache` is an optional dict reusing factorized workspaces across
    calls that differ only in variable/row bounds (the branch-and-bound
    case).  Entries are keyed by cut-pool state; rotating a cut in place
    invalidates the cache.  Callers must pass the same `cuts` list
    whenever they pass the same cache.
    """
    if cuts is None:
        cuts = []
    m_base = prog.m
    n = prog.n
    sol = None
    for round_no in range(max_rounds + 1):
        rows, cols, vals, his = [], [], [], []
        for r, (cone_idx, direction) in enumerate(cuts):
            c_cols, c_vals, hi = _cut_row(prog, cone_idx, direction)
            rows.extend([r] * len(c_cols))
            cols.extend(c_cols)
            vals.extend(c_vals)
            his.append(hi)
        extra = sp.csr_matrix((vals, (rows, cols)), shape=(len(cuts), n))
        # the cut rows stand in for the cones, which the QP never sees
        aug = ConvexProgram(
            prog.p_diag, prog.q,
            sp.vstack([prog.a, extra], format="csr") if cuts else prog.a,
            np.concatenate([prog.l, np.full(len(cuts), -np.inf)]),
            np.concatenate([prog.u, his]), prog.lb, prog.ub, (), prog.const)
        if ws_cache is None:
            ws = QpWorkspace(aug, settings)
        else:
            key = (len(cuts), ws_cache.get("_version", 0))
            ws = ws_cache.get(key)
            if ws is None:
                ws = QpWorkspace(aug, settings)
                ws_cache[key] = ws
            else:
                ws.update_bounds(l=aug.l, u=aug.u, lb=aug.lb, ub=aug.ub)
        sol = ws.solve()
        if sol.status != "optimal":
            return _finish_qcqp(prog, sol, cuts, m_base)

        new_cuts = []
        worst = 0.0
        for k, cone in enumerate(prog.cones):
            v = sol.x[list(cone.cols)]
            radius = cone.radius if cone.radius_col is None else sol.x[cone.radius_col]
            norm = float(np.linalg.norm(v))
            violation = norm - radius
            worst = max(worst, violation)
            if violation > cut_tol:
                if norm > 1e-12:
                    direction = tuple(v / norm)
                else:
                    direction = tuple(1.0 if j == 0 else 0.0
                                      for j in range(len(cone.cols)))
                dup = any(ci == k and max(abs(a - b) for a, b in zip(d, direction)) < 1e-9
                          for ci, d in cuts)
                if not dup:
                    new_cuts.append((k, direction))
        if not new_cuts:
            if worst > cut_tol:
                sol.status = "iteration-limit"
                sol.detail = f"cut rounds stalled; worst violation {worst:.3e}"
            return _finish_qcqp(prog, sol, cuts, m_base)
        if round_no == max_rounds:
            sol.status = "iteration-limit"
            sol.detail = f"cut-round limit; worst violation {worst:.3e}"
            return _finish_qcqp(prog, sol, cuts, m_base)
        # an active cone draws ever-closer tangents round after round;
        # letting them pile up without bound leaves near-parallel row
        # stacks whose dual mass can slosh freely.  Once a cone holds
        # `max_cuts_per_cone` cuts, the most parallel one is rotated in
        # place (every kept cut stays a valid tangent).  The cap is
        # generous so eviction only ever hits a near-twin of the new cut,
        # never the far side of a bracket around the optimum.
        max_cuts_per_cone = 24
        rotated = False
        for k, direction in new_cuts:
            mine = [r for r, (ci, _) in enumerate(cuts) if ci == k]
            if len(mine) >= max_cuts_per_cone:
                r = max(mine, key=lambda r: sum(a * b for a, b in
                                                zip(cuts[r][1], direction)))
                cuts[r] = (k, direction)
                rotated = True
            else:
                cuts.append((k, direction))
        if rotated and ws_cache is not None:
            version = ws_cache.get("_version", 0) + 1
            ws_cache.clear()
            ws_cache["_version"] = version

    return _finish_qcqp(prog, sol, cuts, m_base)


def _finish_qcqp(prog, sol, cuts, m_base):
    """Split cut-row duals out of the row vector and aggregate per cone."""
    cone_duals = np.zeros(len(prog.cones))
    y_all = sol.y_rows
    for r, (cone_idx, _) in enumerate(cuts):
        if m_base + r < y_all.shape[0]:
            cone_duals[cone_idx] += max(float(y_all[m_base + r]), 0.0)
    sol.y_rows = y_all[:m_base]
    sol.cone_duals = cone_duals
    sol.program = prog
    if sol.status == "optimal" and prog.cones:
        _dual_refit(prog, sol)
    return sol


def _cone_normal(prog, cone, x):
    """Outward unit normal of the ball at (the projection of) x, as a
    dense length-n vector including the radius-variable entry."""
    v = x[list(cone.cols)]
    norm = float(np.linalg.norm(v))
    a = np.zeros(prog.n)
    if norm > 1e-12:
        a[list(cone.cols)] = v / norm
    else:
        a[cone.cols[0]] = 1.0
    if cone.radius_col is not None:
        a[cone.radius_col] = -1.0
    return a, norm


def _dual_refit(prog, sol):
    """Re-derive the duals against the original cone geometry.

    The cut LP's optimum sits on a vertex of near-parallel tangent
    planes, so its multipliers differ from the ball multiplier at first
    order in the final cut angle.  A least-squares stationarity solve
    over the active rows, bounds, and one tangent normal per active cone
    removes that error.  Each multiplier is held on its feasible side
    (one-sided rows and bounds have signed multipliers, equalities are
    free); components that come out wrong-signed are pruned and the
    system re-solved, so the result is always a valid dual certificate,
    not just a stationary one.  It replaces the incoming duals when it
    improves the stationarity residual, or when the incoming vector is
    itself wrong-signed somewhere (degenerate active sets let the
    pinned-system polish split dual mass across redundant rows with
    arbitrary signs).
    """
    x = sol.x
    n = prog.n
    grad = prog.p_diag * x + prog.q

    normals = {}
    act_cones = []
    for k, cone in enumerate(prog.cones):
        a, norm = _cone_normal(prog, cone, x)
        radius = cone.radius if cone.radius_col is None else x[cone.radius_col]
        if sol.cone_duals[k] > 0.0 or norm >= radius - 1e-6 * (1.0 + radius):
            act_cones.append(k)
            normals[k] = a

    ax = prog.a @ x if prog.m else np.zeros(0)
    with np.errstate(invalid="ignore"):
        eq = prog.l == prog.u
        near_u = np.isfinite(prog.u) & (prog.u - ax <= 1e-6 * (1.0 + np.abs(prog.u)))
        near_l = np.isfinite(prog.l) & (ax - prog.l <= 1e-6 * (1.0 + np.abs(prog.l)))
        act_rows = np.flatnonzero(eq | near_u | near_l)
        lb_hit = np.isfinite(prog.lb) & (x - prog.lb <= 1e-6 * (1.0 + np.abs(prog.lb)))
        ub_hit = np.isfinite(prog.ub) & (prog.ub - x <= 1e-6 * (1.0 + np.abs(prog.ub)))
        act_lb = np.flatnonzero(lb_hit)
        act_ub = np.flatnonzero(ub_hit)

    parts = []
    if act_rows.size:
        parts.append(prog.a[act_rows].T.tocsc())
    bound_cols = np.concatenate([act_lb, act_ub])
    if bound_cols.size:
        parts.append(sp.eye(n, format="csc")[:, bound_cols])
    if act_cones:
        parts.append(sp.csc_matrix(
            np.column_stack([normals[k] for k in act_cones])))
    if not parts:
        return
    mat = sp.hstack(parts, format="csc")

    # sign each component: +1 nonnegative (upper-side rows, upper bounds,
    # cones), -1 nonpositive (lower-side rows, lower bounds), 0 free
    row_sign = np.zeros(act_rows.size)
    only_u = (near_u & ~near_l & ~eq)[act_rows]
    only_l = (near_l & ~near_u & ~eq)[act_rows]
    row_sign[only_u] = 1.0
    row_sign[only_l] = -1.0
    signs = np.concatenate([row_sign, -np.ones(act_lb.size),
                            np.ones(act_ub.size), np.ones(len(act_cones))])

    res_old = grad + (prog.a.T @ sol.y_rows if prog.m else 0.0) + sol.y_bounds
    for k in act_cones:
        res_old = res_old + sol.cone_duals[k] * normals[k]
    res_old_norm = float(np.abs(res_old).max(initial=0.0))

    # how badly the incoming duals break sign or slackness conditions
    old_bad = 0.0
    if prog.m:
        y = sol.y_rows
        inactive = np.ones(prog.m, dtype=bool)
        inactive[act_rows] = False
        old_bad = float(np.abs(y[inactive]).max(initial=0.0))
        old_bad = max(old_bad,
                      float((-y[near_u & ~near_l & ~eq]).max(initial=0.0)),
                      float(y[near_l & ~near_u & ~eq].max(initial=0.0)))
    yb = sol.y_bounds
    loose = ~lb_hit & ~ub_hit
    old_bad = max(old_bad, float(np.abs(yb[loose]).max(initial=0.0)),
                  float(yb[lb_hit & ~ub_hit].max(initial=0.0)),
                  float((-yb[ub_hit & ~lb_hit]).max(initial=0.0)))

    keep = np.ones(mat.shape[1], dtype=bool)
    mu_full = np.zeros(mat.shape[1])
    for _ in range(8):
        sub = mat[:, keep]
        out = spla.lsqr(sub, -grad, atol=1e-14, btol=1e-14,
                        iter_lim=8 * (sub.shape[1] + 10))
        mu = out[0]
        if not np.all(np.isfinite(mu)):
            return
        mu_full[:] = 0.0
        mu_full[np.flatnonzero(keep)] = mu
        stol = 1e-9 * (1.0 + float(np.abs(mu).max(initial=0.0)))
        bad = ((signs > 0) & (mu_full < -stol)) \
            | ((signs < 0) & (mu_full > stol))
        if not bad.any():
            break
        keep &= ~bad
    np.clip(mu_full, np.where(signs > 0, 0.0, -np.inf),
            np.where(signs < 0, 0.0, np.inf), out=mu_full)

    res_new_norm = float(np.abs(grad + mat @ mu_full).max(initial=0.0))
    if not np.isfinite(res_new_norm):
        return
    if res_new_norm > res_old_norm and old_bad <= 1e-7:
        return

    y_rows = np.zeros(prog.m)
    y_rows[act_rows] = mu_full[:act_rows.size]
    off = act_rows.size
    y_bounds = np.zeros(n)
    np.add.at(y_bounds, bound_cols, mu_full[off:off + bound_cols.size])
    off += bound_cols.size
    cone_duals = np.zeros(len(prog.cones))
    for k in act_cones:
        cone_duals[k] = max(float(mu_full[off]), 0.0)
        off += 1
    sol.y_rows = y_rows
    sol.y_bounds = y_bounds
    sol.cone_duals = cone_duals
