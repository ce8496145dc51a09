"""Convex engine against hand KKT solutions and independent oracles.

Oracles come first: a dense KKT factorization for equality-constrained
QPs and an active-set enumerator for tiny inequality QPs.  Both are
written directly from the optimality conditions, with no code shared
with the engine under test.
"""

import itertools
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from microplan import convex
from microplan.convex import (
    ConeRow, Cones, ConvexProgram, EngineError, PrimalDualSolution,
    QpWorkspace, _Cones, certify, get_duals, solve_qcqp,
)
from microplan.decomposition import partition
from microplan.formulation import assemble, build_seamed, relax_integrality
from microplan.instance import synth_load
from test_formulation import flat_loads, gen_bat_instance

INF = np.inf
BENCH = Path(__file__).resolve().parent.parent / "bench"


def kkt_equality_oracle(p_diag, q, a_eq, b):
    """Dense solve of [[P, A'], [A, 0]] [x; y] = [-q; b]."""
    n = len(q)
    m = a_eq.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = np.diag(p_diag)
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    sol = np.linalg.solve(kkt, np.concatenate([-np.asarray(q), b]))
    return sol[:n], sol[n:]


def active_set_oracle(p_diag, q, rows, lb, ub):
    """Enumerate active sets of a tiny QP and return the optimal KKT point.

    `rows` is a list of (coefficient vector, lo, hi).  Returns
    (x, y_rows, y_bounds) with multipliers in the engine's raw sign
    convention: diag(P) x + q + sum y_i a_i = 0, y <= 0 on active lower
    sides and y >= 0 on active upper sides.
    """
    n = len(q)
    cons = [(np.asarray(a, dtype=float), lo, hi) for a, lo, hi in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cons.append((e, lb[j], ub[j]))
    best = None
    for states in itertools.product((0, 1, 2), repeat=len(cons)):
        act_rows, act_vals, act_pos = [], [], []
        valid = True
        for k, ((a, lo, hi), s) in enumerate(zip(cons, states)):
            if s == 1:
                if not np.isfinite(lo):
                    valid = False
                    break
                act_rows.append(a)
                act_vals.append(lo)
                act_pos.append(k)
            elif s == 2:
                if not np.isfinite(hi):
                    valid = False
                    break
                act_rows.append(a)
                act_vals.append(hi)
                act_pos.append(k)
        if not valid:
            continue
        a_act = np.array(act_rows) if act_rows else np.zeros((0, n))
        try:
            x, y_act = kkt_equality_oracle(p_diag, q, a_act, np.array(act_vals))
        except np.linalg.LinAlgError:
            continue
        feas = all(lo - 1e-8 <= float(a @ x) <= hi + 1e-8 for a, lo, hi in cons)
        if not feas:
            continue
        signs_ok = all(
            (y <= 1e-8 if states[k] == 1 else y >= -1e-8)
            for y, k in zip(y_act, act_pos)
        )
        if not signs_ok:
            continue
        y_full = np.zeros(len(cons))
        y_full[act_pos] = y_act
        obj = 0.5 * x @ (np.asarray(p_diag) * x) + np.asarray(q) @ x
        if best is None or obj < best[0] - 1e-12:
            best = (obj, x, y_full[: len(rows)], y_full[len(rows):])
    assert best is not None, "oracle found no KKT point"
    return best[1], best[2], best[3]


def make_prog(p_diag, q, rows=(), lb=None, ub=None, cones=(), const=0.0):
    n = len(q)
    if rows:
        a = sp.csr_matrix(np.array([r[0] for r in rows], dtype=float))
        lo = np.array([r[1] for r in rows], dtype=float)
        hi = np.array([r[2] for r in rows], dtype=float)
    else:
        a, lo, hi = sp.csr_matrix((0, n)), np.zeros(0), np.zeros(0)
    lb = np.full(n, -INF) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, INF) if ub is None else np.asarray(ub, dtype=float)
    return ConvexProgram(p_diag, q, a, lo, hi, lb, ub, cones, const)


class TestValidation:
    def test_negative_quadratic_rejected(self):
        with pytest.raises(EngineError, match="negative diagonal"):
            make_prog([-1.0], [0.0])

    def test_crossed_row_bounds_rejected(self):
        with pytest.raises(EngineError, match="l > u"):
            make_prog([1.0], [0.0], rows=[([1.0], 2.0, 1.0)])

    def test_crossed_var_bounds_rejected(self):
        with pytest.raises(EngineError, match="lb > ub"):
            make_prog([1.0], [0.0], lb=[1.0], ub=[0.0])

    @pytest.mark.parametrize("where, value, match", [
        ("row", INF, "row 1 has l = inf"),
        ("row", -INF, "row 1 has u = -inf"),
        ("variable", INF, "variable 1 has lb = inf"),
        ("variable", -INF, "variable 1 has ub = -inf"),
    ])
    def test_sides_no_finite_value_meets_rejected(self, where, value, match):
        # x + y = +inf, say, or a column fixed at -inf; a side infinite
        # the other way stays legal (test_non_finite_data_rejected)
        sides = {"row": [[-1.0, 1.0], [0.0, 2.0]],
                 "variable": [[-2.0, 2.0], [-2.0, 2.0]]}
        sides[where][1] = [value, value]
        (l, u), (lb, ub) = (np.array(sides[k]).T for k in ("row", "variable"))
        with pytest.raises(EngineError, match=match):
            ConvexProgram([1.0, 1.0], [0.0, 0.0], [[1.0, 0.0], [1.0, 1.0]],
                          l, u, lb, ub)

    @pytest.mark.parametrize("name, value, match", [
        ("p_diag", np.nan, "p_diag holds a non-finite"),
        ("p_diag", INF, "p_diag holds a non-finite"),
        ("q", np.nan, "q holds a non-finite"),
        ("q", -INF, "q holds a non-finite"),
        ("a", np.nan, "a holds a non-finite"),
        ("a", INF, "a holds a non-finite"),
        ("const", np.nan, "const holds a non-finite"),
        ("const", INF, "const holds a non-finite"),
        ("radius", np.nan, "cone 0 has a non-finite radius"),
        ("radius", INF, "cone 0 has a non-finite radius"),
        ("l", np.nan, "l holds NaN"),
        ("u", np.nan, "u holds NaN"),
        ("lb", np.nan, "lb holds NaN"),
        ("ub", np.nan, "ub holds NaN"),
        ("l", -INF, None),
        ("ub", INF, None),
    ])
    def test_non_finite_data_rejected(self, name, value, match):
        # a 2-column program with one range row and one constant ball;
        # infinite row and variable bounds stay legal
        data = dict(p_diag=[1.0, 1.0], q=[-1.0, 0.5], a=[[1.0, 1.0]],
                    l=[-1.0], u=[1.0], lb=[-2.0, -2.0], ub=[2.0, 2.0],
                    radius=3.0, const=0.0)
        if name in ("a", "const", "radius"):
            data[name] = np.full(np.shape(data[name]), value)
        else:
            data[name] = [value] + data[name][1:]
        radius = data.pop("radius")

        def build():
            return ConvexProgram(**data, cones=[ConeRow((0, 1), radius=radius)])
        if match is None:
            assert solve_qcqp(build()).status == "optimal"
        else:
            with pytest.raises(EngineError, match=match):
                build()

    @pytest.mark.parametrize("name, value, message", [
        ("a", [[1.0, 1.0, 0.0]], "A has 3 columns, expected 2"),
        ("p_diag", [1.0], "p_diag shape mismatch"),
        ("p_diag", [[1.0, 1.0]], "p_diag shape mismatch"),
        ("l", [-1.0, -1.0], "row bound shape mismatch"),
        ("u", [], "row bound shape mismatch"),
        ("lb", [-2.0], "variable bound shape mismatch"),
        ("ub", [2.0, 2.0, 2.0], "variable bound shape mismatch"),
        ("cones", [ConeRow(())], "cone 0 has no columns"),
        ("cones", Cones([], [], [1.0], [-1]), "cone 0 has no columns"),
    ])
    def test_malformed_program_rejected(self, name, value, message):
        data = dict(p_diag=[1.0, 1.0], q=[-1.0, 0.5], a=[[1.0, 1.0]],
                    l=[-1.0], u=[1.0], lb=[-2.0, -2.0], ub=[2.0, 2.0],
                    cones=[ConeRow((0, 1), radius=3.0)])
        data[name] = value
        with pytest.raises(EngineError) as info:
            ConvexProgram(**data)
        assert str(info.value) == message

    def test_program_without_rows_is_a_box_qp(self):
        prog = ConvexProgram([1.0, 1.0], [-1.0, 0.5], None, [], [],
                             lb=[-2.0, 0.0], ub=[0.5, 2.0])
        assert prog.m == 0 and prog.a.shape == (0, 2)
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.5, 0.0], atol=1e-7)
        assert sol.objective == pytest.approx(-0.375, abs=1e-9)

    def test_bad_cone_rejected(self):
        with pytest.raises(EngineError, match="cone 0"):
            make_prog([1.0, 1.0], [0.0, 0.0],
                      cones=[ConeRow(cols=(0,), radius=-1.0)])
        with pytest.raises(EngineError, match="radius column"):
            make_prog([1.0, 1.0], [0.0, 0.0],
                      cones=[ConeRow(cols=(0,), radius_col=0)])

    @pytest.mark.parametrize("cols", [(0, 2), (-1, 1), (1, 1)])
    def test_out_of_range_or_repeated_cone_columns_rejected(self, cols):
        with pytest.raises(EngineError, match="cone 0 has invalid columns"):
            make_prog([1.0, 1.0], [0.0, 0.0],
                      cones=[ConeRow(cols=cols, radius=1.0)])

    def test_first_bad_cone_is_named(self):
        cones = [ConeRow(cols=(0, 1), radius=1.0),
                 ConeRow(cols=(1,), radius_col=2),
                 ConeRow(cols=(2, 0, 2), radius=1.0),
                 ConeRow(cols=(), radius=1.0)]
        with pytest.raises(EngineError, match="^cone 2 has invalid columns$"):
            make_prog([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], cones=cones)

    @pytest.mark.parametrize("radius_col", [-1, 2, 5])
    def test_radius_column_out_of_range_rejected(self, radius_col):
        with pytest.raises(EngineError,
                           match="^cone 1 has invalid radius column$"):
            make_prog([1.0, 1.0], [0.0, 0.0],
                      cones=[ConeRow(cols=(0, 1), radius=1.0),
                             ConeRow(cols=(0,), radius_col=radius_col)])

    def test_first_bad_cone_is_named_in_arrays(self):
        # the balls of test_first_bad_cone_is_named as flat arrays
        cones = Cones(cols=[0, 1, 1, 2, 0, 2], owner=[0, 0, 1, 2, 2, 2],
                      radius=[1.0, 0.0, 1.0, 1.0], radius_col=[-1, 2, -1, -1])
        assert list(cones) == [ConeRow(cols=(0, 1), radius=1.0),
                               ConeRow(cols=(1,), radius_col=2),
                               ConeRow(cols=(2, 0, 2), radius=1.0),
                               ConeRow(cols=(), radius=1.0)]
        with pytest.raises(EngineError, match="^cone 2 has invalid columns$"):
            make_prog([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], cones=cones)

    @pytest.mark.parametrize("radius_col", [-2, 2, 5])
    def test_radius_column_out_of_range_rejected_in_arrays(self, radius_col):
        # in the array form -1 marks a constant radius
        cones = Cones([0, 1, 0], [0, 0, 1], [1.0, 0.0], [-1, radius_col])
        with pytest.raises(EngineError,
                           match="^cone 1 has invalid radius column$"):
            make_prog([1.0, 1.0], [0.0, 0.0], cones=cones)

    @pytest.mark.parametrize("cols, owner, radius", [
        ([0, 1], [0], [1.0]),                # a column without a ball
        ([0, 1], [1, 0], [1.0, 1.0]),        # balls out of order
        ([0, 1], [0, 1], [1.0]),             # a ball past the last
    ])
    def test_misaligned_cone_arrays_rejected(self, cols, owner, radius):
        with pytest.raises(EngineError, match="do not line up"):
            Cones(cols, owner, radius, [-1] * len(radius))


class TestHandKkt:
    def test_bound_dual(self):
        # min x^2 s.t. x >= 1: optimum 1, bound multiplier 2
        sol = solve_qcqp(make_prog([2.0], [0.0], lb=[1.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
        assert max(-sol.y_bounds[0], 0.0) == pytest.approx(2.0, abs=1e-6)

    def test_lower_row_dual(self):
        # same problem with the bound written as a row
        prog = make_prog([2.0], [0.0], rows=[([1.0], 1.0, INF)])
        sol = solve_qcqp(prog)
        assert get_duals(sol, [0])[0] == pytest.approx(2.0, abs=1e-6)

    def test_free_stationary_point(self):
        sol = solve_qcqp(make_prog([1.0], [-1.0]))
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
        assert sol.objective == pytest.approx(-0.5, abs=1e-9)

    def test_equality_dual_sign(self):
        # min 1/2 x^2 s.t. x = a: stationarity x + y = 0, so y = -a
        a = 3.0
        prog = make_prog([1.0], [0.0], rows=[([1.0], a, a)])
        sol = solve_qcqp(prog)
        assert sol.x[0] == pytest.approx(a, abs=1e-7)
        assert get_duals(sol, [0])[0] == pytest.approx(-a, abs=1e-6)

    def test_inactive_inequality_zero_dual(self):
        prog = make_prog([1.0], [-1.0], rows=[([1.0], -INF, 5.0)])
        sol = solve_qcqp(prog)
        assert get_duals(sol, [0])[0] == pytest.approx(0.0, abs=1e-8)

    def test_objective_constant_carried(self):
        sol = solve_qcqp(make_prog([1.0], [-1.0], const=7.0))
        assert sol.objective == pytest.approx(6.5, abs=1e-8)

    def test_certify_bound_dual_and_its_negation(self):
        prog = make_prog([2.0], [0.0], lb=[1.0])
        sol = solve_qcqp(prog)
        cert = certify(prog, sol.x, sol.y_rows, sol.y_bounds, sol.cone_duals)
        assert cert.ratio <= 1.0
        # +2 would claim the missing upper bound: projected to zero, it
        # leaves the whole gradient 2x as a stationarity error
        bad = certify(prog, sol.x, sol.y_rows, -sol.y_bounds, sol.cone_duals)
        assert bad.ratio > 1.0
        assert bad.stat == pytest.approx(2.0, abs=1e-6)

    def test_bound_multipliers_of_a_projection(self):
        # min 1/2 |x - c|^2 over free, lower-only, upper-only, boxed and
        # fixed columns: x* = clip(c, lb, ub) and y_bounds = c - x*
        rng = np.random.default_rng(11)
        n = 200
        c = rng.standard_normal(n) * 3.0
        kind = rng.integers(0, 5, n)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = rng.uniform(0.0, 2.0, n)
        lb = np.where(np.isin(kind, (1, 3)), lo, -INF)
        ub = np.where(np.isin(kind, (2, 3)), hi, INF)
        lb[kind == 4] = ub[kind == 4] = hi[kind == 4]
        prog = make_prog(np.ones(n), -c, lb=lb, ub=ub)
        sol = solve_qcqp(prog)
        assert (sol.status, sol.detail) == ("optimal", "polished")
        x = np.clip(c, lb, ub)
        np.testing.assert_allclose(sol.x, x, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(sol.y_bounds, c - x, rtol=0.0, atol=1e-8)
        assert certify(prog, sol.x, sol.y_rows, sol.y_bounds,
                       sol.cone_duals).ratio <= 1.0

    def test_certify_rejects_wrong_signed_upper_row(self):
        # min x s.t. x <= 1: x = 1 with y = -1 makes 1 + y = 0, but a
        # <= row only takes y >= 0, so the point is not optimal
        prog = make_prog([0.0], [1.0], rows=[([1.0], -INF, 1.0)],
                         lb=[-5.0], ub=[5.0])
        x = np.array([1.0])
        assert prog.q + prog.a.T @ np.array([-1.0]) == pytest.approx(0.0)
        bad = certify(prog, x, [-1.0], [0.0], [])
        assert bad.ratio > 1.0
        assert bad.stat == pytest.approx(1.0)
        sol = solve_qcqp(prog)
        assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)
        assert certify(prog, sol.x, sol.y_rows, sol.y_bounds, []).ratio <= 1.0


class TestEqualityOracle:
    def test_random_50_var_30_eq(self):
        rng = np.random.default_rng(7)
        n, m = 50, 30
        p_diag = rng.uniform(0.5, 2.0, n)
        q = rng.standard_normal(n)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x0, y0 = kkt_equality_oracle(p_diag, q, a, b)
        prog = make_prog(p_diag, q, rows=[(a[i], b[i], b[i]) for i in range(m)])
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, x0, atol=1e-6)
        np.testing.assert_allclose(sol.y_rows, y0, atol=1e-6)
        kkt_res = p_diag * sol.x + q + a.T @ sol.y_rows
        assert np.abs(kkt_res).max() <= 1e-6 * (1.0 + np.abs(q).max())

    def test_dual_is_rhs_sensitivity(self):
        # with L = f + y (a.x - b), df*/db = -y; finite differences agree
        rng = np.random.default_rng(3)
        n, m = 6, 2
        p_diag = rng.uniform(0.5, 2.0, n)
        q = rng.standard_normal(n)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)

        def opt(bv):
            x, _ = kkt_equality_oracle(p_diag, q, a, bv)
            return 0.5 * x @ (p_diag * x) + q @ x

        prog = make_prog(p_diag, q, rows=[(a[i], b[i], b[i]) for i in range(m)])
        sol = solve_qcqp(prog)
        h = 1e-5
        for i in range(m):
            db = np.zeros(m)
            db[i] = h
            fd = (opt(b + db) - opt(b - db)) / (2.0 * h)
            assert get_duals(sol, [i])[0] == pytest.approx(-fd, abs=1e-4)


class TestActiveSetOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_tiny_inequality_qps(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 4))
        p_diag = rng.uniform(0.5, 2.0, n)
        q = rng.standard_normal(n) * 2.0
        n_rows = int(rng.integers(1, 3))
        rows = []
        for _ in range(n_rows):
            a = rng.standard_normal(n)
            mid = rng.standard_normal()
            kind = rng.integers(0, 3)
            if kind == 0:
                rows.append((a, mid, mid))          # equality
            elif kind == 1:
                rows.append((a, -INF, mid + 1.0))   # upper
            else:
                rows.append((a, mid - 1.0, INF))    # lower
        lb = np.full(n, -3.0)
        ub = np.full(n, 3.0)
        x0, yr0, yb0 = active_set_oracle(p_diag, q, rows, lb, ub)
        sol = solve_qcqp(make_prog(p_diag, q, rows=rows, lb=lb, ub=ub))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, x0, atol=1e-6)
        np.testing.assert_allclose(sol.y_rows, yr0, atol=1e-5)
        np.testing.assert_allclose(sol.y_bounds, yb0, atol=1e-5)


# The cone arithmetic as one formula per call, each recomputing the
# determinants and normalized blocks it reads: the reference that the
# engine's per-step frames must match bit for bit.

def reference_scaling(c, s, z):
    det_s, det_z = c.det(s), c.det(z)
    sb = s / np.sqrt(det_s)[c.owner]
    zb = z / np.sqrt(det_z)[c.owner]
    gamma = np.sqrt(0.5 * (1.0 + c._sum(sb * zb)))
    wbar = (sb + np.where(c.tail, -zb, zb)) / (2.0 * gamma)[c.owner]
    eta = np.sqrt(np.sqrt(det_s) / np.sqrt(det_z))
    return eta, wbar, reference_apply_w(c, eta, wbar, z)


def reference_apply_w(c, eta, wbar, v, inverse=False):
    sign = -1.0 if inverse else 1.0
    w0, v0 = wbar[c.heads], v[c.heads]
    td = c.tail_dot(wbar, v)
    out = v + (sign * v0 + td / (1.0 + w0))[c.owner] * wbar
    out[c.heads] = w0 * v0 + sign * td
    return out / eta[c.owner] if inverse else out * eta[c.owner]


def reference_w2(c, eta, wbar):
    jdiag = np.where(c.pi == c.pj, 2.0 * c.unit[c.pi] - 1.0, 0.0)
    return (eta * eta)[c.owner[c.pi]] * (2.0 * wbar[c.pi] * wbar[c.pj] - jdiag)


def reference_div(c, lam, v):
    l0 = lam[c.heads]
    x0 = (l0 * v[c.heads] - c.tail_dot(lam, v)) / c.det(lam)
    out = (v - lam * x0[c.owner]) / l0[c.owner]
    out[c.heads] = x0
    return out


def reference_max_step(c, v, dv):
    sq = np.sqrt(c.det(v))
    vb = v / sq[c.owner]
    b0, d0 = vb[c.heads], dv[c.heads]
    y0 = b0 * d0 - c.tail_dot(vb, dv)
    y1 = dv - ((y0 + d0) / (b0 + 1.0))[c.owner] * vb
    lim = c.tail_norm(y1) - y0
    hit = lim > sq
    return min(1.0, float((sq[hit] / lim[hit]).min(initial=1.0)))


def interior_point(rng, cones):
    """A random point inside `cones`, each block's head above its tail
    norm by a relative margin between 1e-12 and 10."""
    v = rng.standard_normal(cones.owner.size) * 10.0 ** rng.uniform(-3, 3)
    v[cones.heads] = cones.tail_norm(v) * (1.0 + 10.0 ** rng.uniform(
        -12, 1, cones.count)) + 10.0 ** rng.uniform(-12, 0, cones.count)
    return v


class TestCones:
    # on a failure Hypothesis's pytest plugin imports libcst, which warns
    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.sampled_from([1, 3]), min_size=1, max_size=8))
    def test_frames_match_the_reference_bit_for_bit(self, seed, sizes):
        """One frame of s and one of z per step give the scaling, W,
        W^2, the Jordan division and the step lengths exactly as the
        per-call formulas do, on mixed nonnegative rows and 3-cones."""
        rng = np.random.default_rng(seed)
        c = _Cones(sizes)
        s, z = interior_point(rng, c), interior_point(rng, c)
        fs, fz = c.frame(s), c.frame(z)
        assert np.all(fs.det > 0.0) and np.all(fz.det > 0.0)
        np.testing.assert_array_equal(fs.margin, c.margin(s))
        np.testing.assert_array_equal(fs.det, c.det(s))
        w, lam = c.scaling(fs, fz)
        eta, wbar, lam_ref = reference_scaling(c, s, z)
        np.testing.assert_array_equal(w.eta, eta)
        np.testing.assert_array_equal(w.wbar, wbar)
        np.testing.assert_array_equal(lam, lam_ref)
        np.testing.assert_array_equal(c.w2(w.eta, w.wbar),
                                      reference_w2(c, eta, wbar))
        v = rng.standard_normal(c.owner.size)
        for inverse in (False, True):
            np.testing.assert_array_equal(
                c.apply_w(w, v, inverse=inverse),
                reference_apply_w(c, eta, wbar, v, inverse=inverse))
        if np.all(c.det(lam) > 0.0):
            np.testing.assert_array_equal(c.div(lam, c.det(lam), v),
                                          reference_div(c, lam, v))
        for f, u in ((fs, s), (fz, z)):
            dv = rng.standard_normal(c.owner.size) * np.abs(u).max()
            assert c.max_step(f, dv) == reference_max_step(c, u, dv)

    def test_scaling_of_interior_points_can_leave_lam_on_the_boundary(self):
        """s and z with positive margins and determinants whose scaled
        point lam has a negative determinant by rounding: the Jordan
        division would divide by it."""
        c = _Cones([3])
        s = np.array([21.204177859985435, 4.995814890620584, -20.607255796080672])
        z = np.array([236.19145137535097, -64.52304874957076, -227.20734557415892])
        fs, fz = c.frame(s), c.frame(z)
        assert fs.margin[0] > 0.0 and fz.margin[0] > 0.0
        assert fs.det[0] > 0.0 and fz.det[0] > 0.0
        _, lam = c.scaling(fs, fz)
        assert c.det(lam)[0] <= 0.0

    @pytest.mark.parametrize("far, step", [(None, 1.0), (-2.0, 0.5)])
    def test_max_step_with_a_vanishing_limit(self, far, step):
        """A block whose boundary lies ~1e310 steps away (lim ~ 1e-310)
        allows a full step without overflowing; a nonnegative row that
        reaches 0 at step 0.5 still sets the step."""
        sizes, v, dv = [3], [1.0, 0.0, 0.0], [-1e-310, 0.0, 0.0]
        if far is not None:
            sizes, v, dv = sizes + [1], v + [1.0], dv + [far]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cones = _Cones(sizes)
            got = cones.max_step(cones.frame(np.array(v)), np.array(dv))
        assert got == step


class TestStatuses:
    def test_primal_infeasible(self):
        prog = make_prog([1.0], [0.0], rows=[([1.0], -INF, -1.0)],
                         lb=[0.0], ub=[1.0])
        sol = solve_qcqp(prog)
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_qcqp(make_prog([0.0], [-1.0], lb=[0.0]))
        assert sol.status == "unbounded"

    def test_iteration_limit(self, monkeypatch):
        # range rows and finite bounds need several interior steps; an
        # equality-only program would be solved by the starting KKT solve
        monkeypatch.setattr(convex, "MAX_ITER", 2)
        monkeypatch.setattr(QpWorkspace, "_polish", lambda *args: None)
        rng = np.random.default_rng(0)
        n = 20
        prog = make_prog(rng.uniform(0.5, 2.0, n), rng.standard_normal(n),
                         rows=[(rng.standard_normal(n), -0.1, 0.1)
                               for _ in range(5)],
                         lb=np.full(n, -1.0), ub=np.full(n, 1.0))
        sol = solve_qcqp(prog)
        assert sol.status == "iteration-limit"

    def test_iteration_limit_says_why(self, monkeypatch):
        # one interior step and no polish: the step limit stops the solve
        monkeypatch.setattr(convex, "MAX_ITER", 1)
        monkeypatch.setattr(QpWorkspace, "_polish", lambda *args: None)
        rng = np.random.default_rng(0)
        n = 20
        prog = make_prog(rng.uniform(0.5, 2.0, n), rng.standard_normal(n),
                         rows=[(rng.standard_normal(n), -0.1, 0.1)
                               for _ in range(5)],
                         lb=np.full(n, -1.0), ub=np.full(n, 1.0))
        sol = solve_qcqp(prog)
        assert (sol.status, sol.iterations, sol.detail) \
            == ("iteration-limit", 1, "step limit")

    def test_lam_on_the_boundary_stops_the_step(self, monkeypatch):
        # rounding can put the scaled point lam on a cone's boundary
        # though s and z pass their own tests (see TestCones); the step
        # stops there rather than divide by lam's zero determinant
        scaling = _Cones.scaling

        def on_boundary(self, *args):
            out = scaling(self, *args)
            lam = out[-1]
            lam[self.heads[-1]] = self.tail_norm(lam)[-1]
            return out

        monkeypatch.setattr(_Cones, "scaling", on_boundary)
        prog = make_prog([1.0, 1.0, 0.0], [-1.0, -1.0, 0.5],
                         lb=[-3.0, -3.0, 0.0], ub=[3.0, 3.0, 1.0],
                         cones=[ConeRow((0, 1), radius_col=2)])
        sol = QpWorkspace(prog).interior()
        assert (sol.status, sol.detail, sol.iterations) \
            == ("iteration-limit", "determinant underflow", 1)
        assert np.isfinite(sol.bound)

    def test_boxed_program_is_never_unbounded(self):
        # a cost this steep passes the primal-ray test on its own, but a
        # program with every column boxed cannot be unbounded
        q = np.full(3, -1e9)
        sol = solve_qcqp(make_prog(np.zeros(3), q, lb=np.zeros(3),
                                   ub=np.ones(3)))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, 1.0)
        free = solve_qcqp(make_prog(np.zeros(3), q, lb=[-INF, 0.0, 0.0],
                                    ub=[INF, 1.0, 1.0]))
        assert free.status == "unbounded"

    def test_empty_row_beside_a_variable_radius_ball(self):
        prog = ConvexProgram(np.zeros(3), [1.0, -1.0, 0.5], [[0.0, 0.0, 0.0]],
                             [1.0], [1.0], [-3.0, -3.0, 0.0], [3.0, 3.0, 3.0],
                             [ConeRow((0, 1), radius_col=2)])
        sol = solve_qcqp(prog)
        assert sol.status == "infeasible"

    def test_unpolished_point_is_optimal_only_by_proof(self, monkeypatch):
        # with no polish, the interior point's result is optimal only if
        # it is feasible and within 1e-7 of its weak-duality bound
        monkeypatch.setattr(QpWorkspace, "_polish", lambda *args: None)
        boxed = solve_qcqp(make_prog(
            [0.0, 0.0], [1.0, -2.0],
            rows=[([1.0, 1.0], -INF, 1.5), ([1.0, -1.0], -1.0, 1.0)],
            lb=[0.0, 0.0], ub=[1.0, 1.0]))
        assert (boxed.status, boxed.detail) == ("optimal", "polish rejected")
        assert boxed.objective - boxed.bound <= 1e-7 * max(1.0, abs(boxed.objective))
        # min x s.t. x >= 1, x free: the bound of any multiplier that does
        # not cancel the cost exactly is -inf, so the point is unproven,
        # from the interior point alone as from the solve
        free = make_prog([0.0], [1.0], rows=[([1.0], 1.0, INF)])
        assert QpWorkspace(free).interior().status == "iteration-limit"
        sol = solve_qcqp(free)
        assert sol.bound == -INF
        assert (sol.status, sol.detail) == ("iteration-limit", "polish rejected")
        assert sol.objective == pytest.approx(1.0, abs=1e-8)

    def test_get_duals_requires_optimal(self):
        prog = make_prog([1.0], [0.0], rows=[([1.0], -INF, -1.0)],
                         lb=[0.0], ub=[1.0])
        sol = solve_qcqp(prog)
        with pytest.raises(EngineError, match="infeasible"):
            get_duals(sol, [0])


class TestDeterminismAndWarmth:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(5)
        n = 12
        rows = [(rng.standard_normal(n), -1.0, 1.0) for _ in range(4)]
        args = (rng.uniform(0.5, 2.0, n), rng.standard_normal(n))
        a = solve_qcqp(make_prog(*args, rows=rows))
        b = solve_qcqp(make_prog(*args, rows=rows))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y_rows, b.y_rows)
        assert np.array_equal(a.y_bounds, b.y_bounds)
        # balls: the polish pins active ones by their tangents; one
        # workspace solved twice refills its KKT matrices from scratch
        inst = gen_bat_instance()
        prog = relax_integrality(
            assemble(inst, flat_loads(inst, 2, p=0.4, q=0.1))).to_convex()
        ws = QpWorkspace(prog)
        first, again, fresh = ws.solve(), ws.solve(), solve_qcqp(prog)
        assert first.detail == "polished"
        assert np.any(first.cone_duals > 1.0)
        for other in (again, fresh):
            assert np.array_equal(first.x, other.x)
            assert np.array_equal(first.y_rows, other.y_rows)
            assert np.array_equal(first.y_bounds, other.y_bounds)
            assert np.array_equal(first.cone_duals, other.cone_duals)

    def test_iteration_log_written(self, caplog):
        with caplog.at_level(logging.DEBUG, logger=convex.__name__):
            sol = solve_qcqp(make_prog([1.0], [-1.0], const=7.0))
        steps = [r.args for r in caplog.records if r.name == convex.__name__]
        # one record per step, the starting point included
        assert [step for step, *_ in steps] == list(range(sol.iterations + 1))
        assert steps[-1][3] == pytest.approx(sol.objective, abs=1e-8)


class TestStart:
    """`QpWorkspace.polish_from`: the polish of another bound set's
    solution, or None when it does not certify."""

    @staticmethod
    def ball_prog(z_lb=0.0):
        # min -p + 2 s - z s.t. ||(p, q)|| <= s, q = 0.3, s <= z, z in
        # [z_lb, 1]: a relaxed build binary z whose optimum is integral
        return make_prog([0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 2.0, -1.0],
                         rows=[([0.0, 1.0, 0.0, 0.0], 0.3, 0.3),
                               ([0.0, 0.0, 1.0, -1.0], -INF, 0.0)],
                         lb=[-10.0, -10.0, 0.0, z_lb], ub=[10.0, 10.0, 10.0, 1.0],
                         cones=[ConeRow(cols=(0, 1), radius_col=2)])

    def test_integral_start_certifies_without_steps(self):
        relaxed = solve_qcqp(self.ball_prog())
        assert relaxed.detail == "polished"
        assert relaxed.x[3] == 1.0
        fixed = self.ball_prog(z_lb=1.0)
        cold = solve_qcqp(fixed)
        assert cold.iterations > 0
        sol = QpWorkspace(fixed).polish_from(relaxed)
        assert (sol.status, sol.detail, sol.polished) == ("optimal", "polished", True)
        assert sol.iterations == 0
        assert sol.program is fixed
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
        assert certify(fixed, sol.x, sol.y_rows, sol.y_bounds,
                       sol.cone_duals).ratio <= 1.0

    def test_start_that_fails_gives_none(self):
        prog = self.ball_prog()
        zero = PrimalDualSolution("optimal", np.zeros(prog.n), np.zeros(prog.m),
                                  np.zeros(prog.n), 0.0, 0.0, 0.0, 0, 0.0,
                                  cone_duals=np.zeros(len(prog.cones)))
        # q = 0 breaks the row q = 0.3
        assert certify(prog, zero.x, zero.y_rows, zero.y_bounds,
                       zero.cone_duals).prim > 0.1
        assert QpWorkspace(prog).polish_from(zero) is None

    @pytest.mark.parametrize("field", ["x", "y_rows", "y_bounds", "cone_duals"])
    def test_start_of_another_shape_raises(self, field):
        prog = self.ball_prog()
        start = solve_qcqp(prog)
        setattr(start, field, np.append(getattr(start, field), 0.0))
        with pytest.raises(EngineError, match="start does not match"):
            QpWorkspace(prog).polish_from(start)


class TestQcqp:
    def test_circle_tangent(self):
        # min -p s.t. p^2 + q^2 <= 1, q = 0.6: p* = 0.8, multiplier 1.25
        prog = make_prog([0.0, 0.0], [-1.0, 0.0],
                         rows=[([0.0, 1.0], 0.6, 0.6)],
                         lb=[-2.0, -2.0], ub=[2.0, 2.0],
                         cones=[ConeRow(cols=(0, 1), radius=1.0)])
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.8, abs=1e-6)
        assert sol.cone_duals[0] == pytest.approx(1.25, abs=1e-4)

    def test_zero_radius_forces_origin(self):
        prog = make_prog([0.0, 0.0], [-1.0, -1.0],
                         lb=[-5.0, -5.0], ub=[5.0, 5.0],
                         cones=[ConeRow(cols=(0, 1), radius=0.0)])
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        assert abs(sol.x[0]) <= 1e-6
        assert abs(sol.x[1]) <= 1e-6

    def test_variable_radius(self):
        # min -p + 2 s s.t. ||(p, q)|| <= s, q = 0.3: p* = sqrt(0.03)
        prog = make_prog([0.0, 0.0, 0.0], [-1.0, 0.0, 2.0],
                         rows=[([0.0, 1.0, 0.0], 0.3, 0.3)],
                         lb=[-10.0, -10.0, 0.0], ub=[10.0, 10.0, 10.0],
                         cones=[ConeRow(cols=(0, 1), radius_col=2)])
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        exact = -np.sqrt(0.03) + 2.0 * np.sqrt(0.12)
        assert sol.objective == pytest.approx(exact, abs=1e-6)
        assert sol.x[0] == pytest.approx(np.sqrt(0.03), abs=1e-6)
        norm = np.hypot(sol.x[0], sol.x[1])
        assert norm <= sol.x[2] + 1e-6

    def test_battery_not_built_stays_at_the_apex(self):
        # a battery whose rating is fixed to zero (every branch-and-bound
        # node with z_b = 0): the ball is its apex, where no tangent
        # exists, and a linear cost pulls (p, q) outward
        prog = make_prog([0.0, 0.0, 0.0], [-1.0, -0.5, 0.0],
                         lb=[-5.0, -5.0, 0.0], ub=[5.0, 5.0, 0.0],
                         cones=[ConeRow(cols=(0, 1), radius_col=2)])
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        assert abs(sol.x[0]) <= 1e-9
        assert abs(sol.x[1]) <= 1e-9
        assert sol.cone_duals[0] >= 0.0
        cert = certify(prog, sol.x, sol.y_rows, sol.y_bounds, sol.cone_duals)
        assert cert.ratio <= 1.0

    def test_polish_stops_when_its_anchor_settles(self, monkeypatch):
        # the T=8 relax-ladder rung's polish re-anchors its pinned solve
        # until a move fails to halve the one before: at most 5 refined
        # back-solves a pass, half the cap of 10, which its slowly
        # shrinking moves would otherwise reach on every pass
        count = {"polish": False, "passes": 0, "solves": 0}
        polish, refined, certified = (QpWorkspace._polish, convex._refined,
                                      convex.certify)

        def polishing(self, *args):
            count["polish"] = True
            try:
                return polish(self, *args)
            finally:
                count["polish"] = False

        def tally(key, call):
            def counted(*args):
                count[key] += count["polish"]
                return call(*args)
            return counted

        monkeypatch.setattr(QpWorkspace, "_polish", polishing)
        monkeypatch.setattr(convex, "_refined", tally("solves", refined))
        # one certificate per pass
        monkeypatch.setattr(convex, "certify", tally("passes", certified))
        inst = gen_bat_instance()
        loads = synth_load(inst, 1, 0.25, {"b2": 0.4}, seed=0)
        sol = solve_qcqp(relax_integrality(
            assemble(inst, loads, window=(0, 8))).to_convex())
        assert (sol.status, sol.detail) == ("optimal", "polished")
        assert count["passes"] >= 1
        assert count["solves"] <= 5 * count["passes"]

    @pytest.mark.parametrize("steps, shape", [(4, (82, 94, 8)),
                                              (8, (154, 178, 16)),
                                              (12, (226, 262, 24))],
                             ids=["T4", "T8", "T12"])
    def test_relaxed_monolith_rung(self, steps, shape):
        # the benchmark's relax-ladder rungs; the point and its duals are
        # checked directly against the optimality conditions
        inst = gen_bat_instance()
        loads = synth_load(inst, 1, 0.25, {"b2": 0.4}, seed=0)
        prog = relax_integrality(
            assemble(inst, loads, window=(0, steps))).to_convex()
        assert (prog.n, prog.m, len(prog.cones)) == shape
        sol = solve_qcqp(prog)
        assert (sol.status, sol.detail) == ("optimal", "polished")
        # a deterministic guard on the engine's work: the rungs take 19,
        # 19 and 20 interior-point steps
        assert sol.iterations <= 22
        x = sol.x
        ax = prog.a @ x
        assert (prog.l - ax).max() <= 1e-6 and (ax - prog.u).max() <= 1e-6
        assert (prog.lb - x).max() <= 1e-6 and (x - prog.ub).max() <= 1e-6
        # stationarity: P x + q + A' y_rows + y_bounds + sum of cone
        # multipliers times the ball's outward normal at x
        assert sol.cone_duals.min() >= 0.0
        stat = prog.p_diag * x + prog.q + prog.a.T @ sol.y_rows + sol.y_bounds
        scale = (np.abs(prog.p_diag * x) + np.abs(prog.q)
                 + abs(prog.a.T) @ np.abs(sol.y_rows) + np.abs(sol.y_bounds))
        for k, cone in enumerate(prog.cones):
            cols = list(cone.cols)
            norm = np.linalg.norm(x[cols])
            radius = cone.radius if cone.radius_col is None \
                else x[cone.radius_col]
            assert norm <= radius + 1e-6
            if sol.cone_duals[k] > 0.0:
                stat[cols] += sol.cone_duals[k] * x[cols] / norm
                scale[cols] += sol.cone_duals[k]
                if cone.radius_col is not None:
                    stat[cone.radius_col] -= sol.cone_duals[k]
                    scale[cone.radius_col] += sol.cone_duals[k]
        assert np.all(np.abs(stat) <= 1e-6 * (1.0 + scale))
        # every multiplier sits on a finite side of the sense it claims:
        # y > 0 on an upper side, y < 0 on a lower side
        for y, lo, hi in ((sol.y_rows, prog.l, prog.u),
                          (sol.y_bounds, prog.lb, prog.ub)):
            assert np.all(y[np.isinf(hi)] <= 1e-6)
            assert np.all(y[np.isinf(lo)] >= -1e-6)
        # complementarity in dollars: each multiplier times the distance
        # to the side it claims, and each ball's multiplier times its slack
        gap = 0.0
        for y, v, lo, hi in ((sol.y_rows, ax, prog.l, prog.u),
                             (sol.y_bounds, x, prog.lb, prog.ub)):
            up, dn = y > 0.0, y < 0.0
            gap += np.abs(y[up] * (hi[up] - v[up])).sum()
            gap += np.abs(y[dn] * (v[dn] - lo[dn])).sum()
        for k, cone in enumerate(prog.cones):
            radius = cone.radius if cone.radius_col is None \
                else x[cone.radius_col]
            norm = np.linalg.norm(x[list(cone.cols)])
            gap += sol.cone_duals[k] * abs(radius - norm)
        assert gap <= 1e-8 * max(1.0, abs(sol.objective))

    def test_feeder_relaxation_is_proven_optimal(self, monkeypatch):
        # the seam-joined relaxation of the benchmark's 30-bus feeder over
        # 96 steps and 8 stages (5-7 s on a 2-vCPU host): its polish is
        # rejected, and its interior point stops on a cone boundary or
        # stalls, as rounding goes with the BLAS thread count, within
        # 3e-9 of its bound
        monkeypatch.syspath_prepend(str(BENCH))
        from workloads import feeder_instance, feeder_loads
        inst = feeder_instance(0)
        prog = relax_integrality(build_seamed(
            inst, feeder_loads(inst, 0), partition(96, 8).windows).model).to_convex()
        sol = solve_qcqp(prog)
        assert sol.status == "optimal"
        assert convex._primal(prog, sol.x)[-1] <= 1.0
        assert sol.objective - sol.bound <= 1e-7 * max(1.0, abs(sol.objective))

    def test_array_cones_equal_listed_cones(self):
        # a model hands the engine its balls as arrays; the same balls as
        # a list of ConeRow make the same program and the same solve
        inst = gen_bat_instance()
        loads = synth_load(inst, 1, 0.25, {"b2": 0.4}, seed=0)
        model = relax_integrality(assemble(inst, loads, window=(0, 4)))
        arrays = model.to_convex()
        listed = ConvexProgram(model.p_diag, model.q, model.a, model.row_lo,
                               model.row_hi, model.lb, model.ub,
                               list(model.cones), model.const)
        assert isinstance(arrays.cones, Cones)
        assert isinstance(listed.cones, Cones)
        for name in ("cone_cols", "cone_owner", "radius_col", "radius"):
            got, want = getattr(arrays, name), getattr(listed, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        got, want = solve_qcqp(arrays), solve_qcqp(listed)
        assert got.status == want.status == "optimal"
        for name in ("x", "y_rows", "y_bounds", "cone_duals"):
            assert np.array_equal(getattr(got, name),
                                  getattr(want, name)), name
        assert (got.objective, got.iterations, got.detail) \
            == (want.objective, want.iterations, want.detail)

    def test_infeasible_qcqp(self):
        prog = make_prog([0.0, 0.0], [0.0, 0.0],
                         rows=[([1.0, 0.0], 2.0, 2.0)],
                         lb=[-5.0, -5.0], ub=[5.0, 5.0],
                         cones=[ConeRow(cols=(0, 1), radius=1.0)])
        sol = solve_qcqp(prog)
        assert sol.status == "infeasible"


def boxed_program(seed):
    """A random boxed program with linear rows and balls, built around a
    point `x0` it admits: rows hold at x0 (some as equalities), each
    constant radius is at least the norm of its columns at x0, and each
    radius column is nonnegative and at least that norm at x0.  Returns
    the program and x0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    x0 = rng.uniform(-1.0, 1.0, n)
    lb = x0 - rng.uniform(0.0, 2.0, n)
    ub = x0 + rng.uniform(0.0, 2.0, n)
    cones, used = [], set()
    for _ in range(int(rng.integers(0, 3))):
        free = [j for j in range(n) if j not in used]
        if len(free) < 2:
            break
        cols = rng.choice(free, size=int(rng.integers(1, min(3, len(free)))),
                          replace=False).tolist()
        used.update(cols)
        norm = float(np.linalg.norm(x0[cols]))
        rest = [j for j in free if j not in cols]
        if rest and rng.random() < 0.5:
            rc = rest[0]
            used.add(rc)
            x0[rc] = norm + rng.uniform(0.0, 0.5)
            lb[rc], ub[rc] = 0.0, x0[rc] + rng.uniform(0.0, 2.0)
            cones.append(ConeRow(tuple(cols), radius_col=rc))
        else:
            cones.append(ConeRow(tuple(cols), radius=norm + rng.uniform(0.0, 0.5)))
    rows = []
    for _ in range(int(rng.integers(0, 4))):
        a = rng.standard_normal(n)
        a[rng.random(n) < 0.3] = 0.0
        v = float(a @ x0)
        kind = rng.integers(0, 3)
        rows.append((a, v, v) if kind == 0 else
                    (a, -INF, v + rng.uniform(0.0, 1.0)) if kind == 1 else
                    (a, v - rng.uniform(0.0, 1.0), rng.choice([INF, v + 1.0])))
    p_diag = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 2.0, n))
    prog = make_prog(p_diag, rng.standard_normal(n) * 3.0, rows=rows,
                     lb=lb, ub=ub, cones=cones, const=rng.standard_normal())
    return prog, x0


def within(bound, value):
    """`bound` is at most `value`, up to 1e-9 of max(1, |value|)."""
    return bound <= value + 1e-9 * max(1.0, abs(value))


# on a failure Hypothesis's pytest plugin imports libcst, which warns
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
class TestBound:
    """`PrimalDualSolution.bound`: weak duality from any multipliers."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_optimal_bound_is_at_most_the_objective(self, seed):
        prog, x0 = boxed_program(seed)
        sol = solve_qcqp(prog)
        assert sol.status in ("optimal", "iteration-limit")
        assert within(sol.bound, prog.objective(x0))
        if sol.status == "optimal":
            assert within(sol.bound, sol.objective)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(0, 3))
    def test_iteration_limit_bound_is_at_most_the_optimum(self, seed, steps):
        prog, _ = boxed_program(seed)
        full = solve_qcqp(prog)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "MAX_ITER", steps)
            cut = QpWorkspace(prog).interior()
        if full.status == "optimal" and cut.status == "iteration-limit":
            assert cut.iterations <= steps
            assert within(cut.bound, full.objective)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_any_multipliers_bound_a_feasible_point(self, seed):
        # the projections make every stacked vector a valid multiplier
        prog, x0 = boxed_program(seed)
        ws = QpWorkspace(prog)
        y = np.random.default_rng(seed).standard_normal(ws.mt) * 10.0
        assert within(ws._bound(y), prog.objective(x0))

    def test_no_bound_without_a_point(self):
        infeasible = make_prog([1.0], [0.0], rows=[([1.0], -INF, -1.0)],
                               lb=[0.0], ub=[1.0])
        assert np.isnan(solve_qcqp(infeasible).bound)
        assert np.isnan(solve_qcqp(make_prog([0.0], [-1.0], lb=[0.0])).bound)

    def test_a_free_column_without_curvature_bounds_at_minus_infinity(self):
        # x0 free, with no cost: only a multiplier making its cost
        # exactly 0 bounds it; x1 boxed
        prog = make_prog([0.0, 1.0], [0.0, -1.0], rows=[([1.0, 1.0], -INF, 1.0)],
                         lb=[-INF, 0.0], ub=[INF, 2.0])
        ws = QpWorkspace(prog)
        assert ws._bound(np.array([0.0, 0.0, 0.0])) == pytest.approx(-0.5)
        assert ws._bound(np.array([1.0, 0.0, 0.0])) == -INF


class TestWorkspaceView:
    """`QpWorkspace.with_bounds`: one scaling serves every bound set."""

    def test_view_solves_as_a_fresh_workspace(self):
        inst = gen_bat_instance()
        prog = relax_integrality(
            assemble(inst, flat_loads(inst, 2, p=0.4, q=0.1))).to_convex()
        lb, ub = prog.lb.copy(), prog.ub.copy()
        j = int(np.flatnonzero((lb == 0.0) & (ub == 1.0))[0])
        lb[j] = 1.0
        other = ConvexProgram(prog.p_diag, prog.q, prog.a, prog.l, prog.u,
                              lb, ub, prog.cones, prog.const)
        ws = QpWorkspace(prog)
        before = ws.solve()
        view = ws.with_bounds(lb, ub)
        for run in ("interior", "solve"):
            got, want = getattr(view, run)(), getattr(QpWorkspace(other), run)()
            assert np.array_equal(got.program.lb, lb)
            for key in ("x", "y_rows", "y_bounds", "cone_duals"):
                assert np.array_equal(getattr(got, key), getattr(want, key)), key
            assert (got.status, got.detail, got.iterations, got.bound) \
                == (want.status, want.detail, want.iterations, want.bound)
        # the view leaves the workspace it came from as it was
        after = ws.solve()
        assert after.program is prog
        for key in ("x", "y_rows", "y_bounds", "cone_duals"):
            assert np.array_equal(getattr(after, key), getattr(before, key)), key

    def test_interior_point_alone_is_the_solve_before_its_polish(self, monkeypatch):
        prog = TestStart.ball_prog()
        alone = QpWorkspace(prog).interior()
        assert not alone.polished and alone.iterations > 0
        monkeypatch.setattr(QpWorkspace, "_polish", lambda *args: None)
        unpolished = QpWorkspace(prog).solve()
        for key in ("x", "y_rows", "y_bounds", "cone_duals"):
            assert np.array_equal(getattr(alone, key), getattr(unpolished, key)), key
        assert (alone.status, alone.iterations, alone.bound) \
            == (unpolished.status, unpolished.iterations, unpolished.bound)
