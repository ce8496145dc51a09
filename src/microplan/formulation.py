"""Mixed-integer QCQP formulation of joint siting, sizing, and dispatch.

Builds the full-horizon model or any time window of it as structured
matrices for the convex engine, with a variable registry, a binary index
set, and coupling metadata describing the state handed across window
boundaries (terminal state of charge, commitment status and start/stop
history, delivered power, and the build decisions).

Conventions
-----------
All electrical quantities are per-unit on the instance base; state of
charge is per-unit-hours.  Line flow is one signed variable per line,
positive from ``from_bus`` to ``to_bus``; it leaves the sending bus
balance and enters the receiving one, and drops the receiving voltage by
``2 (r p + x q)``.  Battery power is positive when discharging; the
storage-side power ``phat`` relates to the grid-side ``p`` through the
efficiency relaxation ``p <= eta_dis * phat`` and ``p <= phat / eta_ch``.
Diesel fuel-side power ``phat`` delivers ``p = efficiency * phat``.

Seam-joined layout
------------------
Every window is built by one routine, so a stage model from
:func:`assemble` and the matching block of the seam-joined model from
:func:`build_seamed` agree column for column, row for row and cone for
cone.  A stage model lists its window's rows and then the boundary pins.
The seam-joined model lists window 0 with its horizon-start pins, then
each later window without pins, then one seam row per coupling slot at
every interior boundary.  A stage's block is therefore found by offsets
alone, and its pin rows stand in for that boundary's seam rows.

The seam-joined model is written window after window into one
:class:`ModelBuilder`, with no copy pass.  Each window looks its columns
up in a key index of its own, because a window shorter than a
generator's start/stop history imports history at the same
``(kind, owner, time)`` keys as the window before it.  The model's
``col_index`` is the union of the window indexes taken in window order,
so such a repeated key resolves to the latest window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .convex import ConeRow, ConvexProgram
from .instance import InstanceError, LoadProfile, NetworkInstance

BINARY_KINDS = frozenset({"z_b", "z_d", "x_d", "y_d", "w_d"})

# state imported at a window start gets its own column kinds so that the
# registry key (kind, owner, time) stays unique in seam-joined models
INIT_KINDS = {
    "sc": "init_sc", "x": "init_x", "p": "init_p",
    "y": "init_y", "w": "init_w",
    "z_b": "import_z_b", "s_b": "import_s_b", "z_d": "import_z_d",
}


class FormulationError(ValueError):
    pass


class VarRef(NamedTuple):
    kind: str
    owner: str
    time: int | None
    col: int


@dataclass(frozen=True)
class Slot:
    """One coupling quantity at a window boundary.

    `hist` is the lookback offset for start/stop history slots (state at
    time ``end - hist``); zero for everything else.
    """
    kind: str   # sc | x | p | y | w | z_b | s_b | z_d
    owner: str
    hist: int = 0


def coupling_slots(instance: NetworkInstance) -> tuple:
    """Canonical boundary layout, a function of the instance alone."""
    slots = []
    for b in instance.battery_specs:
        slots.append(Slot("sc", b.id))
    for d in instance.generator_specs:
        slots.append(Slot("x", d.id))
    for d in instance.generator_specs:
        slots.append(Slot("p", d.id))
    for d in instance.generator_specs:
        for h in range(1, d.history_depth + 1):
            slots.append(Slot("y", d.id, h))
            slots.append(Slot("w", d.id, h))
    for b in instance.battery_specs:
        slots.append(Slot("z_b", b.id))
    for b in instance.battery_specs:
        slots.append(Slot("s_b", b.id))
    for d in instance.generator_specs:
        slots.append(Slot("z_d", d.id))
    return tuple(slots)


def horizon_start_boundary(instance: NetworkInstance) -> np.ndarray:
    """Boundary values at the true start: initial SoC, cold idle history.

    Build slots are zero placeholders; windows that own the build
    decisions never pin them.
    """
    values = []
    for slot in coupling_slots(instance):
        if slot.kind == "sc":
            spec = next(b for b in instance.battery_specs if b.id == slot.owner)
            values.append(spec.initial_soc)
        else:
            values.append(0.0)
    return np.array(values)


@dataclass(frozen=True)
class CouplingMeta:
    slots: tuple                 # Slot layout shared by every window
    terminal_cols: tuple         # column handing each slot to the next window
    init_pin_rows: tuple         # row pinning each slot at the window start
                                 # (None for build slots when owned here)


@dataclass
class MdopModel:
    n: int
    col_refs: list
    col_index: dict
    p_diag: np.ndarray
    q: np.ndarray
    const: float
    row_coefs: list              # dict col -> coef per row
    row_lo: np.ndarray
    row_hi: np.ndarray
    row_labels: list             # (family, owner, time) per row
    cones: list                  # ConeRow
    cone_labels: list
    lb: np.ndarray
    ub: np.ndarray
    binaries: frozenset          # column indices
    coupling: CouplingMeta
    window: tuple
    dt: float

    def to_convex(self) -> ConvexProgram:
        m = len(self.row_coefs)
        sizes = np.fromiter(map(len, self.row_coefs), dtype=np.int64, count=m)
        nnz = int(sizes.sum())
        cols = np.fromiter(chain.from_iterable(self.row_coefs),
                           dtype=np.int64, count=nnz)
        vals = np.fromiter(chain.from_iterable(map(dict.values, self.row_coefs)),
                           dtype=float, count=nnz)
        rows = np.repeat(np.arange(m, dtype=np.int64), sizes)
        a = sp.csr_matrix((vals, (rows, cols)), shape=(m, self.n))
        return ConvexProgram(self.p_diag, self.q, a, self.row_lo, self.row_hi,
                             self.lb, self.ub, self.cones, self.const)

    def col(self, kind, owner, time=None) -> int:
        return self.col_index[(kind, owner, time)]

    def objective_value(self, x) -> float:
        return 0.5 * float(x @ (self.p_diag * x)) + float(self.q @ x) + self.const


def _history_times(window, t, depth):
    """Times [t-depth+1, t] split into in-window and boundary offsets."""
    start, _ = window
    in_window = [tt for tt in range(t - depth + 1, t + 1) if tt >= start]
    boundary = [start - tt for tt in range(t - depth + 1, start)]  # offsets >= 1
    return in_window, boundary


class ModelBuilder:
    """Accumulates columns, rows, and cones for one time window, or for
    consecutive windows written one after another.

    `window`, `own_builds` and `col_index` describe the window being
    built; :meth:`begin_window` starts the next one.  Each window's
    `col_index` holds only its own columns, and the row builders look
    keys up there, so a later window never reads an earlier window's
    import columns.  The model's index is the union of the window
    indexes in window order: a key repeated across windows resolves to
    the latest one.
    """

    def __init__(self, instance: NetworkInstance, loads: LoadProfile,
                 window, own_builds=True):
        self.instance = instance
        self.loads = loads
        self.window_indexes = []
        self.col_refs = []
        self.p_list = []
        self.q_list = []
        self.lb_list = []
        self.ub_list = []
        self.binaries = set()
        self.row_coefs = []
        self.row_lo = []
        self.row_hi = []
        self.row_labels = []
        self.cones = []
        self.cone_labels = []
        self.const = 0.0
        self.begin_window(window, own_builds)

    def begin_window(self, window, own_builds):
        """Start a window whose columns, rows and cones follow everything
        built so far."""
        start, end = window
        if not (0 <= start < end <= self.loads.horizon):
            raise FormulationError(
                f"window [{start}, {end}) outside the load horizon "
                f"{self.loads.horizon}")
        self.window = (start, end)
        self.own_builds = own_builds
        self.col_index = {}
        self.window_indexes.append(self.col_index)

    def build_window(self):
        """Every constraint family of the current window, boundary pins
        not yet added."""
        self.build_columns()
        self.build_power_flow()
        self.build_resource_limits()
        self.build_unit_commitment()
        self.build_battery()
        return self

    # -- primitives -------------------------------------------------------

    def add_col(self, kind, owner, time, lb, ub, cost=0.0, quad=0.0,
                binary=False):
        key = (kind, owner, time)
        if key in self.col_index:
            raise FormulationError(f"duplicate column {key}")
        j = len(self.col_refs)
        self.col_index[key] = j
        self.col_refs.append(VarRef(kind, owner, time, j))
        self.lb_list.append(lb)
        self.ub_list.append(ub)
        self.q_list.append(cost)
        self.p_list.append(quad)
        if binary:
            self.binaries.add(j)
        return j

    def add_row(self, label, coefs, lo, hi):
        """Append a row; the builder keeps the `coefs` dict as given."""
        i = len(self.row_coefs)
        self.row_coefs.append(coefs)
        self.row_lo.append(lo)
        self.row_hi.append(hi)
        self.row_labels.append(label)
        return i

    def add_cone(self, label, cols, radius=0.0, radius_col=None):
        self.cones.append(ConeRow(cols=tuple(cols), radius=radius,
                                  radius_col=radius_col))
        self.cone_labels.append(label)

    # -- builders, one constraint family each -----------------------------

    def build_columns(self):
        inst = self.instance
        start, end = self.window
        base = inst.base_mva
        build_bounds = (0.0, 1.0)
        for b in inst.battery_specs:
            owned = self.own_builds
            self.add_col("z_b" if owned else INIT_KINDS["z_b"], b.id,
                         None if owned else start, *build_bounds,
                         cost=b.fixed_cost if owned else 0.0, binary=owned)
        for b in inst.battery_specs:
            owned = self.own_builds
            self.add_col("s_b" if owned else INIT_KINDS["s_b"], b.id,
                         None if owned else start, 0.0, b.max_power,
                         cost=b.capacity_cost * base if owned else 0.0)
        for d in inst.generator_specs:
            owned = self.own_builds
            self.add_col("z_d" if owned else INIT_KINDS["z_d"], d.id,
                         None if owned else start, *build_bounds,
                         cost=d.fixed_cost if owned else 0.0, binary=owned)

        # imported state at the window start (pinned later)
        for b in inst.battery_specs:
            self.add_col(INIT_KINDS["sc"], b.id, start - 1, 0.0, b.max_energy)
        for d in inst.generator_specs:
            self.add_col(INIT_KINDS["x"], d.id, start - 1, 0.0, 1.0)
            self.add_col(INIT_KINDS["p"], d.id, start - 1,
                         0.0, d.efficiency * d.p_max)
            for h in range(1, d.history_depth + 1):
                self.add_col(INIT_KINDS["y"], d.id, start - h, 0.0, 1.0)
                self.add_col(INIT_KINDS["w"], d.id, start - h, 0.0, 1.0)

        idx = inst.bus_index()
        for t in range(start, end):
            for bus in inst.buses:
                fixed = 1.0 if bus.id == inst.slack_bus else None
                self.add_col("v", bus.id, t,
                             fixed if fixed is not None else bus.v_min,
                             fixed if fixed is not None else bus.v_max)
                j = idx[bus.id]
                self.add_col("shed_p", bus.id, t, 0.0,
                             max(self.loads.p[t, j], 0.0),
                             cost=inst.shed_penalty * base)
                self.add_col("shed_q", bus.id, t, 0.0,
                             max(self.loads.q[t, j], 0.0),
                             cost=inst.shed_penalty * base)
            for line in inst.lines:
                self.add_col("p_line", line.id, t, -line.s_max, line.s_max)
                self.add_col("q_line", line.id, t, -line.s_max, line.s_max)
            for d in inst.generator_specs:
                self.add_col("x_d", d.id, t, 0.0, 1.0,
                             cost=d.cost_coeffs[0], binary=True)
                self.add_col("y_d", d.id, t, 0.0, 1.0, binary=True)
                self.add_col("w_d", d.id, t, 0.0, 1.0, binary=True)
                self.add_col("phat_d", d.id, t, 0.0, d.p_max,
                             cost=d.cost_coeffs[1] * base,
                             quad=2.0 * d.cost_coeffs[2] * base * base)
                self.add_col("p_d", d.id, t, 0.0, d.efficiency * d.p_max)
                self.add_col("q_d", d.id, t, min(d.q_min, 0.0),
                             max(d.q_max, 0.0))
            for b in inst.battery_specs:
                # storage-side power is already limited through the SoC
                # recursion and the efficiency rows; these bounds restate
                # the implied box and never bind on their own
                phat_lo = max(b.eta_ch * b.p_min, -b.max_energy / self.loads.dt)
                phat_hi = b.max_energy / self.loads.dt
                self.add_col("phat_b", b.id, t, phat_lo, phat_hi)
                self.add_col("p_b", b.id, t, b.p_min, b.p_max)
                self.add_col("q_b", b.id, t, b.q_min, b.q_max)
                self.add_col("sc_b", b.id, t, 0.0, b.max_energy)
            if inst.grid_connected:
                self.add_col("grid_p", inst.slack_bus, t, -np.inf, np.inf)
                self.add_col("grid_q", inst.slack_bus, t, -np.inf, np.inf)

    def _build_col(self, kind, owner):
        start = self.window[0]
        if self.own_builds:
            return self.col_index[(kind, owner, None)]
        return self.col_index[(INIT_KINDS[kind], owner, start)]

    def _injections(self):
        """Per bus, the (p kind, q kind, owner, sign) of every column in
        its balance rows, in row order: its shed, its generators and
        batteries, the lines into it (+1) and out of it (-1) in line
        order, and the grid at a grid-connected slack bus."""
        inst = self.instance
        table = {bus.id: [("shed_p", "shed_q", bus.id, 1.0)]
                 for bus in inst.buses}
        for d in inst.generator_specs:
            table[d.bus].append(("p_d", "q_d", d.id, 1.0))
        for b in inst.battery_specs:
            table[b.bus].append(("p_b", "q_b", b.id, 1.0))
        for line in inst.lines:
            table[line.to_bus].append(("p_line", "q_line", line.id, 1.0))
            table[line.from_bus].append(("p_line", "q_line", line.id, -1.0))
        if inst.grid_connected:
            table[inst.slack_bus].append(
                ("grid_p", "grid_q", inst.slack_bus, 1.0))
        return [(bus.id, table[bus.id]) for bus in inst.buses]

    def build_power_flow(self):
        inst = self.instance
        start, end = self.window
        col = self.col_index
        injections = self._injections()
        for t in range(start, end):
            load_p = self.loads.p[t]
            load_q = self.loads.q[t]
            for j, (bus_id, terms) in enumerate(injections):
                p_terms = {col[(pk, owner, t)]: sign
                           for pk, _, owner, sign in terms}
                q_terms = {col[(qk, owner, t)]: sign
                           for _, qk, owner, sign in terms}
                self.add_row(("balance_p", bus_id, t), p_terms,
                             load_p[j], load_p[j])
                self.add_row(("balance_q", bus_id, t), q_terms,
                             load_q[j], load_q[j])
            for line in inst.lines:
                # v_to = v_from - 2 (r p + x q)
                self.add_row(("volt_drop", line.id, t), {
                    col[("v", line.to_bus, t)]: 1.0,
                    col[("v", line.from_bus, t)]: -1.0,
                    col[("p_line", line.id, t)]: 2.0 * line.r,
                    col[("q_line", line.id, t)]: 2.0 * line.x,
                }, 0.0, 0.0)
                self.add_cone(("thermal", line.id, t),
                              (col[("p_line", line.id, t)],
                               col[("q_line", line.id, t)]),
                              radius=line.s_max)

    def build_resource_limits(self):
        inst = self.instance
        for bus in inst.buses:
            bats = inst.batteries_at(bus.id)
            if bats:
                self.add_row(("bat_count", bus.id, None),
                             {self._build_col("z_b", b.id): 1.0 for b in bats},
                             -np.inf, float(bus.max_batteries))
            gens = inst.generators_at(bus.id)
            if gens:
                self.add_row(("gen_count", bus.id, None),
                             {self._build_col("z_d", d.id): 1.0 for d in gens},
                             -np.inf, float(bus.max_generators))
        for b in inst.battery_specs:
            self.add_row(("cap_if_built", b.id, None), {
                self._build_col("s_b", b.id): 1.0,
                self._build_col("z_b", b.id): -b.max_power,
            }, -np.inf, 0.0)

    def build_unit_commitment(self):
        inst = self.instance
        start, end = self.window
        col = self.col_index
        for d in inst.generator_specs:
            z = self._build_col("z_d", d.id)
            for t in range(start, end):
                x = col[("x_d", d.id, t)]
                y = col[("y_d", d.id, t)]
                w = col[("w_d", d.id, t)]
                phat = col[("phat_d", d.id, t)]
                p = col[("p_d", d.id, t)]
                q = col[("q_d", d.id, t)]
                x_prev = col[("x_d", d.id, t - 1)] if t > start \
                    else col[(INIT_KINDS["x"], d.id, start - 1)]
                p_prev = col[("p_d", d.id, t - 1)] if t > start \
                    else col[(INIT_KINDS["p"], d.id, start - 1)]

                self.add_row(("committed_if_built", d.id, t),
                             {x: 1.0, z: -1.0}, -np.inf, 0.0)
                self.add_row(("start_stop", d.id, t),
                             {x: 1.0, x_prev: -1.0, y: -1.0, w: 1.0},
                             0.0, 0.0)
                self.add_row(("start_xor_stop", d.id, t),
                             {y: 1.0, w: 1.0}, -np.inf, 1.0)
                self.add_row(("p_max_if_on", d.id, t),
                             {phat: 1.0, x: -d.p_max}, -np.inf, 0.0)
                self.add_row(("p_min_if_on", d.id, t),
                             {phat: -1.0, x: d.p_min}, -np.inf, 0.0)
                self.add_row(("q_max_if_on", d.id, t),
                             {q: 1.0, x: -d.q_max}, -np.inf, 0.0)
                self.add_row(("q_min_if_on", d.id, t),
                             {q: -1.0, x: d.q_min}, -np.inf, 0.0)
                self.add_row(("delivered", d.id, t),
                             {p: 1.0, phat: -d.efficiency}, 0.0, 0.0)
                self.add_row(("ramp_up", d.id, t),
                             {p: 1.0, p_prev: -1.0}, -np.inf, d.ramp_up)
                self.add_row(("ramp_down", d.id, t),
                             {p: -1.0, p_prev: 1.0}, -np.inf, d.ramp_down)

                up_times, up_hist = _history_times(self.window, t, d.min_up)
                terms = {col[("y_d", d.id, tt)]: 1.0 for tt in up_times}
                for h in up_hist:
                    terms[col[(INIT_KINDS["y"], d.id, start - h)]] = 1.0
                terms[x] = terms.get(x, 0.0) - 1.0
                self.add_row(("min_up", d.id, t), terms, -np.inf, 0.0)

                dn_times, dn_hist = _history_times(self.window, t, d.min_down)
                terms = {col[("w_d", d.id, tt)]: 1.0 for tt in dn_times}
                for h in dn_hist:
                    terms[col[(INIT_KINDS["w"], d.id, start - h)]] = 1.0
                terms[x] = terms.get(x, 0.0) + 1.0
                self.add_row(("min_down", d.id, t), terms, -np.inf, 1.0)

    def build_battery(self):
        inst = self.instance
        start, end = self.window
        dt = self.loads.dt
        col = self.col_index
        for b in inst.battery_specs:
            z = self._build_col("z_b", b.id)
            s = self._build_col("s_b", b.id)
            for t in range(start, end):
                phat = col[("phat_b", b.id, t)]
                p = col[("p_b", b.id, t)]
                q = col[("q_b", b.id, t)]
                sc = col[("sc_b", b.id, t)]
                sc_prev = col[("sc_b", b.id, t - 1)] if t > start \
                    else col[(INIT_KINDS["sc"], b.id, start - 1)]

                self.add_cone(("bat_rating", b.id, t), (p, q), radius_col=s)
                self.add_row(("soc_step", b.id, t),
                             {sc: 1.0, sc_prev: -1.0, phat: dt}, 0.0, 0.0)
                self.add_row(("soc_if_built", b.id, t),
                             {sc: 1.0, z: -b.max_energy}, -np.inf, 0.0)
                self.add_row(("eff_dis", b.id, t),
                             {p: 1.0, phat: -b.eta_dis}, -np.inf, 0.0)
                self.add_row(("eff_ch", b.id, t),
                             {p: 1.0, phat: -1.0 / b.eta_ch}, -np.inf, 0.0)

    # -- boundary and coupling --------------------------------------------

    def _slot_init_col(self, slot: Slot):
        start = self.window[0]
        if slot.kind in ("z_b", "s_b", "z_d"):
            if self.own_builds:
                return None
            return self.col_index[(INIT_KINDS[slot.kind], slot.owner, start)]
        if slot.kind in ("sc", "x", "p"):
            return self.col_index[(INIT_KINDS[slot.kind], slot.owner, start - 1)]
        return self.col_index[(INIT_KINDS[slot.kind], slot.owner,
                               start - slot.hist)]

    def _slot_terminal_col(self, slot: Slot):
        start, end = self.window
        last = end - 1
        if slot.kind in ("z_b", "s_b", "z_d"):
            return self._build_col(slot.kind, slot.owner)
        if slot.kind == "sc":
            return self.col_index[("sc_b", slot.owner, last)]
        if slot.kind == "x":
            return self.col_index[("x_d", slot.owner, last)]
        if slot.kind == "p":
            return self.col_index[("p_d", slot.owner, last)]
        t = end - slot.hist
        if t >= start:
            kind = "y_d" if slot.kind == "y" else "w_d"
            return self.col_index[(kind, slot.owner, t)]
        # window shorter than the history depth: the value passes through
        return self.col_index[(INIT_KINDS[slot.kind], slot.owner, t)]

    def pin_boundary(self, boundary: np.ndarray):
        """Equality rows fixing the imported state; their duals are the
        boundary prices."""
        slots = coupling_slots(self.instance)
        if boundary.shape != (len(slots),):
            raise FormulationError(
                f"boundary has {boundary.shape[0]} entries, "
                f"expected {len(slots)}")
        pins = []
        for k, slot in enumerate(slots):
            j = self._slot_init_col(slot)
            if j is None:
                pins.append(None)
                continue
            val = float(boundary[k])
            pins.append(self.add_row(("couple", slot.kind, slot.owner, slot.hist),
                                     {j: 1.0}, val, val))
        return pins

    def add_terminal_prices(self, duals_in, terminal_cols):
        slots = coupling_slots(self.instance)
        duals_in = np.asarray(duals_in, dtype=float)
        if duals_in.shape != (len(slots),):
            raise FormulationError(
                f"price vector has {duals_in.shape[0]} entries, "
                f"expected {len(slots)}")
        for gamma, j in zip(duals_in, terminal_cols):
            self.q_list[j] += float(gamma)

    # -- assembly ---------------------------------------------------------

    def finish(self, boundary=None, duals_in=None) -> MdopModel:
        slots = coupling_slots(self.instance)
        if boundary is None:
            boundary = horizon_start_boundary(self.instance)
        pins = self.pin_boundary(np.asarray(boundary, dtype=float))
        terminal = tuple(self._slot_terminal_col(s) for s in slots)
        if duals_in is not None:
            self.add_terminal_prices(duals_in, terminal)
        meta = CouplingMeta(slots=slots, terminal_cols=terminal,
                            init_pin_rows=tuple(pins))
        return self.model(meta, self.window)

    def model(self, coupling: CouplingMeta, window) -> MdopModel:
        """Freeze the accumulated columns, rows and cones."""
        col_index, *later = self.window_indexes
        if later:
            col_index = dict(col_index)
            for index in later:
                col_index.update(index)
        return MdopModel(
            n=len(self.col_refs),
            col_refs=self.col_refs,
            col_index=col_index,
            p_diag=np.array(self.p_list),
            q=np.array(self.q_list),
            const=self.const,
            row_coefs=self.row_coefs,
            row_lo=np.array(self.row_lo),
            row_hi=np.array(self.row_hi),
            row_labels=self.row_labels,
            cones=self.cones,
            cone_labels=self.cone_labels,
            lb=np.array(self.lb_list),
            ub=np.array(self.ub_list),
            binaries=frozenset(self.binaries),
            coupling=coupling,
            window=window,
            dt=self.loads.dt,
        )


def assemble(instance: NetworkInstance, loads: LoadProfile, window=None,
             boundary=None, duals_in=None, own_builds=True) -> MdopModel:
    """Build the model for `window` (defaults to the full horizon).

    `boundary` supplies the imported state at the window start (aligned
    with :func:`coupling_slots`); omitted, the true horizon start is
    assumed.  `duals_in` prices the terminal state: the objective gains
    ``duals_in . terminal_state``, the cost-to-go seen by upstream
    windows.  `own_builds` decides whether build variables are binary
    decisions with cost here, or imported state pinned to the boundary.
    """
    if window is None:
        window = (0, loads.horizon)
    builder = ModelBuilder(instance, loads, window, own_builds=own_builds)
    return builder.build_window().finish(boundary=boundary, duals_in=duals_in)


def relax_integrality(model: MdopModel) -> MdopModel:
    """Drop integrality, keeping [0, 1] bounds; idempotent."""
    if not model.binaries:
        return model
    return replace(model, binaries=frozenset())


def fix_binaries(model: MdopModel, values) -> MdopModel:
    """Fix every binary column to the given {0, 1} value via its bounds."""
    lb = model.lb.copy()
    ub = model.ub.copy()
    for j in sorted(model.binaries):
        if j not in values:
            ref = model.col_refs[j]
            raise FormulationError(
                f"missing value for binary {ref.kind}/{ref.owner}/{ref.time}")
        v = float(values[j])
        if abs(v - round(v)) > 1e-9 or round(v) not in (0, 1):
            raise FormulationError(f"non-binary value {v} for column {j}")
        lb[j] = ub[j] = float(round(v))
    return replace(model, lb=lb, ub=ub, binaries=frozenset())


# ---------------------------------------------------------------------------
# seam-joined multi-window model


@dataclass(frozen=True)
class SeamedModel:
    """Full-horizon model built window by window, with the would-be
    coupling constraints materialized as seam rows whose duals price the
    boundary state."""
    model: MdopModel
    windows: tuple
    seam_rows: tuple  # per window >= 1: row indices aligned with slots


def build_seamed(instance: NetworkInstance, loads: LoadProfile,
                 windows) -> SeamedModel:
    """Join consecutive windows into one model over the horizon, in the
    layout described in the module docstring.  The windows must
    partition ``[0, loads.horizon)``."""
    windows = [tuple(w) for w in windows]
    if not windows:
        raise FormulationError("no windows to join")
    for (a, b_), (c, _) in zip(windows, windows[1:]):
        if b_ != c:
            raise FormulationError("windows must partition the horizon")
    if windows[0][0] != 0:
        raise FormulationError("first window must start at 0")
    if windows[-1][1] != loads.horizon:
        raise FormulationError(
            f"last window ends at {windows[-1][1]}, not at the load "
            f"horizon {loads.horizon}")

    slots = coupling_slots(instance)
    builder = ModelBuilder(instance, loads, windows[0], own_builds=True)
    builder.build_window()
    pins0 = builder.pin_boundary(horizon_start_boundary(instance))
    # each window's slot columns, read while its own index is current
    init_cols, term_cols = [], []
    for s, win in enumerate(windows):
        if s:
            builder.begin_window(win, own_builds=False)
            builder.build_window()
        init_cols.append([builder._slot_init_col(slot) for slot in slots])
        term_cols.append([builder._slot_terminal_col(slot) for slot in slots])

    # later windows are sewn to their predecessor's terminal state
    seam_rows = []
    for s in range(1, len(windows)):
        seam_rows.append(tuple(
            builder.add_row(("seam", s, slot.kind, slot.owner, slot.hist),
                            {j_in: 1.0, j_out: -1.0}, 0.0, 0.0)
            for slot, j_in, j_out in zip(slots, init_cols[s],
                                         term_cols[s - 1])))

    meta = CouplingMeta(slots=slots, terminal_cols=tuple(term_cols[-1]),
                        init_pin_rows=tuple(pins0))
    model = builder.model(meta, (0, loads.horizon))
    return SeamedModel(model=model, windows=tuple(windows),
                       seam_rows=tuple(seam_rows))


# ---------------------------------------------------------------------------
# operating plans: extraction, costing, physics check

SERIES_KINDS = ("v", "shed_p", "shed_q", "p_line", "q_line",
                "x_d", "y_d", "w_d", "phat_d", "p_d", "q_d",
                "phat_b", "p_b", "q_b", "sc_b", "grid_p", "grid_q")
BUILD_KINDS = ("z_b", "s_b", "z_d")


@dataclass
class OperatingPlan:
    """Dense trajectories over [start, start + horizon)."""
    start: int
    horizon: int
    dt: float
    builds: dict   # (kind, owner) -> value
    series: dict   # (kind, owner) -> array of length horizon

    def value(self, kind, owner, t):
        return float(self.series[(kind, owner)][t - self.start])


def extract_plan(model: MdopModel, x) -> OperatingPlan:
    start, end = model.window
    horizon = end - start
    builds = {}
    series = {}
    for ref in model.col_refs:
        if ref.kind in BUILD_KINDS:
            builds[(ref.kind, ref.owner)] = float(x[ref.col])
        elif ref.kind in SERIES_KINDS and ref.time is not None \
                and start <= ref.time < end:
            arr = series.get((ref.kind, ref.owner))
            if arr is None:
                arr = np.zeros(horizon)
                series[(ref.kind, ref.owner)] = arr
            arr[ref.time - start] = float(x[ref.col])
    return OperatingPlan(start=start, horizon=horizon, dt=model.dt,
                         builds=builds, series=series)


@dataclass(frozen=True)
class CostBreakdown:
    build: float
    generation: np.ndarray  # per step
    shed: np.ndarray        # per step

    @property
    def total(self):
        return self.build + float(self.generation.sum()) + float(self.shed.sum())


def plan_costs(instance: NetworkInstance, plan: OperatingPlan) -> CostBreakdown:
    base = instance.base_mva
    build = 0.0
    for b in instance.battery_specs:
        build += b.fixed_cost * plan.builds.get(("z_b", b.id), 0.0)
        build += b.capacity_cost * base * plan.builds.get(("s_b", b.id), 0.0)
    for d in instance.generator_specs:
        build += d.fixed_cost * plan.builds.get(("z_d", d.id), 0.0)
    gen = np.zeros(plan.horizon)
    for d in instance.generator_specs:
        c0, c1, c2 = d.cost_coeffs
        x = plan.series.get(("x_d", d.id), np.zeros(plan.horizon))
        phat = plan.series.get(("phat_d", d.id), np.zeros(plan.horizon))
        gen += c0 * x + c1 * base * phat + c2 * (base * phat) ** 2
    shed = np.zeros(plan.horizon)
    for bus in instance.buses:
        for kind in ("shed_p", "shed_q"):
            arr = plan.series.get((kind, bus.id))
            if arr is not None:
                shed += instance.shed_penalty * base * arr
    return CostBreakdown(build=build, generation=gen, shed=shed)


@dataclass
class ViolationReport:
    violations: list  # (family, owner, time, magnitude)
    max_violation: float

    @property
    def ok(self):
        return not self.violations

    def worst(self, k=10):
        return sorted(self.violations, key=lambda v: -v[3])[:k]


def check_feasibility(instance: NetworkInstance, loads: LoadProfile,
                      plan: OperatingPlan, tol: float = 1e-6) -> ViolationReport:
    """Evaluate the physics directly at the plan, independently of the
    row builders: balances, voltage drops, ratings, commitment logic,
    ramping, up/down times, SoC recursion, and the efficiency envelope.

    The plan must cover [0, T) for the given loads.
    """
    if plan.start != 0:
        raise FormulationError("plan must start at the horizon origin")
    T = plan.horizon
    if T > loads.horizon:
        raise FormulationError("plan is longer than the load profile")
    idx = instance.bus_index()
    bad = []

    def check(family, owner, t, amount):
        if amount > tol:
            bad.append((family, owner, t, float(amount)))

    def series(kind, owner):
        arr = plan.series.get((kind, owner))
        if arr is None:
            return np.zeros(T)
        if len(arr) != T:
            raise FormulationError(f"series {kind}/{owner} has wrong length")
        return arr

    for b in instance.battery_specs:
        z = plan.builds.get(("z_b", b.id), 0.0)
        s = plan.builds.get(("s_b", b.id), 0.0)
        check("cap_if_built", b.id, None, s - b.max_power * z)
        p, q = series("p_b", b.id), series("q_b", b.id)
        phat, sc = series("phat_b", b.id), series("sc_b", b.id)
        check("bat_rating", b.id, None, float(np.hypot(p, q).max(initial=0.0)) - s)
        prev = np.concatenate([[b.initial_soc], sc[:-1]])
        res = np.abs(sc - prev + phat * plan.dt)
        check("soc_step", b.id, int(np.argmax(res)), float(res.max(initial=0.0)))
        check("soc_if_built", b.id, None,
              float(sc.max(initial=0.0)) - b.max_energy * z)
        check("soc_range", b.id, None, float(-sc.min(initial=0.0)))
        check("eff_dis", b.id, None, float((p - b.eta_dis * phat).max(initial=0.0)))
        check("eff_ch", b.id, None, float((p - phat / b.eta_ch).max(initial=0.0)))

    for bus in instance.buses:
        z_sum = sum(plan.builds.get(("z_b", b.id), 0.0)
                    for b in instance.batteries_at(bus.id))
        check("bat_count", bus.id, None, z_sum - bus.max_batteries)
        zd_sum = sum(plan.builds.get(("z_d", d.id), 0.0)
                     for d in instance.generators_at(bus.id))
        check("gen_count", bus.id, None, zd_sum - bus.max_generators)

    for d in instance.generator_specs:
        z = plan.builds.get(("z_d", d.id), 0.0)
        x, y, w = series("x_d", d.id), series("y_d", d.id), series("w_d", d.id)
        phat, p, q = series("phat_d", d.id), series("p_d", d.id), series("q_d", d.id)
        check("committed_if_built", d.id, None, float((x - z).max(initial=0.0)))
        x_prev = np.concatenate([[0.0], x[:-1]])
        res = np.abs((x - x_prev) - (y - w))
        check("start_stop", d.id, int(np.argmax(res)), float(res.max(initial=0.0)))
        check("start_xor_stop", d.id, None, float((y + w).max(initial=0.0)) - 1.0)
        check("p_max_if_on", d.id, None, float((phat - d.p_max * x).max(initial=0.0)))
        check("p_min_if_on", d.id, None, float((d.p_min * x - phat).max(initial=0.0)))
        check("q_max_if_on", d.id, None, float((q - d.q_max * x).max(initial=0.0)))
        check("q_min_if_on", d.id, None, float((d.q_min * x - q).max(initial=0.0)))
        res = np.abs(p - d.efficiency * phat)
        check("delivered", d.id, int(np.argmax(res)), float(res.max(initial=0.0)))
        p_prev = np.concatenate([[0.0], p[:-1]])
        check("ramp_up", d.id, None, float((p - p_prev).max(initial=0.0)) - d.ramp_up)
        check("ramp_down", d.id, None,
              float((p_prev - p).max(initial=0.0)) - d.ramp_down)
        y_hist = np.concatenate([np.zeros(d.min_up), y])
        w_hist = np.concatenate([np.zeros(d.min_down), w])
        for t in range(T):
            up = y_hist[t + 1: t + 1 + d.min_up].sum()
            check("min_up", d.id, t, up - x[t])
            dn = w_hist[t + 1: t + 1 + d.min_down].sum()
            check("min_down", d.id, t, dn - (1.0 - x[t]))

    for line in instance.lines:
        p, q = series("p_line", line.id), series("q_line", line.id)
        check("thermal", line.id, None,
              float(np.hypot(p, q).max(initial=0.0)) - line.s_max)
        v_from = series("v", line.from_bus)
        v_to = series("v", line.to_bus)
        res = np.abs(v_to - v_from + 2.0 * (line.r * p + line.x * q))
        check("volt_drop", line.id, int(np.argmax(res)), float(res.max(initial=0.0)))

    for bus in instance.buses:
        j = idx[bus.id]
        v = series("v", bus.id)
        if bus.id == instance.slack_bus:
            check("v_slack", bus.id, None, float(np.abs(v - 1.0).max(initial=0.0)))
        else:
            check("v_range", bus.id, None,
                  max(float((v - bus.v_max).max(initial=0.0)),
                      float((bus.v_min - v).max(initial=0.0))))
        shp, shq = series("shed_p", bus.id), series("shed_q", bus.id)
        check("shed_range", bus.id, None,
              max(float(-shp.min(initial=0.0)), float(-shq.min(initial=0.0)),
                  float((shp - loads.p[:T, j]).max(initial=0.0)),
                  float((shq - loads.q[:T, j]).max(initial=0.0))))
        p_in = np.zeros(T)
        q_in = np.zeros(T)
        for d in instance.generators_at(bus.id):
            p_in += series("p_d", d.id)
            q_in += series("q_d", d.id)
        for b in instance.batteries_at(bus.id):
            p_in += series("p_b", b.id)
            q_in += series("q_b", b.id)
        for line in instance.lines:
            if line.to_bus == bus.id:
                p_in += series("p_line", line.id)
                q_in += series("q_line", line.id)
            elif line.from_bus == bus.id:
                p_in -= series("p_line", line.id)
                q_in -= series("q_line", line.id)
        if instance.grid_connected and bus.id == instance.slack_bus:
            p_in += series("grid_p", bus.id)
            q_in += series("grid_q", bus.id)
        res_p = np.abs(p_in + shp - loads.p[:T, j])
        res_q = np.abs(q_in + shq - loads.q[:T, j])
        check("balance_p", bus.id, int(np.argmax(res_p)),
              float(res_p.max(initial=0.0)))
        check("balance_q", bus.id, int(np.argmax(res_q)),
              float(res_q.max(initial=0.0)))

    worst = max((v[3] for v in bad), default=0.0)
    return ViolationReport(violations=bad, max_violation=worst)


# ---------------------------------------------------------------------------
# model dump for external cross-checks


def dump_model(model: MdopModel, path) -> Path:
    """Sparse text dump: one `sense rhs {col:coef}` line per row, with
    bounds, cones, binaries, and the objective in separate sections."""
    path = Path(path)
    out = []
    out.append(f"ncols {model.n}")
    out.append(f"const {float(model.const)!r}")
    for j in range(model.n):
        terms = []
        if model.q[j]:
            terms.append(f"lin {float(model.q[j])!r}")
        if model.p_diag[j]:
            terms.append(f"quad {float(model.p_diag[j])!r}")
        tag = " binary" if j in model.binaries else ""
        out.append(f"col {j} {float(model.lb[j])!r} {float(model.ub[j])!r} "
                   + " ".join(terms) + tag)
    for coefs, lo, hi in zip(model.row_coefs, model.row_lo, model.row_hi):
        body = " ".join(f"{j}:{float(coefs[j])!r}" for j in sorted(coefs))
        if lo == hi:
            out.append(f"row == {float(lo)!r} {body}")
        else:
            if np.isfinite(hi):
                out.append(f"row <= {float(hi)!r} {body}")
            if np.isfinite(lo):
                out.append(f"row >= {float(lo)!r} {body}")
    for cone in model.cones:
        cols = " ".join(str(j) for j in cone.cols)
        if cone.radius_col is None:
            out.append(f"cone radius {cone.radius!r} {cols}")
        else:
            out.append(f"cone radiuscol {cone.radius_col} {cols}")
    path.write_text("\n".join(out) + "\n")
    return path
