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
:class:`ModelBuilder`, with no copy pass.  A window shorter than a
generator's start/stop history imports history at the same
``(kind, owner, time)`` keys as the window before it;
:meth:`MdopModel.col` resolves such a key to the latest window.

Block layout
------------
A window's columns follow a layout fixed by the instance: ``F`` fixed
columns (the build decisions, then the state imported at the window
start), then ``C`` columns per time step.  In a window ``[start, end)``
whose first column is ``o``, column ``(kind, owner, t)`` is

    o + F + (t - start) * C + pos(kind, owner),

with ``pos`` its place in the step.  Each constraint family is therefore
written as one block of NumPy arrays over its (time, owner) dimensions:
its bounds, and its entries as (row, column, coefficient) triplets.  The
model's constraint matrix is made from every family's entries at once,
as one CSR matrix, and stays in that form from the builder to the
engine (the approach of Hofmann, "Linopy: Linear optimization with
n-dimensional labeled variables", JOSS 2023): ``to_convex`` hands it on
without a copy, and ``row_coefs`` reads one row's ``{col: coef}`` from
it when asked.  CSR keeps each row's entries in column order, so the
order in which a family writes its terms never reaches the engine.

A built model holds no Python object per column, row or ball either.
It keeps the layout, a ``(first, start, end, owned)`` tuple per window
and a ``(first, labels)`` pair per row or ball block, whose labels are
a list or, for a block that repeats over the steps, a :class:`_Cycle`.
:meth:`MdopModel.col` finds a column by the formula above, and
``describe_col``, ``describe_row`` and ``describe_cone`` name a column,
row or ball when asked; nothing is named before.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .convex import Cones, ConvexProgram, SequenceView
from .instance import InstanceError, LoadProfile, NetworkInstance

BUILD_KINDS = ("z_b", "s_b", "z_d")

# state imported at a window start gets its own column kinds so that the
# registry key (kind, owner, time) stays unique in seam-joined models
INIT_KINDS = {
    "sc": "init_sc", "x": "init_x", "p": "init_p",
    "y": "init_y", "w": "init_w",
    "z_b": "import_z_b", "s_b": "import_s_b", "z_d": "import_z_d",
}


class FormulationError(ValueError):
    pass


def _check_bus_order(instance: NetworkInstance, loads: LoadProfile):
    """Load column j must be bus j of the instance."""
    buses = tuple(b.id for b in instance.buses)
    if tuple(loads.bus_ids) != buses:
        raise FormulationError(f"load profile buses {tuple(loads.bus_ids)} are"
                               f" not the instance's buses {buses} in order")


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
    bats, gens = instance.battery_specs, instance.generator_specs
    return tuple([Slot("sc", b.id) for b in bats]
                 + [Slot("x", d.id) for d in gens]
                 + [Slot("p", d.id) for d in gens]
                 + [Slot(kind, d.id, h) for d in gens
                    for h in range(1, d.history_depth + 1)
                    for kind in ("y", "w")]
                 + [Slot("z_b", b.id) for b in bats]
                 + [Slot("s_b", b.id) for b in bats]
                 + [Slot("z_d", d.id) for d in gens])


def horizon_start_boundary(instance: NetworkInstance) -> np.ndarray:
    """Boundary values at the true start: initial SoC, cold idle history.

    Build slots are zero placeholders; windows that own the build
    decisions never pin them.
    """
    soc = {b.id: b.initial_soc for b in instance.battery_specs}
    return np.array([soc[slot.owner] if slot.kind == "sc" else 0.0
                     for slot in coupling_slots(instance)])


@dataclass(frozen=True)
class CouplingMeta:
    slots: tuple                 # Slot layout shared by every window
    terminal_cols: tuple         # column handing each slot to the next window
    init_pin_rows: tuple         # row pinning each slot at the window start
                                 # (None for build slots when owned here)


class RowCoefs(SequenceView):
    """Read-only view of a CSR matrix's rows: its length is the row count,
    and item i is row i's ``{col: coef}`` in column order."""

    def __init__(self, a):
        self._a = a

    def __len__(self):
        return self._a.shape[0]

    def _item(self, i):
        a = self._a
        lo, hi = a.indptr[i:i + 2]
        return dict(zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist()))


class _Cycle(SequenceView):
    """Labels of rows (or balls) that cycle through the families `names`
    at each of `steps` steps from `start`, group after group: row ``(g *
    steps + t) * F + f`` is ``(names[f], owners[g * F + f], start + t)``."""

    def __init__(self, names, owners, start, steps):
        self.names, self.owners = names, owners
        self.start, self.steps = start, steps

    def __len__(self):
        return len(self.owners) * self.steps

    def _item(self, i):
        width = len(self.names)
        group, rest = divmod(i, self.steps * width)
        t, f = divmod(rest, width)
        return self.names[f], self.owners[group * width + f], self.start + t


def _block_of(blocks, i, size):
    """The block holding item i of `size` (indexed as a list is) among
    consecutive blocks led by their first item, and i's place in it."""
    i = range(size)[i]
    block = blocks[bisect_right(blocks, i, key=itemgetter(0)) - 1]
    return block, i - block[0]


@dataclass
class MdopModel:
    """A window of the model, or consecutive windows sewn together, as
    ``row_lo <= a x <= row_hi``, ``lb <= x <= ub`` and the norm balls
    `cones`, under the objective ``1/2 x' diag(p_diag) x + q' x + const``.

    `a` is the constraint matrix in CSR form, made once by
    :class:`ModelBuilder`, and the model's only copy of its rows.
    Columns, rows and balls are named only when asked, by :meth:`col`
    and the ``describe_*`` methods, from `layout` and the blocks (module
    docstring, "Block layout").  :meth:`to_convex` hands `a` and `cones`
    to the engine without a copy, so a model is not changed in place
    once built: :func:`fix_binaries` and :func:`relax_integrality` make
    new models that share them.
    """
    n: int
    p_diag: np.ndarray
    q: np.ndarray
    const: float
    a: sp.csr_matrix             # rows by columns
    row_lo: np.ndarray
    row_hi: np.ndarray
    cones: Sequence              # ConeRow per ball, `convex.Cones` if built
    lb: np.ndarray
    ub: np.ndarray
    binaries: frozenset          # column indices
    coupling: CouplingMeta
    window: tuple
    dt: float
    layout: _Layout
    col_blocks: tuple            # (first, start, end, owned) per window
    row_blocks: tuple            # (first, labels) per row block
    cone_blocks: tuple           # (first, labels) per ball block

    @property
    def row_coefs(self) -> RowCoefs:
        """Each row's ``{col: coef}``, read from `a` one row at a time."""
        return RowCoefs(self.a)

    def to_convex(self) -> ConvexProgram:
        return ConvexProgram(self.p_diag, self.q, self.a, self.row_lo,
                             self.row_hi, self.lb, self.ub, self.cones,
                             self.const)

    def col(self, kind, owner, time=None) -> int:
        """The column of key ``(kind, owner, time)``, in the latest window
        that has it; KeyError if none has."""
        lay = self.layout
        pos = lay.step_pos.get((kind, owner))
        for first, start, end, owned in reversed(self.col_blocks):
            if pos is None:
                i = lay.fixed_find[owned].get(
                    (kind, owner, None if time is None else start - time))
                if i is not None:
                    return first + i
            elif time is not None and start <= time < end:
                return first + lay.fixed \
                    + (time - start) * len(lay.step_kinds) + pos
        raise KeyError((kind, owner, time))

    def describe_col(self, j) -> tuple:
        """The key ``(kind, owner, time)`` of column j."""
        (_, start, _, owned), i = _block_of(self.col_blocks, j, self.n)
        lay = self.layout
        if i < lay.fixed:
            kind, owner, lag = lay.fixed_keys[owned][i]
            return kind, owner, None if lag is None else start - lag
        t, pos = divmod(i - lay.fixed, len(lay.step_kinds))
        return lay.step_kinds[pos], lay.step_owners[pos], start + t

    def describe_row(self, i) -> tuple:
        """The label of row i: (family, owner, time) for a window's rows."""
        (_, labels), i = _block_of(self.row_blocks, i, self.a.shape[0])
        return labels[i]

    def describe_cone(self, k) -> tuple:
        """The label (family, owner, time) of ball k."""
        (_, labels), k = _block_of(self.cone_blocks, k, len(self.cones))
        return labels[k]

    def objective_value(self, x) -> float:
        return 0.5 * float(x @ (self.p_diag * x)) + float(self.q @ x) + self.const


def _template(rows):
    """Template rows, (positions, coefficients) each, as flat (row,
    position, coefficient) entry arrays."""
    sizes = [len(pos) for pos, _ in rows]
    return (np.repeat(np.arange(len(rows), dtype=np.int64), sizes),
            np.array(list(chain.from_iterable(pos for pos, _ in rows)),
                     dtype=np.int64),
            np.array(list(chain.from_iterable(c for _, c in rows)),
                     dtype=float))


def _per_owner(values, owners):
    """Each value as a list with one entry per owner: a list stays as it
    is, a number is repeated."""
    return [v if isinstance(v, list) else [v] * owners for v in values]


class _Layout:
    """The column and row layout of a window, which depends on the
    instance and the step length alone (see :class:`ModelBuilder`).
    Shared by every builder of the same instance, so read-only."""

    def __init__(self, instance: NetworkInstance, dt: float):
        self.instance = instance
        self.dt = dt
        self.slots = coupling_slots(instance)
        self.start_boundary = horizon_start_boundary(instance)
        self._lay_out_fixed()
        self._lay_out_step()
        self._lay_out_network()
        self._lay_out_resources()
        for arr in (self.start_boundary, self.step_data, self.step_binary,
                    self.resource_caps,
                    *self.fixed_data.values(), *self.network_template,
                    *self.resource_template):
            arr.flags.writeable = False

    def _lay_out_fixed(self):
        """The fixed columns of a window, keyed (kind, owner, lag): the
        build decisions at lag 0, then the state imported from `lag`
        steps before the window start.  Owned builds keep their kind and
        cost; otherwise every fixed column is an import column."""
        inst = self.instance
        base = inst.base_mva
        cols = []    # kind, owner, lag, lb, ub, cost if owned
        cols += [("z_b", b.id, 0, 0.0, 1.0, b.fixed_cost)
                 for b in inst.battery_specs]
        cols += [("s_b", b.id, 0, 0.0, b.max_power, b.capacity_cost * base)
                 for b in inst.battery_specs]
        cols += [("z_d", d.id, 0, 0.0, 1.0, d.fixed_cost)
                 for d in inst.generator_specs]
        cols += [("sc", b.id, 1, 0.0, b.max_energy, 0.0)
                 for b in inst.battery_specs]
        for d in inst.generator_specs:
            cols.append(("x", d.id, 1, 0.0, 1.0, 0.0))
            cols.append(("p", d.id, 1, 0.0, d.efficiency * d.p_max, 0.0))
            for h in range(1, d.history_depth + 1):
                cols.append(("y", d.id, h, 0.0, 1.0, 0.0))
                cols.append(("w", d.id, h, 0.0, 1.0, 0.0))
        kinds, owners, lags, lb, ub, cost = zip(*cols) if cols else [()] * 6
        self.fixed = len(cols)
        self.fixed_pos = {key: i for i, key in enumerate(zip(kinds, owners,
                                                             lags))}
        # a column's key is (kind, owner, window start - lag), with lag
        # None for the build decisions a window owns (time None)
        self.fixed_keys = {owned: [(k, o, None) if owned and lag == 0
                                   else (INIT_KINDS[k], o, lag)
                                   for k, o, lag in zip(kinds, owners, lags)]
                           for owned in (True, False)}
        self.fixed_find = {owned: {key: i for i, key in enumerate(keys)}
                           for owned, keys in self.fixed_keys.items()}
        zero = [0.0] * len(cols)
        self.fixed_data = {
            True: np.array([lb, ub, cost, zero], dtype=float).reshape(4, -1),
            False: np.array([lb, ub, zero, zero], dtype=float).reshape(4, -1)}
        self.fixed_binary = [i for i, k in enumerate(kinds)
                             if k in ("z_b", "z_d")]

    def _lay_out_step(self):
        """The columns of one time step, with their bounds and costs; a
        bus's shed columns take their upper bounds from the loads."""
        inst = self.instance
        base = inst.base_mva
        dt = self.dt
        shed_cost = inst.shed_penalty * base
        cols = []    # kind, owner, lb, ub, cost, quad, binary
        for bus in inst.buses:
            slack = bus.id == inst.slack_bus
            cols.append(("v", bus.id, 1.0 if slack else bus.v_min,
                         1.0 if slack else bus.v_max, 0.0, 0.0, False))
            cols.append(("shed_p", bus.id, 0.0, 0.0, shed_cost, 0.0, False))
            cols.append(("shed_q", bus.id, 0.0, 0.0, shed_cost, 0.0, False))
        for line in inst.lines:
            cols.append(("p_line", line.id, -line.s_max, line.s_max,
                         0.0, 0.0, False))
            cols.append(("q_line", line.id, -line.s_max, line.s_max,
                         0.0, 0.0, False))
        for d in inst.generator_specs:
            cols += [
                ("x_d", d.id, 0.0, 1.0, d.cost_coeffs[0], 0.0, True),
                ("y_d", d.id, 0.0, 1.0, 0.0, 0.0, True),
                ("w_d", d.id, 0.0, 1.0, 0.0, 0.0, True),
                ("phat_d", d.id, 0.0, d.p_max, d.cost_coeffs[1] * base,
                 2.0 * d.cost_coeffs[2] * base * base, False),
                ("p_d", d.id, 0.0, d.efficiency * d.p_max, 0.0, 0.0, False),
                ("q_d", d.id, min(d.q_min, 0.0), max(d.q_max, 0.0),
                 0.0, 0.0, False),
            ]
        for b in inst.battery_specs:
            # storage-side power is already limited through the SoC
            # recursion and the efficiency rows; these bounds restate the
            # implied box and never bind on their own
            cols += [
                ("phat_b", b.id, max(b.eta_ch * b.p_min, -b.max_energy / dt),
                 b.max_energy / dt, 0.0, 0.0, False),
                ("p_b", b.id, b.p_min, b.p_max, 0.0, 0.0, False),
                ("q_b", b.id, b.q_min, b.q_max, 0.0, 0.0, False),
                ("sc_b", b.id, 0.0, b.max_energy, 0.0, 0.0, False),
            ]
        if inst.grid_connected:
            cols.append(("grid_p", inst.slack_bus, -np.inf, np.inf,
                         0.0, 0.0, False))
            cols.append(("grid_q", inst.slack_bus, -np.inf, np.inf,
                         0.0, 0.0, False))
        kinds, owners, lb, ub, cost, quad, binary = zip(*cols)
        self.step_kinds, self.step_owners = list(kinds), list(owners)
        self.step_pos = {key: i for i, key in enumerate(zip(kinds, owners))}
        if len(self.step_pos) != len(kinds):
            # two lines under one id, say, would share their flow columns
            keys = list(zip(kinds, owners))
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise FormulationError(f"duplicate column {(*key, 0)}")
        self.step_data = np.array([lb, ub, cost, quad], dtype=float)
        self.step_binary = np.flatnonzero(binary)
        self.shed_pos = [[self.step_pos[(kind, bus.id)] for bus in inst.buses]
                         for kind in ("shed_p", "shed_q")]

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

    def _lay_out_network(self):
        """The network rows of one step, in row order: every bus's real
        and reactive balance, then every line's voltage drop, as a
        template over step positions."""
        pos = self.step_pos.__getitem__
        rows = []
        for bus_id, injections in self._injections():
            p_kinds, q_kinds, owners, signs = zip(*injections)
            rows.append(("balance_p", bus_id,
                         list(map(pos, zip(p_kinds, owners))), signs))
            rows.append(("balance_q", bus_id,
                         list(map(pos, zip(q_kinds, owners))), signs))
        for line in self.instance.lines:
            # v_to = v_from - 2 (r p + x q)
            rows.append(("volt_drop", line.id,
                         [pos(("v", line.to_bus)), pos(("v", line.from_bus)),
                          pos(("p_line", line.id)), pos(("q_line", line.id))],
                         (1.0, -1.0, 2.0 * line.r, 2.0 * line.x)))
        self.network_families = [row[0] for row in rows]
        self.network_owners = [row[1] for row in rows]
        self.network_template = _template([row[2:] for row in rows])

    def _lay_out_resources(self):
        """Per bus, at most its allowed number of batteries and of
        generators built; per battery, capacity only where it is built.
        A template over fixed positions."""
        inst = self.instance
        pos = self.fixed_pos
        at_bus = {bus.id: ([], []) for bus in inst.buses}
        for b in inst.battery_specs:
            at_bus[b.bus][0].append(pos[("z_b", b.id, 0)])
        for d in inst.generator_specs:
            at_bus[d.bus][1].append(pos[("z_d", d.id, 0)])
        labels, rows, caps = [], [], []
        for bus in inst.buses:
            for family, terms, cap in zip(("bat_count", "gen_count"),
                                          at_bus[bus.id],
                                          (bus.max_batteries,
                                           bus.max_generators)):
                if terms:
                    labels.append((family, bus.id, None))
                    rows.append((terms, [1.0] * len(terms)))
                    caps.append(float(cap))
        for b in inst.battery_specs:
            labels.append(("cap_if_built", b.id, None))
            rows.append(([pos[("s_b", b.id, 0)], pos[("z_b", b.id, 0)]],
                         [1.0, -b.max_power]))
            caps.append(0.0)
        self.resource_labels = labels
        self.resource_caps = np.array(caps, dtype=float)
        self.resource_template = _template(rows)


@lru_cache(maxsize=8)
def _layout(instance: NetworkInstance, dt: float) -> _Layout:
    """One layout per instance and step length: the stages and sweeps of
    a decomposition assemble the same instance again and again."""
    return _Layout(instance, dt)


class ModelBuilder:
    """Writes the columns, rows and cones of one time window, or of
    consecutive windows one after another, a constraint family at a time.

    Columns.  A window's columns follow the block layout of the module
    docstring.  The `layout` (a :class:`_Layout`, fixed by the instance
    and the step length) places a column of one step by `step_pos` and a
    fixed one, ``o + fixed_pos[(kind, owner, lag)]``, by its lag behind
    the window start.  Every row family takes its columns over the window
    from these places as one NumPy index array.

    Rows and cones.  A family is written as a column array and a
    coefficient per term position, plus its bounds.  The families are
    interleaved into the model's row order by stride: the network rows
    cycle through every bus balance and every voltage drop at each step,
    the commitment and battery rows through one owner's families at each
    step, owner after owner.  The families of one such cycle become one
    block of (row, column, coefficient) entry arrays and bounds
    (:meth:`_owner_rows`).  Families with few rows each (the network's,
    the resource limits) are templates in the layout, repeated over the
    window (:meth:`_from_template`).  :meth:`model` makes the constraint
    matrix from every block's entries in one CSR construction.

    Names.  Each window leaves a ``(first, start, end, owned)`` tuple,
    each row or ball block a ``(first, labels)`` pair (labels that repeat
    over the steps as a :class:`_Cycle`), which :meth:`model` hands to the
    model as they are.  `window` and `own_builds` describe the window
    being built; :meth:`begin_window` starts the next one.
    """

    def __init__(self, instance: NetworkInstance, loads: LoadProfile,
                 window, own_builds=True):
        _check_bus_order(instance, loads)
        self.instance = instance
        self.loads = loads
        try:
            self.layout = _layout(instance, loads.dt)
        except TypeError:       # an instance holding lists is no cache key
            self.layout = _Layout(instance, loads.dt)
        self.col_blocks = []         # (first, start, end, owned) per window
        self.n = 0                   # columns so far
        self.col_data = []           # rows lb, ub, q, p_diag per window
        self.binary_cols = []        # binary column indices per window
        self.m = 0                   # rows so far
        self.entries = []            # (row, col, coef) arrays per block
        self.row_lo = []             # bound arrays per row block
        self.row_hi = []
        self.row_blocks = []         # (first row, labels) per row block
        self.k = 0                   # balls so far
        self.cones = []              # (cols, radius, radius_col) per block
        self.cone_blocks = []        # (first ball, labels) per ball block
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

    def build_window(self):
        """Every constraint family of the current window, boundary pins
        not yet added."""
        self.build_columns()
        self.build_power_flow()
        self.build_resource_limits()
        self.build_unit_commitment()
        self.build_battery()
        return self

    # -- index arrays -------------------------------------------------------

    @property
    def steps(self):
        return self.window[1] - self.window[0]

    def _owner_series(self, kinds, ids):
        """For each kind, the (owners, steps) columns of that kind of
        every owner in `ids`, by the stride formula."""
        step_pos = self.layout.step_pos
        pos = [[step_pos[(kind, i)] for i in ids] for kind in kinds]
        return np.array(pos, dtype=np.int64)[:, :, None] + self.step_starts

    def _fixed_col(self, slot, lag):
        """The fixed column of `slot`'s kind and owner at `lag`."""
        key = (slot.kind, slot.owner, lag)
        return self.window_first + self.layout.fixed_pos[key]

    def _fixed_cols(self, kind, ids, lag=0):
        """(owners, 1) fixed columns of `kind` at `lag` for `ids`."""
        pos = [[self.layout.fixed_pos[(kind, i, lag)]] for i in ids]
        return self.window_first + np.array(pos, dtype=np.int64)

    def _lagged(self, series, kind, ids):
        """(owners, steps) `series` one step back; the window's first step
        reads the state imported at its start."""
        return np.concatenate([self._fixed_cols(kind, ids, 1),
                               series[:, :-1]], axis=1)

    def _history(self, series, kind, ids, depth):
        """(depth, owners, steps) columns of the last `depth` start (or
        stop) events up to each step, position-major: those inside the
        window in time order, then those before its start, read from the
        imported history."""
        steps = series.shape[1]
        imported = [[self.layout.fixed_pos[(kind, i, h)]
                     for h in range(depth - 1, 0, -1)] for i in ids]
        lookup = np.concatenate(
            [self.window_first + np.array(imported, dtype=np.int64)
             .reshape(len(ids), depth - 1), series], axis=1)
        # at step r the events at lookup[r:r + depth], rolled so that the
        # `before` imported ones come last
        r = np.arange(steps)
        before = np.maximum(depth - 1 - r, 0)
        at = (np.arange(depth)[:, None] + before) % depth + r
        return lookup[:, at].transpose(1, 0, 2)

    # -- row and cone blocks ----------------------------------------------

    @staticmethod
    def _from_template(template, size, first):
        """The entries of a layout template of `size` rows, repeated for
        each entry of the column array `first` (rep-major), its positions
        counted from that entry."""
        rows, pos, coefs = template
        first = np.reshape(first, (-1, 1))
        reps = np.arange(len(first))[:, None] * size
        return ((reps + rows).ravel(), (first + pos).ravel(),
                np.tile(coefs, len(first)))

    def _row_block(self, labels, lo, hi, entries):
        """Append one row per label with its bounds (numbers or one value
        per row), and the block's `entries`, (row, column, coefficient)
        arrays whose rows count from the block's first.  Returns the new
        rows' indices."""
        first = self.m
        rows, cols, vals = entries
        self.m += len(labels)
        self.row_blocks.append((first, labels))
        self.entries.append((first + rows, cols, vals))
        for side, bound in ((self.row_lo, lo), (self.row_hi, hi)):
            block = np.empty(len(labels))
            block[:] = bound
            side.append(block)
        return range(first, self.m)

    def _owner_rows(self, ids, families):
        """Rows that cycle through `families` at every step, owner after
        owner: row ``(o * steps + t) * P + f`` of the block is family f's
        row for owner o at step t.  A family is (name, cols, coefs, lo,
        hi): per term position, an (owners, steps) column array, -1 where
        an owner's rows lack that term, and a coefficient, one number or a
        list with one per owner; each bound is a number or a list with one
        per owner.  All families are made in one pass."""
        start = self.window[0]
        steps, owners = self.steps, len(ids)
        names, cols, coefs, lo, hi = zip(*families)
        width = len(names)
        family = np.repeat(np.arange(width), [len(c) for c in cols])
        cols = np.array(list(chain.from_iterable(cols)), dtype=np.int64)
        vals = np.array(_per_owner(chain.from_iterable(coefs), owners),
                        dtype=float)
        rows = np.arange(owners * steps).reshape(owners, steps) * width \
            + family[:, None, None]
        used = cols >= 0
        entries = (rows[used], cols[used],
                   np.broadcast_to(vals[:, :, None], cols.shape)[used])
        bounds = np.array([_per_owner(lo, owners), _per_owner(hi, owners)],
                          dtype=float)
        lo, hi = bounds.transpose(0, 2, 1).repeat(steps, axis=1).reshape(2, -1)
        self._row_block(_Cycle(names, [i for i in ids for _ in names],
                               start, steps), lo, hi, entries)

    def _cone_block(self, labels, p, q, radius, radius_col):
        """One ball per label: the norm of columns `p` and `q` (arrays
        with one entry per label) within `radius`, or within the value of
        column `radius_col` where that is not -1."""
        self.cones.append((np.stack([p, q], axis=1), radius, radius_col))
        self.cone_blocks.append((self.k, labels))
        self.k += len(labels)

    # -- builders, one constraint family each -----------------------------

    def build_columns(self):
        lay = self.layout
        start, end = self.window
        steps = end - start
        owned = self.own_builds
        first = self.n
        width = len(lay.step_kinds)
        self.window_first = first
        self.step_starts = first + lay.fixed + width * np.arange(steps)
        self.col_blocks.append((first, int(start), int(end), owned))
        self.n += lay.fixed + width * steps
        data = np.tile(lay.step_data, steps)
        for load, pos in zip((self.loads.p, self.loads.q), lay.shed_pos):
            load = load[start:end]
            data[1].reshape(steps, width)[:, pos] = np.where(load < 0.0, 0.0,
                                                              load)
        self.col_data.append(np.concatenate([lay.fixed_data[owned], data],
                                            axis=1))
        self.binary_cols.append(np.concatenate([
            first + np.array(lay.fixed_binary if owned else [],
                             dtype=np.int64),
            (self.step_starts[:, None] + lay.step_binary).ravel()]))

    def build_power_flow(self):
        lay = self.layout
        start, end = self.window
        size = len(lay.network_families)
        demand = np.zeros((self.steps, size))
        buses = len(self.instance.buses)
        demand[:, 0:2 * buses:2] = self.loads.p[start:end]
        demand[:, 1:2 * buses:2] = self.loads.q[start:end]
        self._row_block(_Cycle(lay.network_families, lay.network_owners,
                               start, self.steps),
                        demand.ravel(), demand.ravel(),
                        self._from_template(lay.network_template, size,
                                            self.step_starts))

        lines = self.instance.lines
        ids = [line.id for line in lines]
        p, q = self._owner_series(("p_line", "q_line"), ids)
        self._cone_block(_Cycle(["thermal"] * len(ids), ids, start,
                                self.steps),
                         p.T.ravel(), q.T.ravel(),
                         np.tile([line.s_max for line in lines], self.steps),
                         np.full(p.size, -1))

    def build_resource_limits(self):
        lay = self.layout
        self._row_block(lay.resource_labels, -np.inf, lay.resource_caps,
                        self._from_template(lay.resource_template,
                                            len(lay.resource_labels),
                                            self.window_first))

    def build_unit_commitment(self):
        gens = self.instance.generator_specs
        if not gens:
            return
        inf = np.inf
        steps = self.steps
        ids = [d.id for d in gens]
        x, y, w, phat, p, q = self._owner_series(
            ("x_d", "y_d", "w_d", "phat_d", "p_d", "q_d"), ids)
        z = np.repeat(self._fixed_cols("z_d", ids), steps, axis=1)
        x_prev = self._lagged(x, "x", ids)
        p_prev = self._lagged(p, "p", ids)
        history = {}
        for kind, series, depths, x_coef in (
                ("y", y, [d.min_up for d in gens], -1.0),
                ("w", w, [d.min_down for d in gens], 1.0)):
            # the last `depth` events of each generator, one pass per depth
            events = np.full((max(depths), len(gens), steps), -1)
            for depth in dict.fromkeys(depths):
                members = [g for g, dep in enumerate(depths) if dep == depth]
                events[:depth, members] = self._history(
                    series[members], kind, [ids[g] for g in members], depth)
            history[kind] = ([*events, x], (1.0,) * len(events) + (x_coef,))
        self._owner_rows(ids, [
            ("committed_if_built", [x, z], (1.0, -1.0), -inf, 0.0),
            ("start_stop", [x, x_prev, y, w], (1.0, -1.0, -1.0, 1.0),
             0.0, 0.0),
            ("start_xor_stop", [y, w], (1.0, 1.0), -inf, 1.0),
            ("p_max_if_on", [phat, x], (1.0, [-d.p_max for d in gens]),
             -inf, 0.0),
            ("p_min_if_on", [phat, x], (-1.0, [d.p_min for d in gens]),
             -inf, 0.0),
            ("q_max_if_on", [q, x], (1.0, [-d.q_max for d in gens]),
             -inf, 0.0),
            ("q_min_if_on", [q, x], (-1.0, [d.q_min for d in gens]),
             -inf, 0.0),
            ("delivered", [p, phat], (1.0, [-d.efficiency for d in gens]),
             0.0, 0.0),
            ("ramp_up", [p, p_prev], (1.0, -1.0),
             -inf, [d.ramp_up for d in gens]),
            ("ramp_down", [p, p_prev], (-1.0, 1.0),
             -inf, [d.ramp_down for d in gens]),
            ("min_up", *history["y"], -inf, 0.0),
            ("min_down", *history["w"], -inf, 1.0),
        ])

    def build_battery(self):
        bats = self.instance.battery_specs
        if not bats:
            return
        inf = np.inf
        steps = self.steps
        ids = [b.id for b in bats]
        phat, p, q, sc = self._owner_series(("phat_b", "p_b", "q_b", "sc_b"),
                                            ids)
        z = np.repeat(self._fixed_cols("z_b", ids), steps, axis=1)
        s = np.repeat(self._fixed_cols("s_b", ids), steps, axis=1)
        self._cone_block(_Cycle(["bat_rating"], ids, self.window[0], steps),
                         p.ravel(), q.ravel(), np.zeros(p.size), s.ravel())
        self._owner_rows(ids, [
            ("soc_step", [sc, self._lagged(sc, "sc", ids), phat],
             (1.0, -1.0, self.loads.dt), 0.0, 0.0),
            ("soc_if_built", [sc, z], (1.0, [-b.max_energy for b in bats]),
             -inf, 0.0),
            ("eff_dis", [p, phat], (1.0, [-b.eta_dis for b in bats]),
             -inf, 0.0),
            ("eff_ch", [p, phat], (1.0, [-1.0 / b.eta_ch for b in bats]),
             -inf, 0.0),
        ])

    # -- boundary and coupling --------------------------------------------

    def _slot_init_col(self, slot: Slot):
        """The column importing `slot` at the window start; None for a
        build decision this window owns."""
        if slot.kind in BUILD_KINDS:
            return None if self.own_builds else self._fixed_col(slot, 0)
        return self._fixed_col(slot, slot.hist if slot.kind in ("y", "w")
                               else 1)

    def _slot_terminal_col(self, slot: Slot):
        """The column handing `slot` on at the window end."""
        start, end = self.window
        if slot.kind in BUILD_KINDS:
            return self._fixed_col(slot, 0)
        t = end - 1 if slot.kind in ("sc", "x", "p") else end - slot.hist
        if t < start:
            # window shorter than the history depth: the value passes through
            return self._fixed_col(slot, start - t)
        kind = {"sc": "sc_b", "x": "x_d", "p": "p_d", "y": "y_d", "w": "w_d"}
        return int(self.step_starts[t - start]) \
            + self.layout.step_pos[(kind[slot.kind], slot.owner)]

    def pin_boundary(self, boundary: np.ndarray):
        """Equality rows fixing the imported state; their duals are the
        boundary prices."""
        slots = self.layout.slots
        if boundary.shape != (len(slots),):
            raise FormulationError(
                f"boundary has {boundary.shape[0]} entries, "
                f"expected {len(slots)}")
        init = [self._slot_init_col(slot) for slot in slots]
        pinned = [k for k, j in enumerate(init) if j is not None]
        rows = iter(self._row_block(
            [("couple", slots[k].kind, slots[k].owner, slots[k].hist)
             for k in pinned],
            boundary[pinned], boundary[pinned],
            (np.arange(len(pinned)),
             np.array([init[k] for k in pinned], dtype=np.int64),
             np.ones(len(pinned)))))
        return [None if j is None else next(rows) for j in init]

    # -- assembly ---------------------------------------------------------

    def finish(self, boundary=None, duals_in=None) -> MdopModel:
        slots = self.layout.slots
        if boundary is None:
            boundary = self.layout.start_boundary
        pins = self.pin_boundary(np.asarray(boundary, dtype=float))
        terminal = tuple(self._slot_terminal_col(s) for s in slots)
        if duals_in is not None:
            duals_in = np.asarray(duals_in, dtype=float)
            if duals_in.shape != (len(slots),):
                raise FormulationError(
                    f"price vector has {duals_in.shape[0]} entries, "
                    f"expected {len(slots)}")
        meta = CouplingMeta(slots=slots, terminal_cols=terminal,
                            init_pin_rows=tuple(pins))
        model = self.model(meta, self.window)
        if duals_in is not None:
            # the terminal state's cost-to-go, one slot at a time
            for gamma, j in zip(duals_in, terminal):
                model.q[j] += float(gamma)
        return model

    def model(self, coupling: CouplingMeta, window) -> MdopModel:
        """Freeze the accumulated columns, rows and cones; the constraint
        matrix is made here, in one CSR construction from every block's
        entries, and the balls' arrays in one concatenation."""
        lb, ub, q, p_diag = np.concatenate(self.col_data, axis=1)
        n = self.n
        rows, cols, vals = map(np.concatenate, zip(*self.entries))
        balls, radius, radius_col = map(np.concatenate, zip(*self.cones))
        return MdopModel(
            n=n, p_diag=p_diag, q=q, const=self.const,
            a=sp.csr_matrix((vals, (rows, cols)), shape=(self.m, n)),
            row_lo=np.concatenate(self.row_lo),
            row_hi=np.concatenate(self.row_hi),
            cones=Cones(balls.ravel(), np.arange(len(balls)).repeat(2),
                        radius, radius_col), lb=lb, ub=ub,
            binaries=frozenset(np.concatenate(self.binary_cols).tolist()),
            coupling=coupling, window=window, dt=self.loads.dt,
            layout=self.layout, col_blocks=tuple(self.col_blocks),
            row_blocks=tuple(self.row_blocks),
            cone_blocks=tuple(self.cone_blocks))


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
            kind, owner, time = model.describe_col(j)
            raise FormulationError(
                f"missing value for binary {kind}/{owner}/{time}")
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
    pins0 = builder.pin_boundary(builder.layout.start_boundary)
    # each window's slot columns, read while it is the current window
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
        seam_rows.append(tuple(builder._row_block(
            [("seam", s, slot.kind, slot.owner, slot.hist) for slot in slots],
            0.0, 0.0,
            (np.tile(np.arange(len(slots)), 2),
             np.array(init_cols[s] + term_cols[s - 1], dtype=np.int64),
             np.repeat([1.0, -1.0], len(slots))))))

    meta = CouplingMeta(slots=slots, terminal_cols=tuple(term_cols[-1]),
                        init_pin_rows=tuple(pins0))
    model = builder.model(meta, (0, loads.horizon))
    return SeamedModel(model=model, windows=tuple(windows),
                       seam_rows=tuple(seam_rows))


# ---------------------------------------------------------------------------
# operating plans: extraction, costing, physics check

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
    """The plan at `x`: a series per step column, read from each window's
    ``(steps, C)`` block of `x`, and the builds at the fixed columns of
    the window that owns them.  The plan's arrays are copies."""
    start, end = model.window
    lay = model.layout
    x = np.asarray(x, dtype=float)
    width = len(lay.step_kinds)
    builds, blocks = {}, []
    for first, w_start, w_end, owned in model.col_blocks:
        o, steps = first + lay.fixed, w_end - w_start
        blocks.append(x[o:o + steps * width].reshape(steps, width).T)
        if owned:
            builds.update(((kind, owner), float(x[first + i]))
                          for i, (kind, owner, lag) in
                          enumerate(lay.fixed_keys[True]) if lag is None)
    # one (C, horizon) copy, a row per series
    series = dict(zip(zip(lay.step_kinds, lay.step_owners),
                      np.concatenate(blocks, axis=1)))
    return OperatingPlan(start=start, horizon=end - start, dt=model.dt,
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
    row builders: balances, voltage drops, ratings, battery power limits,
    commitment logic, ramping, up/down times, SoC recursion, and the
    efficiency envelope.

    The plan must cover [0, T) for the given loads.
    """
    _check_bus_order(instance, loads)
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
        check("p_range", b.id, None,
              max(float((p - b.p_max).max(initial=0.0)),
                  float((b.p_min - p).max(initial=0.0))))
        check("q_range", b.id, None,
              max(float((q - b.q_max).max(initial=0.0)),
                  float((b.q_min - q).max(initial=0.0))))
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
    out = [f"ncols {model.n}", f"const {float(model.const)!r}"]
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
        body = " ".join(f"{j}:{c!r}" for j, c in coefs.items())
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
