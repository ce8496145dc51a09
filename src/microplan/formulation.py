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
Every window is written from its length's template, so a stage model
from :func:`assemble` and the matching block of the seam-joined model
from :func:`build_seamed` agree column for column, row for row and cone
for cone.  A stage model lists its window's rows, then the boundary
pins.  The seam-joined model lists window 0, its horizon-start pins,
each later window, then one seam row per coupling slot at every
interior boundary, the pins and seams written alike.  So a stage's
block is found by offsets alone, its pins standing in for seams.

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

with ``pos`` its place in the step.  The rows and balls follow a layout
fixed by the instance too, so the layout holds one term table for the
rows and one for the balls: per row (or ball) family and owner, a
template saying where its row is at each step, or at the first step
only, and per term, its template, its place in the window's column
grid and its coefficient.  A term of lag L at step t reads step
``t - L``, or, before the window has L steps behind it, the column
importing the state of ``L - t`` steps before the window start.  So a
window's rows are read from the table at its steps by one gather over
(term, step), whatever its length, and the boundary's import and
hand-on columns are read from the same grid.

Two windows of one length write the same entries, counted from their
first column, row, entry and ball.  So the tables are read once per
length, at offset 0, into a read-only template kept by the layout for
as long as it lives; it holds the column data, row bounds, rows as CSR
arrays, balls, binaries, block starts and slot columns of a window that
imports the build decisions.  Every window is then written as offset
copies of its length's template, straight into CSR arrays sized for the
whole model, and only what its data and place set is its own: the
balance rows' bounds and the shed columns' upper bounds from its loads,
the labels of its steps, and the build decisions' costs and binaries
where it owns them.  The pins and seams follow as rows of their own.
The matrix stays in that form from the builder to the engine (the
approach of Hofmann, "Linopy: Linear optimization with n-dimensional
labeled variables", JOSS 2023): ``to_convex`` hands it on as it is, and
``row_coefs`` reads one row's ``{col: coef}`` from it when asked.

A built model holds no Python object per column, row or ball either.
It keeps the layout, a ``(first, start, end, owned)`` tuple per window
and a ``(first, names, owners, start, steps)`` tuple per row or ball
block, read by :func:`_label`: a window's blocks hold the layout's
label table as it is, with the window's start and steps, and a block of
pins or seams its labels as `owners`, `names` None.
:meth:`MdopModel.col` finds a column by the formula above, and
``describe_col``, ``describe_row`` and ``describe_cone`` name a column,
row or ball when asked; nothing is named before.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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

# the step column kind whose state each imported state kind carries
_STATE_KINDS = {"sc": "sc_b", "x": "x_d", "p": "p_d", "y": "y_d", "w": "w_d"}

# the column grid's entry where a step position imports no state; it is
# negative, so it cannot pass for a column
_NO_IMPORT = -(1 << 62)

# the largest index a constraint matrix holds in 32-bit index arrays
_INT32_MAX = np.iinfo(np.int32).max


class FormulationError(ValueError):
    pass


def _check_bus_order(buses: tuple, loads: LoadProfile):
    """Load column j must be bus j of the instance, `buses` in order."""
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


def _label(names, owners, start, steps, i):
    """Item i of a row (or ball) block: ``owners[i]`` if `names` is None;
    otherwise the block cycles through the families `names` at each of
    `steps` steps from `start`, group after group, and item ``(g * steps
    + t) * F + f`` is ``(names[f], owners[g * F + f], start + t)``."""
    if names is None:
        return owners[i]
    width = len(names)
    group, rest = divmod(i, steps * width)
    t, f = divmod(rest, width)
    return names[f], owners[group * width + f], start + t


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

    `a` is the constraint matrix in canonical CSR form, written in that
    order by :class:`ModelBuilder`, and the model's only copy of its
    rows.
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
    row_blocks: tuple            # (first, names, owners, start, steps)
                                 # per row block, read by _label
    cone_blocks: tuple           # the same per ball block

    @property
    def row_coefs(self) -> RowCoefs:
        """Each row's ``{col: coef}``, read from `a` one row at a time."""
        return RowCoefs(self.a)

    def to_convex(self) -> ConvexProgram:
        """The continuous relaxation: `binaries` is not part of it."""
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
        (_, *block), i = _block_of(self.row_blocks, i, self.a.shape[0])
        return _label(*block, i)

    def describe_cone(self, k) -> tuple:
        """The label (family, owner, time) of ball k."""
        (_, *block), k = _block_of(self.cone_blocks, k, len(self.cones))
        return _label(*block, k)

    def objective_value(self, x) -> float:
        return 0.5 * float(x @ (self.p_diag * x)) + float(self.q @ x) + self.const


class _Table(NamedTuple):
    """Row templates and their terms.  Template r has a row at step t of
    a window of `steps` steps, its row ``a * steps + c + s * t`` counted
    from the window's first row, at every step if `repeats[r]` and at
    step 0 only otherwise; `at` holds a, c and s.  Term k belongs to
    template `row[k]`, reads its column at `off[k]` of the window's
    column grid at step 0 (:meth:`_Layout.offset`), and has the
    coefficient `coef[k]`.  A table of balls holds a ball per template,
    and its two columns as its terms."""
    at: np.ndarray
    repeats: np.ndarray
    row: np.ndarray
    off: np.ndarray
    coef: np.ndarray

    def read(self, steps, grid, width):
        """Each template's row at each of `steps` steps, shaped
        (templates, steps), a row at step 0 only repeated; and each
        term's row, column and coefficient at every step where its
        template has a row, gathered over (term, step) from the window's
        flat column `grid` (:meth:`_Layout.grid`, rows `width` apart)."""
        t = np.arange(steps)
        a, c, s = self.at
        rows = (a * steps + c)[:, None] + s[:, None] * t
        keep = self.repeats[self.row][:, None] | (t == 0)
        return rows, (rows[self.row][keep],
                      grid[self.off[:, None] + width * t][keep],
                      np.broadcast_to(self.coef[:, None], keep.shape)[keep])


class _Template(NamedTuple):
    """A window of one length, written once at offset 0: every array is
    counted from the window's first column, row, entry and ball.

    `cols` holds the columns' lb, ub, q and p_diag, the fixed ones those
    of a window importing the build decisions, and `binary` the binary
    step columns.  `bounds` holds the rows' lo and hi, and `indptr`,
    `indices` and `data` their entries in CSR order (`indptr` without
    its closing entry).  `balls` holds each ball's two columns, `radius`
    its radius and `radius_col` its radius column, -1 where the radius
    is a number.  `init` and `term` are the columns that import and hand
    on each coupling slot.

    What the window's data and place set is left to the builder: the
    build decisions' costs and binaries where it owns them, its boundary
    pins, and its loads.  At each step, each column of the loads (every
    bus's real load, then its reactive) is the ub of one shed column, in
    `shed_cols`, and the lo and hi of one balance row, in `load_rows`,
    both shaped (steps, 2 * buses)."""
    cols: np.ndarray
    binary: np.ndarray
    bounds: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    balls: np.ndarray
    radius: np.ndarray
    radius_col: np.ndarray
    init: np.ndarray
    term: np.ndarray
    shed_cols: np.ndarray
    load_rows: np.ndarray


class _Layout:
    """The instance's bus ids in order (`bus_ids`), the column layout of a
    window and the term tables of its rows and balls (:class:`_Table`),
    which depend on the instance and the step length alone (module
    docstring, "Block layout"); the slots a builder's first window pins
    to the boundary, and their row labels, per ownership of the build
    decisions; and one :class:`_Template` per window length.
    :meth:`template` makes a length's template on first use, the tables
    read at the window's steps (:meth:`_expand`), and keeps it as long
    as the layout.  Shared by every builder of the same instance, so
    read-only, the tables and templates too."""

    def __init__(self, instance: NetworkInstance, dt: float):
        self.instance = instance
        self.dt = dt
        self.bus_ids = tuple(b.id for b in instance.buses)
        self.slots = coupling_slots(instance)
        self.start_boundary = horizon_start_boundary(instance)
        self._lay_out_fixed()
        self._lay_out_step()
        self._lay_out_imports()
        self._lay_out_rows()
        self._lay_out_balls()
        self._lay_out_slots()
        for arr in (self.start_boundary, self.step_data, self.step_binary,
                    self.fixed_binary, self.imports, *self.fixed_data.values(),
                    self.shed_pos, self.slot_init, self.slot_term,
                    *self.pinned.values(), *self.row_table, self.bounds,
                    self.loaded, *self.ball_table, self.radius,
                    self.radius_col):
            arr.flags.writeable = False
        self.templates = {}          # steps -> _Template

    def template(self, steps) -> _Template:
        """The template of a window of `steps` steps."""
        template = self.templates.get(steps)
        if template is None:
            template = self.templates[steps] = self._expand(steps)
        return template

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
        self.lags = max(lags, default=0)
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
        self.fixed_binary = np.array([i for i, k in enumerate(kinds)
                                      if k in ("z_b", "z_d")], dtype=np.int64)

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
        # in the column order of the loads: every bus's real, then reactive
        self.shed_pos = np.array([self.step_pos[(kind, bus.id)]
                                  for kind in ("shed_p", "shed_q")
                                  for bus in inst.buses], dtype=np.int64)

    def _lay_out_imports(self):
        """The column grid of a window (:meth:`grid`) has ``lags + steps``
        rows of ``width = F + C`` entries, counted from the window's first
        column.  Row ``lags + t`` holds the fixed columns, then step t's.
        Row ``lags - j`` holds the fixed columns, then at each step
        position the column importing that position's state of j steps
        before the window start; `imports` is that part of those rows,
        `_NO_IMPORT` where a position imports no state."""
        self.width = self.fixed + len(self.step_kinds)
        imports = np.full((self.lags, len(self.step_kinds)), _NO_IMPORT,
                          dtype=np.int64)
        for (kind, owner, lag), i in self.fixed_pos.items():
            if lag:
                imports[self.lags - lag,
                        self.step_pos[(_STATE_KINDS[kind], owner)]] = i
        self.imports = imports

    def grid(self, steps):
        """The column grid, flat, of a window of `steps` steps, counted
        from its first column."""
        lags, fixed, size = self.lags, self.fixed, len(self.step_kinds)
        grid = np.empty((lags + steps, self.width), dtype=np.int64)
        grid[:, :fixed] = np.arange(fixed)
        grid[:lags, fixed:] = self.imports
        grid[lags:, fixed:] = np.arange(fixed, fixed + steps * size
                                        ).reshape(steps, size)
        return grid.ravel()

    def offset(self, kind, owner, lag=0):
        """Where a term of column kind `kind` and `owner` reads its
        column in the flat grid at step 0.  With lag L, at step t it
        reads `width * t` further on, at row ``lags + t - L``: step
        ``t - L`` when ``t >= L``, and the state imported from ``L - t``
        steps before the window start otherwise.  A build decision reads
        the same column at every row."""
        if kind in BUILD_KINDS:
            return self.lags * self.width + self.fixed_pos[(kind, owner, 0)]
        return (self.lags - lag) * self.width + self.fixed \
            + self.step_pos[(kind, owner)]

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

    def _network(self):
        """At each step, every bus's real and reactive balance, then
        every line's voltage drop, as one group; and per column of the
        loads, the place in the group of the balance it bounds."""
        inst = self.instance
        rows, loaded = [], np.empty(2 * len(inst.buses), dtype=np.int64)
        for j, (bus_id, injections) in enumerate(self._injections()):
            for side, family in enumerate(("balance_p", "balance_q")):
                loaded[side * len(inst.buses) + j] = len(rows)
                rows.append((family, bus_id,
                             [(kinds[side], owner, 0, sign)
                              for *kinds, owner, sign in injections],
                             0.0, 0.0))
        for line in inst.lines:
            # v_to = v_from - 2 (r p + x q)
            rows.append(("volt_drop", line.id, [
                ("v", line.to_bus, 0, 1.0), ("v", line.from_bus, 0, -1.0),
                ("p_line", line.id, 0, 2.0 * line.r),
                ("q_line", line.id, 0, 2.0 * line.x)], 0.0, 0.0))
        return [rows], loaded

    def _resource_limits(self):
        """Per bus, at most its allowed number of batteries and of
        generators built; per battery, capacity only where it is built."""
        inst = self.instance
        at_bus = {bus.id: ([], []) for bus in inst.buses}
        for b in inst.battery_specs:
            at_bus[b.bus][0].append(("z_b", b.id, 0, 1.0))
        for d in inst.generator_specs:
            at_bus[d.bus][1].append(("z_d", d.id, 0, 1.0))
        rows = []
        for bus in inst.buses:
            for family, terms, cap in zip(("bat_count", "gen_count"),
                                          at_bus[bus.id],
                                          (bus.max_batteries,
                                           bus.max_generators)):
                if terms:
                    rows.append((family, bus.id, terms, -np.inf, cap))
        for b in inst.battery_specs:
            rows.append(("cap_if_built", b.id, [
                ("s_b", b.id, 0, 1.0), ("z_b", b.id, 0, -b.max_power)],
                -np.inf, 0.0))
        return [rows] if rows else []

    @staticmethod
    def _commitment(d):
        """A generator's 12 commitment families at one step."""
        inf, i = np.inf, d.id
        x, y, w = ("x_d", i, 0, 1.0), ("y_d", i, 0, 1.0), ("w_d", i, 0, 1.0)
        return [
            ("committed_if_built", i, [x, ("z_d", i, 0, -1.0)], -inf, 0.0),
            ("start_stop", i, [x, ("x_d", i, 1, -1.0), ("y_d", i, 0, -1.0), w],
             0.0, 0.0),
            ("start_xor_stop", i, [y, w], -inf, 1.0),
            ("p_max_if_on", i, [("phat_d", i, 0, 1.0), ("x_d", i, 0, -d.p_max)],
             -inf, 0.0),
            ("p_min_if_on", i, [("phat_d", i, 0, -1.0), ("x_d", i, 0, d.p_min)],
             -inf, 0.0),
            ("q_max_if_on", i, [("q_d", i, 0, 1.0), ("x_d", i, 0, -d.q_max)],
             -inf, 0.0),
            ("q_min_if_on", i, [("q_d", i, 0, -1.0), ("x_d", i, 0, d.q_min)],
             -inf, 0.0),
            ("delivered", i, [("p_d", i, 0, 1.0),
                              ("phat_d", i, 0, -d.efficiency)], 0.0, 0.0),
            ("ramp_up", i, [("p_d", i, 0, 1.0), ("p_d", i, 1, -1.0)],
             -inf, d.ramp_up),
            ("ramp_down", i, [("p_d", i, 0, -1.0), ("p_d", i, 1, 1.0)],
             -inf, d.ramp_down),
            # the starts (stops) of the last min_up (min_down) steps
            ("min_up", i, [("y_d", i, lag, 1.0) for lag in range(d.min_up)]
             + [("x_d", i, 0, -1.0)], -inf, 0.0),
            ("min_down", i, [("w_d", i, lag, 1.0)
                             for lag in range(d.min_down)] + [x], -inf, 1.0),
        ]

    def _storage(self, b):
        """A battery's 4 families at one step."""
        inf, i = np.inf, b.id
        return [
            ("soc_step", i, [("sc_b", i, 0, 1.0), ("sc_b", i, 1, -1.0),
                             ("phat_b", i, 0, self.dt)], 0.0, 0.0),
            ("soc_if_built", i, [("sc_b", i, 0, 1.0),
                                 ("z_b", i, 0, -b.max_energy)], -inf, 0.0),
            ("eff_dis", i, [("p_b", i, 0, 1.0), ("phat_b", i, 0, -b.eta_dis)],
             -inf, 0.0),
            ("eff_ch", i, [("p_b", i, 0, 1.0),
                           ("phat_b", i, 0, -1.0 / b.eta_ch)], -inf, 0.0),
        ]

    def _lay_out(self, blocks):
        """The :class:`_Table` of `blocks` of (groups, repeats), in order,
        each group a list of (name, owner, terms, *values) families, as
        many in every group of a block: group after group, a group's rows
        (or balls) cycle through its families at each step, or, unless
        `repeats`, hold once.  Returns the table, each template's values,
        each block's ``(per_step, once, names, owners)`` labels, `names`
        None for rows once (in a window of `steps` steps, the block's first
        row is ``per_step * steps + once``), and the count of rows at each
        step and once."""
        per_step = once = 0
        templates, terms, values, labels = [], [], [], []
        for groups, repeats in blocks:
            if not groups:
                continue
            width = len(groups[0])
            families = [f for group in groups for f in group]
            labels.append((per_step, once, [f[0] for f in groups[0]],
                           [f[1] for f in families]) if repeats
                          else (per_step, once, None,
                                [(f[0], f[1], None) for f in families]))
            for g, group in enumerate(groups):
                for f, (_, _, family_terms, *family_values) in enumerate(group):
                    terms += [(len(templates), self.offset(kind, owner, lag),
                               coef) for kind, owner, lag, coef in family_terms]
                    templates.append((per_step + g * width, once + f, width,
                                      True) if repeats else
                                     (per_step, once + g * width + f, 0, False))
                    values.append(family_values)
            if repeats:
                per_step += len(families)
            else:
                once += len(families)
        a, c, s, repeats = zip(*templates) if templates else [()] * 4
        row, off, coef = zip(*terms) if terms else [()] * 3
        table = _Table(np.array([a, c, s], dtype=np.int64).reshape(3, -1),
                       np.array(repeats, dtype=bool),
                       np.array(row, dtype=np.int64),
                       np.array(off, dtype=np.int64),
                       np.array(coef, dtype=float))
        return table, values, labels, (per_step, once)

    def _lay_out_rows(self):
        """The row table of a window, in row order: the network rows at
        each step; the resource limits, once; then, owner after owner and
        at each step, a generator's commitment families and a battery's.
        `bounds` holds each row template's lo and hi, `loaded` the
        template of the balance that each column of the loads bounds (the
        network's templates come first), and `rows` counts a window's
        rows at each step and once."""
        inst = self.instance
        network, self.loaded = self._network()
        self.row_table, bounds, self.row_labels, self.rows = self._lay_out([
            (network, True), (self._resource_limits(), False),
            ([self._commitment(d) for d in inst.generator_specs], True),
            ([self._storage(b) for b in inst.battery_specs], True)])
        self.bounds = np.array(bounds, dtype=float).reshape(-1, 2).T

    def _lay_out_balls(self):
        """The ball table of a window, in ball order: at each step every
        line's rating; then, battery after battery and at each step, its
        power within its capacity column.  `radius` holds each ball
        template's radius, and `radius_col` the fixed column whose value
        is its radius, -1 where none."""
        inst = self.instance
        self.ball_table, values, self.ball_labels, _ = self._lay_out([
            ([[("thermal", line.id, [("p_line", line.id, 0, 1.0),
                                     ("q_line", line.id, 0, 1.0)],
                line.s_max, -1) for line in inst.lines]], True),
            ([[("bat_rating", b.id, [("p_b", b.id, 0, 1.0),
                                     ("q_b", b.id, 0, 1.0)],
                0.0, self.fixed_pos[("s_b", b.id, 0)])]
              for b in inst.battery_specs], True)])
        radius, radius_col = zip(*values) if values else [()] * 2
        self.radius = np.array(radius, dtype=float)
        self.radius_col = np.array(radius_col, dtype=np.int64)

    def _lay_out_slots(self):
        """Where each coupling slot's columns are in the grid: a state
        slot of lookback `back` (its `hist`, at least 1) is imported at
        step 0 with lag `back` and handed on at the last step with lag
        ``back - 1``; a build slot reads its build column at both ends.
        A builder's first window pins every slot to the boundary but the
        builds it owns: `pinned[owned]` holds those slots, `pin_labels`
        their rows' labels."""
        init, term = [], []
        for slot in self.slots:
            if slot.kind in BUILD_KINDS:
                init.append(self.offset(slot.kind, slot.owner))
                term.append(init[-1])
            else:
                kind, back = _STATE_KINDS[slot.kind], max(slot.hist, 1)
                init.append(self.offset(kind, slot.owner, back))
                term.append(self.offset(kind, slot.owner, back - 1))
        self.slot_init = np.array(init, dtype=np.int64)
        self.slot_term = np.array(term, dtype=np.int64)
        self.pinned = {owned: np.flatnonzero(
            [not (owned and slot.kind in BUILD_KINDS) for slot in self.slots])
            for owned in (True, False)}
        self.pin_labels = {owned: tuple(
            ("couple", self.slots[i].kind, self.slots[i].owner,
             self.slots[i].hist) for i in pinned.tolist())
            for owned, pinned in self.pinned.items()}

    def _expand(self, steps) -> _Template:
        """Every column, row and ball of a window of `steps` steps that
        imports the build decisions, at offset 0: the row and ball tables
        read at the window's steps (:meth:`_Table.read`), the rows'
        entries made into one CSR matrix, and the columns that import and
        hand on each coupling slot, read from the window's column grid
        (:meth:`grid`)."""
        fixed, size = self.fixed, len(self.step_kinds)
        n = fixed + size * steps
        m = self.rows[0] * steps + self.rows[1]

        cols = np.empty((4, n))
        cols[:, :fixed] = self.fixed_data[False]
        cols[:, fixed:].reshape(4, steps, size)[...] = self.step_data[:, None]
        at_step = fixed + size * np.arange(steps)[:, None]

        grid = self.grid(steps)
        rows, (row, col, coef) = self.row_table.read(steps, grid, self.width)
        bounds = np.empty((2, m))
        bounds[:, rows] = self.bounds[:, :, None]
        # no row holds two terms on one column, so no entries are summed
        a = sp.csr_matrix((coef, (row, col)), shape=(m, n))

        at, (ball, ball_col, _) = self.ball_table.read(steps, grid,
                                                       self.width)
        balls = ball_col[np.argsort(ball, kind="stable")].reshape(-1, 2)
        radius = np.empty(len(balls))
        radius[at] = self.radius[:, None]
        radius_col = np.empty(len(balls), dtype=np.int64)
        radius_col[at] = self.radius_col[:, None]

        template = _Template(
            cols, (self.step_binary + at_step).ravel(), bounds,
            a.indptr[:-1], a.indices, a.data, balls, radius, radius_col,
            grid[self.slot_init],
            grid[self.slot_term + self.width * (steps - 1)],
            self.shed_pos + at_step, rows.T[:, self.loaded])
        for arr in template:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return template


@lru_cache(maxsize=8)
def _layout(instance: NetworkInstance, dt: float) -> _Layout:
    """One layout per instance and step length: the stages and sweeps of
    a decomposition assemble the same instance again and again."""
    return _Layout(instance, dt)


class ModelBuilder:
    """Writes the columns, rows and balls of consecutive time windows,
    each window in one pass, into arrays sized in advance for the whole
    model: the windows' columns and balls in order, and as rows the
    first window's, its boundary pins, each later window's, then one
    seam row per coupling slot at each later window's start.

    Columns.  A window's columns follow the block layout of the module
    docstring.  The `layout` (a :class:`_Layout`, fixed by the instance
    and the step length) places a column of one step by `step_pos` and a
    fixed one by `fixed_pos[(kind, owner, lag)]`, its lag behind the
    window start.

    Windows.  A window's template (:class:`_Template`) is the layout's
    term tables read at the window's steps, made once per length (module
    docstring, "Block layout").  :meth:`_window` writes every window as
    offset copies of its template's CSR arrays, columns and balls, in
    the model's own index type, then what its loads, start and ownership
    of the builds set; :meth:`_row_block` writes the boundary pins and
    the seams.  :meth:`finish` wraps the arrays as they are: the rows
    need no sort and the windows no concatenation.

    Names.  Each window leaves a ``(first, start, end, owned)`` tuple,
    and each row or ball block a ``(first, names, owners, start, steps)``
    tuple, a window's read from the layout's `row_labels` and
    `ball_labels` at its first row and ball, start and steps, which
    :meth:`finish` hands to the model as they are.
    """

    def __init__(self, instance: NetworkInstance, loads: LoadProfile,
                 windows, own_builds=True):
        """`windows` in time order; the first owns the build decisions
        if `own_builds`, the later ones import them."""
        self.layout = lay = _layout(instance, loads.dt)
        _check_bus_order(lay.bus_ids, loads)
        self.windows = [tuple(w) for w in windows]
        for start, end in self.windows:
            if not (0 <= start < end <= loads.horizon):
                raise FormulationError(
                    f"window [{start}, {end}) outside the load horizon "
                    f"{loads.horizon}")
        self.loads = loads
        self.own_builds = own_builds
        # every bus's real load, then its reactive
        self.demand = np.concatenate([loads.p, loads.q], axis=1)
        self.templates = [lay.template(end - start)
                          for start, end in self.windows]
        # the first window's pins, then the seams
        sewn = lay.pinned[own_builds].size \
            + len(lay.slots) * (len(self.windows) - 1)
        n = sum(t.cols.shape[1] for t in self.templates)
        m = sum(t.bounds.shape[1] for t in self.templates) + sewn
        nnz = sum(t.data.size for t in self.templates) + 2 * sewn
        k = sum(t.radius.size for t in self.templates)
        index = np.int32 if max(m, n, nnz) <= _INT32_MAX else np.int64
        self.col_data = np.empty((4, n))     # rows lb, ub, q, p_diag
        self.binary_cols = []                # binary column indices per window
        self.row_bounds = np.empty((2, m))   # rows lo, hi
        self.indptr = np.empty(m + 1, dtype=index)
        self.indices = np.empty(nnz, dtype=index)
        self.data = np.empty(nnz)
        self.balls = np.empty((k, 2), dtype=np.int64)
        self.radius = np.empty(k)
        self.radius_col = np.empty(k, dtype=np.int64)
        self.n = self.m = self.nnz = self.k = 0      # written so far
        self.col_blocks = []         # (first, start, end, owned) per window
        self.row_blocks = []         # (first row, names, owners, start, steps)
        self.cone_blocks = []        # (first ball, names, owners, start, steps)

    def _window(self, start, end, template, owned):
        """Every column, row and ball of window ``[start, end)``, which
        owns the build decisions if `owned`, and the columns that import
        each coupling slot at its start and hand it on at its end."""
        tm, lay = template, self.layout
        steps = end - start
        first, m, at, k = self.n, self.m, self.nnz, self.k
        self.n, self.m = first + tm.cols.shape[1], m + tm.bounds.shape[1]
        self.nnz, self.k = at + tm.data.size, k + tm.radius.size
        self.col_blocks.append((first, int(start), int(end), owned))
        # the template's arrays moved to the window's first column, row,
        # entry and ball; index arithmetic in the matrix's own index type
        index = self.indices.dtype.type
        cols = self.col_data[:, first:self.n]
        cols[...] = tm.cols
        loads = self.demand[start:end]
        cols[1][tm.shed_cols] = np.where(loads < 0.0, 0.0, loads)
        self.binary_cols.append(tm.binary + first)
        if owned:
            cols[:, :lay.fixed] = lay.fixed_data[True]
            self.binary_cols.append(lay.fixed_binary + first)
        bounds = self.row_bounds[:, m:self.m]
        bounds[...] = tm.bounds
        for side in bounds:
            side[tm.load_rows] = loads
        np.add(tm.indptr, index(at), out=self.indptr[m:self.m])
        np.add(tm.indices, index(first), out=self.indices[at:self.nnz])
        self.data[at:self.nnz] = tm.data
        self.row_blocks += [
            (m + per_step * steps + once, names, owners, start, steps)
            for per_step, once, names, owners in lay.row_labels]
        np.add(tm.balls, first, out=self.balls[k:self.k])
        self.radius[k:self.k] = tm.radius
        self.radius_col[k:self.k] = np.where(tm.radius_col < 0, -1,
                                             tm.radius_col + first)
        self.cone_blocks += [(k + per_step * steps, names, owners, start, steps)
                             for per_step, _, names, owners in lay.ball_labels]
        return tm.init + first, tm.term + first

    def _row_block(self, labels, lo, hi, cols, coefs):
        """Append one row per label with its bounds (numbers or one value
        per row); row i holds the columns `cols[i]`, in increasing order,
        with the coefficients `coefs[i]` (broadcast to `cols`).  Returns
        the new rows' indices."""
        first, at = self.m, self.nnz
        self.m += len(labels)
        self.nnz += cols.size
        self.row_blocks.append((first, None, labels, 0, 0))
        self.row_bounds[0, first:self.m] = lo
        self.row_bounds[1, first:self.m] = hi
        self.indptr[first:self.m] = np.arange(at, self.nnz, cols.shape[1])
        self.indices[at:self.nnz] = cols.ravel()
        self.data[at:self.nnz].reshape(cols.shape)[...] = coefs
        return range(first, self.m)

    # -- assembly ---------------------------------------------------------

    def finish(self, boundary=None, duals_in=None) -> MdopModel:
        """The model: every window, the first window's state pinned to
        `boundary` (the horizon start if None), each later window's seam
        rows, kept in `seam_rows`, and the last window's terminal state
        priced by `duals_in`."""
        lay = self.layout
        slots = lay.slots
        boundary = lay.start_boundary if boundary is None \
            else _per_slot(boundary, "boundary", len(slots))
        if duals_in is not None:
            duals_in = _per_slot(duals_in, "price vector", len(slots))

        owned = self.own_builds
        ends = [self._window(*self.windows[0], self.templates[0], owned)]
        # equality rows fixing the first window's imported state; their
        # duals are the boundary prices
        pinned = lay.pinned[owned]
        pins = boundary[pinned]
        rows = self._row_block(lay.pin_labels[owned], pins, pins,
                               ends[0][0][pinned, None], 1.0)
        init_pin_rows = [None] * len(slots)
        for i, row in zip(pinned.tolist(), rows):
            init_pin_rows[i] = row
        ends += [self._window(*window, template, False) for window, template
                 in zip(self.windows[1:], self.templates[1:])]
        # later windows are sewn to their predecessor's terminal state,
        # whose columns come first
        self.seam_rows = tuple(tuple(self._row_block(
            [("seam", s, slot.kind, slot.owner, slot.hist) for slot in slots],
            0.0, 0.0, np.stack([ends[s - 1][1], ends[s][0]], axis=1),
            [-1.0, 1.0])) for s in range(1, len(self.windows)))
        self.indptr[self.m] = self.nnz

        terminal = ends[-1][1]
        lb, ub, q, p_diag = self.col_data
        row_lo, row_hi = self.row_bounds
        model = MdopModel(
            n=self.n, p_diag=p_diag, q=q, const=0.0,
            a=sp.csr_matrix((self.data, self.indices, self.indptr),
                            shape=(self.m, self.n)),
            row_lo=row_lo, row_hi=row_hi,
            cones=Cones(self.balls.ravel(), np.arange(self.k).repeat(2),
                        self.radius, self.radius_col), lb=lb, ub=ub,
            binaries=frozenset(np.concatenate(self.binary_cols).tolist()),
            coupling=CouplingMeta(slots=slots,
                                  terminal_cols=tuple(terminal.tolist()),
                                  init_pin_rows=tuple(init_pin_rows)),
            window=(self.windows[0][0], self.windows[-1][1]),
            dt=self.loads.dt, layout=lay, col_blocks=tuple(self.col_blocks),
            row_blocks=tuple(self.row_blocks),
            cone_blocks=tuple(self.cone_blocks))
        if duals_in is not None:
            # the terminal state's cost-to-go, one slot at a time
            for gamma, j in zip(duals_in, terminal):
                model.q[j] += float(gamma)
        return model


def _per_slot(values, name, slots):
    """`values` as one finite number per coupling slot, of `slots`."""
    values = np.asarray(values, dtype=float)
    if values.shape != (slots,):
        raise FormulationError(
            f"{name} has {values.size} entries, expected {slots}"
            if values.ndim == 1 else
            f"{name} has shape {values.shape}, expected ({slots},)")
    if not np.isfinite(values).all():
        raise FormulationError(f"{name} must be finite")
    return values


def assemble(instance: NetworkInstance, loads: LoadProfile, window=None,
             boundary=None, duals_in=None, own_builds=True) -> MdopModel:
    """Build the model for `window` (defaults to the full horizon).

    `boundary` supplies the imported state at the window start (aligned
    with :func:`coupling_slots`); omitted, the true horizon start is
    assumed.  `duals_in`, one finite cost-to-go per slot, prices the
    terminal state: the objective gains ``duals_in . terminal_state``.
    `own_builds` decides whether build variables are binary decisions
    with cost here, or imported state pinned to the boundary.
    """
    if window is None:
        window = (0, loads.horizon)
    return ModelBuilder(instance, loads, [window], own_builds=own_builds
                        ).finish(boundary=boundary, duals_in=duals_in)


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

    builder = ModelBuilder(instance, loads, windows)
    model = builder.finish()
    return SeamedModel(model=model, windows=tuple(windows),
                       seam_rows=builder.seam_rows)


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
    _check_bus_order(tuple(b.id for b in instance.buses), loads)
    if plan.start != 0:
        raise FormulationError("plan must start at the horizon origin")
    T = plan.horizon
    if T > loads.horizon:
        raise FormulationError("plan is longer than the load profile")
    idx = instance.bus_index()
    bad = []

    def check(family, owner, t, amount):
        # NaN fails every test, so it is a violation of size inf
        if not amount <= tol:
            bad.append((family, owner, t,
                        np.inf if np.isnan(amount) else float(amount)))

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
