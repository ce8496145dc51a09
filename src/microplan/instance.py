"""Planning-instance domain types, file ingestion, and synthetic load generation.

A planning instance is a directory holding ``network.json`` (buses, lines,
candidate resources, penalties) and one or more ``*.csv`` load files with
columns ``step,bus,p_mw,q_mvar``.  All electrical quantities are stored
per-unit on the instance's MVA base; costs stay in dollars and energy in
per-unit hours.  Instances are immutable after construction and safe to
share across concurrent solver runs.

``network.json``'s four record lists (buses, lines, batteries and
generators) are read and written by one table, :data:`RECORD_LISTS`.

A load file's header names its columns, in any order, and may add columns
that are ignored; every other non-blank line is a row with as many fields
as the header, and blank lines are skipped.  Loads are in MW and MVAr in
the file and per-unit in a :class:`LoadProfile`.  The file is read and
written a column at a time, as arrays, and an error in it names the file's
own line.

The graph checks (connectivity at construction, the radial diagnostic)
are in-tree: one union-find pass over the lines, with no graph library.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

# Reactive fraction of synthetic real load (no reactive shape is published
# for the reference profiles, so a fixed power factor is used).
SYNTH_REACTIVE_FRACTION = 0.3


class InstanceError(ValueError):
    """Raised for malformed or inconsistent instance data.

    Carries a ``location`` string (file, section, field) so callers can
    point at the offending entry.
    """

    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _require_finite(spec, names, location):
    """Raise for the first cost field among `names` of `spec` that is not
    finite: a cost has no meaning at infinity, unlike a limit."""
    for name in names:
        if not np.isfinite(getattr(spec, name)).all():
            raise InstanceError(f"{name} must be finite", location)


@dataclass(frozen=True)
class Bus:
    id: str
    v_min: float  # squared voltage lower bound, pu^2
    v_max: float  # squared voltage upper bound, pu^2
    max_batteries: int = 0
    max_generators: int = 0

    def __post_init__(self):
        if self.v_min > self.v_max:
            raise InstanceError("v_min exceeds v_max", f"bus {self.id}")
        if self.max_batteries < 0 or self.max_generators < 0:
            raise InstanceError("candidate counts must be nonnegative", f"bus {self.id}")


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    r: float  # pu
    x: float  # pu
    s_max: float  # thermal limit, pu on the system base

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise InstanceError("line endpoints coincide", f"line {self.id}")
        if self.r < 0 or self.x < 0:
            raise InstanceError("negative impedance", f"line {self.id}")
        if self.s_max <= 0:
            raise InstanceError("thermal limit must be positive", f"line {self.id}")


@dataclass(frozen=True)
class BatterySpec:
    id: str
    bus: str
    fixed_cost: float      # $ if built
    capacity_cost: float   # $/MVA of installed apparent-power capacity
    max_power: float       # installable apparent-power cap, pu
    max_energy: float      # energy capacity, pu.h
    eta_ch: float
    eta_dis: float
    initial_soc: float = 0.0  # pu.h
    p_min: float = 0.0     # pu (charging is negative)
    p_max: float = 0.0     # pu
    q_min: float = 0.0
    q_max: float = 0.0

    def __post_init__(self):
        loc = f"battery {self.id}"
        _require_finite(self, ("fixed_cost", "capacity_cost"), loc)
        if not (0.0 < self.eta_ch <= 1.0) or not (0.0 < self.eta_dis <= 1.0):
            raise InstanceError("efficiencies must lie in (0, 1]", loc)
        if self.max_power <= 0:
            raise InstanceError("max_power must be positive", loc)
        if not (0.0 <= self.initial_soc <= self.max_energy):
            raise InstanceError("initial_soc outside [0, max_energy]", loc)
        if self.p_min > self.p_max or self.q_min > self.q_max:
            raise InstanceError("inverted generation limits", loc)


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    bus: str
    fixed_cost: float           # $ if built
    cost_coeffs: tuple          # (no-load $/step, $/MW, $/MW^2) on fuel-side power
    min_up: int                 # steps
    min_down: int               # steps
    ramp_up: float              # pu/step, on delivered power
    ramp_down: float            # pu/step
    efficiency: float           # delivered = efficiency * fuel-side power
    p_min: float                # pu, fuel-side lower limit when committed
    p_max: float                # pu, fuel-side upper limit
    q_min: float = 0.0
    q_max: float = 0.0

    def __post_init__(self):
        loc = f"generator {self.id}"
        object.__setattr__(self, "cost_coeffs", tuple(self.cost_coeffs))
        if len(self.cost_coeffs) != 3:
            raise InstanceError("cost_coeffs must be (c0, c1, c2)", loc)
        _require_finite(self, ("fixed_cost", "cost_coeffs"), loc)
        if self.cost_coeffs[2] < 0:
            raise InstanceError("quadratic cost coefficient must be nonnegative", loc)
        if self.min_up < 1 or self.min_down < 1:
            raise InstanceError("min up/down times must be >= 1 step", loc)
        if self.ramp_up < 0 or self.ramp_down < 0:
            raise InstanceError("ramp limits must be nonnegative", loc)
        if not (0.0 < self.efficiency <= 1.0):
            raise InstanceError("efficiency must lie in (0, 1]", loc)
        if self.p_min > self.p_max:
            raise InstanceError("inverted generation limits", loc)

    @property
    def history_depth(self):
        """Steps of start/stop history a window boundary must carry."""
        return max(self.min_up, self.min_down)


@dataclass(frozen=True)
class NetworkInstance:
    buses: tuple           # the four collections are stored as tuples,
    lines: tuple           # so that every instance hashes
    battery_specs: tuple
    generator_specs: tuple
    shed_penalty: float    # $/MW of unserved real or reactive demand per step
    dt: float              # hours per step
    base_mva: float = 1.0
    slack_bus: str = ""
    grid_connected: bool = False
    name: str = "instance"
    # the hash of the fields above, taken once: a model build looks its
    # layout up by the instance, and hashing it field by field each time
    # walks every bus, line and candidate
    _hash: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("buses", "lines", "battery_specs", "generator_specs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _require_finite(self, ("shed_penalty",), self.name)
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise InstanceError("duplicate bus ids", self.name)
        bus_set = set(ids)
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in bus_set:
                    raise InstanceError(f"references unknown bus {end!r}", f"line {ln.id}")
        for spec in self.battery_specs + self.generator_specs:
            if spec.bus not in bus_set:
                raise InstanceError(f"references unknown bus {spec.bus!r}",
                                    f"candidate {spec.id}")
        seen = set()
        for spec in self.battery_specs + self.generator_specs:
            if spec.id in seen:
                raise InstanceError("duplicate resource id", f"candidate {spec.id}")
            seen.add(spec.id)
        if self.buses and not self.slack_bus:
            object.__setattr__(self, "slack_bus", self.buses[0].id)
        if self.slack_bus and self.slack_bus not in bus_set:
            raise InstanceError(f"slack bus {self.slack_bus!r} not in bus list", self.name)
        if self.dt <= 0:
            raise InstanceError("dt must be positive", self.name)
        if self.base_mva <= 0:
            raise InstanceError("base_mva must be positive", self.name)
        comps, _ = _union_find(self)
        if len(comps) > 1:
            raise InstanceError(f"graph is disconnected: components {comps}", self.name)
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, f.name) for f in dataclasses.fields(self)
            if f.compare)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so that a copy in another process
        # hashes by that process's string hashes
        return type(self), tuple(getattr(self, f.name)
                                 for f in dataclasses.fields(self) if f.init)

    def bus_index(self):
        return {b.id: i for i, b in enumerate(self.buses)}

    def batteries_at(self, bus_id):
        return [b for b in self.battery_specs if b.bus == bus_id]

    def generators_at(self, bus_id):
        return [d for d in self.generator_specs if d.bus == bus_id]


@dataclass(frozen=True)
class LoadProfile:
    """Per-bus real/reactive demand series at a fixed step, per-unit."""

    horizon: int
    bus_ids: tuple
    p: np.ndarray  # (horizon, n_buses), pu
    q: np.ndarray  # (horizon, n_buses), pu
    dt: float      # hours

    def __post_init__(self):
        n = len(self.bus_ids)
        if self.p.shape != (self.horizon, n) or self.q.shape != (self.horizon, n):
            raise InstanceError("load array shape does not match horizon/buses")
        if self.horizon and not (np.isfinite(self.p).all() and np.isfinite(self.q).all()):
            raise InstanceError("loads contain non-finite values")


def _union_find(instance):
    """One union-find pass over the lines (Tarjan, "Efficiency of a good
    but not linear set union algorithm", JACM 1975).

    Returns the components, each sorted and listed in order of its first
    bus, and the cycle closed by the first line whose ends already share
    a root: the forest path between those ends, in path order, or ().
    """
    parent = {b.id: b.id for b in instance.buses}
    size = dict.fromkeys(parent, 1)
    forest = {u: [] for u in parent}   # the lines that joined two trees

    def root(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]   # path halving
            u = parent[u]
        return u

    cycle = ()
    for ln in instance.lines:
        a, b = ln.from_bus, ln.to_bus
        ra, rb = root(a), root(b)
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            forest[a].append(b)
            forest[b].append(a)
        elif not cycle:
            cycle = _forest_path(forest, a, b)
    comps = {}
    for u in parent:
        comps.setdefault(root(u), []).append(u)
    return [sorted(c) for c in comps.values()], cycle


def _forest_path(forest, a, b):
    """The bus ids on the unique forest path from a to b."""
    prev = {a: None}
    stack = [a]
    while b not in prev:
        u = stack.pop()
        for v in forest[u]:
            if v not in prev:
                prev[v] = u
                stack.append(v)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


@dataclass(frozen=True)
class RadialReport:
    is_radial: bool
    connected: bool
    cycle: tuple = ()  # one offending cycle as bus ids, if any


def validate_radial(instance: NetworkInstance) -> RadialReport:
    """Diagnostic tree check.  Non-radial instances stay valid; the voltage
    drop relation is imposed per line regardless of topology."""
    comps, cycle = _union_find(instance)
    connected = len(comps) <= 1
    is_radial = connected and not cycle and len(instance.lines) == len(instance.buses) - 1 \
        if instance.buses else True
    return RadialReport(is_radial=bool(is_radial), connected=bool(connected), cycle=cycle)


# ---------------------------------------------------------------------------
# file ingestion


def _require(data, key, location):
    if key not in data:
        raise InstanceError(f"missing field {key!r}", location)
    return data[key]


# The record lists of network.json, one row each: its key, the
# NetworkInstance attribute it fills, the name a record goes by in an
# error's location, the record type, and one row per field of a record:
# the field's key, the attribute it fills, its reader (int for a count or
# a number of steps, where a fraction is an error rather than truncated),
# its default, None where the key is required, and whether the file
# holds it in MW, MVA, MVAr or MWh rather than per-unit.
RECORD_LISTS = (
    ("buses", "buses", "bus", Bus, (
        ("id", "id", str, None, False),
        ("v_min", "v_min", float, None, False),
        ("v_max", "v_max", float, None, False),
        ("max_batteries", "max_batteries", int, 0, False),
        ("max_generators", "max_generators", int, 0, False))),
    ("lines", "lines", "line", Line, (
        ("id", "id", str, None, False),
        ("from_bus", "from_bus", str, None, False),
        ("to_bus", "to_bus", str, None, False),
        ("r", "r", float, None, False),
        ("x", "x", float, None, False),
        ("s_max_mva", "s_max", float, None, True))),
    ("batteries", "battery_specs", "battery", BatterySpec, (
        ("id", "id", str, None, False),
        ("bus", "bus", str, None, False),
        ("fixed_cost", "fixed_cost", float, None, False),
        ("capacity_cost_per_mva", "capacity_cost", float, None, False),
        ("max_power_mva", "max_power", float, None, True),
        ("max_energy_mwh", "max_energy", float, None, True),
        ("eta_ch", "eta_ch", float, None, False),
        ("eta_dis", "eta_dis", float, None, False),
        ("initial_soc_mwh", "initial_soc", float, 0.0, True),
        ("p_min_mw", "p_min", float, None, True),
        ("p_max_mw", "p_max", float, None, True),
        ("q_min_mvar", "q_min", float, None, True),
        ("q_max_mvar", "q_max", float, None, True))),
    ("generators", "generator_specs", "generator", GeneratorSpec, (
        ("id", "id", str, None, False),
        ("bus", "bus", str, None, False),
        ("fixed_cost", "fixed_cost", float, None, False),
        ("cost_coeffs", "cost_coeffs", lambda c: tuple(map(float, c)), None, False),
        ("min_up", "min_up", int, None, False),
        ("min_down", "min_down", int, None, False),
        ("ramp_up_mw", "ramp_up", float, None, True),
        ("ramp_down_mw", "ramp_down", float, None, True),
        ("efficiency", "efficiency", float, None, False),
        ("p_min_mw", "p_min", float, None, True),
        ("p_max_mw", "p_max", float, None, True),
        ("q_min_mvar", "q_min", float, None, True),
        ("q_max_mvar", "q_max", float, None, True))),
)


def _read(entry, fields, location, base):
    """The keyword arguments of one record: `entry` read by `fields`."""
    kwargs = {}
    for key, attr, read, default, in_mw in fields:
        value = _require(entry, key, location) if default is None \
            else entry.get(key, default)
        if read is int and isinstance(value, float) and not value.is_integer():
            raise InstanceError(f"{key} must be a whole number, got {value!r}", location)
        kwargs[attr] = read(value) / base if in_mw else read(value)
    return kwargs


def _written(record, fields, base):
    """`record` as network.json holds it, by `fields`."""
    return {key: getattr(record, attr) * base if in_mw else getattr(record, attr)
            for key, attr, _, _, in_mw in fields}


def parse_instance(path) -> NetworkInstance:
    """Read and validate an instance directory (or a ``network.json`` path).

    Raises :class:`InstanceError` with a file/field location for missing
    files, malformed fields (a NaN anywhere, an infinite cost, or a
    fraction where a count or a number of steps belongs), dangling bus
    references, and disconnected graphs.
    """
    path = Path(path)
    net_file = path / "network.json" if path.is_dir() else path
    if not net_file.exists():
        raise InstanceError("file not found", str(net_file))
    loc = str(net_file)

    def constant(name):
        # json accepts NaN, which passes every comparison; Infinity stays
        # legal, so that a written instance always reads back
        if name == "NaN":
            raise InstanceError("NaN is not a valid number", loc)
        return float(name)

    try:
        data = json.loads(net_file.read_text(), parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}", loc)

    version = _require(data, "format_version", loc)
    if version != FORMAT_VERSION:
        raise InstanceError(f"unsupported format_version {version}", loc)
    base = float(_require(data, "base_mva", loc))
    if base <= 0:
        raise InstanceError("base_mva must be positive", loc)

    _require(data, "buses", loc)
    records = {}
    for key, attr, label, kind, fields in RECORD_LISTS:
        records[attr] = []
        for entry in data.get(key, []):
            where = f"{loc}: {label} {entry.get('id', '?')}"
            if kind is GeneratorSpec:   # checked before any other field
                coeffs = _require(entry, "cost_coeffs", where)
                if not isinstance(coeffs, (list, tuple)) or len(coeffs) != 3:
                    raise InstanceError("cost_coeffs must have three entries", where)
            records[attr].append(kind(**_read(entry, fields, where, base)))

    instance = NetworkInstance(
        **records,
        shed_penalty=float(_require(data, "shed_penalty", loc)),
        dt=float(_require(data, "dt_hours", loc)),
        base_mva=base,
        slack_bus=str(data.get("slack_bus", "")),
        grid_connected=bool(data.get("grid_connected", False)),
        name=data.get("name", path.name if path.is_dir() else path.stem),
    )

    report = validate_radial(instance)
    if not report.is_radial:
        log.warning("instance %s is not radial (cycle through %s); accepted with "
                    "per-line voltage-drop rows", instance.name, report.cycle)
    for bus in instance.buses:
        if bus.max_batteries == 0 and instance.batteries_at(bus.id):
            log.warning("bus %s lists battery candidates but allows none", bus.id)
        if bus.max_generators == 0 and instance.generators_at(bus.id):
            log.warning("bus %s lists generator candidates but allows none", bus.id)
    return instance


def write_instance(instance: NetworkInstance, path) -> Path:
    """Emit ``network.json`` for `instance`; inverse of :func:`parse_instance`."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    base = instance.base_mva
    data = {
        "format_version": FORMAT_VERSION,
        "name": instance.name,
        "base_mva": base,
        "shed_penalty": instance.shed_penalty,
        "dt_hours": instance.dt,
        "slack_bus": instance.slack_bus,
        "grid_connected": instance.grid_connected,
    }
    for key, attr, _, _, fields in RECORD_LISTS:
        data[key] = [_written(r, fields, base) for r in getattr(instance, attr)]
    out = path / "network.json"
    out.write_text(json.dumps(data, indent=2) + "\n")
    return out


LOAD_COLUMNS = ("step", "bus", "p_mw", "q_mvar")


def _leading(kind, texts, name, errors):
    """`kind` (int or float) applied to each of `texts` up to the first
    it rejects, as an array; the rejected position and its reason are
    appended to `errors`."""
    values = []
    try:
        values.extend(map(kind, texts))   # keeps the values before a failure
    except ValueError as exc:
        errors.append((len(values), f"malformed row ({exc})"))
    try:
        return np.array(values, dtype=np.int64 if kind is int else float)
    except OverflowError:                 # an int beyond 64 bits
        k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
        errors.append((k, f"malformed row ({name} {values[k]} is out of range)"))
        return np.array(values[:k], dtype=np.int64)


def parse_loads(path, instance: NetworkInstance, dt: float) -> LoadProfile:
    """Read a loads CSV into a dense per-unit profile.

    The first line is the header.  It names the columns ``step``, ``bus``,
    ``p_mw`` and ``q_mvar`` in any order; further columns are allowed and
    ignored.  Every other non-blank line is one row with as many fields as
    the header; blank lines are skipped.  ``step`` is a nonnegative
    integer, ``bus`` a bus id of `instance`, and ``p_mw``/``q_mvar`` finite
    MW and MVAr, divided by ``instance.base_mva`` into per-unit.  Each
    ``(step, bus)`` pair appears once.  Buses absent from the file default
    to zero load; every bus present must cover the same contiguous step
    range starting at 0.

    A bad row raises :class:`InstanceError` located at its ``file:line``;
    when several rows are bad, the first in the file is named.
    """
    path = Path(path)
    if dt <= 0:
        raise InstanceError("dt must be positive", str(path))
    if not path.exists():
        raise InstanceError("file not found", str(path))
    idx = instance.bus_index()
    n = len(instance.buses)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        log.warning("load file %s is empty; using a zero-length profile", path)
        z = np.zeros((0, n))
        return LoadProfile(horizon=0, bus_ids=tuple(idx), p=z, q=z.copy(), dt=dt)

    def at(k):
        return f"{path}:{lines[k]}"

    for name in LOAD_COLUMNS:
        if name not in header:
            raise InstanceError(f"malformed row ({name!r})", at(0))
    col = {name: k for k, name in enumerate(header)}

    # each check appends (row position, reason) for its first bad row, in
    # the order the reasons rank within one row; the first row wins
    errors = []
    width = len(header)
    fields = np.fromiter(map(len, rows), np.intp, len(rows))
    ragged = np.flatnonzero(fields != width)
    end = ragged[0] if ragged.size else len(rows)
    if ragged.size:
        errors.append((end, f"malformed row ({fields[end]} fields, the header "
                            f"has {width})"))
    columns = list(zip(*rows[:end])) if end else [()] * width
    step_text, names, p_text, q_text = (columns[col[c]] for c in LOAD_COLUMNS)
    step = _leading(int, step_text, "step", errors)
    p_mw = _leading(float, p_text, "p_mw", errors)
    q_mvar = _leading(float, q_text, "q_mvar", errors)
    end = min([k for k, _ in errors], default=end)
    step, p_mw, q_mvar, names = step[:end], p_mw[:end], q_mvar[:end], names[:end]
    code = {b: idx.get(b, -1) for b in set(names)}
    bus = np.fromiter(map(code.__getitem__, names), np.intp, end)
    for bad, reason in ((step < 0, "negative step index"),
                        (bus < 0, "unknown bus {bus!r}"),
                        (~np.isfinite(p_mw), "p_mw {p!r} is not finite"),
                        (~np.isfinite(q_mvar), "q_mvar {q!r} is not finite")):
        hits = np.flatnonzero(bad)
        if hits.size:
            k = hits[0]
            errors.append(
                (k, reason.format(bus=names[k], p=p_text[k], q=q_text[k])))
    if errors:
        k, reason = min(errors, key=lambda e: e[0])
        raise InstanceError(reason, at(k))

    # sorted by bus, then step; a stable sort keeps file order among repeats
    order = np.lexsort((step, bus))
    by_step, by_bus = step[order], bus[order]
    again = (by_step[1:] == by_step[:-1]) & (by_bus[1:] == by_bus[:-1])
    if again.any():
        k = order[1:][again].min()
        raise InstanceError(f"step {step[k]} of bus {names[k]!r} repeats", at(k))
    # with no repeats, a bus covers 0..h-1 iff it has h steps, the last h-1
    counts = np.bincount(bus, minlength=n)
    horizon = int(counts.max())
    present = np.flatnonzero(counts)
    last = by_step[np.flatnonzero(np.append(by_bus[1:] != by_bus[:-1], True))]
    short = present[(counts[present] != horizon) | (last != horizon - 1)]
    if short.size:
        j = min(short, key=lambda j: np.argmax(bus == j))   # first in the file
        raise InstanceError(
            f"bus {instance.buses[j].id!r} covers {counts[j]} steps, "
            f"expected 0..{horizon - 1}", str(path))

    p = np.zeros((horizon, n))
    q = np.zeros((horizon, n))
    p[step, bus] = p_mw / instance.base_mva
    q[step, bus] = q_mvar / instance.base_mva
    return LoadProfile(horizon=horizon, bus_ids=tuple(idx), p=p, q=q, dt=dt)


def _csv_field(text):
    """`text` as :mod:`csv` writes a field in its default dialect: quoted,
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_loads(profile: LoadProfile, instance: NetworkInstance, path) -> Path:
    """Emit a loads CSV readable by :func:`parse_loads`, the bytes
    :mod:`csv`'s writer gives: the header ``step,bus,p_mw,q_mvar``, then
    one row per step and bus, step-major in ``profile.bus_ids`` order, with
    MW and MVAr written as the ``repr`` of the per-unit values times
    ``instance.base_mva`` (so they read back exactly), each line ended by
    ``\\r\\n``."""
    path = Path(path)
    base = instance.base_mva
    n = len(profile.bus_ids)
    steps = map(str, np.repeat(np.arange(profile.horizon), n).tolist())
    buses = tuple(map(_csv_field, profile.bus_ids)) * profile.horizon
    p = map(repr, (profile.p * base).ravel().tolist())
    q = map(repr, (profile.q * base).ravel().tolist())
    text = "".join(map("{},{},{},{}\r\n".format, steps, buses, p, q))
    with path.open("w", newline="") as fh:
        fh.write(",".join(LOAD_COLUMNS) + "\r\n" + text)
    return path


def synth_load(instance: NetworkInstance, days: int, dt: float, base,
               daily_amplitude: float = 0.4, noise_amplitude: float = 0.05,
               seed: int = 0) -> LoadProfile:
    """Generate a deterministic synthetic profile.

    Per bus: ``base_mw * (1 + daily_amplitude * diurnal(t) + noise_amplitude
    * noise(t))`` clipped at zero, where ``diurnal`` is a 24-hour cosine
    shape peaking mid-day and ``noise`` is seeded white noise.  Reactive
    load is a fixed power-factor fraction of the real load.  `base` is
    either a single MW value applied to every bus or a mapping
    ``bus id -> MW`` (absent buses get no load), nonnegative either way.
    """
    if days < 1:
        raise InstanceError("days must be >= 1")
    if daily_amplitude < 0 or noise_amplitude < 0:
        raise InstanceError("amplitudes must be nonnegative")
    if dt <= 0:
        raise InstanceError("dt must be positive")

    steps = int(round(days * 24.0 / dt))
    if not math.isclose(steps * dt, days * 24.0, rel_tol=0, abs_tol=1e-9):
        raise InstanceError(f"dt={dt} does not evenly divide {days} days")
    n = len(instance.buses)
    if isinstance(base, dict):
        ids = instance.bus_index()
        unknown = next((key for key in base if key not in ids), None)
        if unknown is not None:
            raise InstanceError(f"base load for unknown bus {unknown!r}")
        base_mw = np.array([float(base.get(b.id, 0.0)) for b in instance.buses])
    else:
        base_mw = np.full(n, float(base))
    if not (base_mw >= 0.0).all():
        raise InstanceError("base load must be nonnegative")

    hours = (np.arange(steps) * dt) % 24.0
    diurnal = -np.cos(2.0 * np.pi * hours / 24.0)  # trough at midnight, peak at noon
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((steps, n))

    shape = 1.0 + daily_amplitude * diurnal[:, None] + noise_amplitude * noise
    p_mw = np.maximum(base_mw[None, :] * shape, 0.0)
    q_mvar = SYNTH_REACTIVE_FRACTION * p_mw
    return LoadProfile(
        horizon=steps,
        bus_ids=tuple(b.id for b in instance.buses),
        p=p_mw / instance.base_mva,
        q=q_mvar / instance.base_mva,
        dt=dt,
    )
