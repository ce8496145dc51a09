"""Instance parsing, validation, and synthetic load generation."""

import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microplan

from microplan import formulation
from microplan.instance import (
    Bus, Line, BatterySpec, GeneratorSpec, LoadProfile, NetworkInstance,
    InstanceError, RadialReport, parse_instance, write_instance, parse_loads,
    write_loads, synth_load, validate_radial,
)


def two_bus(**kw):
    defaults = dict(
        buses=(Bus("a", 0.81, 1.21, max_batteries=1), Bus("b", 0.81, 1.21, max_generators=1)),
        lines=(Line("ab", "a", "b", r=0.01, x=0.02, s_max=5.0),),
        battery_specs=(BatterySpec("bat", "a", fixed_cost=100.0, capacity_cost=300.0,
                                   max_power=1.5, max_energy=4.0, eta_ch=0.8, eta_dis=0.7,
                                   p_min=-1.5, p_max=1.5, q_min=-1.5, q_max=1.5),),
        generator_specs=(GeneratorSpec("gen", "b", fixed_cost=200.0,
                                       cost_coeffs=(6.0, 35.0, 50.0), min_up=2, min_down=2,
                                       ramp_up=1.0, ramp_down=1.0, efficiency=0.5,
                                       p_min=0.2, p_max=4.0, q_min=-2.0, q_max=2.0),),
        shed_penalty=1e7,
        dt=0.25,
    )
    defaults.update(kw)
    return NetworkInstance(**defaults)


class TestConstruction:
    def test_valid_instance(self):
        inst = two_bus()
        assert inst.slack_bus == "a"  # defaults to first bus
        assert inst.batteries_at("a")[0].id == "bat"
        assert inst.generators_at("b")[0].id == "gen"

    def test_single_bus_no_lines_is_valid(self):
        inst = NetworkInstance(buses=(Bus("only", 0.9, 1.1),), lines=(),
                               battery_specs=(), generator_specs=(),
                               shed_penalty=1e7, dt=0.25)
        assert validate_radial(inst).is_radial

    def test_dangling_line_endpoint(self):
        with pytest.raises(InstanceError, match="line ab.*unknown bus 'zz'"):
            two_bus(lines=(Line("ab", "a", "zz", 0.01, 0.02, 5.0),))

    def test_dangling_candidate_bus(self):
        bad = BatterySpec("bat", "nowhere", 100.0, 300.0, 1.5, 4.0, 0.8, 0.7)
        with pytest.raises(InstanceError, match="candidate bat.*unknown bus"):
            two_bus(battery_specs=(bad,))

    def test_disconnected_graph_rejected(self):
        with pytest.raises(InstanceError, match="disconnected"):
            two_bus(buses=(Bus("a", 0.81, 1.21), Bus("b", 0.81, 1.21),
                           Bus("island", 0.81, 1.21)))

    def test_duplicate_resource_id(self):
        dup = (BatterySpec("x", "a", 1.0, 1.0, 1.0, 1.0, 0.8, 0.7),
               BatterySpec("x", "a", 1.0, 1.0, 1.0, 1.0, 0.8, 0.7))
        with pytest.raises(InstanceError, match="duplicate resource id"):
            two_bus(battery_specs=dup)

    def test_bad_field_values(self):
        with pytest.raises(InstanceError, match="bus a: v_min exceeds v_max"):
            Bus("a", 1.2, 0.9)
        with pytest.raises(InstanceError, match="battery z.*efficienc"):
            BatterySpec("z", "a", 1.0, 1.0, 1.0, 1.0, eta_ch=0.0, eta_dis=0.7)
        with pytest.raises(InstanceError, match="generator g.*quadratic"):
            GeneratorSpec("g", "a", 1.0, (1.0, 1.0, -1.0), 1, 1, 1.0, 1.0, 0.5, 0.0, 1.0)
        with pytest.raises(InstanceError, match="thermal limit"):
            Line("l", "a", "b", 0.0, 0.0, 0.0)
        with pytest.raises(InstanceError, match="instance: shed_penalty must be finite"):
            two_bus(shed_penalty=float("nan"))

    def test_history_depth(self):
        gen = two_bus().generator_specs[0]
        assert gen.history_depth == 2

    def test_hash_taken_once_and_one_layout(self, tmp_path):
        # a copy and a file round trip are equal instances: they hash
        # alike and share one model layout
        inst = two_bus(name="h")
        copy = dataclasses.replace(inst)
        write_instance(inst, tmp_path / "h")
        back = parse_instance(tmp_path / "h")
        assert copy == inst == back
        assert hash(copy) == hash(inst) == hash(back)
        assert "_hash" not in repr(inst)
        assert dataclasses.replace(inst, name="other") != inst
        layout = formulation._layout(inst, inst.dt)
        assert formulation._layout(copy, inst.dt) is layout
        assert formulation._layout(back, inst.dt) is layout

        def unhashable(bus):
            raise AssertionError(f"bus {bus.id} hashed again")

        # taken at construction: hashing the instance walks no bus
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Bus, "__hash__", unhashable)
            assert hash(back) == hash(inst)

    def test_copy_in_another_process_hashes_there(self, tmp_path):
        # the stored hash is of one process's string hashes; a copy
        # unpickled under another hash seed takes that process's hash
        path = os.pathsep.join([str(Path(__file__).parent),
                                str(Path(microplan.__file__).parents[1])])
        dump = ("import pickle, sys; from test_instance import two_bus; "
                "open(sys.argv[1], 'wb').write(pickle.dumps(two_bus()))")
        load = ("import pickle, sys; from test_instance import two_bus; "
                "back = pickle.loads(open(sys.argv[1], 'rb').read()); "
                "print(back == two_bus(), hash(back) == hash(two_bus()))")
        out = tmp_path / "inst.pickle"
        for seed, probe in (("1", dump), ("2", load)):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", probe, str(out)],
                                 capture_output=True, text=True, check=True,
                                 env=env)
        assert run.stdout.split() == ["True", "True"]
        assert pickle.loads(out.read_bytes()) == two_bus()


def cost_coeffs_in_file(tmp_path):
    """`two_bus` written to `tmp_path` with two cost coefficients for its
    generator, and read back."""
    out = write_instance(two_bus(), tmp_path)
    data = json.loads(out.read_text())
    data["generators"][0]["cost_coeffs"] = [6.0, 35.0]
    out.write_text(json.dumps(data))
    parse_instance(tmp_path)


GEN = dict(fixed_cost=200.0, cost_coeffs=(6.0, 35.0, 50.0), min_up=2,
           min_down=2, ramp_up=1.0, ramp_down=1.0, efficiency=0.5,
           p_min=0.2, p_max=4.0)


@pytest.mark.parametrize("make, message, location", [
    (lambda tmp: Bus("a", 0.81, 1.21, max_batteries=-1),
     "candidate counts must be nonnegative", "bus a"),
    (lambda tmp: Bus("a", 0.81, 1.21, max_generators=-2),
     "candidate counts must be nonnegative", "bus a"),
    (lambda tmp: Line("ab", "a", "a", 0.01, 0.02, 5.0),
     "line endpoints coincide", "line ab"),
    (lambda tmp: BatterySpec("bat", "a", 100.0, 300.0, max_power=0.0,
                             max_energy=4.0, eta_ch=0.8, eta_dis=0.7),
     "max_power must be positive", "battery bat"),
    (lambda tmp: GeneratorSpec("gen", "b", **dict(GEN, cost_coeffs=(6.0, 35.0))),
     "cost_coeffs must be (c0, c1, c2)", "generator gen"),
    (cost_coeffs_in_file,
     "cost_coeffs must have three entries", "{tmp}/network.json: generator gen"),
    (lambda tmp: GeneratorSpec("gen", "b", **dict(GEN, min_up=0)),
     "min up/down times must be >= 1 step", "generator gen"),
    (lambda tmp: GeneratorSpec("gen", "b", **dict(GEN, min_down=0)),
     "min up/down times must be >= 1 step", "generator gen"),
    (lambda tmp: two_bus(buses=(Bus("a", 0.81, 1.21), Bus("a", 0.9, 1.1))),
     "duplicate bus ids", "instance"),
    (lambda tmp: two_bus(slack_bus="zz"),
     "slack bus 'zz' not in bus list", "instance"),
    (lambda tmp: two_bus(base_mva=0.0), "base_mva must be positive",
     "instance"),
    (lambda tmp: LoadProfile(horizon=2, bus_ids=("a", "b"), p=np.zeros((2, 3)),
                             q=np.zeros((2, 2)), dt=0.25),
     "load array shape does not match horizon/buses", ""),
    (lambda tmp: parse_loads(tmp / "loads.csv", two_bus(), 0.0),
     "dt must be positive", "{tmp}/loads.csv"),
    (lambda tmp: synth_load(two_bus(), days=0, dt=0.25, base=1.0),
     "days must be >= 1", ""),
])
def test_input_checks(tmp_path, make, message, location):
    location = location.format(tmp=tmp_path)
    with pytest.raises(InstanceError) as info:
        make(tmp_path)
    assert info.value.location == location
    assert str(info.value) == (f"{location}: {message}" if location
                               else message)


def network(bus_ids, ends):
    """Buses and lines only; line i joins ends[i]."""
    return NetworkInstance(
        buses=tuple(Bus(b, 0.8, 1.2) for b in bus_ids),
        lines=tuple(Line(f"l{i}", a, b, 0.01, 0.01, 5.0)
                    for i, (a, b) in enumerate(ends)),
        battery_specs=(), generator_specs=(), shed_penalty=1e7, dt=0.25)


class TestRadial:
    def test_disconnected_components_listed_by_first_bus(self):
        with pytest.raises(InstanceError) as err:
            network(["z", "m", "a", "y", "b"], [("z", "y"), ("b", "m")])
        assert str(err.value) == ("instance: graph is disconnected: components "
                                  "[['y', 'z'], ['b', 'm'], ['a']]")

    @staticmethod
    def assert_loop(cycle, ends):
        """Consecutive buses of `cycle`, last to first included, are
        joined by a line, and no bus repeats."""
        joined = {frozenset(e) for e in ends}
        assert len(set(cycle)) == len(cycle) >= 3
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert frozenset((u, v)) in joined

    def test_ring_reports_every_bus(self):
        ends = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        report = validate_radial(network("abcd", ends))
        assert (report.is_radial, report.connected) == (False, True)
        assert sorted(report.cycle) == ["a", "b", "c", "d"]
        self.assert_loop(report.cycle, ends)

    def test_chord_reports_its_own_loop(self):
        tree = [("1", "2"), ("2", "3"), ("2", "4"), ("4", "5"), ("4", "6")]
        for ends in (tree + [("3", "5")], [("3", "5")] + tree):
            report = validate_radial(network("123456", ends))
            assert not report.is_radial
            assert sorted(report.cycle) == ["2", "3", "4", "5"]
            self.assert_loop(report.cycle, ends)

    def test_parallel_lines_are_a_cycle(self):
        report = validate_radial(network("ab", [("a", "b"), ("a", "b")]))
        assert report == RadialReport(is_radial=False, connected=True,
                                      cycle=("a", "b"))

    def test_import_leaves_no_graph_library(self):
        probe = "import sys, microplan.decomposition; print('networkx' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(microplan.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_cycle_reported_but_valid(self, caplog):
        buses = (Bus("a", 0.8, 1.2), Bus("b", 0.8, 1.2), Bus("c", 0.8, 1.2))
        lines = (Line("ab", "a", "b", 0.01, 0.01, 5.0),
                 Line("bc", "b", "c", 0.01, 0.01, 5.0),
                 Line("ca", "c", "a", 0.01, 0.01, 5.0))
        inst = NetworkInstance(buses=buses, lines=lines, battery_specs=(),
                               generator_specs=(), shed_penalty=1e7, dt=0.25)
        report = validate_radial(inst)
        assert not report.is_radial
        assert set(report.cycle) == {"a", "b", "c"}

    def test_tree_is_radial(self):
        assert validate_radial(two_bus()).is_radial


class TestFileRoundTrip:
    def test_write_then_parse_identical(self, tmp_path):
        inst = two_bus(base_mva=2.0, name="rt")
        write_instance(inst, tmp_path / "rt")
        back = parse_instance(tmp_path / "rt")
        assert back == inst

    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceError, match="file not found"):
            parse_instance(tmp_path / "nope")

    def test_invalid_json(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "network.json").write_text("{not json")
        with pytest.raises(InstanceError, match="invalid JSON"):
            parse_instance(d)

    def test_missing_field_named(self, tmp_path):
        d = tmp_path / "nf"
        d.mkdir()
        (d / "network.json").write_text(json.dumps({
            "format_version": 1, "base_mva": 1.0, "shed_penalty": 1e7,
            "dt_hours": 0.25,
            "buses": [{"id": "a", "v_min": 0.9}],  # v_max absent
        }))
        with pytest.raises(InstanceError, match="bus a: missing field 'v_max'"):
            parse_instance(d)

    def test_format_version_checked(self, tmp_path):
        d = tmp_path / "fv"
        d.mkdir()
        (d / "network.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(InstanceError, match="format_version 99"):
            parse_instance(d)

    def rewritten(self, tmp_path, edit):
        """The directory of `two_bus` written out, with `edit` applied to
        its parsed JSON."""
        out = write_instance(two_bus(), tmp_path / "ed")
        data = json.loads(out.read_text())
        edit(data)
        out.write_text(json.dumps(data))
        return out.parent

    def test_nan_rejected_and_infinity_kept(self, tmp_path):
        def nan_rating(data):
            data["lines"][0]["s_max_mva"] = float("nan")
        with pytest.raises(InstanceError, match=r"network\.json: NaN"):
            parse_instance(self.rewritten(tmp_path, nan_rating))
        # an unlimited line is written as Infinity and reads back
        inst = two_bus(lines=(Line("ab", "a", "b", r=0.01, x=0.02,
                                   s_max=float("inf")),))
        write_instance(inst, tmp_path / "inf")
        assert parse_instance(tmp_path / "inf") == inst

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["generators"][0].update(fixed_cost=float("inf")),
         "generator gen: fixed_cost must be finite"),
        (lambda d: d["generators"][0]["cost_coeffs"].__setitem__(1, -float("inf")),
         "generator gen: cost_coeffs must be finite"),
        (lambda d: d["batteries"][0].update(fixed_cost=float("inf")),
         "battery bat: fixed_cost must be finite"),
        (lambda d: d["batteries"][0].update(capacity_cost_per_mva=float("inf")),
         "battery bat: capacity_cost must be finite"),
        (lambda d: d.update(shed_penalty=float("inf")),
         "shed_penalty must be finite"),
    ])
    def test_infinite_cost_rejected(self, tmp_path, edit, match):
        # written as Infinity, which stays legal for ratings and limits
        with pytest.raises(InstanceError, match=match):
            parse_instance(self.rewritten(tmp_path, edit))

    @pytest.mark.parametrize("section, key, value", [
        ("buses", "max_batteries", 0.5),
        ("buses", "max_generators", 1.5),
        ("generators", "min_up", 2.7),
        ("generators", "min_down", 3.2),
    ])
    def test_fractional_counts_rejected(self, tmp_path, section, key, value):
        def fraction(data):
            data[section][0][key] = value
        entry = "bus a" if section == "buses" else "generator gen"
        with pytest.raises(InstanceError,
                           match=f"{entry}: {key} must be a whole number, got {value}"):
            parse_instance(self.rewritten(tmp_path, fraction))

    def test_whole_float_counts_accepted(self, tmp_path):
        def floats(data):
            data["buses"][0]["max_batteries"] = 1.0
            data["generators"][0]["min_up"] = 2.0
        assert parse_instance(self.rewritten(tmp_path, floats)) == two_bus()

    def test_per_unit_conversion(self, tmp_path):
        inst = two_bus(base_mva=2.0)
        out = write_instance(inst, tmp_path / "pu")
        raw = json.loads(out.read_text())
        # file carries natural units, instance carries per-unit
        assert raw["batteries"][0]["max_power_mva"] == pytest.approx(3.0)
        assert inst.battery_specs[0].max_power == pytest.approx(1.5)


class TestLoads:
    def test_parse_dense(self, tmp_path):
        inst = two_bus(base_mva=2.0)
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1.0,0.3\n1,a,2.0,0.6\n0,b,4.0,1.2\n1,b,0.0,0.0\n")
        prof = parse_loads(f, inst, dt=0.25)
        assert prof.horizon == 2
        np.testing.assert_allclose(prof.p, [[0.5, 2.0], [1.0, 0.0]])
        np.testing.assert_allclose(prof.q[0], [0.15, 0.6])

    def test_missing_bus_defaults_zero(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1.0,0.3\n")
        prof = parse_loads(f, inst, dt=0.25)
        assert prof.p[0, 1] == 0.0

    def test_ragged_lengths_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1.0,0.3\n1,a,1.0,0.3\n0,b,1.0,0.3\n")
        with pytest.raises(InstanceError, match="bus 'b' covers 1 steps"):
            parse_loads(f, inst, dt=0.25)

    def test_repeated_row_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,b,1.0,0.3\n1,b,1.0,0.3\n"
                     "0,b,2.0,0.6\n")
        with pytest.raises(InstanceError,
                           match=r"loads\.csv:4: step 0 of bus 'b' repeats"):
            parse_loads(f, inst, dt=0.25)

    def test_negative_step_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n-1,a,1.0,0.3\n")
        with pytest.raises(InstanceError, match="negative step"):
            parse_loads(f, inst, dt=0.25)

    def test_unknown_bus_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,zz,1.0,0.3\n")
        with pytest.raises(InstanceError, match="unknown bus 'zz'"):
            parse_loads(f, inst, dt=0.25)

    def test_empty_file_warns(self, tmp_path, caplog):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n")
        with caplog.at_level("WARNING"):
            prof = parse_loads(f, inst, dt=0.25)
        assert prof.horizon == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_write_read_round_trip(self, tmp_path):
        inst = two_bus()
        prof = synth_load(inst, days=1, dt=0.25, base=1.0, seed=7)
        f = write_loads(prof, inst, tmp_path / "loads.csv")
        back = parse_loads(f, inst, dt=0.25)
        np.testing.assert_allclose(back.p, prof.p, rtol=0, atol=0)
        np.testing.assert_allclose(back.q, prof.q, rtol=0, atol=0)


    def test_error_names_the_files_own_line(self, tmp_path):
        # blank lines are skipped, but they count in the line number
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1,0\n\n\n0,zz,1,0\n")
        with pytest.raises(InstanceError, match=r"loads\.csv:5: unknown bus 'zz'$"):
            parse_loads(f, inst, dt=0.25)

    def test_extra_field_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1,0\n0,b,1,0,7\n")
        with pytest.raises(InstanceError, match=r"loads\.csv:3: malformed row "
                                                r"\(5 fields, the header has 4\)$"):
            parse_loads(f, inst, dt=0.25)

    def test_short_row_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1,0\n0,b,1\n")
        with pytest.raises(InstanceError, match=r"loads\.csv:3: malformed row "
                                                r"\(3 fields, the header has 4\)$"):
            parse_loads(f, inst, dt=0.25)

    def test_missing_column_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw\n0,a,1\n")
        with pytest.raises(InstanceError,
                           match=r"loads\.csv:2: malformed row \('q_mvar'\)$"):
            parse_loads(f, inst, dt=0.25)

    def test_non_numeric_value_names_its_line(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1,0\n0,b,x,0\n")
        with pytest.raises(InstanceError,
                           match=r"loads\.csv:3: malformed row \(could not "
                                 r"convert string to float: 'x'\)$"):
            parse_loads(f, inst, dt=0.25)

    def test_out_of_range_step_rejected(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text(f"step,bus,p_mw,q_mvar\n{2**64},a,1,0\n")
        with pytest.raises(InstanceError, match=r"loads\.csv:2: malformed row "
                                                r"\(step \d+ is out of range\)$"):
            parse_loads(f, inst, dt=0.25)

    @pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
    def test_non_finite_load_names_its_line(self, tmp_path, value):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text(f"step,bus,p_mw,q_mvar\n0,a,1,0\n0,b,1,{value}\n")
        with pytest.raises(InstanceError, match=rf"loads\.csv:3: q_mvar "
                                                rf"'{value}' is not finite$"):
            parse_loads(f, inst, dt=0.25)

    def test_first_bad_row_wins(self, tmp_path):
        inst = two_bus()
        f = tmp_path / "loads.csv"
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1,0\n0,zz,1,0\n1,a,x\n"
                     "0,a,1,0\n")
        with pytest.raises(InstanceError, match=r"loads\.csv:3: unknown bus 'zz'$"):
            parse_loads(f, inst, dt=0.25)
        # within one row, a malformed field is named before the bus
        f.write_text("step,bus,p_mw,q_mvar\n0,a,1,0\n-1,zz,y,0\n")
        with pytest.raises(InstanceError, match=r"loads\.csv:3: malformed row"):
            parse_loads(f, inst, dt=0.25)

    def test_column_order_and_extra_columns(self, tmp_path):
        inst = two_bus(base_mva=2.0)
        plain = tmp_path / "plain.csv"
        plain.write_text("step,bus,p_mw,q_mvar\n0,a,1.0,0.3\n1,a,2.0,0.6\n"
                         "0,b,4.0,1.2\n1,b,0.5,0.1\n")
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("q_mvar,note,bus,step,p_mw\n0.1,x,b,1,0.5\n"
                            "0.3,,a,0,1.0\n1.2,y,b,0,4.0\n0.6,z,a,1,2.0\n")
        want = parse_loads(plain, inst, dt=0.25)
        got = parse_loads(shuffled, inst, dt=0.25)
        assert np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)

    @pytest.mark.parametrize("bus_ids", [("a", "b"), ('a,"1"', "b\n2")])
    def test_write_matches_csv_writer(self, tmp_path, bus_ids):
        a, b = bus_ids
        inst = two_bus(
            base_mva=2.0,
            buses=(Bus(a, 0.81, 1.21), Bus(b, 0.81, 1.21)),
            lines=(Line("ab", a, b, r=0.01, x=0.02, s_max=5.0),),
            battery_specs=(), generator_specs=())
        prof = synth_load(inst, days=1, dt=0.25, base=1.0, seed=3)
        assert prof.horizon == 96
        ref = tmp_path / "ref.csv"
        with ref.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "bus", "p_mw", "q_mvar"])
            for t in range(prof.horizon):
                for j, bus in enumerate(prof.bus_ids):
                    writer.writerow([t, bus, repr(float(prof.p[t, j] * 2.0)),
                                     repr(float(prof.q[t, j] * 2.0))])
        f = write_loads(prof, inst, tmp_path / "loads.csv")
        assert f.read_bytes() == ref.read_bytes()
        back = parse_loads(f, inst, dt=0.25)
        assert np.array_equal(back.p, prof.p) and np.array_equal(back.q, prof.q)

class TestSynthLoad:
    def test_deterministic(self):
        inst = two_bus()
        a = synth_load(inst, days=2, dt=0.25, base=1.0, seed=42)
        b = synth_load(inst, days=2, dt=0.25, base=1.0, seed=42)
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.q, b.q)

    def test_seed_changes_noise(self):
        inst = two_bus()
        a = synth_load(inst, days=1, dt=0.25, base=1.0, seed=1)
        b = synth_load(inst, days=1, dt=0.25, base=1.0, seed=2)
        assert np.abs(a.p - b.p).max() > 0

    def test_horizon_and_nonnegative(self):
        inst = two_bus()
        prof = synth_load(inst, days=3, dt=0.25, base=0.1,
                          daily_amplitude=0.9, noise_amplitude=0.5, seed=0)
        assert prof.horizon == 288  # 3 days at 15-minute steps
        assert prof.p.min() >= 0.0
        assert prof.q.min() >= 0.0

    def test_diurnal_peaks_midday(self):
        inst = two_bus()
        prof = synth_load(inst, days=1, dt=1.0, base=1.0,
                          daily_amplitude=0.5, noise_amplitude=0.0)
        col = prof.p[:, 0]
        assert np.argmax(col) == 12  # noon
        assert np.argmin(col) == 0   # midnight

    def test_per_bus_base(self):
        inst = two_bus()
        prof = synth_load(inst, days=1, dt=1.0, base={"a": 2.0}, noise_amplitude=0.0)
        assert prof.p[0, 1] == 0.0
        assert prof.p[:, 0].max() > 0

    def test_bad_base_rejected(self):
        # an id not among the buses (ids are case-sensitive) or a negative
        # base would leave silent zero loads
        with pytest.raises(InstanceError, match="unknown bus 'B'"):
            synth_load(two_bus(), days=1, dt=1.0, base={"a": 0.4, "B": 0.4})
        for base in ({"b": -0.4}, -0.4):
            with pytest.raises(InstanceError, match="must be nonnegative"):
                synth_load(two_bus(), days=1, dt=1.0, base=base)

    def test_uneven_dt_rejected(self):
        with pytest.raises(InstanceError, match="does not evenly divide"):
            synth_load(two_bus(), days=1, dt=0.7, base=1.0)
