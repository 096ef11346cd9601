import json

import pytest

from swarmfab import cli, config, coordinator

SQUARE = """G92 E0
G1 X210 Y110 F1200
G1 X230 Y110 E1 F600
G1 X230 Y130 E2
G1 X210 Y130 E3
G1 X210 Y110 E4
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "square.gcode").write_text(SQUARE)
    config.write_default_config("bridge_xy", str(tmp_path / "bridge.json"))
    return tmp_path


def run_cli(args, capsys):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_square(self, workdir, capsys):
        code, out, _ = run_cli(["parse", workdir / "square.gcode"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert sum(1 for l in lines if l.startswith("print")) == 4

    def test_missing_file(self, workdir, capsys):
        code, _, err = run_cli(["parse", workdir / "nope.gcode"], capsys)
        assert code == 3

    def test_parse_error_cites_line(self, workdir, capsys):
        bad = workdir / "bad.gcode"
        bad.write_text("G28\nG1 X1\nG1 X1 X2\n")
        code, _, err = run_cli(["parse", bad], capsys)
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("program", [
        "G1 X210 F1200\nG1 X220 F0\n",
        "G1 X210 F1200\nG1 X220 F-600\n",
        "G1 X210 Y110 F1200\nG2 X220 Y120 I10 J0 F0\n",
    ], ids=["zero", "negative", "arc"])
    def test_nonpositive_feed_cites_line(self, workdir, capsys, program):
        bad = workdir / "feed.gcode"
        bad.write_text(program)
        code, _, err = run_cli(["parse", bad], capsys)
        assert code == 2
        assert "line 2: feed must be positive" in err


class TestPlan:
    def test_writes_stream_and_summary(self, workdir, capsys):
        out_path = workdir / "stream.txt"
        code, out, _ = run_cli(["plan", workdir / "square.gcode",
                                workdir / "bridge.json", out_path], capsys)
        assert code == 0
        assert "ticks=" in out and "barriers=" in out
        assert out_path.read_text().startswith("t=0.000000")

    def test_workspace_violation_exit_5(self, workdir, capsys):
        far = workdir / "far.gcode"
        far.write_text("G1 X9999 F1200\n")
        code, _, err = run_cli(["plan", far, workdir / "bridge.json",
                                workdir / "s.txt"], capsys)
        assert code == 5
        assert "line 1" in err

    def test_too_many_ticks_exit_5(self, workdir, capsys):
        # 1e-6 mm/s robots: the first move alone needs 1e8 ticks
        slow = workdir / "slow.json"
        doc = config.default_config_doc("bridge_xy")
        doc["roster"] = [{**e, "max_wheel_speed": 1e-6} for e in doc["roster"]]
        slow.write_text(json.dumps(doc))
        code, _, err = run_cli(["plan", workdir / "square.gcode", slow,
                                workdir / "s.txt"], capsys)
        assert code == 5
        assert "ticks" in err and "(g-code line 2)" in err

    def test_malformed_config_exit_4(self, workdir, capsys):
        bad = workdir / "bad.json"
        doc = config.default_config_doc("bridge_xy")
        doc["typo_key"] = True
        bad.write_text(json.dumps(doc))
        code, _, _ = run_cli(["plan", workdir / "square.gcode", bad,
                              workdir / "s.txt"], capsys)
        assert code == 4


class TestPlanColumns:
    def test_commands_never_build_the_ticks_view(self, workdir, capsys,
                                                  monkeypatch):
        # plan, reconfigure and simulate read the plan's columns only
        doc = config.default_config_doc("bridge_xy")
        doc["roster"].append({"id": "r4"})
        (workdir / "bridge4.json").write_text(json.dumps(doc))
        config.write_default_config("printer_bridge", str(workdir / "pb.json"))
        commands = {
            "plan": ["plan", workdir / "square.gcode", workdir / "bridge.json"],
            "reconfigure": ["reconfigure", workdir / "bridge4.json",
                            workdir / "pb.json"],
            "simulate": ["simulate", workdir / "square.gcode",
                         workdir / "bridge.json", "--report", "--csv",
                         workdir / "trace.csv", "--stream"],
        }
        expected = {}
        for name, argv in commands.items():
            expected[name] = run_cli(argv + [workdir / f"{name}.txt"], capsys)
            assert expected[name][0] == 0
            expected[name] += ((workdir / f"{name}.txt").read_bytes(),)

        def refuse(plan):
            raise AssertionError("Plan.ticks built")

        monkeypatch.setattr(coordinator.Plan, "ticks", property(refuse))
        for name, argv in commands.items():
            got = run_cli(argv + [workdir / f"{name}.txt"], capsys)
            assert got + ((workdir / f"{name}.txt").read_bytes(),) \
                == expected[name]


class TestSimulate:
    def test_report_lines(self, workdir, capsys):
        code, out, _ = run_cli(["simulate", workdir / "square.gcode",
                                workdir / "bridge.json", "--report"], capsys)
        assert code == 0
        assert "max_deviation_mm=" in out
        assert "extruded_length_mm=4.000000" in out

    def test_deterministic_outputs(self, workdir, capsys):
        for tag in ("a", "b"):
            code, _, _ = run_cli(
                ["simulate", workdir / "square.gcode", workdir / "bridge.json",
                 "--svg", workdir / f"{tag}.svg", "--csv", workdir / f"{tag}.csv",
                 "--stream", workdir / f"{tag}.txt", "--seed", 9], capsys)
            assert code == 0
        for ext in ("svg", "csv", "txt"):
            assert ((workdir / f"a.{ext}").read_bytes()
                    == (workdir / f"b.{ext}").read_bytes())

    def test_bridge_skew_cites_line(self, workdir, capsys):
        doc = config.default_config_doc("bridge_xy")
        doc["sim"]["noise_std"] = 0.3
        noisy = workdir / "noisy.json"
        noisy.write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", workdir / "square.gcode", noisy,
                                "--dt", 0.005, "--seed", 3], capsys)
        assert code == 5
        assert err == ("error: bridge skew 1.0162 mm exceeds 1.0 mm "
                       "(g-code line 5)\n")

    def test_stall_cites_line(self, workdir, capsys):
        # the carriage turns in place to reverse at the barrier of line 2,
        # which takes longer than a 0.05 s stall timeout
        (workdir / "reverse.gcode").write_text(
            "G1 X230 Y100 F600\nG1 X200 Y100\n")
        doc = config.default_config_doc("bridge_xy")
        doc["planning"]["stall_timeout"] = 0.05
        (workdir / "short.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", workdir / "reverse.gcode",
                                workdir / "short.json"], capsys)
        assert code == 6
        assert err == ("error: no progress for 0.05 s at plan tick 31 "
                       "(t=4.17 s) (g-code line 2)\n")

    def test_config_dt_sim_out_of_range(self, workdir, capsys):
        doc = config.default_config_doc("bridge_xy")
        doc["sim"]["dt_sim"] = -1
        (workdir / "bad.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", workdir / "square.gcode",
                                workdir / "bad.json"], capsys)
        assert code == 4
        assert "dt_sim" in err and "--dt" not in err

    def test_dt_larger_than_plan_usage_error(self, workdir, capsys):
        code, _, _ = run_cli(["simulate", workdir / "square.gcode",
                              workdir / "bridge.json", "--dt", 0.5], capsys)
        assert code == 1


class TestMachines:
    def test_list(self, workdir, capsys):
        code, out, _ = run_cli(["machines", "list"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert "bridge_xy robots=3" in lines[0]
        assert any("wire2d_wall robots=2" in l for l in lines)

    def test_init_round_trips(self, workdir, capsys):
        path = workdir / "w3.json"
        code, _, _ = run_cli(["machines", "init", "wire3d_printer", path], capsys)
        assert code == 0
        cfg = config.load_config(str(path))
        assert cfg.morphology == "wire3d_printer"

    def test_init_bogus(self, workdir, capsys):
        code, _, _ = run_cli(["machines", "init", "bogus",
                              workdir / "x.json"], capsys)
        assert code == 1


class TestReconfigure:
    def test_transition_stream(self, workdir, capsys):
        doc = config.default_config_doc("bridge_xy")
        doc["roster"].append({"id": "r4"})
        (workdir / "bridge4.json").write_text(json.dumps(doc))
        config.write_default_config("printer_bridge", str(workdir / "pb.json"))
        out_path = workdir / "trans.txt"
        code, out, _ = run_cli(["reconfigure", workdir / "bridge4.json",
                                workdir / "pb.json", out_path], capsys)
        assert code == 0
        assert out_path.read_text().strip() != ""

    def test_identical_configs_empty_stream(self, workdir, capsys):
        out_path = workdir / "trans.txt"
        code, _, _ = run_cli(["reconfigure", workdir / "bridge.json",
                              workdir / "bridge.json", out_path], capsys)
        assert code == 0
        assert out_path.read_text() == ""

    def test_too_few_parking_spots_exit_5(self, workdir, capsys):
        config.write_default_config("printer_bridge", str(workdir / "pb.json"))
        doc = config.default_config_doc("wire2d_wall")
        doc["roster"] += [{"id": "r3"}, {"id": "r4"}]
        doc["parking"] = [[200.0, -700.0]]
        (workdir / "wall.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["reconfigure", workdir / "pb.json",
                                workdir / "wall.json", workdir / "t.txt"],
                               capsys)
        assert code == 5
        assert "r4" in err

    def test_disjoint_rosters_exit_5(self, workdir, capsys):
        doc = config.default_config_doc("printer_bridge")
        for i, entry in enumerate(doc["roster"]):
            entry["id"] = f"z{i}"
        (workdir / "pbz.json").write_text(json.dumps(doc))
        code, _, _ = run_cli(["reconfigure", workdir / "bridge.json",
                              workdir / "pbz.json", workdir / "t.txt"], capsys)
        assert code == 5


class TestUsage:
    def test_no_args(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
