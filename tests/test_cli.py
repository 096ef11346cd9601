import json
import os
import subprocess
import sys
import time

import pytest

import swarmfab
from swarmfab import cli, config, coordinator, gcode, sim

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

    def test_metadata_on_stderr(self, workdir, capsys):
        # an M code kept as metadata: one stderr line, with its parameters
        # in source order
        meta = workdir / "meta.gcode"
        meta.write_text("G1 X1 F600\nM104 S200 P1\n")
        code, out, err = run_cli(["parse", meta], capsys)
        assert code == 0 and len(out.splitlines()) == 1
        assert err == "meta M104 params={'S': 200.0, 'P': 1.0} line=2\n"

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

    @pytest.mark.parametrize("arc", ["G2 X10 Y0 R" + "9" * 400,
                                     "G2 X0 Y0 I" + "9" * 400 + " J0"],
                             ids=["R", "IJ"])
    def test_arc_not_finite_cites_line(self, workdir, capsys, arc):
        bad = workdir / "arc.gcode"
        bad.write_text(f"G1 X1 F600\n{arc}\n")
        code, out, err = run_cli(["parse", bad], capsys)
        assert (code, out, err) == (2, "", "error: line 2: arc is not finite\n")

    def test_not_utf8_cites_line(self, workdir, capsys):
        bad = workdir / "bad.gcode"
        bad.write_bytes(b"G28\nG1 X1 ; caf\xe9\nG1 X2\n")
        code, out, err = run_cli(["parse", bad], capsys)
        assert (code, out, err) == (2, "", "error: line 2: not UTF-8 text\n")


class TestPlan:
    def test_writes_stream_and_summary(self, workdir, capsys):
        out_path = workdir / "stream.txt"
        code, out, _ = run_cli(["plan", workdir / "square.gcode",
                                workdir / "bridge.json", out_path], capsys)
        assert code == 0
        assert "ticks=" in out and "barriers=" in out
        assert out_path.read_text().startswith("t=0.000000")

    @pytest.mark.parametrize("ticks", [0, 1])
    def test_summary_of_a_short_plan(self, tmp_path, capsys, ticks):
        # an empty plan, and one of a single tick at t = 0.0
        cfg = config.default_config("bridge_xy")
        home = cfg.home
        setpoints = coordinator.plan_program(
            [gcode.MotionSegment(home, home, 50.0, 0.0, "travel", 1)],
            cfg).ticks[0].setpoints
        plan = coordinator.Plan.from_ticks(
            [coordinator.PlanTick(0.0, setpoints, home, False, 0.0, 1)][:ticks],
            [], cfg.morphology)
        out_path = tmp_path / "stream.txt"
        assert cli._write_plan(out_path, plan, cfg) == 0
        assert capsys.readouterr().out == (f"ticks={ticks} "
                                           f"duration_s=0.000000 barriers=0\n")
        assert len(out_path.read_text().splitlines()) == 6 * ticks

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

    def test_geometry_out_of_range_exit_4(self, workdir, capsys):
        # a carriage travel that starts past its end: one error line that
        # names the file and the geometry check
        bad = workdir / "travel.json"
        doc = config.default_config_doc("bridge_xy")
        doc["geometry"]["carriage_min"] = 380
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["plan", workdir / "square.gcode", bad,
                                  workdir / "s.txt"], capsys)
        assert code == 4 and out == ""
        assert err == (f"error: config {bad}: geometry: carriage travel "
                       f"must satisfy 0 <= min < max <= span\n")


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

    def test_report_of_an_empty_program(self, workdir, capsys):
        # no motion: an empty plan, trace and report
        (workdir / "empty.gcode").write_text("G21\nG90\n")
        code, out, err = run_cli(["simulate", workdir / "empty.gcode",
                                  workdir / "bridge.json", "--report"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "max_deviation_mm=0.000000", "mean_deviation_mm=0.000000",
            "total_print_length_mm=0.000000",
            "total_travel_length_mm=0.000000", "simulated_duration_s=0.000000",
            "barrier_wait_total_s=0.000000", "extruded_length_mm=0.000000"]

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

    def overlap_warnings(self, workdir, capsys, radius):
        # the simulate run succeeds, with its warnings on stderr
        wide = _config_with(workdir, "wide.json", "bridge_xy",
                            lambda doc: doc["roster"][0].update(
                                body_radius=radius))
        code, _, err = run_cli(["simulate", workdir / "square.gcode", wide],
                               capsys)
        assert code == 0
        return err.splitlines()

    def test_overlap_warnings(self, workdir, capsys):
        # rail robot r1, 250 mm wide, overlaps the carriage r3 at all of
        # the run's 1,327 samples: one warning for the pair's one contact
        assert self.overlap_warnings(workdir, capsys, 250) == [
            "warning: overlap t=0.000..13.260 r1/r3 d_min=200.000"]

    def test_overlap_warning_per_contact(self, workdir, capsys):
        # 200 mm wide, r1 overlaps r3 until the carriage moves off toward
        # x=230, and again once it is back: two contacts, each with its
        # least distance
        assert self.overlap_warnings(workdir, capsys, 200) == [
            "warning: overlap t=0.000..3.010 r1/r3 d_min=200.000",
            "warning: overlap t=10.020..13.260 r1/r3 d_min=209.424"]

    def test_contacts_match_runs_of_samples(self):
        # rails r1 and r2, 200 mm wide, touch at their 400 mm span on and
        # off, while each overlaps the carriage: the contacts are each
        # pair's runs of consecutive overlapping samples, in the order they
        # begin, a run's pairs in sorted order
        doc = config.default_config_doc("bridge_xy")
        for entry in doc["roster"][:2]:
            entry["body_radius"] = 200
        cfg = config.parse_config(doc)
        segments = gcode.interpret(gcode.parse_program(SQUARE),
                                   home=cfg.home).segments
        trace = sim.run(coordinator.plan_program(segments, cfg), cfg)
        ids = trace.robot_ids
        pairs = [f"{a}/{b}" for i, a in enumerate(ids) for b in ids[i + 1:]]
        sample = {t: n for n, t in enumerate(trace.t.tolist())}
        hits = {}
        for event in sim.overlap_diagnostic(trace, cfg):
            pair = f"{event.robot_a}/{event.robot_b}"
            hits.setdefault(pair, {})[sample[event.t]] = event
        runs = []
        for pair, at in hits.items():
            starts = [n for n in at if n - 1 not in at]
            for n in starts:
                run = [at[n]]
                while n + 1 in at:
                    n += 1
                    run.append(at[n])
                runs.append((sample[run[0].t], pairs.index(pair), pair, run))
        expected = [[run[0].t, run[-1].t, pair,
                     min(event.distance for event in run)]
                    for _, _, pair, run in sorted(runs)]
        assert len(expected) > 40 and len(hits) == 3
        assert sim.overlap_contacts(trace, cfg) == expected

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
        # spool 1 turns at most 1e-3 mm/s at its rim: 0.77 urad per step,
        # too little to count as progress, so once it falls behind its
        # setpoint it stalls within one 0.1 s plan tick
        (workdir / "nudge.gcode").write_text("G1 X201 Y120 Z50 F600\n")
        doc = config.default_config_doc("wire3d_printer")
        doc["roster"][0]["max_wheel_speed"] = 1e-3
        doc["planning"]["stall_timeout"] = 0.05
        (workdir / "slow.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", workdir / "nudge.gcode",
                                workdir / "slow.json"], capsys)
        assert code == 6
        assert err == ("error: no progress for 0.05 s at plan tick 262 "
                       "(t=26.18 s) (g-code line 1)\n")

    def test_turn_in_place_is_progress(self, workdir, capsys):
        # the carriage turns in place to reverse at the barrier of line 2,
        # for longer than a 0.05 s stall timeout, and its heading error
        # falls all the while
        (workdir / "reverse.gcode").write_text(
            "G1 X230 Y100 F600\nG1 X200 Y100\n")
        doc = config.default_config_doc("bridge_xy")
        doc["planning"]["stall_timeout"] = 0.05
        (workdir / "short.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", workdir / "reverse.gcode",
                                workdir / "short.json"], capsys)
        assert (code, err) == (0, "")

    def test_sample_cap_exit_5(self, workdir, capsys):
        # one move at F1 plans 10,807 s: more than sim.MAX_SAMPLES samples
        # of 0.001 s, refused before the first step
        (workdir / "slow.gcode").write_text(
            "G21\nG90\nM83\nG92 E0\nG1 X200 Y280.125 F1\n")
        config.write_default_config("printer_bridge",
                                    str(workdir / "printer.json"))
        start = time.perf_counter()
        code, out, err = run_cli(["simulate", workdir / "slow.gcode",
                                  workdir / "printer.json", "--dt", 0.001],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (5, "")
        assert err == (f"error: run longer than {sim.MAX_SAMPLES} samples of "
                       f"0.001 s at plan tick 20001 (t=2000.10 s) "
                       f"(g-code line 5)\n")

    def test_config_dt_sim_out_of_range(self, workdir, capsys):
        doc = config.default_config_doc("bridge_xy")
        doc["sim"]["dt_sim"] = -1
        (workdir / "bad.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", workdir / "square.gcode",
                                workdir / "bad.json"], capsys)
        assert code == 4
        assert "dt_sim" in err and "--dt" not in err

    def test_negative_seed_usage_error(self, workdir, capsys):
        doc = config.default_config_doc("bridge_xy")
        doc["sim"]["noise_std"] = 0.5
        (workdir / "noisy.json").write_text(json.dumps(doc))
        for cfg in ("bridge.json", "noisy.json"):
            code, out, err = run_cli(["simulate", workdir / "square.gcode",
                                      workdir / cfg, "--seed", -1], capsys)
            assert (code, out) == (1, "")
            *usage, last = err.splitlines()
            assert usage[0].startswith("usage: swarmfab simulate")
            assert last == ("error: argument --seed: invalid seed: '-1' "
                            "(a non-negative integer)")

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

    def test_parked_robots_in_stream(self, workdir, capsys):
        # bridge_xy -> wire2d_wall: r1 and r2 become the spools and r3,
        # which the wall plotter's roster lacks, parks; its records follow
        # the roster's robots
        config.write_default_config("wire2d_wall", str(workdir / "wall.json"))
        out_path = workdir / "trans.txt"
        code, _, _ = run_cli(["reconfigure", workdir / "bridge.json",
                              workdir / "wall.json", out_path], capsys)
        assert code == 0
        records = [line.split(" line=")[0].split(" ", 1)[1]
                   for line in out_path.read_text().splitlines()]
        parked = "id=r3 op=move x=150.000000 y=-750.000000"
        assert records == [
            "id=r1 op=move x=0.000000 y=0.000000",
            "id=r2 op=move x=1000.000000 y=0.000000", parked] * 2 + [
            "id=r1 op=stop", "id=r2 op=stop", "id=r3 op=stop"]

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


def _config_with(workdir, name, morphology, edit):
    doc = config.default_config_doc(morphology)
    edit(doc)
    (workdir / name).write_text(json.dumps(doc))
    return workdir / name


def _stalling_job(workdir):
    # the stall of TestSimulate.test_stall_cites_line
    (workdir / "nudge.gcode").write_text("G1 X201 Y120 Z50 F600\n")

    def slow(doc):
        doc["roster"][0]["max_wheel_speed"] = 1e-3
        doc["planning"]["stall_timeout"] = 0.05
    return ["simulate", workdir / "nudge.gcode",
            _config_with(workdir, "slow.json", "wire3d_printer", slow)]


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


# each exit code, from an input that gives it; the first four are inputs
# that once ended in a Python traceback
EXIT_CASES = {
    "empty_report": (0, lambda w: [
        "simulate", _write(w / "empty.gcode", b"G21\nG90\n"),
        w / "bridge.json", "--report"]),
    "gcode_not_utf8": (2, lambda w: [
        "parse", _write(w / "bad.gcode", b"G1 X1 F600\n\xff\n")]),
    "config_not_utf8": (4, lambda w: [
        "plan", w / "square.gcode",
        _write(w / "bad.json", b'{"v": 1, "\xff": 0}'), w / "s.txt"]),
    "config_number_overflow": (4, lambda w: [
        "plan", w / "square.gcode",
        _config_with(w, "big.json", "bridge_xy",
                     lambda doc: doc["limits"].update(sync_tol=10 ** 400)),
        w / "s.txt"]),
    "unknown_morphology": (1, lambda w: [
        "machines", "init", "bogus", w / "x.json"]),
    "missing_file": (3, lambda w: ["parse", w / "nope.gcode"]),
    "outside_workspace": (5, lambda w: [
        "plan", _write(w / "far.gcode", b"G1 X9999 F1200\n"),
        w / "bridge.json", w / "s.txt"]),
    "stall": (6, _stalling_job),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_code_matrix(workdir, capsys, case):
    want, argv = EXIT_CASES[case]
    code, _, err = run_cli(argv(workdir), capsys)
    assert code == want
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == (1 if want else 0)


def test_closed_pipe_exits_quietly(tmp_path):
    # `swarmfab parse big.gcode | head -1`: the reader takes one line of
    # ~1.6 MB and closes the pipe under the writer
    path = tmp_path / "big.gcode"
    path.write_text("".join(f"G1 X{i % 100} Y{i // 100} F600\n"
                            for i in range(20_000)))
    src = os.path.dirname(os.path.dirname(swarmfab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-m", "swarmfab.cli", "parse",
                             str(path)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b"travel ")
    assert err == b""


def _fresh_cli(argv, cwd):
    """A `swarmfab` run in a new interpreter: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(swarmfab.__file__))
    proc = subprocess.run([sys.executable, "-m", "swarmfab.cli",
                           *map(str, argv)], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_per_process_answers_as_a_fresh_one(workdir, capsys):
    """main builds its parser once; a usage error, then plan, then simulate
    in one process give the exit code, output and files of a fresh run."""
    calls = [
        ["plan", workdir / "square.gcode"],
        ["plan", workdir / "square.gcode", workdir / "bridge.json",
         workdir / "stream.txt"],
        ["simulate", workdir / "square.gcode", workdir / "bridge.json",
         "--report", "--csv", workdir / "trace.csv"],
    ]
    here = []
    for argv in calls:
        here.append(run_cli(argv, capsys))
        here.append({name: (workdir / name).read_bytes()
                     for name in ("stream.txt", "trace.csv")
                     if (workdir / name).exists()})
    assert cli._parser() is cli._parser()
    for name in ("stream.txt", "trace.csv"):
        (workdir / name).unlink()
    fresh = []
    for argv in calls:
        fresh.append(_fresh_cli(argv, workdir))
        fresh.append({name: (workdir / name).read_bytes()
                      for name in ("stream.txt", "trace.csv")
                      if (workdir / name).exists()})
    assert here == fresh
    assert [result[0] for result in here[::2]] == [1, 0, 0]


@pytest.mark.parametrize("sep", [b"\r", b"\r\n", "\u2028".encode()],
                         ids=["cr", "crlf", "ls"])
def test_not_utf8_line_numbered_as_other_errors(workdir, capsys, sep):
    lines = [b"G1 X1 F600", b"G1 X2", b"\xff", b""]
    bad = _write(workdir / "bad.gcode", sep.join(lines))
    code, _, err = run_cli(["parse", bad], capsys)
    assert (code, err) == (2, "error: line 3: not UTF-8 text\n")
    lines[2] = b"G7"
    other = _write(workdir / "g7.gcode", sep.join(lines))
    code, _, err = run_cli(["parse", other], capsys)
    assert (code, err) == (2, "error: line 3: G7 is not supported\n")
