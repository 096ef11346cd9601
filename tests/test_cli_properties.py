"""The CLI's error contract on random jobs: small g-code programs, valid
or not, through `parse`, `plan` and `simulate --report --csv --svg
--stream` on the scaffold configs of every morphology with random edits.
Every run exits 0, 1 (usage) or a code of `cli.EXIT_CODES`; a run that
fails prints exactly one `error:` line, and no run prints a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import cli, config  # noqa: E402
from swarmfab.coordinator import MORPHOLOGIES  # noqa: E402

EXITS = {0, cli.EXIT_USAGE, *(code for _, code in cli.EXIT_CODES)}
FEEDS = st.sampled_from([" F1200", " F3000", " F6000", "", "", " F0"])


@st.composite
def moves(draw, home):
    """A G0/G1 move near home, or far outside any workspace, with some
    axes, an extrusion and a feed."""
    words = [draw(st.sampled_from(["G0", "G1", "G1", "G1"]))]
    for axis, base in zip("XYZ", home):
        if draw(st.booleans()):
            value = base + draw(st.floats(-40.0, 40.0))
            if draw(st.integers(0, 4)) == 0:
                value += 1000.0
            words.append(f"{axis}{value:.3f}")
    if draw(st.booleans()):
        words.append(f"E{draw(st.sampled_from(['0.5', '1', '-1']))}")
    return " ".join(words) + draw(FEEDS)


@st.composite
def arcs(draw, home):
    """A move to a point near home, then a G2/G3 arc from it to a point on
    a circle through it, given by its centre offset or its radius."""
    x, y = (base + draw(st.floats(-20.0, 20.0)) for base in home[:2])
    i, j = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    turn = draw(st.floats(-3.0, 3.0))
    r = math.hypot(i, j)
    angle = math.atan2(-j, -i) + turn
    end = (f"X{x + i + r * math.cos(angle):.3f} "
           f"Y{y + j + r * math.sin(angle):.3f}")
    centre = draw(st.sampled_from([f" I{i:.3f} J{j:.3f}", f" R{r:.3f}"]))
    return (f"G1 X{x:.3f} Y{y:.3f}\nG{draw(st.sampled_from('23'))} {end}"
            f"{centre}" + draw(FEEDS))


def program(home):
    move = moves(home)
    lines = st.one_of(
        move, move, move, move, move, move, arcs(home), arcs(home),
        st.sampled_from(["G90", "G91", "M82", "M83", "G92 E0", "G21",
                         "G28", "M104 S200", "; a comment", ""]),
        st.sampled_from(["G90", "M83", "G92 E0", "Q7", "G1 X", "G1 Xabc",
                         "G1 X1e400", "G1 Ynan", "G", "G1 X1 X2", "G4 P0.1",
                         "G1 F-5", "G1 E", "G2 X1 Y1", "G3 X1 Y1 R0"]))
    return st.lists(lines, min_size=1, max_size=6).map(
        lambda lines: "\n".join(lines) + "\n")


# config edits that keep a config valid, and ones that may not
EDITS = st.sampled_from([
    (("limits", "max_tool_speed"), 5.0), (("limits", "sync_tol"), 0.01),
    (("planning", "dt_plan"), 0.05), (("planning", "dt_plan"), 0.5),
    (("planning", "barrier_angle_deg"), 0),
    (("planning", "stall_timeout"), 0.05), (("sim", "dt_sim"), 0.02),
    (("sim", "noise_std"), 0.3), (("sim", "noise_std"), 1.0)])
BAD_EDITS = st.sampled_from([
    (("limits", "max_tool_speed"), 0), (("limits", "max_tool_speed"), "fast"),
    (("planning", "dt_plan"), -0.1), (("planning", "barrier_angle_deg"), 200),
    (("sim", "dt_sim"), 0.2), (("sim", "dt_sim"), 0),
    (("sim", "noise_std"), -1.0), (("roster",), [{"id": "r1"}]),
    (("roster",), [{"id": "a"}, {"id": "a"}]), (("v",), 2), (("bogus",), 1),
    (("home",), [0.0, 0.0, 0.0]), (("workspace", "max"), [1.0, 1.0]),
    (("sim",), None)])


def edited(doc, edits):
    for path, value in edits:
        block = doc
        for key in path[:-1]:
            block = block[key]
        if value is None:
            block.pop(path[-1], None)
        else:
            block[path[-1]] = value
    return doc


def run(argv):
    """cli.main's exit code and stderr; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@st.composite
def jobs(draw):
    morphology = draw(st.sampled_from(MORPHOLOGIES))
    doc = config.default_config_doc(morphology)
    home = doc["home"]
    edits = draw(st.lists(EDITS, max_size=2)
                 | st.lists(BAD_EDITS, min_size=1, max_size=1))
    # the last two: a usage error, and an output file it cannot open
    options = draw(st.sampled_from([[], [], ["--dt", "0.005"], ["--seed", "3"],
                                    ["--dt", "1.0"], ["--seed", "-1"],
                                    ["--svg", os.path.join("no", "out.svg")]]))
    return draw(program(home)), edited(doc, edits), options


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(job=jobs())
def test_exit_codes_and_one_error_line(job):
    gcode, doc, options = job
    with tempfile.TemporaryDirectory() as tmp:
        options = [os.path.join(tmp, item) if item.startswith("no") else item
                   for item in options]
        paths = {name: os.path.join(tmp, name) for name in
                 ("job.gcode", "machine.json", "out.txt", "trace.csv",
                  "out.svg", "stream.txt")}
        with open(paths["job.gcode"], "w", encoding="utf-8") as fh:
            fh.write(gcode)
        with open(paths["machine.json"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        job_files = [paths["job.gcode"], paths["machine.json"]]
        for argv in (["parse", paths["job.gcode"]],
                     ["plan", *job_files, paths["out.txt"]],
                     ["simulate", *job_files, "--report",
                      "--csv", paths["trace.csv"], "--svg", paths["out.svg"],
                      "--stream", paths["stream.txt"], *options]):
            code, err = run(argv)
            hypothesis.event(f"{argv[0]} exit {code}")
            assert code in EXITS, (argv[0], code, err)
            assert "Traceback" not in err
            errors = [line for line in err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == (code != 0), (argv[0], code, err)
