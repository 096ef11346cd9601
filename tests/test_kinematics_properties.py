"""Property tests: IK -> FK round trips on every morphology, and the wire
FK against its array-formulation oracle, bit for bit."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from swarmfab import kinematics as kin  # noqa: E402

from test_kinematics import (  # noqa: E402
    BRIDGE,
    WIRE2D,
    WIRE3D,
    WIRE3D_GEOMETRIES,
    assert_rows_match,
    assert_same_floats,
    outcome,
    wire2d_fk_oracle,
    wire3d_fk_oracle,
)

SETTINGS = hypothesis.settings(max_examples=300, deadline=None)


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


@SETTINGS
@hypothesis.given(x=floats(0.0, 400.0), y=floats(-500.0, 500.0))
def test_bridge_round_trip(x, y):
    sol = kin.bridge_ik((x, y), BRIDGE)
    q = kin.bridge_fk(sol["bridge1"], sol["bridge2"], sol["carriage_offset"],
                      BRIDGE)
    assert math.dist((x, y), q) <= 1e-12


@SETTINGS
@hypothesis.given(x=floats(50.0, 950.0), z=floats(-800.0, -50.0))
def test_wire2d_round_trip(x, z):
    q = kin.wire2d_fk(*kin.wire2d_ik((x, z), WIRE2D), WIRE2D)
    assert math.dist((x, z), q) <= 1e-9


@SETTINGS
@hypothesis.given(x=floats(50.0, 350.0), y=floats(40.0, 300.0),
                  z=floats(10.0, 450.0))
def test_wire3d_round_trip(x, y, z):
    q = kin.wire3d_fk(*kin.wire3d_ik((x, y, z), WIRE3D), WIRE3D)
    assert math.dist((x, y, z), q) <= 1e-7


@SETTINGS
@hypothesis.given(pitch=floats(0.5, 20.0), direction=st.sampled_from((1, -1)),
                  dz=floats(-200.0, 200.0))
def test_leadscrew_round_trip(pitch, direction, dz):
    screw = kin.LeadScrew(pitch=pitch, direction=direction)
    theta = kin.leadscrew_delta(dz, screw)
    # the inverse the simulator applies to the screw robot's rotation
    back = screw.direction * theta * screw.pitch / (2 * math.pi)
    assert abs(back - dz) <= 1e-12 * max(1.0, abs(dz))


@SETTINGS
@hypothesis.given(geom=st.sampled_from(WIRE3D_GEOMETRIES),
                  x=floats(-100.0, 500.0), y=floats(-100.0, 450.0),
                  depth=floats(0.0, 480.0),
                  noise=st.tuples(floats(-1.0, 1.0), floats(-1.0, 1.0),
                                  floats(-1.0, 1.0)))
def test_wire3d_fk_matches_oracle(geom, x, y, depth, noise):
    lengths = perturbed_lengths(geom, x, y, depth, noise)
    expected = outcome(wire3d_fk_oracle, *lengths, geom)
    assert_same_floats(outcome(kin.wire3d_fk, *lengths, geom), expected)


def perturbed_lengths(geom, x, y, depth, noise):
    """Lengths to a point `depth` below the plane through (x, y), perturbed."""
    n = geom.down_normal
    a0 = geom.anchors[0]
    height = (n[0] * (x - a0[0]) + n[1] * (y - a0[1])) / -n[2]
    p = (x, y, a0[2] + height - depth)
    return [math.dist(p, a) + e for a, e in zip(geom.anchors, noise)]


@SETTINGS
@hypothesis.given(geom=st.sampled_from(WIRE3D_GEOMETRIES),
                  points=st.lists(st.tuples(
                      floats(-100.0, 500.0), floats(-100.0, 450.0),
                      floats(0.0, 480.0),
                      st.tuples(floats(-1.0, 1.0), floats(-1.0, 1.0),
                                floats(-1.0, 1.0))), min_size=1, max_size=6))
def test_wire3d_fk_rows_match_oracle(geom, points):
    rows = [perturbed_lengths(geom, *point) for point in points]
    assert_rows_match(kin.wire3d_fk_rows, wire3d_fk_oracle, rows, geom)


@SETTINGS
@hypothesis.given(rows=st.lists(st.tuples(floats(-10.0, 1500.0),
                                          floats(-10.0, 1500.0)),
                                min_size=1, max_size=6))
def test_wire2d_fk_rows_match_oracle(rows):
    assert_rows_match(kin.wire2d_fk_rows, wire2d_fk_oracle, rows, WIRE2D)


@SETTINGS
@hypothesis.given(lengths=st.tuples(floats(1.0, 1500.0), floats(1.0, 1500.0),
                                    floats(1.0, 1500.0)))
# x = 638.36 + step, where the step is within a hair of half an ulp of x:
# an LU step and lstsq's round the sum opposite ways
@hypothesis.example(lengths=(714.625, 400.0, 714.625))
def test_wire3d_fk_matches_oracle_any_lengths(lengths):
    assert_same_floats(outcome(kin.wire3d_fk, *lengths, WIRE3D),
                       outcome(wire3d_fk_oracle, *lengths, WIRE3D))


@SETTINGS
@hypothesis.given(lengths=st.tuples(floats(-10.0, 1500.0),
                                    floats(-10.0, 1500.0)))
def test_wire2d_fk_matches_oracle(lengths):
    assert_same_floats(outcome(kin.wire2d_fk, *lengths, WIRE2D),
                       outcome(wire2d_fk_oracle, *lengths, WIRE2D))
