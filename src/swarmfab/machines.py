"""The morphologies, each declared once in SPECS, and the mechanics of
their families as row kernels.  The morphology names and roles of
coordinator, the kinds of a machine's robots, and config's geometry keys
and scaffolds all derive from SPECS.

A machine is built once per MachineConfig (as `config.machine`) and works on
rows: `points` is an N x 3 array of tool points, one per row, and `sols`
their IK solutions, an N x k array.  Its kernels are
  limits(params)     speed limit of each actuated axis, in `deltas` units,
                     from the params of the roster's robots
  solve(points)      IK solution of every row; raises for the first row out
                     of reach
  zero(datum)        what rotation targets are relative to: the datum's z
                     (bridge) or its wire lengths (wire)
  kinds              setpoint kind of each of `ids`, move or rotate
  setpoints(points, sols, zero)  the N x 3R setpoint rows of the tool
                     points, (x, y, theta) of each of the R robots of `ids`
                     (coordinator.Plan)
  deltas(starts, ends, start_sols, end_sols)  travel of each actuated axis
                     over every segment, one array per axis
  reach(points)      (mask, reason) pairs of the rows out of reach, in the
                     order a point is tested (see kin.workspace_contains_rows)
  tool_tips(poses, rotations, cols, zero)  FK of every row of pose (N x R x
                     3) and rotation (N x R) columns; `cols` holds the column
                     of each of `ids`.  The one check of a pose: raises the
                     KinematicsError of the first row that has one (rails
                     skewed past sync_tol, wires that do not meet), with
                     that row as its `row`
where `ids` are coordinator.active_robots(config).  The planner calls
`reach` (through kin.workspace_contains_rows), `solve` and `setpoints` once
on the segments' endpoints and once per block of interior ticks, and
`deltas` once per plan; the wire machines' `tool_tips` runs the FK a block
of FK_BLOCK_ROWS rows at a time; the one-point kinematics
functions (bridge_ik, workspace_contains, ...) are one-row calls of the
kernels these use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kinematics as kin
from .errors import KinematicsError
from .robot import ACTUATOR_ROLES, RobotParams

# rows per block of the wire machines' FK
FK_BLOCK_ROWS = 4096


def _omega_max(params: RobotParams) -> float:
    return 2.0 * params.max_wheel_speed / params.wheel_track


def _required(config, name: str):
    value = getattr(config, name)
    if value is None:
        raise ValueError(f"{config.morphology} config needs a {name}")
    return value


class Bridge:
    """A bridge plotter, and a bridge printer given a lead screw: two rail
    robots carry the bridge (y), the carriage rides it (x) and the 4th
    robot turns the screw (z).  An IK solution is the bridge decomposition
    (see kin.bridge_ik_rows)."""

    def __init__(self, config, kinds, geom, screw=None):
        self.geom, self.screw, self.kinds = geom, screw, kinds
        self.sync_tol = config.sync_tol
        self.table_position = config.table_position

    def limits(self, params: list[RobotParams]) -> list[float]:
        return [p.max_wheel_speed if kind == "move" else _omega_max(p)
                for p, kind in zip(params, self.kinds)]

    def solve(self, points) -> np.ndarray:
        return kin.bridge_ik_rows(points[:, :2], self.geom)

    def zero(self, datum) -> float:
        return datum[2]

    def setpoints(self, points, sols, zero) -> np.ndarray:
        rows = np.empty((len(points), 3 * len(self.kinds)))
        rows[:, 0] = self.geom.rail1_x
        rows[:, 3] = self.geom.rail1_x + self.geom.bridge_span
        rows[:, [1, 4]] = sols[:, [1, 3]]
        rows[:, 6:8] = points[:, :2]
        rows[:, 2:9:3] = 0.0
        if self.screw is not None:
            rows[:, 9:11] = self.table_position
            rows[:, 11] = kin.leadscrew_delta(points[:, 2] - zero, self.screw)
        return rows

    def deltas(self, starts, ends, start_sols, end_sols) -> list:
        dx, dy, dz = (ends - starts).T
        deltas = [dy, dy, dx]
        if self.screw is not None:
            deltas.append(kin.leadscrew_delta(dz, self.screw))
        return deltas

    def reach(self, points) -> list:
        geom, screw = self.geom, self.screw
        z = points[:, 2]
        checks = [(kin._carriage_outside(points[:, 0], geom),
                   "CarriageTravel")]
        if screw is None:
            checks.append((np.abs(z - geom.bridge_height) > 1e-9, "NonPlanar"))
        else:
            checks.append((~((screw.z_min <= z) & (z <= screw.z_max)),
                           "ZTravel"))
        return checks

    def tool_tips(self, poses, rotations, cols, zero) -> np.ndarray:
        geom, screw = self.geom, self.screw
        tips = np.empty((len(poses), 3))
        tips[:, :2] = kin.bridge_fk_rows(
            poses[:, cols[0], :2], poses[:, cols[1], :2],
            poses[:, cols[2], 0] - geom.rail1_x, geom, sync_tol=self.sync_tol)
        if screw is None:
            tips[:, 2] = geom.bridge_height
        else:
            tips[:, 2] = zero + (screw.direction * rotations[:, cols[3]]
                                 * screw.pitch / (2 * math.pi))
        return tips


class Wire:
    """A planar wall plotter on 2 wires, and a 3-wire printer with its table
    robot: one spool robot per wire anchor sets the wire lengths.  An IK
    solution is the row of wire lengths; the wall plotter works in the
    plane z = 0."""

    def __init__(self, config, kinds, geom):
        self.geom, self.kinds = geom, kinds
        self.planar = isinstance(geom, kin.WireGeometry2D)
        self.spools = [(a[0], a[1]) for a in geom.anchors]
        # a table robot, after the spools, holds one setpoint for the plan
        self.table = (*config.table_position, 0.0)

    def limits(self, params: list[RobotParams]) -> list[float]:
        return [self.geom.spool_radius * _omega_max(p)
                for p in params[:len(self.spools)]]

    def solve(self, points) -> np.ndarray:
        if self.planar:
            return kin.wire2d_ik_rows(points[:, :2], self.geom)
        return kin.wire3d_ik_rows(points, self.geom)

    def zero(self, datum) -> tuple:
        return tuple(self.solve(np.array([datum], dtype=float))[0].tolist())

    def setpoints(self, points, sols, zero) -> np.ndarray:
        n, spools, robots = len(points), len(self.spools), len(self.kinds)
        rows = np.empty((n, robots, 3))
        rows[:, :spools, :2] = self.spools
        rows[:, :spools, 2] = kin.spool_delta(sols - np.asarray(zero),
                                              self.geom.spool_radius)
        rows[:, spools:] = self.table
        return rows.reshape(n, 3 * robots)

    def deltas(self, starts, ends, start_sols, end_sols) -> list:
        return list((end_sols - start_sols).T)

    def reach(self, points) -> list:
        if self.planar:
            return kin._wire2d_reach(points[:, 0], points[:, 1], self.geom) + [
                (np.abs(points[:, 2]) > 1e-9, "NonPlanar")]
        return [(kin._depth(self.geom, points) <= self.geom.workspace_margin,
                 "AboveAnchors")]

    def tool_tips(self, poses, rotations, cols, zero) -> np.ndarray:
        # the wall plotter's FK gives (x, y), the printer's (x, y, z)
        fk, dims = ((kin.wire2d_fk_rows, 2) if self.planar
                    else (kin.wire3d_fk_rows, 3))
        spools = cols[:len(self.spools)]
        tips = np.zeros((len(poses), 3))
        # FK_BLOCK_ROWS rows at a time bound the FK's temporaries; the rows
        # are independent, so the first failing row still raises first
        for a in range(0, len(poses), FK_BLOCK_ROWS):
            block = slice(a, a + FK_BLOCK_ROWS)
            lengths = (np.asarray(zero) + self.geom.spool_radius
                       * rotations[block, spools])
            try:
                tips[block, :dims] = fk(lengths, self.geom)
            except KinematicsError as exc:
                exc.row += a
                raise
        return tips


class Part(NamedTuple):
    """A MachineConfig field of a machine's geometry, its class, and the
    keys of the JSON block that sets it, each with its scaffold value: None
    for the default of cls, or the Part of a nested block."""

    field: str
    cls: type
    keys: dict


class Morphology(NamedTuple):
    """A machine: a roster of roles on the mechanism of one family."""

    roles: tuple[str, ...]  # of its active robots, in roster order
    family: type  # gets the fields of `geometry`, and tells its variant
    geometry: Part
    workspace: tuple[list, list]  # the scaffold's min and max
    home: list  # the scaffold's


_BRIDGE = {"rail1_x": None, "bridge_span": 400.0, "carriage_min": 30.0,
           "carriage_max": 370.0}
_WIRE = {"spool_radius": 20.0, "workspace_margin": None}

# Every morphology, in the order `swarmfab machines list` prints them.  A
# geometry block's keys are those of its Part, in scaffold order; a nested
# block is required; table_position is where the table robot stands; and a
# config's anchors match the scaffold's in count and in numbers per anchor.
SPECS = {
    "bridge_xy": Morphology(
        ("bridge_left", "bridge_right", "carriage"), Bridge,
        Part("bridge_geometry", kin.BridgeGeometry,
             {**_BRIDGE, "bridge_height": None}),
        ([30.0, 0.0, 0.0], [370.0, 500.0, 0.0]), [200.0, 100.0, 0.0]),
    "wire2d_wall": Morphology(
        ("extruder_spool_1", "extruder_spool_2"), Wire,
        Part("wire2d_geometry", kin.WireGeometry2D,
             {"anchors": [[0.0, 0.0], [1000.0, 0.0]], **_WIRE}),
        ([150.0, -750.0, 0.0], [850.0, -150.0, 0.0]), [500.0, -400.0, 0.0]),
    "wire3d_printer": Morphology(
        ("extruder_spool_1", "extruder_spool_2", "extruder_spool_3", "table"),
        Wire,
        Part("wire3d_geometry", kin.WireGeometry3D, {
            "anchors": [[0.0, 0.0, 500.0], [400.0, 0.0, 500.0],
                        [200.0, 350.0, 500.0]],
            **_WIRE, "table_position": [200.0, 120.0]}),
        ([80.0, 60.0, 0.0], [320.0, 260.0, 350.0]), [200.0, 120.0, 50.0]),
    # the 4th robot carries the part table on a lead-screw elevator; the
    # screw sets z, so the bridge has no bridge_height
    "printer_bridge": Morphology(
        ("bridge_left", "bridge_right", "carriage", "leadscrew"), Bridge,
        Part("bridge_geometry", kin.BridgeGeometry, {
            **_BRIDGE,
            "screw": Part("lead_screw", kin.LeadScrew, {
                "pitch": 8.0, "direction": None, "z_min": None,
                "z_max": None}),
            "table_position": [200.0, -60.0]}),
        ([30.0, 0.0, 0.0], [370.0, 500.0, 200.0]), [200.0, 100.0, 0.0]),
}


def build(config):
    """The machine of a MachineConfig: its morphology's family, given the
    kind of each robot (rotate for robot.ACTUATOR_ROLES, else move) and the
    value of each field of its geometry, nested ones last."""
    spec = SPECS[config.morphology]
    kinds = tuple("rotate" if role in ACTUATOR_ROLES else "move"
                  for role in spec.roles)
    parts = [spec.geometry, *(value for value in spec.geometry.keys.values()
                              if isinstance(value, Part))]
    return spec.family(config, kinds,
                       *[_required(config, part.field) for part in parts])
