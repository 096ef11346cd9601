"""The mechanics of each morphology family, as row kernels.

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
  setpoints(points, sols, zero)  the setpoint row of every tool point: (x,
                     y, theta) of each of `ids` (see coordinator.Plan)
  deltas(starts, ends, start_sols, end_sols)  travel of each actuated axis
                     over every segment, one array per axis
  reach(points)      (mask, reason) pairs of the rows out of reach, in the
                     order a point is tested (see kin.workspace_contains_rows)
  synced(ids)        the robots whose y must agree within sync_tol
  tool_tips(poses, rotations, cols, zero)  FK of every row of pose (N x R x
                     3) and rotation (N x R) columns; `cols` holds the column
                     of each of `ids`
where `ids` are coordinator.active_robots(config).  The planner calls
`reach` (through kin.workspace_contains_rows), `solve` and `setpoints` once
per block of ticks, and `deltas` once per plan; the one-point kinematics
functions (bridge_ik, workspace_contains, ...) are one-row calls of the
kernels these use.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from . import kinematics as kin
from .robot import RobotParams


def _omega_max(params: RobotParams) -> float:
    return 2.0 * params.max_wheel_speed / params.wheel_track


def _required(config, name: str):
    value = getattr(config, name)
    if value is None:
        raise ValueError(f"{config.morphology} config needs a {name}")
    return value


class Bridge:
    """bridge_xy, and printer_bridge with its lead screw: two rail robots
    carry the bridge (y), the carriage rides it (x) and the 4th robot turns
    the screw (z).  An IK solution is the bridge decomposition (see
    kin.bridge_ik_rows)."""

    def __init__(self, config):
        self.geom = _required(config, "bridge_geometry")
        self.screw = (_required(config, "lead_screw")
                      if config.morphology == "printer_bridge" else None)
        self.sync_tol = config.sync_tol
        self.table_position = config.table_position
        self.kinds = ("move",) * 3
        if self.screw is not None:
            self.kinds += ("rotate",)

    def limits(self, params: list[RobotParams]) -> list[float]:
        limits = [p.max_wheel_speed for p in params[:3]]
        if self.screw is not None:
            limits.append(_omega_max(params[3]))
        return limits

    def solve(self, points) -> np.ndarray:
        return kin.bridge_ik_rows(points[:, :2], self.geom)

    def zero(self, datum) -> float:
        return datum[2]

    def setpoints(self, points, sols, zero) -> list[tuple]:
        rail1_x = self.geom.rail1_x
        rail2_x = rail1_x + self.geom.bridge_span
        y1, y2 = sols[:, 1].tolist(), sols[:, 3].tolist()
        columns = [repeat(rail1_x), y1, repeat(0.0), repeat(rail2_x), y2,
                   repeat(0.0), *points[:, :2].T.tolist(), repeat(0.0)]
        if self.screw is not None:
            theta = kin.leadscrew_delta(points[:, 2] - zero, self.screw)
            columns += [*map(repeat, self.table_position), theta.tolist()]
        return list(zip(*columns))

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

    def synced(self, ids) -> tuple:
        return (ids[0], ids[1])

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
    """wire2d_wall, and wire3d_printer with its table robot: one spool robot
    per wire anchor sets the wire lengths.  An IK solution is the row of
    wire lengths; the wall plotter works in the plane z = 0."""

    def __init__(self, config):
        self.planar = config.morphology == "wire2d_wall"
        self.geom = _required(config, "wire2d_geometry" if self.planar
                              else "wire3d_geometry")
        self.spools = [(a[0], a[1]) for a in self.geom.anchors]
        self.kinds = ("rotate",) * len(self.spools)
        # the 3-wire table robot holds one setpoint for the whole plan
        self.table = () if self.planar else (*config.table_position, 0.0)
        if not self.planar:
            self.kinds += ("move",)

    def limits(self, params: list[RobotParams]) -> list[float]:
        return [self.geom.spool_radius * _omega_max(p)
                for p in params[:len(self.spools)]]

    def solve(self, points) -> np.ndarray:
        if self.planar:
            return kin.wire2d_ik_rows(points[:, :2], self.geom)
        return kin.wire3d_ik_rows(points, self.geom)

    def zero(self, datum) -> tuple:
        return tuple(self.solve(np.array([datum], dtype=float))[0].tolist())

    def setpoints(self, points, sols, zero) -> list[tuple]:
        theta = kin.spool_delta(sols - np.asarray(zero),
                                self.geom.spool_radius)
        columns = []
        for (x, y), spool in zip(self.spools, theta.T.tolist()):
            columns += [repeat(x), repeat(y), spool]
        return list(zip(*columns, *map(repeat, self.table)))

    def deltas(self, starts, ends, start_sols, end_sols) -> list:
        return list((end_sols - start_sols).T)

    def reach(self, points) -> list:
        if self.planar:
            return kin._wire2d_reach(points[:, 0], points[:, 1], self.geom) + [
                (np.abs(points[:, 2]) > 1e-9, "NonPlanar")]
        return [(kin._depth(self.geom, points) <= self.geom.workspace_margin,
                 "AboveAnchors")]

    def synced(self, ids) -> tuple:
        return ()

    def tool_tips(self, poses, rotations, cols, zero) -> np.ndarray:
        lengths = (np.asarray(zero) + self.geom.spool_radius
                   * rotations[:, cols[:len(self.spools)]])
        if self.planar:
            tips = np.zeros((len(poses), 3))
            tips[:, :2] = kin.wire2d_fk_rows(lengths, self.geom)
            return tips
        return kin.wire3d_fk_rows(lengths, self.geom)
