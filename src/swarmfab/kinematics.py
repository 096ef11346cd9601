"""Closed-form and numerical kinematics for the machine morphologies.

All units are millimetres and radians.  Wires are modeled as massless
straight lines; the bridge is rigid with the carriage as a 1-D offset
along it.  Branch selection is always the gravity side: below the anchor
line (2-wire) or below the anchor plane (3-wire).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    BridgeSkewed,
    IllConditioned,
    NoIntersection,
    OutOfWorkspace,
    Unreachable,
)

INTERSECTION_SLACK = 1e-9  # mm^2 scale slack on circle/sphere discriminants
MIN_ANCHOR_TRIANGLE_AREA = 1.0  # mm^2
DEFAULT_WORKSPACE_MARGIN = 10.0  # mm


@dataclass(frozen=True)
class BridgeGeometry:
    """Two rail robots carrying a rigid bridge along +y, carriage along it."""

    bridge_span: float  # distance between the two bridge robots along x
    carriage_min: float  # carriage travel limits measured from bridge robot 1
    carriage_max: float
    bridge_height: float = 0.0  # tool z offset when no lead screw
    rail1_x: float = 0.0  # fixed x of the bridge-robot-1 rail line

    def __post_init__(self):
        if self.bridge_span <= 0:
            raise ValueError("bridge_span must be positive")
        if not (0 <= self.carriage_min < self.carriage_max <= self.bridge_span):
            raise ValueError("carriage travel must satisfy 0 <= min < max <= span")


class Wire2DFrame(NamedTuple):
    """Constants of two-circle intersection, as plain floats."""

    a1: tuple[float, float]  # first anchor
    d: float  # anchor distance |a2 - a1|
    u: tuple[float, float]  # unit vector from a1 to a2
    n: tuple[float, float]  # unit normal of the anchor line, pointing down


class Wire3DFrame(NamedTuple):
    """Anchor-aligned trilateration frame, as plain floats."""

    ex: tuple[float, float, float]  # unit vector from a1 to a2
    ey: tuple[float, float, float]  # in-plane unit vector orthogonal to ex
    ez: tuple[float, float, float]  # ex x ey
    d: float  # |a2 - a1|
    i: float  # ex . (a3 - a1)
    j: float  # component of a3 - a1 along ey


def _derived():
    """A field computed in __post_init__: not an __init__ argument, and left
    out of repr, == and hash, which stay those of the defining fields."""
    return field(init=False, repr=False, compare=False)


def _reduce_by_init(self):
    """Copy and pickle a geometry by its defining fields, so that the copy
    derives its fields anew in __post_init__: numpy does not keep the
    read-only flag of an array it copies or unpickles."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self)
                             if f.init)


@dataclass(frozen=True)
class WireGeometry2D:
    """Two wire anchors on a vertical plane; coordinates are (x, z).

    Derived once here: `frame`, the constants wire2d_fk needs, and `reach`,
    the bounds (z_top, x_lo, x_hi) of the reachable points: below both
    anchors and inside their lateral span, each by the workspace margin.
    """

    anchors: tuple[tuple[float, float], tuple[float, float]]
    spool_radius: float
    workspace_margin: float = DEFAULT_WORKSPACE_MARGIN
    frame: Wire2DFrame = _derived()
    reach: tuple[float, float, float] = _derived()

    __reduce__ = _reduce_by_init

    def __post_init__(self):
        a1, a2 = self.anchors
        if a1 == a2:
            raise ValueError("anchors must be distinct")
        if self.spool_radius <= 0:
            raise ValueError("spool_radius must be positive")
        m = self.workspace_margin
        object.__setattr__(self, "reach", (min(a1[1], a2[1]) - m,
                                           min(a1[0], a2[0]) + m,
                                           max(a1[0], a2[0]) - m))
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        d = float(np.linalg.norm(a2 - a1))
        u = (a2 - a1) / d
        # normal pointing to the below-anchor side
        n = np.array([u[1], -u[0]])
        if n[1] > 0:
            n = -n
        object.__setattr__(self, "frame", Wire2DFrame(
            tuple(a1.tolist()), d, tuple(u.tolist()), tuple(n.tolist())))


@dataclass(frozen=True)
class WireGeometry3D:
    """Three non-collinear wire anchors in 3-D.

    The constants every FK, IK and workspace call needs are derived once
    here: `anchor_array` (3 x 3) and `down_normal` (unit normal of the
    anchor plane, pointing down) as read-only arrays, and the trilateration
    `frame` as floats.
    """

    anchors: tuple[tuple[float, float, float], ...]
    spool_radius: float
    workspace_margin: float = DEFAULT_WORKSPACE_MARGIN
    anchor_array: np.ndarray = _derived()
    down_normal: np.ndarray = _derived()
    frame: Wire3DFrame = _derived()

    __reduce__ = _reduce_by_init

    def __post_init__(self):
        if len(self.anchors) != 3:
            raise ValueError("exactly three anchors required")
        if self.spool_radius <= 0:
            raise ValueError("spool_radius must be positive")
        a = np.asarray(self.anchors, dtype=float)
        normal = np.cross(a[1] - a[0], a[2] - a[0])
        length = np.linalg.norm(normal)
        if 0.5 * length <= MIN_ANCHOR_TRIANGLE_AREA:
            raise ValueError("anchor triangle is degenerate")
        n = normal / length
        if n[2] > 0:
            n = -n
        ex = a[1] - a[0]
        d = np.linalg.norm(ex)
        ex = ex / d
        v = a[2] - a[0]
        i = float(ex @ v)
        ey = v - i * ex
        j = np.linalg.norm(ey)
        ey = ey / j
        ez = np.cross(ex, ey)
        a.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "anchor_array", a)
        object.__setattr__(self, "down_normal", n)
        object.__setattr__(self, "frame", Wire3DFrame(
            tuple(ex.tolist()), tuple(ey.tolist()), tuple(ez.tolist()),
            float(d), i, float(j)))


@dataclass(frozen=True)
class LeadScrew:
    """Rotation-to-linear conversion for the z axis."""

    pitch: float  # mm per revolution
    direction: int = 1  # +1 or -1
    z_min: float = 0.0
    z_max: float = 200.0

    def __post_init__(self):
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")
        if isinstance(self.direction, bool) or self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        object.__setattr__(self, "direction", int(self.direction))
        if self.z_min >= self.z_max:
            raise ValueError("z_min must be below z_max")


# --- bridge ---

def _carriage_outside(x, geom: BridgeGeometry):
    """Which tool x are beyond the carriage travel."""
    offset = x - geom.rail1_x
    return ~((geom.carriage_min <= offset) & (offset <= geom.carriage_max))


def bridge_ik_rows(tools, geom: BridgeGeometry) -> np.ndarray:
    """Decompose every row of tool (x, y) (N x 2) into the two bridge robot
    positions and the carriage offset along the bridge: N x 5 columns
    (bridge1 x, y, bridge2 x, y, offset).  Raises for the first row beyond
    the carriage travel."""
    T = np.asarray(tools, dtype=float)
    x, y = T[:, 0], T[:, 1]
    outside = np.flatnonzero(_carriage_outside(x, geom))
    if len(outside):
        raise OutOfWorkspace(
            f"carriage offset {x[outside[0]] - geom.rail1_x:.3f} outside "
            f"[{geom.carriage_min}, {geom.carriage_max}]",
            reason="CarriageTravel",
        )
    sol = np.empty((len(T), 5))
    sol[:, 0] = geom.rail1_x
    sol[:, 1] = y
    sol[:, 2] = geom.rail1_x + geom.bridge_span
    sol[:, 3] = y
    sol[:, 4] = x - geom.rail1_x
    return sol


def bridge_ik(tool: tuple[float, float], geom: BridgeGeometry) -> dict:
    """Decompose a tool (x, y) into the two bridge robot positions and
    the carriage offset along the bridge."""
    x1, y1, x2, y2, offset = bridge_ik_rows([tool[:2]], geom)[0].tolist()
    return {"bridge1": (x1, y1), "bridge2": (x2, y2),
            "carriage_offset": offset}


def bridge_fk_rows(bridge1, bridge2, carriage_offset, geom: BridgeGeometry,
                   sync_tol: float = 1.0) -> np.ndarray:
    """Tool (x, y) (N x 2) from every row of the two bridge robot positions
    (N x 2 each) and the carriage offset (N).  Raises for the first row
    whose bridge is skewed beyond sync_tol."""
    b1 = np.asarray(bridge1, dtype=float)
    b2 = np.asarray(bridge2, dtype=float)
    skew = np.abs(b1[:, 1] - b2[:, 1])
    skewed = np.flatnonzero(skew > sync_tol)
    if len(skewed):
        raise BridgeSkewed(f"bridge skew {skew[skewed[0]]:.4f} mm "
                           f"exceeds {sync_tol} mm")
    tool = np.empty((len(b1), 2))
    tool[:, 0] = b1[:, 0] + np.asarray(carriage_offset, dtype=float)
    tool[:, 1] = 0.5 * (b1[:, 1] + b2[:, 1])
    return tool


def bridge_fk(bridge1: tuple[float, float], bridge2: tuple[float, float],
              carriage_offset: float, geom: BridgeGeometry,
              sync_tol: float = 1.0) -> tuple[float, float]:
    """Tool position from the two bridge robot positions and carriage offset."""
    tool = bridge_fk_rows([bridge1[:2]], [bridge2[:2]], [carriage_offset],
                          geom, sync_tol)
    return tuple(tool[0].tolist())


# --- two-wire wall plotter ---

def _wire2d_reach(x, z, geom: WireGeometry2D) -> list:
    """(mask, reason) pairs of the wall points (x, z) outside `geom.reach`,
    in the order a point is tested."""
    top, lo, hi = geom.reach
    return [(~(z < top), "AboveAnchors"),
            (~((lo < x) & (x < hi)), "OutsideLateralCone")]


def wire2d_ik_rows(points, geom: WireGeometry2D) -> np.ndarray:
    """Wire lengths (N x 2) to reach every row of wall points (x, z)
    (N x 2).  Raises for the first row out of reach."""
    P = np.asarray(points, dtype=float)
    x, z = P[:, 0], P[:, 1]
    row, reason = _first(_wire2d_reach(x, z, geom))
    if reason == "AboveAnchors":
        raise Unreachable(f"point z={z[row]:.3f} not below anchors by margin "
                          f"{geom.workspace_margin}")
    if reason:
        raise Unreachable(f"point x={x[row]:.3f} outside lateral cone")
    # math.dist per row: np.hypot, or the root of the summed squares, can
    # round the distance differently
    x, z = x.tolist(), z.tolist()
    lengths = np.empty((len(P), 2))
    for k, anchor in enumerate(geom.anchors):
        lengths[:, k] = np.fromiter(
            map(math.dist, zip(x, z), repeat(anchor)), float, len(x))
    return lengths


def wire2d_ik(p: tuple[float, float], geom: WireGeometry2D) -> tuple[float, float]:
    """Wire lengths to reach wall point p = (x, z)."""
    return tuple(wire2d_ik_rows([p[:2]], geom)[0].tolist())


def _first(checks) -> tuple:
    """The first row that fails one of `checks` and the value of the first
    check it fails, or (None, "") if no row fails.

    `checks` are (mask, value) pairs over the rows, in the order a single
    point is tested.
    """
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if not failing.any():
        return None, ""
    row = int(failing.argmax())
    return row, next(value for mask, value in checks if mask[row])


def _raise_first(checks) -> None:
    """Raise the error of the first row that fails a check of `checks`,
    (mask, error) pairs as for _first."""
    _, error = _first(checks)
    if error:
        raise error


def _max(a: float, b):
    """max(a, b) for a constant a and an array b, elementwise as Python's
    max: b where b > a, else a, so NaN gives a."""
    return np.where(b > a, b, a)


def wire2d_fk_rows(lengths, geom: WireGeometry2D) -> np.ndarray:
    """Wall point from every row of wire lengths (N x 2): two-circle
    intersection, lower branch.  Raises the error of the first row that
    has one."""
    L = np.asarray(lengths, dtype=float)
    L1, L2 = L[:, 0], L[:, 1]
    a1, d, u, n = geom.frame
    a = (L1 * L1 - L2 * L2 + d * d) / (2 * d)
    h2 = L1 * L1 - a * a
    h = np.sqrt(_max(0.0, h2))
    _raise_first([
        ((L1 <= 0) | (L2 <= 0),
         NoIntersection("wire lengths must be positive")),
        (L1 + L2 < d - 1e-9, NoIntersection("wires too short to meet")),
        (h2 < -INTERSECTION_SLACK * _max(1.0, L1 * L1),
         NoIntersection("circles do not intersect")),
        (h < 1e-9, Unreachable("tangent solution lies on the anchor line")),
    ])
    point = np.empty((len(L), 2))
    point[:, 0] = a1[0] + a * u[0] + h * n[0]
    point[:, 1] = a1[1] + a * u[1] + h * n[1]
    return point


def wire2d_fk(L1: float, L2: float, geom: WireGeometry2D) -> tuple[float, float]:
    """Wall point from wire lengths: two-circle intersection, lower branch."""
    return tuple(wire2d_fk_rows([[L1, L2]], geom)[0].tolist())


# --- three-wire positioner ---

def _dot(u, v):
    """Row-wise dot product over the last axis.

    Stacked matmul dispatches each row to the same BLAS dot as a 1-D
    `u @ v` or `np.linalg.norm`, so results match the scalar formula bit for
    bit; `einsum` or an explicit component sum can round differently (BLAS
    dot kernels may fuse multiply-adds).
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _depth(geom: WireGeometry3D, points) -> np.ndarray:
    """Signed distance of every row of points (N x 3) below the anchor
    plane."""
    return _dot(points - geom.anchor_array[0], geom.down_normal)


def wire3d_ik_rows(points, geom: WireGeometry3D) -> np.ndarray:
    """Wire lengths (N x 3) to reach every row of 3-D points (N x 3) below
    the anchor plane.  Raises for the first row that is not below it."""
    P = np.asarray(points, dtype=float)
    if (_depth(geom, P) <= 0).any():
        raise Unreachable("point not below the anchor plane")
    diff = P[:, None, :] - geom.anchor_array
    # the root of v @ v, what np.linalg.norm computes for a vector
    return np.sqrt(_dot(diff, diff))


def wire3d_ik(p: tuple[float, float, float],
              geom: WireGeometry3D) -> tuple[float, float, float]:
    """Wire lengths to reach 3-D point p below the anchor plane."""
    return tuple(wire3d_ik_rows([p], geom)[0].tolist())


# The Gauss-Newton step is the least-squares (lstsq) solution of a 3 x 3
# system.  One batched LU solve gives the same step up to rounding, and that
# rounding is most likely to show in p + step where J is near singular (p
# near the anchor plane) or a coordinate of p nearly cancels against the
# step: rows with |det J| below GN_SOLVE_MIN_DET, or a coordinate smaller
# than GN_SOLVE_MIN_RATIO times the step, take lstsq one by one.  In a
# million random rows, solve and lstsq differed in no sum beyond a ratio of
# 1e6.  The agreement is measured, not proven; the tests and the seed-0
# output digests check it.
GN_SOLVE_MIN_DET = 1e-4
GN_SOLVE_MIN_RATIO = 1e9


def wire3d_fk_rows(lengths, geom: WireGeometry3D) -> np.ndarray:
    """Trilateration of the tool point from every row of three wire lengths
    (N x 3).

    Solves in an anchor-aligned frame, picks the root below the anchor
    plane, then applies one Gauss-Newton step on the length residuals to
    absorb frame round-off.  Raises for the first row whose spheres do not
    intersect.
    """
    ex, ey, ez, d, i, j = geom.frame
    area = 0.5 * d * j
    if area < MIN_ANCHOR_TRIANGLE_AREA:
        raise IllConditioned("anchor triangle area below threshold")

    L = np.asarray(lengths, dtype=float)
    L1, L2, L3 = L[:, 0], L[:, 1], L[:, 2]
    x = (L1 * L1 - L2 * L2 + d * d) / (2 * d)
    y = (L1 * L1 - L3 * L3 + i * i + j * j - 2 * i * x) / (2 * j)
    z2 = L1 * L1 - x * x - y * y
    _raise_first([(z2 < -INTERSECTION_SLACK * _max(1.0, L1 * L1),
                   NoIntersection("spheres do not intersect"))])
    z = np.sqrt(_max(0.0, z2))

    # the roots a1 + x*ex + y*ey +- z*ez; keep the deeper one below the plane
    a = geom.anchor_array
    base = a[0] + x[:, None] * np.array(ex) + y[:, None] * np.array(ey)
    upper = base + z[:, None] * np.array(ez)
    lower = base - z[:, None] * np.array(ez)
    # depth by the BLAS dot of _depth: summed in another order, the rounding
    # could flip the choice between two nearly coincident roots
    deeper = _dot(upper - a[0], geom.down_normal) >= _dot(lower - a[0],
                                                          geom.down_normal)
    p = np.where(deeper[:, None], upper, lower)

    # one Gauss-Newton step on r_k = |p - a_k| - L_k, skipped for a row
    # whose p sits on an anchor
    diff = p[:, None, :] - a
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    # the order in which np.linalg.norm(..., axis=1) sums the squares
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    rows = np.flatnonzero((dist > 1e-12).all(axis=1))
    jac = diff[rows] / dist[rows, :, None]
    neg_r = -(dist[rows] - L[rows])
    step = np.zeros((len(rows), 3))
    solved = np.abs(np.linalg.det(jac)) >= GN_SOLVE_MIN_DET
    if solved.any():
        step[solved] = np.linalg.solve(jac[solved],
                                       neg_r[solved, :, None])[..., 0]
    close = (np.abs(p[rows]).min(axis=1)
             < GN_SOLVE_MIN_RATIO * np.abs(step).max(axis=1))
    for k in np.flatnonzero(~solved | close):
        step[k] = np.linalg.lstsq(jac[k], neg_r[k], rcond=None)[0]
    p[rows] += step
    return p


def wire3d_fk(L1: float, L2: float, L3: float,
              geom: WireGeometry3D) -> tuple[float, float, float]:
    """Trilateration of the tool point from three wire lengths."""
    return tuple(wire3d_fk_rows([[L1, L2, L3]], geom)[0].tolist())


# --- rotation conversions ---

def spool_delta(delta_length: float, spool_radius: float) -> float:
    """Spool rotation for a wire-length change; positive pays out wire."""
    if spool_radius <= 0:
        raise ValueError("spool_radius must be positive")
    return delta_length / spool_radius


def leadscrew_delta(delta_z: float, screw: LeadScrew) -> float:
    """Screw rotation for a z travel."""
    return screw.direction * 2.0 * math.pi * delta_z / screw.pitch


# --- workspace checks ---

@dataclass(frozen=True)
class WorkspaceCheck:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


_INSIDE = WorkspaceCheck(True)


def workspace_contains_rows(config, points) -> tuple[int, str]:
    """The first row of tool points (N x 3) outside the config's workspace
    and why, or (N, "") if every row is inside.

    A point is tested for being finite, then for lying inside the
    workspace box, then for lying within the reach of the config's machine.
    `config` is a coordinator.MachineConfig; accepted duck-typed here to
    avoid a circular import.
    """
    P = np.asarray(points, dtype=float)
    lo, hi = config.workspace_min, config.workspace_max
    inside = ((lo <= P) & (P <= hi)).all(axis=1)
    row, reason = _first([(~np.isfinite(P).all(axis=1), "NonFinite"),
                          (~inside, "OutsideBox")])
    if row is None:
        row = len(P)
    # the rows before `row` are finite and inside the box
    reach_row, reach_reason = _first(config.machine.reach(P[:row]))
    if reach_reason:
        return reach_row, reach_reason
    return row, reason


def workspace_contains(config, p) -> WorkspaceCheck:
    """Check tool point p = (x, y, z) as workspace_contains_rows does."""
    _, reason = workspace_contains_rows(config, [p])
    return WorkspaceCheck(False, reason) if reason else _INSIDE
