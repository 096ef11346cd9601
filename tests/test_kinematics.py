import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from swarmfab import config
from swarmfab import kinematics as kin
from swarmfab.errors import (
    BridgeSkewed,
    IllConditioned,
    KinematicsError,
    NoIntersection,
    OutOfWorkspace,
    Unreachable,
)

BRIDGE = kin.BridgeGeometry(bridge_span=400.0, carriage_min=0.0,
                            carriage_max=400.0)
WIRE2D = kin.WireGeometry2D(anchors=((0.0, 0.0), (1000.0, 0.0)),
                            spool_radius=20.0, workspace_margin=0.0)
WIRE3D = kin.WireGeometry3D(anchors=((0.0, 0.0, 500.0), (400.0, 0.0, 500.0),
                                     (200.0, 350.0, 500.0)),
                            spool_radius=20.0)
# the same triangle in the opposite winding: ez points down, so trilateration
# keeps the +z root instead of the -z one
WIRE3D_REVERSED = kin.WireGeometry3D(anchors=WIRE3D.anchors[::-1],
                                     spool_radius=20.0)
EQUILATERAL = kin.WireGeometry3D(
    anchors=((0.0, 0.0, 500.0), (300.0, 0.0, 500.0),
             (150.0, 300.0 * math.sqrt(3) / 2, 500.0)),
    spool_radius=20.0)
TILTED = kin.WireGeometry3D(
    anchors=((10.5, -3.25, 700.0), (390.0, 12.0, 650.0), (180.0, 410.0, 690.0)),
    spool_radius=15.0, workspace_margin=5.0)
WIRE3D_GEOMETRIES = (WIRE3D, WIRE3D_REVERSED, EQUILATERAL, TILTED)
# the first anchor right of the second and below it
WIRE2D_SKEWED = kin.WireGeometry2D(anchors=((900.0, -20.0), (100.0, 35.0)),
                                   spool_radius=15.0, workspace_margin=12.5)


# --- oracle: the array formulation of the wire kinematics, which rebuilds the
# geometry constants on every call.  The module's versions, on constants derived
# once per geometry, must match it bit for bit. ---

def _wire3d_frame(geom):
    a = np.asarray(geom.anchors, dtype=float)
    ex = a[1] - a[0]
    d = np.linalg.norm(ex)
    ex = ex / d
    v = a[2] - a[0]
    i = float(ex @ v)
    ey = v - i * ex
    j = np.linalg.norm(ey)
    ey = ey / j
    ez = np.cross(ex, ey)
    return a, ex, ey, ez, d, i, j


def _down_normal(geom):
    a = np.asarray(geom.anchors, dtype=float)
    n = np.cross(a[1] - a[0], a[2] - a[0])
    n = n / np.linalg.norm(n)
    if n[2] > 0:
        n = -n
    return n


def wire3d_ik_oracle(p, geom):
    a = np.asarray(geom.anchors, dtype=float)
    n = _down_normal(geom)
    depth = float(n @ (np.asarray(p, dtype=float) - a[0]))
    if depth <= 0:
        raise Unreachable("point not below the anchor plane")
    pv = np.asarray(p, dtype=float)
    return tuple(float(np.linalg.norm(pv - ai)) for ai in a)


def wire3d_fk_oracle(L1, L2, L3, geom, roots=None):
    """Trilateration as arrays; appends the kept root to `roots` (0 for the
    +z root, 1 for the -z one)."""
    a, ex, ey, ez, d, i, j = _wire3d_frame(geom)
    area = 0.5 * d * j
    if area < kin.MIN_ANCHOR_TRIANGLE_AREA:
        raise IllConditioned("anchor triangle area below threshold")

    x = (L1 * L1 - L2 * L2 + d * d) / (2 * d)
    y = (L1 * L1 - L3 * L3 + i * i + j * j - 2 * i * x) / (2 * j)
    z2 = L1 * L1 - x * x - y * y
    if z2 < -kin.INTERSECTION_SLACK * max(1.0, L1 * L1):
        raise NoIntersection("spheres do not intersect")
    z = math.sqrt(max(0.0, z2))

    n_down = _down_normal(geom)
    candidates = [a[0] + x * ex + y * ey + s * z * ez for s in (+1.0, -1.0)]
    depths = [float(n_down @ (c - a[0])) for c in candidates]
    root = 0 if depths[0] >= depths[1] else 1
    if roots is not None:
        roots.append(root)
    p = candidates[root]

    L = np.array([L1, L2, L3], dtype=float)
    diff = p[None, :] - a
    dist = np.linalg.norm(diff, axis=1)
    if np.all(dist > 1e-12):
        r = dist - L
        J = diff / dist[:, None]
        dp, *_ = np.linalg.lstsq(J, -r, rcond=None)
        p = p + dp
    return (float(p[0]), float(p[1]), float(p[2]))


def wire2d_fk_oracle(L1, L2, geom):
    if L1 <= 0 or L2 <= 0:
        raise NoIntersection("wire lengths must be positive")
    a1 = np.asarray(geom.anchors[0], dtype=float)
    a2 = np.asarray(geom.anchors[1], dtype=float)
    d = float(np.linalg.norm(a2 - a1))
    if L1 + L2 < d - 1e-9:
        raise NoIntersection("wires too short to meet")
    a = (L1 * L1 - L2 * L2 + d * d) / (2 * d)
    h2 = L1 * L1 - a * a
    if h2 < -kin.INTERSECTION_SLACK * max(1.0, L1 * L1):
        raise NoIntersection("circles do not intersect")
    h = math.sqrt(max(0.0, h2))
    u = (a2 - a1) / d
    n = np.array([u[1], -u[0]])
    if n[1] > 0:
        n = -n
    if h < 1e-9:
        raise Unreachable("tangent solution lies on the anchor line")
    p = a1 + a * u + h * n
    return (float(p[0]), float(p[1]))


def wire2d_ik_oracle(p, geom):
    """wire2d_ik with its reachability check written out on its own."""
    a1, a2 = geom.anchors
    m = geom.workspace_margin
    top = min(a1[1], a2[1])
    if not p[1] < top - m:
        raise Unreachable(f"point z={p[1]:.3f} not below anchors by margin {m}")
    lo, hi = min(a1[0], a2[0]), max(a1[0], a2[0])
    if not (lo + m < p[0] < hi - m):
        raise Unreachable(f"point x={p[0]:.3f} outside lateral cone")
    return (math.dist(p, a1), math.dist(p, a2))


def workspace_contains_oracle(cfg, p):
    """workspace_contains as generator expressions over the point, with the
    wire2d reach test written out; the module's scalar version must give
    the same verdict and reason for every point."""
    if not all(math.isfinite(v) for v in p):
        return kin.WorkspaceCheck(False, "NonFinite")
    if not all(lo <= v <= hi for lo, v, hi in zip(cfg.workspace_min, p,
                                                   cfg.workspace_max)):
        return kin.WorkspaceCheck(False, "OutsideBox")
    morph = cfg.morphology
    if morph in ("bridge_xy", "printer_bridge"):
        geom = cfg.bridge_geometry
        offset = p[0] - geom.rail1_x
        if not (geom.carriage_min <= offset <= geom.carriage_max):
            return kin.WorkspaceCheck(False, "CarriageTravel")
        if morph == "bridge_xy":
            if abs(p[2] - geom.bridge_height) > 1e-9:
                return kin.WorkspaceCheck(False, "NonPlanar")
        else:
            screw = cfg.lead_screw
            if not (screw.z_min <= p[2] <= screw.z_max):
                return kin.WorkspaceCheck(False, "ZTravel")
    elif morph == "wire2d_wall":
        geom = cfg.wire2d_geometry
        a1, a2 = geom.anchors
        m = geom.workspace_margin
        if not p[1] < min(a1[1], a2[1]) - m:
            return kin.WorkspaceCheck(False, "AboveAnchors")
        lo, hi = min(a1[0], a2[0]), max(a1[0], a2[0])
        if not (lo + m < p[0] < hi - m):
            return kin.WorkspaceCheck(False, "OutsideLateralCone")
        if abs(p[2]) > 1e-9:
            return kin.WorkspaceCheck(False, "NonPlanar")
    elif morph == "wire3d_printer":
        geom = cfg.wire3d_geometry
        depth = float(geom.down_normal
                      @ (np.asarray(p, dtype=float) - geom.anchor_array[0]))
        if depth <= geom.workspace_margin:
            return kin.WorkspaceCheck(False, "AboveAnchors")
    else:
        return kin.WorkspaceCheck(False, f"UnknownMorphology:{morph}")
    return kin.WorkspaceCheck(True)


def outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except KinematicsError as exc:
        return (type(exc), str(exc))


def assert_same_floats(got, expected):
    """Equal outcomes, down to the type of every coordinate."""
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def point_below(geom, rng, depth):
    """A point `depth` below the anchor plane, over a stretch of the anchor
    triangle reaching a little beyond its edges."""
    a = np.asarray(geom.anchors, dtype=float)
    w = rng.dirichlet((1.0, 1.0, 1.0)) * 1.4 - 0.4 / 3
    return tuple((w @ a + depth * _down_normal(geom)).tolist())


class TestBridge:
    def test_ik_decomposition(self):
        sol = kin.bridge_ik((100.0, 250.0), BRIDGE)
        assert sol["bridge1"] == (0.0, 250.0)
        assert sol["bridge2"] == (400.0, 250.0)
        assert sol["carriage_offset"] == 100.0

    def test_ik_out_of_travel(self):
        with pytest.raises(OutOfWorkspace):
            kin.bridge_ik((450.0, 100.0), BRIDGE)

    def test_fk_inverse(self):
        tool = kin.bridge_fk((0.0, 250.0), (400.0, 250.0), 100.0, BRIDGE)
        assert tool == (100.0, 250.0)

    def test_fk_skew(self):
        with pytest.raises(BridgeSkewed):
            kin.bridge_fk((0.0, 0.0), (400.0, 5.0), 100.0, BRIDGE, sync_tol=1.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            p = (rng.uniform(0, 400), rng.uniform(-500, 500))
            sol = kin.bridge_ik(p, BRIDGE)
            q = kin.bridge_fk(sol["bridge1"], sol["bridge2"],
                              sol["carriage_offset"], BRIDGE)
            assert math.dist(p, q) <= 1e-12


class TestWire2D:
    def test_symmetric_point(self):
        l1, l2 = kin.wire2d_ik((500.0, -400.0), WIRE2D)
        assert l1 == pytest.approx(math.sqrt(410_000), abs=1e-9)
        assert l2 == pytest.approx(l1, abs=1e-12)

    def test_under_anchor_corner(self):
        geom = kin.WireGeometry2D(anchors=((0.0, 0.0), (1000.0, 0.0)),
                                  spool_radius=20.0, workspace_margin=-1e-9)
        l1, l2 = kin.wire2d_ik((0.0, -300.0), geom)
        assert l1 == pytest.approx(300.0)
        assert l2 == pytest.approx(math.sqrt(1000.0**2 + 300.0**2))

    def test_above_anchors_unreachable(self):
        with pytest.raises(Unreachable, match=r"^point z=10\.000 not below "
                                              r"anchors by margin 0\.0$"):
            kin.wire2d_ik((500.0, 10.0), WIRE2D)

    def test_outside_lateral_cone_unreachable(self):
        with pytest.raises(Unreachable, match=r"^point x=-0\.500 outside "
                                              r"lateral cone$"):
            kin.wire2d_ik((-0.5, -300.0), WIRE2D)

    @pytest.mark.parametrize("geom", [WIRE2D, WIRE2D_SKEWED])
    def test_ik_matches_oracle(self, geom):
        (x1, z1), (x2, z2) = geom.anchors
        m = geom.workspace_margin
        rng = np.random.default_rng(11)
        points = [tuple(p) for p in rng.uniform((-200.0, -900.0),
                                                 (1200.0, 200.0), (3000, 2))]
        # on and around the margin lines, where `<` decides
        for x in (min(x1, x2) + m, max(x1, x2) - m):
            for z in (min(z1, z2) - m, -300.0):
                points += [(x, z), (math.nextafter(x, 500.0), z),
                           (x, math.nextafter(z, -math.inf))]
        for p in points:
            assert outcome(kin.wire2d_ik, p, geom) == outcome(
                wire2d_ik_oracle, p, geom)

    def test_fk_symmetric(self):
        L = math.sqrt(410_000)
        p = kin.wire2d_fk(L, L, WIRE2D)
        assert p[0] == pytest.approx(500.0, abs=1e-9)
        assert p[1] == pytest.approx(-400.0, abs=1e-9)

    def test_fk_corner(self):
        p = kin.wire2d_fk(300.0, math.sqrt(1000.0**2 + 300.0**2), WIRE2D)
        assert p[0] == pytest.approx(0.0, abs=1e-9)
        assert p[1] == pytest.approx(-300.0, abs=1e-9)

    def test_fk_no_intersection(self):
        with pytest.raises(NoIntersection):
            kin.wire2d_fk(100.0, 100.0, WIRE2D)

    def test_fk_tangent_rejected(self):
        with pytest.raises(Unreachable):
            kin.wire2d_fk(400.0, 600.0, WIRE2D)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            p = (rng.uniform(50, 950), rng.uniform(-800, -50))
            lengths = kin.wire2d_ik(p, WIRE2D)
            q = kin.wire2d_fk(*lengths, WIRE2D)
            assert math.dist(p, q) <= 1e-9

    def test_lengths_lipschitz(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = (rng.uniform(50, 950), rng.uniform(-800, -50))
            q = (rng.uniform(50, 950), rng.uniform(-800, -50))
            lp = kin.wire2d_ik(p, WIRE2D)
            lq = kin.wire2d_ik(q, WIRE2D)
            d = math.dist(p, q)
            assert abs(lp[0] - lq[0]) <= d + 1e-9
            assert abs(lp[1] - lq[1]) <= d + 1e-9


def circumcenter_xy(a, b, c):
    """Planar circumcenter by solving the two bisector equations."""
    ax, ay = a[:2]
    bx, by = b[:2]
    cx, cy = c[:2]
    m = np.array([[2 * (bx - ax), 2 * (by - ay)],
                  [2 * (cx - ax), 2 * (cy - ay)]], dtype=float)
    rhs = np.array([bx**2 - ax**2 + by**2 - ay**2,
                    cx**2 - ax**2 + cy**2 - ay**2], dtype=float)
    x, y = np.linalg.solve(m, rhs)
    return float(x), float(y)


def dls_trilaterate(lengths, geom, rng, restarts=20):
    """Damped-least-squares oracle with random restarts."""
    anchors = np.asarray(geom.anchors, dtype=float)
    L = np.asarray(lengths, dtype=float)
    best = None
    for _ in range(restarts):
        p = np.array([rng.uniform(0, 400), rng.uniform(0, 350),
                      rng.uniform(0, 490)])
        lam = 1e-3
        for _ in range(200):
            diff = p[None, :] - anchors
            dist = np.linalg.norm(diff, axis=1)
            if np.any(dist < 1e-9):
                break
            r = dist - L
            J = diff / dist[:, None]
            A = J.T @ J + lam * np.eye(3)
            step = np.linalg.solve(A, -J.T @ r)
            p_new = p + step
            if np.linalg.norm(step) < 1e-12:
                p = p_new
                break
            p = p_new
        cost = np.linalg.norm(np.linalg.norm(p[None, :] - anchors, axis=1) - L)
        if best is None or cost < best[0]:
            best = (cost, p)
    return best[1]


class TestWire3D:
    def test_circumcenter_equal_lengths(self):
        cx, cy = circumcenter_xy(*WIRE3D.anchors)
        assert cx == pytest.approx(200.0, abs=1e-9)
        p = (cx, cy, 100.0)
        l1, l2, l3 = kin.wire3d_ik(p, WIRE3D)
        assert l1 == pytest.approx(l2, abs=1e-9)
        assert l2 == pytest.approx(l3, abs=1e-9)

    def test_ik_above_plane_unreachable(self):
        with pytest.raises(Unreachable):
            kin.wire3d_ik((200.0, 100.0, 600.0), WIRE3D)

    def test_fk_recovers_circumcenter(self):
        cx, cy = circumcenter_xy(*WIRE3D.anchors)
        p = (cx, cy, 100.0)
        lengths = kin.wire3d_ik(p, WIRE3D)
        q = kin.wire3d_fk(*lengths, WIRE3D)
        assert math.dist(p, q) <= 1e-7

    def test_equilateral_centroid(self):
        s = 300.0
        centroid = (s / 2, s * math.sqrt(3) / 6, 100.0)
        L = math.dist(centroid, EQUILATERAL.anchors[0])
        q = kin.wire3d_fk(L, L, L, EQUILATERAL)
        assert q[0] == pytest.approx(centroid[0], abs=1e-7)
        assert q[1] == pytest.approx(centroid[1], abs=1e-7)
        assert q[2] == pytest.approx(100.0, abs=1e-7)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            p = (rng.uniform(50, 350), rng.uniform(40, 300),
                 rng.uniform(10, 450))
            lengths = kin.wire3d_ik(p, WIRE3D)
            q = kin.wire3d_fk(*lengths, WIRE3D)
            assert math.dist(p, q) <= 1e-7

    def test_agrees_with_dls_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = (rng.uniform(80, 320), rng.uniform(60, 280),
                 rng.uniform(50, 400))
            lengths = kin.wire3d_ik(p, WIRE3D)
            q = kin.wire3d_fk(*lengths, WIRE3D)
            oracle = dls_trilaterate(lengths, WIRE3D, rng)
            assert math.dist(q, tuple(oracle)) <= 1e-6

    def test_sensitivity_bounded(self):
        p = (180.0, 140.0, 200.0)
        lengths = kin.wire3d_ik(p, WIRE3D)
        q0 = np.array(kin.wire3d_fk(*lengths, WIRE3D))
        bumped = tuple(l + 1e-6 for l in lengths)
        q1 = np.array(kin.wire3d_fk(*bumped, WIRE3D))
        assert np.linalg.norm(q1 - q0) < 1e-3


class TestWireOracle:
    """The wire FK/IK equal the per-call array formulation bit for bit."""

    def test_fk_reachable_points_with_perturbed_lengths(self):
        rng = np.random.default_rng(6)
        for geom in WIRE3D_GEOMETRIES:
            roots = []
            for _ in range(400):
                p = point_below(geom, rng, rng.uniform(1.0, 480.0))
                scale = rng.choice([0.0, 1e-9, 1e-3, 1.0])
                lengths = [l + rng.normal(0.0, scale)
                           for l in wire3d_ik_oracle(p, geom)]
                expected = outcome(wire3d_fk_oracle, *lengths, geom, roots)
                assert_same_floats(outcome(kin.wire3d_fk, *lengths, geom),
                                   expected)
            # the winding decides the kept root: anticlockwise seen from
            # above, ez points up and the -z root lies below the plane
            assert set(roots) == {0 if geom is WIRE3D_REVERSED else 1}

    def test_fk_roots_near_coincident(self):
        # lengths to points on or just under the anchor plane: the roots
        # nearly coincide, or z2 rounds to zero or below and leaves one root
        rng = np.random.default_rng(7)
        roots = []
        for geom in WIRE3D_GEOMETRIES:
            for depth in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                for _ in range(20):
                    p = point_below(geom, rng, depth)
                    lengths = [math.dist(p, a) for a in geom.anchors]
                    expected = outcome(wire3d_fk_oracle, *lengths, geom, roots)
                    assert_same_floats(outcome(kin.wire3d_fk, *lengths, geom),
                                       expected)
        assert set(roots) == {0, 1}

    def test_fk_no_intersection(self):
        for geom in WIRE3D_GEOMETRIES:
            for lengths in ((1.0, 1.0, 1.0), (50.0, 900.0, 60.0)):
                expected = outcome(wire3d_fk_oracle, *lengths, geom)
                assert expected[0] is NoIntersection
                assert outcome(kin.wire3d_fk, *lengths, geom) == expected

    def test_fk_integer_lengths(self):
        for geom in WIRE3D_GEOMETRIES:
            assert_same_floats(kin.wire3d_fk(400, 420, 410, geom),
                               wire3d_fk_oracle(400, 420, 410, geom))

    def test_ik(self):
        rng = np.random.default_rng(8)
        for geom in WIRE3D_GEOMETRIES:
            for _ in range(300):
                p = point_below(geom, rng, rng.uniform(-50.0, 480.0))
                assert_same_floats(outcome(kin.wire3d_ik, p, geom),
                                   outcome(wire3d_ik_oracle, p, geom))

    def test_wire2d_fk(self):
        slanted = kin.WireGeometry2D(anchors=((0.0, 10.0), (900.0, -40.5)),
                                     spool_radius=20.0)
        rng = np.random.default_rng(9)
        for geom in (WIRE2D, slanted):
            for _ in range(2000):
                lengths = rng.uniform(-10.0, 1200.0, size=2).tolist()
                assert_same_floats(outcome(kin.wire2d_fk, *lengths, geom),
                                   outcome(wire2d_fk_oracle, *lengths, geom))


def row_outcomes(fk_rows, rows, *args):
    """The batched kernel's rows as tuples, or its error as (type, message)."""
    try:
        return [tuple(r) for r in fk_rows(rows, *args).tolist()]
    except KinematicsError as exc:
        return (type(exc), str(exc))


def assert_rows_match(fk_rows, oracle, rows, *args):
    """Every row equal to the oracle's, down to the type of each coordinate;
    with a failing row, the error of the first one."""
    expected = [outcome(oracle, *row, *args) for row in rows]
    errors = [o for o in expected if isinstance(o[0], type)]
    got = row_outcomes(fk_rows, rows, *args)
    if errors:
        assert got == errors[0]
    else:
        for g, e in zip(got, expected, strict=True):
            assert_same_floats(g, e)
    return expected


class TestFkRows:
    """The batched FK kernels against the one-point array oracles."""

    def test_wire3d_rows(self):
        rng = np.random.default_rng(10)
        roots = []
        for geom in WIRE3D_GEOMETRIES:
            rows = []
            for _ in range(300):
                p = point_below(geom, rng, rng.uniform(1.0, 480.0))
                scale = rng.choice([0.0, 1e-9, 1e-3, 1.0])
                rows.append([l + rng.normal(0.0, scale)
                             for l in wire3d_ik_oracle(p, geom)])
            # on or just under the anchor plane, where J is near singular
            for depth in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                p = point_below(geom, rng, depth)
                rows.append([math.dist(p, a) for a in geom.anchors])
            # on an anchor, where the Gauss-Newton step is skipped
            rows.append([math.dist(geom.anchors[0], a) for a in geom.anchors])
            rows = [r for r in rows
                    if not isinstance(outcome(wire3d_fk_oracle, *r, geom)[0],
                                      type)]
            expected = assert_rows_match(kin.wire3d_fk_rows,
                                         wire3d_fk_oracle, rows, geom)
            assert math.dist(expected[-1], geom.anchors[0]) < 1e-9
            for r in rows:
                wire3d_fk_oracle(*r, geom, roots)
        assert set(roots) == {0, 1}

    def test_wire3d_first_failing_row_raises(self):
        ok = list(wire3d_ik_oracle((200.0, 150.0, 100.0), WIRE3D))
        for rows in ([ok, [1.0, 1.0, 1.0], ok], [[50.0, 900.0, 60.0]]):
            assert row_outcomes(kin.wire3d_fk_rows, rows, WIRE3D) == (
                NoIntersection, "spheres do not intersect")

    def test_wire2d_rows(self):
        rng = np.random.default_rng(11)
        raised = set()
        for _ in range(400):
            rows = rng.uniform(-10.0, 1200.0,
                               size=(rng.integers(1, 6), 2)).tolist()
            expected = assert_rows_match(kin.wire2d_fk_rows, wire2d_fk_oracle,
                                         rows, WIRE2D)
            raised.update(o[1] for o in expected if isinstance(o[0], type))
        assert len(raised) == 3  # every NoIntersection reason

    def test_wire2d_error_of_first_failing_row(self):
        rows = [[600.0, 500.0], [100.0, 2000.0], [-1.0, 5.0], [10.0, 10.0]]
        assert row_outcomes(kin.wire2d_fk_rows, rows, WIRE2D) == (
            NoIntersection, "circles do not intersect")
        tangent = [[400.0, 600.0]]
        assert row_outcomes(kin.wire2d_fk_rows, tangent, WIRE2D) == (
            Unreachable, "tangent solution lies on the anchor line")

    def test_bridge_rows(self):
        rng = np.random.default_rng(12)
        b1 = np.column_stack([np.zeros(50), rng.uniform(-500, 500, 50)])
        b2 = b1 + [400.0, 0.0] + np.column_stack(
            [np.zeros(50), rng.uniform(-0.9, 0.9, 50)])
        offset = rng.uniform(0.0, 400.0, 50)
        got = kin.bridge_fk_rows(b1, b2, offset, BRIDGE)
        for row, p, q, c in zip(got.tolist(), b1.tolist(), b2.tolist(),
                                offset.tolist()):
            assert tuple(row) == (p[0] + c, 0.5 * (p[1] + q[1]))
        b2[[7, 30], 1] += [1.25, -3.5]
        with pytest.raises(BridgeSkewed) as exc:
            kin.bridge_fk_rows(b1, b2, offset, BRIDGE, sync_tol=1.0)
        skew = abs(b1[7, 1] - b2[7, 1])
        assert str(exc.value) == f"bridge skew {skew:.4f} mm exceeds 1.0 mm"


class TestDerivedGeometryConstants:
    def test_arrays_read_only(self):
        for arr in (WIRE3D.anchor_array, WIRE3D.down_normal):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("geom", [WIRE2D, WIRE3D])
    def test_frame_immutable(self, geom):
        with pytest.raises(dataclasses.FrozenInstanceError):
            geom.frame = None
        with pytest.raises(AttributeError):
            geom.frame.d = 1.0

        def leaves(x):
            if isinstance(x, tuple):
                return [v for item in x for v in leaves(item)]
            return [x]

        assert all(type(v) is float for v in leaves(geom.frame))

    def test_wire3d_identity_unchanged(self):
        twin = kin.WireGeometry3D(anchors=((0, 0, 500), (400, 0, 500),
                                           (200, 350, 500)),
                                  spool_radius=20)
        assert twin == WIRE3D and hash(twin) == hash(WIRE3D)
        assert hash(WIRE3D) == hash((WIRE3D.anchors, WIRE3D.spool_radius,
                                     WIRE3D.workspace_margin))
        assert WIRE3D != WIRE3D_REVERSED
        assert WIRE3D != dataclasses.replace(WIRE3D, spool_radius=10.0)
        assert repr(WIRE3D) == (
            "WireGeometry3D(anchors=((0.0, 0.0, 500.0), (400.0, 0.0, 500.0), "
            "(200.0, 350.0, 500.0)), spool_radius=20.0, "
            "workspace_margin=10.0)")

    def test_wire2d_identity_unchanged(self):
        twin = kin.WireGeometry2D(anchors=((0, 0), (1000, 0)),
                                  spool_radius=20, workspace_margin=0)
        assert twin == WIRE2D and hash(twin) == hash(WIRE2D)
        assert hash(WIRE2D) == hash((WIRE2D.anchors, WIRE2D.spool_radius,
                                     WIRE2D.workspace_margin))
        assert repr(WIRE2D) == (
            "WireGeometry2D(anchors=((0.0, 0.0), (1000.0, 0.0)), "
            "spool_radius=20.0, workspace_margin=0.0)")

    @pytest.mark.parametrize("geom", [WIRE2D, WIRE2D_SKEWED, WIRE3D, TILTED])
    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_derive_afresh(self, geom, duplicate):
        twin = duplicate(geom)
        assert twin == geom and hash(twin) == hash(geom)
        assert twin.frame == geom.frame
        if isinstance(geom, kin.WireGeometry3D):
            for arr, orig in ((twin.anchor_array, geom.anchor_array),
                              (twin.down_normal, geom.down_normal)):
                assert not arr.flags.writeable
                assert np.array_equal(arr, orig)

    def test_replace_derives_afresh(self):
        moved = dataclasses.replace(WIRE3D, anchors=EQUILATERAL.anchors)
        assert moved.frame == EQUILATERAL.frame
        assert np.array_equal(moved.down_normal, EQUILATERAL.down_normal)


class TestConversions:
    def test_spool_delta(self):
        assert kin.spool_delta(0.0, 5.0) == 0.0
        r = 7.5
        assert kin.spool_delta(2 * math.pi * r, r) == pytest.approx(2 * math.pi)
        assert kin.spool_delta(10.0, 5.0) == pytest.approx(2.0)

    def test_leadscrew_rejects_boolean_direction(self):
        for direction in (True, False):
            with pytest.raises(ValueError, match="direction"):
                kin.LeadScrew(pitch=8.0, direction=direction)

    def test_leadscrew_delta(self):
        screw = kin.LeadScrew(pitch=8.0)
        assert kin.leadscrew_delta(8.0, screw) == pytest.approx(2 * math.pi)
        assert kin.leadscrew_delta(0.0, screw) == 0.0
        assert kin.leadscrew_delta(-2.0, screw) == pytest.approx(-math.pi / 2)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        screw = kin.LeadScrew(pitch=3.0, direction=-1)
        for _ in range(200):
            a, b = rng.uniform(-50, 50, size=2)
            assert kin.spool_delta(a + b, 4.0) == pytest.approx(
                kin.spool_delta(a, 4.0) + kin.spool_delta(b, 4.0), abs=1e-12)
            assert kin.leadscrew_delta(a + b, screw) == pytest.approx(
                kin.leadscrew_delta(a, screw) + kin.leadscrew_delta(b, screw),
                abs=1e-12)

    def test_leadscrew_monotone(self):
        screw = kin.LeadScrew(pitch=8.0, direction=1)
        zs = np.linspace(0.0, 100.0, 50)
        thetas = [kin.leadscrew_delta(z, screw) for z in zs]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))


class TestWorkspaceContains:
    def test_interior_point(self, bridge_config):
        assert kin.workspace_contains(bridge_config, (200.0, 100.0, 0.0))

    def test_above_anchors(self, wire2d_config):
        check = kin.workspace_contains(wire2d_config, (500.0, 5.0, 0.0))
        assert not check
        assert check.reason in ("AboveAnchors", "OutsideBox")

    def test_boundary_margin_strict(self, wire2d_config):
        geom = wire2d_config.wire2d_geometry
        z = -geom.workspace_margin  # exactly at margin: excluded
        check = kin.workspace_contains(wire2d_config, (500.0, z, 0.0))
        assert not check

    @pytest.mark.parametrize("name", [
        "bridge_xy", "printer_bridge", "wire2d_wall", "wire3d_printer",
        "wire2d_skewed", "wire3d_tilted"])
    def test_matches_oracle(self, name):
        doc = config.default_config_doc(
            {"wire2d_skewed": "wire2d_wall",
             "wire3d_tilted": "wire3d_printer"}.get(name, name))
        if name == "wire2d_skewed":
            doc["geometry"]["anchors"] = [list(a) for a in
                                          WIRE2D_SKEWED.anchors]
            doc["geometry"]["workspace_margin"] = 12.5
        if name == "wire3d_tilted":  # the box reaches above the anchor plane
            doc["geometry"]["anchors"] = [list(a) for a in TILTED.anchors]
            doc["workspace"]["max"] = [320.0, 260.0, 800.0]
        cfg = config.parse_config(doc)
        lo = np.array(cfg.workspace_min) - 60.0
        hi = np.array(cfg.workspace_max) + 60.0
        rng = np.random.default_rng(12)
        points = [tuple(p) for p in rng.uniform(lo, hi, (3000, 3)).tolist()]
        # planar points, the box corners, and non-finite coordinates
        points += [(x, y, 0.0) for x, y, _ in points[:1000]]
        points += [(x, y, z) for x in (lo[0] + 60.0, hi[0] - 60.0)
                   for y in (lo[1] + 60.0, hi[1] - 60.0)
                   for z in (lo[2] + 60.0, hi[2] - 60.0)]
        points += [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                   (0.0, 0.0, -math.inf), cfg.home,
                   (cfg.home[0], cfg.home[1], cfg.home[2] + 2e-9)]
        for p in points:
            got = kin.workspace_contains(cfg, p)
            expected = workspace_contains_oracle(cfg, p)
            assert (got.ok, got.reason) == (expected.ok, expected.reason), p
