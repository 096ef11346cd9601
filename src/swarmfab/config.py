"""Machine configuration files: strict JSON schema (v1), defaults, scaffolds.

Unknown keys are rejected everywhere to catch typos early.  All numbers
must be finite.  The document maps 1:1 onto coordinator.MachineConfig.
"""

from __future__ import annotations

import json
import math
from typing import Any

from . import kinematics as kin
from .coordinator import MORPHOLOGIES, REQUIRED_ROBOTS, MachineConfig, RosterEntry
from .errors import ConfigError
from .robot import RobotParams

SCHEMA_VERSION = 1

_GEOMETRY_KEYS = {
    "bridge_xy": {"rail1_x", "bridge_span", "carriage_min", "carriage_max",
                  "bridge_height"},
    "wire2d_wall": {"anchors", "spool_radius", "workspace_margin"},
    "wire3d_printer": {"anchors", "spool_radius", "workspace_margin",
                       "table_position"},
    "printer_bridge": {"rail1_x", "bridge_span", "carriage_min", "carriage_max",
                       "bridge_height", "screw", "table_position"},
}

_ROSTER_KEYS = {"id", "wheel_track", "max_wheel_speed", "body_radius",
                "position_noise_std"}

_TOP_KEYS = {"v", "morphology", "geometry", "roster", "workspace", "limits",
             "planning", "sim", "home", "parking"}


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _number(obj: dict, key: str, where: str, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"missing number {key!r} in {where}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    if not math.isfinite(v):
        raise ConfigError(f"{where}.{key} must be finite")
    return float(v)


def _point(value, n: int, where: str) -> tuple:
    if (not isinstance(value, list) or len(value) != n
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not math.isfinite(v) for v in value)):
        raise ConfigError(f"{where} must be a list of {n} finite numbers")
    return tuple(float(v) for v in value)


def _margin(geo: dict) -> float:
    margin = _number(geo, "workspace_margin", "geometry",
                     kin.DEFAULT_WORKSPACE_MARGIN)
    if margin < 0:
        raise ConfigError("geometry.workspace_margin must not be negative")
    return margin


def parse_config(doc: Any) -> MachineConfig:
    """Validate a parsed JSON document into a MachineConfig."""
    _require_keys(doc, _TOP_KEYS,
                  {"v", "morphology", "geometry", "roster", "workspace"},
                  "config")
    if isinstance(doc["v"], bool) or doc["v"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {doc['v']!r}")
    morphology = doc["morphology"]
    if morphology not in MORPHOLOGIES:
        raise ConfigError(f"unknown morphology {morphology!r}")

    geo = doc["geometry"]
    _require_keys(geo, _GEOMETRY_KEYS[morphology], set(), "geometry")

    roster = []
    if not isinstance(doc["roster"], list) or not doc["roster"]:
        raise ConfigError("roster must be a non-empty list")
    for i, entry in enumerate(doc["roster"]):
        where = f"roster[{i}]"
        _require_keys(entry, _ROSTER_KEYS, {"id"}, where)
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise ConfigError(f"{where}.id must be a non-empty string")
        defaults = RobotParams()
        try:
            params = RobotParams(
                wheel_track=_number(entry, "wheel_track", where,
                                    defaults.wheel_track),
                max_wheel_speed=_number(entry, "max_wheel_speed", where,
                                        defaults.max_wheel_speed),
                body_radius=_number(entry, "body_radius", where,
                                    defaults.body_radius),
                position_noise_std=_number(entry, "position_noise_std", where,
                                           0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        roster.append(RosterEntry(id=entry["id"], params=params))

    ws = doc["workspace"]
    _require_keys(ws, {"min", "max"}, {"min", "max"}, "workspace")
    ws_min = _point(ws["min"], 3, "workspace.min")
    ws_max = _point(ws["max"], 3, "workspace.max")
    if any(lo > hi for lo, hi in zip(ws_min, ws_max)):
        raise ConfigError("workspace.min must be <= workspace.max componentwise")

    limits = doc.get("limits", {})
    _require_keys(limits, {"max_tool_speed", "sync_tol"}, set(), "limits")
    planning = doc.get("planning", {})
    _require_keys(planning, {"dt_plan", "swap_duration", "barrier_angle_deg",
                             "stall_timeout"}, set(), "planning")
    sim_block = doc.get("sim", {})
    _require_keys(sim_block, {"dt_sim", "noise_std"}, set(), "sim")

    kwargs: dict[str, Any] = {}
    try:
        if morphology in ("bridge_xy", "printer_bridge"):
            kwargs["bridge_geometry"] = kin.BridgeGeometry(
                bridge_span=_number(geo, "bridge_span", "geometry"),
                carriage_min=_number(geo, "carriage_min", "geometry"),
                carriage_max=_number(geo, "carriage_max", "geometry"),
                bridge_height=_number(geo, "bridge_height", "geometry", 0.0),
                rail1_x=_number(geo, "rail1_x", "geometry", 0.0),
            )
            if morphology == "printer_bridge":
                screw = geo.get("screw")
                if screw is None:
                    raise ConfigError("printer_bridge geometry needs a screw block")
                _require_keys(screw, {"pitch", "direction", "z_min", "z_max"},
                              {"pitch"}, "geometry.screw")
                direction = screw.get("direction", 1)
                if isinstance(direction, bool) or direction not in (1, -1):
                    raise ConfigError("geometry.screw.direction must be 1 or -1")
                kwargs["lead_screw"] = kin.LeadScrew(
                    pitch=_number(screw, "pitch", "geometry.screw"),
                    direction=int(direction),
                    z_min=_number(screw, "z_min", "geometry.screw", 0.0),
                    z_max=_number(screw, "z_max", "geometry.screw", 200.0),
                )
        elif morphology == "wire2d_wall":
            anchors = geo.get("anchors")
            if not isinstance(anchors, list) or len(anchors) != 2:
                raise ConfigError("wire2d geometry needs exactly 2 anchors")
            kwargs["wire2d_geometry"] = kin.WireGeometry2D(
                anchors=tuple(_point(a, 2, f"geometry.anchors[{i}]")
                              for i, a in enumerate(anchors)),
                spool_radius=_number(geo, "spool_radius", "geometry"),
                workspace_margin=_margin(geo),
            )
        elif morphology == "wire3d_printer":
            anchors = geo.get("anchors")
            if not isinstance(anchors, list) or len(anchors) != 3:
                raise ConfigError("wire3d geometry needs exactly 3 anchors")
            kwargs["wire3d_geometry"] = kin.WireGeometry3D(
                anchors=tuple(_point(a, 3, f"geometry.anchors[{i}]")
                              for i, a in enumerate(anchors)),
                spool_radius=_number(geo, "spool_radius", "geometry"),
                workspace_margin=_margin(geo),
            )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    if "table_position" in geo:
        kwargs["table_position"] = _point(geo["table_position"], 2,
                                          "geometry.table_position")

    if "home" in doc:
        kwargs["home"] = _point(doc["home"], 3, "home")
    if "parking" in doc:
        if not isinstance(doc["parking"], list):
            raise ConfigError("parking must be a list of [x, y] points")
        kwargs["parking"] = tuple(_point(p, 2, f"parking[{i}]")
                                  for i, p in enumerate(doc["parking"]))

    try:
        return MachineConfig(
            morphology=morphology,
            roster=tuple(roster),
            workspace_min=ws_min,
            workspace_max=ws_max,
            sync_tol=_number(limits, "sync_tol", "limits", 1.0),
            max_tool_speed=_number(limits, "max_tool_speed", "limits", 50.0),
            dt_plan=_number(planning, "dt_plan", "planning", 0.1),
            swap_duration=_number(planning, "swap_duration", "planning", 10.0),
            barrier_angle_deg=_number(planning, "barrier_angle_deg",
                                      "planning", 90.0),
            stall_timeout=_number(planning, "stall_timeout", "planning", 10.0),
            dt_sim=_number(sim_block, "dt_sim", "sim", 0.01),
            noise_std=_number(sim_block, "noise_std", "sim", 0.0),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> MachineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)


def default_config_doc(morphology: str) -> dict:
    """A valid scaffold config document for a morphology."""
    if morphology not in MORPHOLOGIES:
        raise ConfigError(f"unknown morphology {morphology!r}")
    n = REQUIRED_ROBOTS[morphology]
    roster = [{"id": f"r{i + 1}"} for i in range(n)]
    doc: dict[str, Any] = {
        "v": SCHEMA_VERSION,
        "morphology": morphology,
        "roster": roster,
        "limits": {"max_tool_speed": 50.0, "sync_tol": 1.0},
        "planning": {"dt_plan": 0.1},
        "sim": {"dt_sim": 0.01, "noise_std": 0.0},
    }
    if morphology == "bridge_xy":
        doc["geometry"] = {
            "rail1_x": 0.0, "bridge_span": 400.0,
            "carriage_min": 30.0, "carriage_max": 370.0,
            "bridge_height": 0.0,
        }
        doc["workspace"] = {"min": [30.0, 0.0, 0.0],
                            "max": [370.0, 500.0, 0.0]}
        doc["home"] = [200.0, 100.0, 0.0]
    elif morphology == "wire2d_wall":
        doc["geometry"] = {
            "anchors": [[0.0, 0.0], [1000.0, 0.0]],
            "spool_radius": 20.0,
            "workspace_margin": 10.0,
        }
        doc["workspace"] = {"min": [150.0, -750.0, 0.0],
                            "max": [850.0, -150.0, 0.0]}
        doc["home"] = [500.0, -400.0, 0.0]
    elif morphology == "wire3d_printer":
        doc["geometry"] = {
            "anchors": [[0.0, 0.0, 500.0], [400.0, 0.0, 500.0],
                        [200.0, 350.0, 500.0]],
            "spool_radius": 20.0,
            "workspace_margin": 10.0,
            "table_position": [200.0, 120.0],
        }
        doc["workspace"] = {"min": [80.0, 60.0, 0.0],
                            "max": [320.0, 260.0, 350.0]}
        doc["home"] = [200.0, 120.0, 50.0]
    else:  # printer_bridge
        doc["geometry"] = {
            "rail1_x": 0.0, "bridge_span": 400.0,
            "carriage_min": 30.0, "carriage_max": 370.0,
            "bridge_height": 0.0,
            "screw": {"pitch": 8.0, "direction": 1,
                      "z_min": 0.0, "z_max": 200.0},
            "table_position": [200.0, -60.0],
        }
        doc["workspace"] = {"min": [30.0, 0.0, 0.0],
                            "max": [370.0, 500.0, 200.0]}
        doc["home"] = [200.0, 100.0, 0.0]
    return doc


def default_config(morphology: str) -> MachineConfig:
    return parse_config(default_config_doc(morphology))


def write_default_config(morphology: str, path: str) -> None:
    doc = default_config_doc(morphology)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
