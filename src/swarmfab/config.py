"""Machine configuration files: strict JSON schema (v1) and scaffolds.

Unknown keys are rejected everywhere to catch typos early.  All numbers
must be finite.  The document maps 1:1 onto coordinator.MachineConfig: a
key left out takes the default of the field it names, and a value out of
that field's range is rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

from . import kinematics as kin
from .coordinator import MORPHOLOGIES, REQUIRED_ROBOTS, MachineConfig, RosterEntry
from .errors import ConfigError
from .robot import RobotParams

SCHEMA_VERSION = 1

# The numbers each block may set, each key named as the dataclass field it
# sets.  Only the keys a document sets are passed on, so MachineConfig,
# RobotParams, BridgeGeometry, WireGeometry2D/3D and LeadScrew own every
# default, and say which fields are required.
_NUMBERS = {
    "limits": ("max_tool_speed", "sync_tol"),
    "planning": ("dt_plan", "swap_duration", "barrier_angle_deg",
                 "stall_timeout"),
    "sim": ("dt_sim", "noise_std"),
    "roster": ("wheel_track", "max_wheel_speed", "body_radius"),
    "screw": ("pitch", "direction", "z_min", "z_max"),
    "bridge": ("rail1_x", "bridge_span", "carriage_min", "carriage_max",
               "bridge_height"),
    "wire": ("spool_radius", "workspace_margin"),
}

# morphology -> the MachineConfig field of its geometry, the geometry class,
# its numbers, and its other geometry keys
_GEOMETRY = {
    "bridge_xy": ("bridge_geometry", kin.BridgeGeometry, "bridge", ()),
    "wire2d_wall": ("wire2d_geometry", kin.WireGeometry2D, "wire",
                    ("anchors",)),
    "wire3d_printer": ("wire3d_geometry", kin.WireGeometry3D, "wire",
                       ("anchors", "table_position")),
    "printer_bridge": ("bridge_geometry", kin.BridgeGeometry, "bridge",
                       ("screw", "table_position")),
}

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


def _required(cls) -> set:
    """The fields of dataclass cls that have no default."""
    return {f.name for f in dataclasses.fields(cls)
            if f.init and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING}


def _numbers(obj: dict, block: str, where: str, other=(),
             required=frozenset()) -> dict:
    """The numbers obj sets among the keys of block, by key, once obj is
    checked to set no key but those and `other`, and every required one."""
    keys = _NUMBERS[block]
    _require_keys(obj, {*keys, *other}, set(required), where)
    return {key: _number(obj[key], f"{where}.{key}")
            for key in keys if key in obj}


def _finite(value) -> bool:
    """Whether a JSON number is a finite float: an int too large for a
    float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if not _finite(value):
        raise ConfigError(f"{where} must be finite")
    return float(value)


def _point(value, n: int, where: str) -> tuple:
    if (not isinstance(value, list) or len(value) != n
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not _finite(v) for v in value)):
        raise ConfigError(f"{where} must be a list of {n} finite numbers")
    return tuple(float(v) for v in value)


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

    roster = []
    if not isinstance(doc["roster"], list) or not doc["roster"]:
        raise ConfigError("roster must be a non-empty list")
    for i, entry in enumerate(doc["roster"]):
        where = f"roster[{i}]"
        params = _numbers(entry, "roster", where, ("id",), {"id"})
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise ConfigError(f"{where}.id must be a non-empty string")
        try:
            roster.append(RosterEntry(id=entry["id"],
                                      params=RobotParams(**params)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    ws = doc["workspace"]
    _require_keys(ws, {"min", "max"}, {"min", "max"}, "workspace")
    ws_min = _point(ws["min"], 3, "workspace.min")
    ws_max = _point(ws["max"], 3, "workspace.max")

    kwargs: dict[str, Any] = {}
    for block in ("limits", "planning", "sim"):
        kwargs.update(_numbers(doc.get(block, {}), block, block))

    attr, cls, block, other = _GEOMETRY[morphology]
    geo = doc["geometry"]
    values = _numbers(geo, block, "geometry", other, _required(cls))
    if "screw" in other and "screw" not in geo:
        raise ConfigError("printer_bridge geometry needs a screw block")
    if "anchors" in other:
        n = 2 if morphology == "wire2d_wall" else 3
        anchors = geo["anchors"]
        if not isinstance(anchors, list) or len(anchors) != n:
            raise ConfigError(f"geometry needs exactly {n} anchors")
        values["anchors"] = tuple(_point(a, n, f"geometry.anchors[{i}]")
                                  for i, a in enumerate(anchors))
    try:
        kwargs[attr] = cls(**values)
        if "screw" in other:
            kwargs["lead_screw"] = kin.LeadScrew(**_numbers(
                geo["screw"], "screw", "geometry.screw",
                required=_required(kin.LeadScrew)))
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
        return MachineConfig(morphology=morphology, roster=tuple(roster),
                             workspace_min=ws_min, workspace_max=ws_max,
                             **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> MachineConfig:
    """The config in the JSON file at path; every ConfigError it raises
    names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
    try:
        return parse_config(doc)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def _scaffold(cls, block: str, **values) -> dict:
    """Every key of block: its value in `values`, or the default of cls."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: values.get(key, defaults[key]) for key in _NUMBERS[block]}


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
        **{block: _scaffold(MachineConfig, block)
           for block in ("limits", "planning", "sim")},
    }
    bridge = _scaffold(kin.BridgeGeometry, "bridge", bridge_span=400.0,
                       carriage_min=30.0, carriage_max=370.0)
    if morphology == "bridge_xy":
        doc["geometry"] = bridge
        doc["workspace"] = {"min": [30.0, 0.0, 0.0],
                            "max": [370.0, 500.0, 0.0]}
        doc["home"] = [200.0, 100.0, 0.0]
    elif morphology == "wire2d_wall":
        doc["geometry"] = {
            "anchors": [[0.0, 0.0], [1000.0, 0.0]],
            **_scaffold(kin.WireGeometry2D, "wire", spool_radius=20.0),
        }
        doc["workspace"] = {"min": [150.0, -750.0, 0.0],
                            "max": [850.0, -150.0, 0.0]}
        doc["home"] = [500.0, -400.0, 0.0]
    elif morphology == "wire3d_printer":
        doc["geometry"] = {
            "anchors": [[0.0, 0.0, 500.0], [400.0, 0.0, 500.0],
                        [200.0, 350.0, 500.0]],
            **_scaffold(kin.WireGeometry3D, "wire", spool_radius=20.0),
            "table_position": [200.0, 120.0],
        }
        doc["workspace"] = {"min": [80.0, 60.0, 0.0],
                            "max": [320.0, 260.0, 350.0]}
        doc["home"] = [200.0, 120.0, 50.0]
    else:  # printer_bridge
        doc["geometry"] = {
            **bridge,
            "screw": _scaffold(kin.LeadScrew, "screw", pitch=8.0),
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
