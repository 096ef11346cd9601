"""Machine configuration files: strict JSON schema (v1) and scaffolds.

Unknown keys are rejected everywhere to catch typos early.  All numbers
must be finite.  The document maps 1:1 onto coordinator.MachineConfig: a
key left out takes the default of the field it names, and a value out of
that field's range is rejected.  machines.SPECS declares the geometry
block of each morphology, and its scaffold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from typing import Any

from .coordinator import MORPHOLOGIES, MachineConfig, RosterEntry
from .errors import ConfigError
from .machines import SPECS, Part
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


def _numbers(obj: dict, keys, where: str, other=(),
             required=frozenset()) -> dict:
    """The numbers obj sets among `keys`, by key, once obj is checked to set
    no key but those and `other`, and every required one."""
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


def _part(morphology: str, part: Part, obj, where: str) -> dict:
    """The MachineConfig fields that obj, the block of a machines.Part,
    sets: the part's, those of its nested blocks, and table_position."""
    numbers = [key for key, value in part.keys.items()
               if not isinstance(value, (list, Part))]
    values = _numbers(obj, numbers, where, part.keys, _required(part.cls))
    fields = {}
    for key, value in part.keys.items():
        if isinstance(value, Part):
            if key not in obj:
                raise ConfigError(f"{morphology} geometry needs a {key} "
                                  f"block")
            fields.update(_part(morphology, value, obj[key],
                                f"{where}.{key}"))
        elif key == "anchors":
            n = len(value)
            if not isinstance(obj[key], list) or len(obj[key]) != n:
                raise ConfigError(f"geometry needs exactly {n} anchors")
            values[key] = tuple(_point(a, len(value[0]),
                                       f"geometry.anchors[{i}]")
                                for i, a in enumerate(obj[key]))
        elif key == "table_position" and key in obj:
            fields[key] = _point(obj[key], 2, f"{where}.{key}")
    try:
        fields[part.field] = part.cls(**values)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    return fields


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
        params = _numbers(entry, _NUMBERS["roster"], where, ("id",), {"id"})
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise ConfigError(f"{where}.id must be a non-empty string")
        # UTF-8 text (no lone surrogate) that is one CSV field and one
        # stream token: no whitespace, control character, comma or '='
        if any(c.isspace() or c in ",=" or c < " " or "\x7f" <= c < "\xa0"
               or "\ud800" <= c <= "\udfff" for c in entry["id"]):
            raise ConfigError(f"{where}.id {entry['id']!a} must be UTF-8 text "
                              f"with no whitespace, control character, ',' "
                              f"or '='")
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
        kwargs.update(_numbers(doc.get(block, {}), _NUMBERS[block], block))

    kwargs.update(_part(morphology, SPECS[morphology].geometry,
                        doc["geometry"], "geometry"))

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


def _scaffold(cls, keys: dict) -> dict:
    """Each of keys with its scaffold value: the default of cls for None,
    and the scaffold of a nested Part."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    doc = {}
    for key, value in keys.items():
        if value is None:
            value = defaults[key]
        elif isinstance(value, Part):
            value = _scaffold(value.cls, value.keys)
        doc[key] = value
    return doc


def default_config_doc(morphology: str) -> dict:
    """A valid scaffold config document for a morphology: every key it may
    set but roster params and parking, with the value machines.SPECS gives
    it or the default of the field it sets."""
    if morphology not in MORPHOLOGIES:
        raise ConfigError(f"unknown morphology {morphology!r}")
    spec = SPECS[morphology]
    doc = {
        "v": SCHEMA_VERSION,
        "morphology": morphology,
        "roster": [{"id": f"r{i + 1}"} for i in range(len(spec.roles))],
        **{block: _scaffold(MachineConfig, dict.fromkeys(_NUMBERS[block]))
           for block in ("limits", "planning", "sim")},
        "geometry": _scaffold(spec.geometry.cls, spec.geometry.keys),
        "workspace": dict(zip(("min", "max"), spec.workspace)),
        "home": spec.home,
    }
    # the document is the caller's to edit, and SPECS's lists are not
    return copy.deepcopy(doc)


def default_config(morphology: str) -> MachineConfig:
    return parse_config(default_config_doc(morphology))


def write_default_config(morphology: str, path: str) -> None:
    doc = default_config_doc(morphology)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
