import copy
import json
import re

import pytest

from swarmfab import cli, config
from swarmfab.coordinator import MORPHOLOGIES
from swarmfab.errors import ConfigError


class TestParseConfig:
    @pytest.mark.parametrize("morphology", MORPHOLOGIES)
    def test_defaults_round_trip(self, morphology):
        doc = config.default_config_doc(morphology)
        cfg = config.parse_config(doc)
        assert cfg.morphology == morphology
        # scaffolds survive a JSON round trip unchanged
        assert config.parse_config(json.loads(json.dumps(doc))) == cfg

    def test_unknown_top_key_rejected(self):
        doc = config.default_config_doc("bridge_xy")
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            config.parse_config(doc)

    def test_unknown_geometry_key_rejected(self):
        doc = config.default_config_doc("bridge_xy")
        doc["geometry"]["spool_radius"] = 5
        with pytest.raises(ConfigError, match="unknown key"):
            config.parse_config(doc)

    def test_schema_version_required(self):
        doc = config.default_config_doc("bridge_xy")
        doc["v"] = 2
        with pytest.raises(ConfigError, match="version"):
            config.parse_config(doc)

    def test_boolean_schema_version_rejected(self):
        # JSON true == 1 in Python, so it would pass a plain equality check
        doc = json.loads(json.dumps(config.default_config_doc("bridge_xy"))
                         .replace('"v": 1', '"v": true'))
        assert doc["v"] is True
        with pytest.raises(ConfigError, match="version"):
            config.parse_config(doc)

    def test_boolean_screw_direction_rejected(self):
        doc = config.default_config_doc("printer_bridge")
        doc["geometry"]["screw"]["direction"] = True
        with pytest.raises(ConfigError, match="direction"):
            config.parse_config(doc)

    @pytest.mark.parametrize("morphology,margin", [("wire2d_wall", -50.0),
                                                   ("wire3d_printer", -5.0)])
    def test_negative_workspace_margin_rejected(self, morphology, margin):
        # a negative margin admits tool points above the anchors: the wall
        # plotter then draws their mirror image, and the 3-wire printer
        # fails in its IK without a g-code line
        doc = config.default_config_doc(morphology)
        doc["geometry"]["workspace_margin"] = margin
        with pytest.raises(ConfigError, match="workspace_margin"):
            config.parse_config(doc)
        doc["geometry"]["workspace_margin"] = 0.0
        config.parse_config(doc)

    def test_nonfinite_rejected(self):
        doc = config.default_config_doc("bridge_xy")
        doc["limits"]["max_tool_speed"] = float("inf")
        with pytest.raises(ConfigError, match="finite"):
            config.parse_config(doc)

    def test_duplicate_robot_ids(self):
        doc = config.default_config_doc("bridge_xy")
        doc["roster"][1]["id"] = "r1"
        with pytest.raises(ConfigError, match="duplicate"):
            config.parse_config(doc)

    def test_bad_anchor_count(self):
        doc = config.default_config_doc("wire2d_wall")
        doc["geometry"]["anchors"].append([1.0, 2.0])
        with pytest.raises(ConfigError, match="anchors"):
            config.parse_config(doc)

    def test_unknown_morphology(self):
        doc = config.default_config_doc("bridge_xy")
        doc["morphology"] = "hovercraft"
        with pytest.raises(ConfigError, match="morphology"):
            config.parse_config(doc)

    def test_roster_params_applied(self):
        doc = config.default_config_doc("bridge_xy")
        doc["roster"][0]["max_wheel_speed"] = 42.0
        cfg = config.parse_config(doc)
        assert cfg.roster[0].params.max_wheel_speed == 42.0
        assert cfg.roster[1].params.max_wheel_speed == 115.0


# one edit per ConfigError that no other test reaches: (morphology of the
# scaffold, its edit, the message)
CONFIG_ERRORS = {
    "block_not_an_object": ("bridge_xy", lambda doc: doc.update(limits=[]),
                            "limits must be an object"),
    "missing_key": ("bridge_xy", lambda doc: doc.pop("workspace"),
                    "missing key(s) in config: ['workspace']"),
    "empty_roster": ("bridge_xy", lambda doc: doc.update(roster=[]),
                     "roster must be a non-empty list"),
    "roster_not_a_list": ("bridge_xy",
                          lambda doc: doc.update(roster={"id": "r1"}),
                          "roster must be a non-empty list"),
    "empty_id": ("bridge_xy", lambda doc: doc["roster"][0].update(id=""),
                 "roster[0].id must be a non-empty string"),
    "robot_params": ("bridge_xy",
                     lambda doc: doc["roster"][1].update(wheel_track=0),
                     "roster[1]: wheel_track, max_wheel_speed, body_radius "
                     "must be positive"),
    "inverted_workspace": ("bridge_xy",
                           lambda doc: doc["workspace"].update(
                               min=[30.0, 600.0, 0.0]),
                           "workspace_min must be <= workspace_max "
                           "componentwise"),
    "no_screw": ("printer_bridge", lambda doc: doc["geometry"].pop("screw"),
                 "printer_bridge geometry needs a screw block"),
    "geometry_range": ("bridge_xy",
                       lambda doc: doc["geometry"].update(bridge_span=0),
                       "geometry: bridge_span must be positive"),
    "carriage_travel": ("bridge_xy",
                        lambda doc: doc["geometry"].update(carriage_min=380),
                        "geometry: carriage travel must satisfy "
                        "0 <= min < max <= span"),
    "anchors_coincide": ("wire2d_wall",
                         lambda doc: doc["geometry"].update(
                             anchors=[[0.0, 0.0], [0.0, 0.0]]),
                         "geometry: anchors must be distinct"),
    "wire2d_spool_radius": ("wire2d_wall",
                            lambda doc: doc["geometry"].update(
                                spool_radius=0),
                            "geometry: spool_radius must be positive"),
    "wire3d_spool_radius": ("wire3d_printer",
                            lambda doc: doc["geometry"].update(
                                spool_radius=-1.0),
                            "geometry: spool_radius must be positive"),
    "screw_pitch": ("printer_bridge",
                    lambda doc: doc["geometry"]["screw"].update(pitch=0),
                    "geometry: pitch must be positive"),
    "screw_travel": ("printer_bridge",
                     lambda doc: doc["geometry"]["screw"].update(z_min=200),
                     "geometry: z_min must be below z_max"),
    "parking_not_a_list": ("bridge_xy",
                           lambda doc: doc.update(parking={"x": 0}),
                           "parking must be a list of [x, y] points"),
    "unknown_scaffold": ("bogus", None, "unknown morphology 'bogus'"),
}


@pytest.mark.parametrize("morphology,edit,message", CONFIG_ERRORS.values(),
                         ids=CONFIG_ERRORS)
def test_config_error(morphology, edit, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
        doc = config.default_config_doc(morphology)
        edit(doc)
        config.parse_config(doc)
    assert type(err.value) is ConfigError


def settings(doc):
    """The path and value of every setting in a scaffold document."""
    for block in ("limits", "planning", "sim", "geometry", "workspace"):
        for key, value in doc[block].items():
            if isinstance(value, dict):  # geometry.screw
                yield from (((block, key, k), v) for k, v in value.items())
            else:
                yield (block, key), value
    yield ("home",), doc["home"]


# a valid value other than the scaffold's; any other number is raised by 1,
# and a point list moves its first coordinate by 1
OTHER = {"dt_sim": 0.005, "direction": -1}


def other(key, value):
    if key in OTHER:
        return OTHER[key]
    if isinstance(value, list):
        value = copy.deepcopy(value)
        point = value[0] if isinstance(value[0], list) else value
        point[0] += 1.0
        return value
    return value + 1.0


class TestEveryKey:
    @pytest.mark.parametrize("morphology", MORPHOLOGIES)
    def test_every_scaffold_setting_has_an_effect(self, morphology):
        doc = config.default_config_doc(morphology)
        default = config.parse_config(doc)
        paths = list(settings(doc))
        assert len(paths) >= 12
        for path, value in paths:
            changed = copy.deepcopy(doc)
            *outer, key = path
            block = changed
            for name in outer:
                block = block[name]
            block[key] = other(key, value)
            assert config.parse_config(changed) != default, path

    @pytest.mark.parametrize("key", ["wheel_track", "max_wheel_speed",
                                     "body_radius"])
    def test_every_roster_key_has_an_effect(self, key):
        doc = config.default_config_doc("bridge_xy")
        default = config.parse_config(doc)
        doc["roster"][0][key] = 50.0
        cfg = config.parse_config(doc)
        assert cfg != default
        assert getattr(cfg.roster[0].params, key) == 50.0

    def test_position_noise_std_rejected(self):
        # the position noise is one machine setting, sim.noise_std
        doc = config.default_config_doc("bridge_xy")
        doc["roster"][0]["position_noise_std"] = 0.01
        with pytest.raises(ConfigError,
                           match=r"unknown key.*position_noise_std"):
            config.parse_config(doc)

    @pytest.mark.parametrize("block,key,value", [
        ("sim", "dt_sim", -1.0), ("sim", "dt_sim", 0.0),
        ("sim", "dt_sim", 0.2), ("sim", "noise_std", -0.01),
        ("planning", "stall_timeout", 0.0),
        ("planning", "stall_timeout", -1.0),
        ("planning", "swap_duration", 0.0),
        ("planning", "barrier_angle_deg", -1.0),
        ("planning", "barrier_angle_deg", 181.0),
        ("planning", "dt_plan", 0.0), ("limits", "sync_tol", 0.0),
        ("limits", "max_tool_speed", -5.0),
    ])
    def test_out_of_range_rejected(self, block, key, value):
        doc = config.default_config_doc("bridge_xy")
        doc[block][key] = value
        with pytest.raises(ConfigError, match=key):
            config.parse_config(doc)

    @pytest.mark.parametrize("block,key,value", [
        ("sim", "dt_sim", 0.1), ("sim", "noise_std", 0.0),
        ("planning", "barrier_angle_deg", 0.0),
        ("planning", "barrier_angle_deg", 180.0),
    ])
    def test_range_bounds_accepted(self, block, key, value):
        doc = config.default_config_doc("bridge_xy")
        doc[block][key] = value
        assert getattr(config.parse_config(doc), key) == value


class TestFiles:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "m.json"
        config.write_default_config("wire3d_printer", str(path))
        cfg = config.load_config(str(path))
        assert cfg.morphology == "wire3d_printer"
        assert len(cfg.roster) == 4

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            config.load_config(str(path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"v": 1, "morphology": "bridge_\xff"}')
        with pytest.raises(ConfigError, match="bad.json: invalid JSON"):
            config.load_config(str(path))

    def test_errors_name_the_file_once(self, tmp_path):
        path = tmp_path / "typo.json"
        doc = config.default_config_doc("bridge_xy")
        doc["typo_key"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            config.load_config(str(path))
        assert str(err.value) == (f"config {path}: unknown key(s) in config: "
                                  f"['typo_key']")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["limits"].update(sync_tol=10 ** 400),
         "limits.sync_tol must be finite"),
        (lambda doc: doc.update(home=[200, 10 ** 400, 0]),
         "home must be a list of 3 finite numbers"),
    ], ids=["number", "point"])
    def test_int_too_large_for_a_float(self, tmp_path, edit, message):
        # json reads 1 and 400 zeros as an int, which no float holds
        path = tmp_path / "big.json"
        doc = config.default_config_doc("bridge_xy")
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            config.load_config(str(path))


# The scaffold of each morphology, key order included.  printer_bridge's
# geometry has no bridge_height: its lead screw sets z.
_BLOCKS = ('"limits": {"max_tool_speed": 50.0, "sync_tol": 1.0}, '
           '"planning": {"dt_plan": 0.1, "swap_duration": 10.0, '
           '"barrier_angle_deg": 90.0, "stall_timeout": 10.0}, '
           '"sim": {"dt_sim": 0.01, "noise_std": 0.0}')
_BRIDGE = ('"rail1_x": 0.0, "bridge_span": 400.0, "carriage_min": 30.0, '
           '"carriage_max": 370.0')
SCAFFOLDS = {
    "bridge_xy": (
        '{"v": 1, "morphology": "bridge_xy", "roster": [{"id": "r1"}, '
        '{"id": "r2"}, {"id": "r3"}], ' + _BLOCKS + ', "geometry": {'
        + _BRIDGE + ', "bridge_height": 0.0}, "workspace": {"min": '
        '[30.0, 0.0, 0.0], "max": [370.0, 500.0, 0.0]}, "home": '
        '[200.0, 100.0, 0.0]}'),
    "wire2d_wall": (
        '{"v": 1, "morphology": "wire2d_wall", "roster": [{"id": "r1"}, '
        '{"id": "r2"}], ' + _BLOCKS + ', "geometry": {"anchors": '
        '[[0.0, 0.0], [1000.0, 0.0]], "spool_radius": 20.0, '
        '"workspace_margin": 10.0}, "workspace": {"min": [150.0, -750.0, '
        '0.0], "max": [850.0, -150.0, 0.0]}, "home": [500.0, -400.0, 0.0]}'),
    "wire3d_printer": (
        '{"v": 1, "morphology": "wire3d_printer", "roster": [{"id": "r1"}, '
        '{"id": "r2"}, {"id": "r3"}, {"id": "r4"}], ' + _BLOCKS
        + ', "geometry": {"anchors": [[0.0, 0.0, 500.0], [400.0, 0.0, '
        '500.0], [200.0, 350.0, 500.0]], "spool_radius": 20.0, '
        '"workspace_margin": 10.0, "table_position": [200.0, 120.0]}, '
        '"workspace": {"min": [80.0, 60.0, 0.0], "max": [320.0, 260.0, '
        '350.0]}, "home": [200.0, 120.0, 50.0]}'),
    "printer_bridge": (
        '{"v": 1, "morphology": "printer_bridge", "roster": [{"id": "r1"}, '
        '{"id": "r2"}, {"id": "r3"}, {"id": "r4"}], ' + _BLOCKS
        + ', "geometry": {' + _BRIDGE + ', "screw": {"pitch": 8.0, '
        '"direction": 1, "z_min": 0.0, "z_max": 200.0}, "table_position": '
        '[200.0, -60.0]}, "workspace": {"min": [30.0, 0.0, 0.0], "max": '
        '[370.0, 500.0, 200.0]}, "home": [200.0, 100.0, 0.0]}'),
}


class TestScaffolds:
    def test_every_morphology_is_pinned(self):
        assert tuple(SCAFFOLDS) == MORPHOLOGIES

    @pytest.mark.parametrize("morphology", MORPHOLOGIES)
    def test_scaffold_document(self, morphology):
        doc = config.default_config_doc(morphology)
        assert json.dumps(doc) == SCAFFOLDS[morphology]
        # each call hands out a document of its own
        doc["geometry"].clear()
        assert json.dumps(config.default_config_doc(morphology)) == \
            SCAFFOLDS[morphology]

    @pytest.mark.parametrize("morphology", MORPHOLOGIES)
    def test_machines_init_writes_the_scaffold(self, morphology, tmp_path,
                                              capsys):
        path = tmp_path / "m.json"
        assert cli.main(["machines", "init", morphology, str(path)]) == 0
        capsys.readouterr()
        expected = json.dumps(json.loads(SCAFFOLDS[morphology]), indent=2)
        assert path.read_bytes() == (expected + "\n").encode()

    def test_printer_bridge_rejects_bridge_height(self, tmp_path, capsys):
        # the lead screw sets z, so nothing would read the key
        doc = config.default_config_doc("printer_bridge")
        doc["geometry"]["bridge_height"] = 77.0
        with pytest.raises(ConfigError, match=r"^unknown key\(s\) in "
                                              r"geometry: \['bridge_height'\]$"):
            config.parse_config(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "job.gcode").write_text("G1 X200 Y100 F600\n")
        code = cli.main(["plan", str(tmp_path / "job.gcode"), str(path),
                         str(tmp_path / "s.txt")])
        assert code == 4
        assert "bridge_height" in capsys.readouterr().err
        # the bridge plotter keeps the key
        doc = config.default_config_doc("bridge_xy")
        doc["geometry"]["bridge_height"] = 77.0
        assert config.parse_config(doc).bridge_geometry.bridge_height == 77.0
