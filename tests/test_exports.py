import json

from kakutani import build_rho, discrepancy_scan, dyadic_windows
from kakutani.cover import iterate_primitive
from kakutani.engine import delone_points
from kakutani.spectral import survey
from kakutani._version import __version__
from kakutani.exports import (
    json_envelope,
    patch_to_csv,
    patch_to_svg,
    points_to_csv,
    rule_to_dot,
    series_to_csv,
    series_to_svg,
    survey_to_csv,
)


def csv_body(text):
    lines = text.strip().splitlines()
    assert lines[0] == f"# kakutani {__version__}"
    assert lines[1].startswith("# config ")
    return lines[2], lines[3:]


class TestEnvelope:
    def test_shape(self):
        text = json_envelope({"a": 1}, {"command": "x"})
        assert text.endswith("\n")
        env = json.loads(text)
        assert set(env) == {"version", "config", "report"}
        assert env["version"] == __version__
        assert env["report"] == {"a": 1}

    def test_copies_inputs(self):
        config = {"command": "x"}
        text = json_envelope({}, config)
        config["command"] = "y"
        assert json.loads(text)["config"]["command"] == "x"


class TestCsv:
    def test_patch_round_trip(self):
        patch = iterate_primitive(build_rho(2, 1), 4)
        header, body = csv_body(patch_to_csv(patch, {"command": "t"}))
        assert header == "position,length,label"
        assert len(body) == len(patch)
        for line, tile in zip(body, patch.tiles):
            pos, length, label = line.split(",")
            # repr-based fields round-trip exactly
            assert float(pos) == tile.position_value
            assert float(length) == tile.length_value
            assert int(label) == tile.label

    def test_points_round_trip(self):
        points = delone_points(iterate_primitive(build_rho(3, 2), 5))
        header, body = csv_body(points_to_csv(points, {"command": "t"}))
        assert header == "position"
        assert [float(line) for line in body] == list(points.points)

    def test_survey_booleans_lowercase(self):
        rows = survey(3)
        _header, body = csv_body(survey_to_csv(rows, {"command": "t"}))
        assert all(line.endswith(",true") or line.endswith(",false") for line in body)

    def test_series_columns(self):
        series = discrepancy_scan(0.4, 6.0, dyadic_windows(0, 8))
        header, body = csv_body(series_to_csv(series, {"command": "t"}))
        assert header == "window,max_disc"
        assert len(body) == 9


class TestSvg:
    def test_patch_rect_per_tile(self):
        patch = iterate_primitive(build_rho(2, 1), 5)
        text = patch_to_svg(patch, {"command": "t"})
        assert text.count("<rect") == len(patch)
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_series_circle_per_window(self):
        series = discrepancy_scan(0.4, 6.0, dyadic_windows(0, 8))
        text = series_to_svg(series, {"command": "t"})
        assert text.count("<circle") == len(series.windows)
        assert "<polyline" in text

    def test_comment_escapes_double_dash(self):
        # "--" may not appear inside an XML comment
        patch = iterate_primitive(build_rho(2, 1), 2)
        text = patch_to_svg(patch, {"note": "--max-tiles"})
        comment = text.splitlines()[1]
        assert comment.startswith("<!--")
        assert "--" not in comment[4:-3]


class TestRuleViews:
    def test_dot_structure(self):
        rule = build_rho(3, 2)
        text = rule_to_dot(rule)
        assert text.startswith("digraph")
        assert text.count("[shape=") == rule.size
        assert "v1 [shape=doublecircle" in text
        edges = sum(len(image) for image in rule.image_map)
        assert text.count("->") == edges
