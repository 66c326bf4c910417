import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from clpair.cli import main
from clpair.errors import DomainError
from clpair.render import ContourSpec, _marching_squares, render_heatmap

from conftest import PLANE_CSV


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestMarchingSquares:
    def test_straight_contour(self):
        # field v(x, y) = x crosses level 0.5 halfway between the columns
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        vals = np.array([[0.0, 0.0], [1.0, 1.0]])
        segs = _marching_squares(x, y, vals, 0.5)
        assert len(segs) == 1
        (xa, _), (xb, _) = segs[0]
        assert xa == pytest.approx(0.5) and xb == pytest.approx(0.5)

    def test_no_crossing(self):
        vals = np.full((3, 3), 2.0)
        assert _marching_squares(np.arange(3.0), np.arange(3.0), vals, 0.5) == []

    def test_nan_cells_skipped(self):
        vals = np.array([[0.0, math.nan], [1.0, 1.0]])
        assert _marching_squares(np.arange(2.0), np.arange(2.0), vals, 0.5) == []


class TestRenderHeatmap:
    def test_valid_svg_document(self):
        x = [0.1, 1.0, 10.0]
        y = [0.5, 5.0]
        v = np.arange(6.0).reshape(3, 2)
        svg = render_heatmap(x, y, v, "purity_sc")
        root = parse(svg)
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) >= 6

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            render_heatmap([1.0, 2.0], [1.0], np.zeros((1, 2)), "d2")
        with pytest.raises(DomainError):  # rows that are numbers
            render_heatmap([1.0, 2.0], [1.0], [1.0, 2.0], "d2")

    def test_nonpositive_axis_rejected(self):
        with pytest.raises(DomainError):
            render_heatmap([0.0, 1.0], [1.0, 2.0], np.zeros((2, 2)), "d2")

    def test_constant_grid_no_contour_segments(self):
        v = np.ones((3, 3))
        svg = render_heatmap(
            [1.0, 2.0, 4.0],
            [1.0, 2.0, 4.0],
            v,
            "d2",
            contours=[ContourSpec(v, 5.0, "#ffffff", "d2 = 5")],
        )
        root = parse(svg)
        # only the contour legend line, no contour segments inside the plot
        lines = [e for e in root.iter() if e.tag.endswith("line") and e.get("stroke") == "#ffffff"]
        assert len(lines) == 1

    def test_contour_segments_present_when_crossing(self):
        v = np.array([[0.1, 0.1], [10.0, 10.0]])
        svg = render_heatmap(
            [1.0, 10.0],
            [1.0, 10.0],
            v,
            "d2",
            contours=[ContourSpec(v, 1.0, "#ffffff", "d2 = 1")],
        )
        root = parse(svg)
        lines = [e for e in root.iter() if e.tag.endswith("line") and e.get("stroke") == "#ffffff"]
        assert len(lines) == 2  # one segment + legend entry

    def test_single_row_grid(self):
        svg = render_heatmap([3.0], [0.5, 1.0, 2.0], np.array([[1.0, 2.0, 3.0]]), "purity_sc")
        assert parse(svg) is not None

    def test_nan_cells_grey(self):
        v = np.array([[1.0, math.nan], [2.0, 3.0]])
        svg = render_heatmap([1.0, 2.0], [1.0, 2.0], v, "purity_sc")
        assert 'fill="#808080"' in svg

    def test_log_field_scaling_monotone(self):
        # identical documents for scaled values under a log color map
        v = np.array([[1.0, 10.0], [100.0, 1000.0]])
        a = render_heatmap([1.0, 2.0], [1.0, 2.0], v, "d2")
        b = render_heatmap([1.0, 2.0], [1.0, 2.0], 10.0 * v, "d2")
        rects_a = [r.get("fill") for r in parse(a).iter() if r.tag.endswith("rect")]
        rects_b = [r.get("fill") for r in parse(b).iter() if r.tag.endswith("rect")]
        assert rects_a[1:9] == rects_b[1:9]

    def test_categorical_mode(self):
        cats = ["A", "B", "C", "anomalous"]
        svg = render_heatmap([1.0, 2.0], [1.0, 2.0], np.zeros((2, 2)), "regime", categories=cats)
        for color in ("#3b528b", "#21918c", "#fde725", "#d62728"):
            assert color in svg

    def test_deterministic(self):
        v = np.random.default_rng(0).uniform(0.1, 1.0, (4, 5))
        args = ([1.0, 2.0, 4.0, 8.0], [0.1, 0.3, 1.0, 3.0, 9.0], v, "purity_sc")
        assert render_heatmap(*args) == render_heatmap(*args)


class TestPinnedDocuments:
    # the documents `render` wrote for PLANE_CSV when it drew with numpy's
    # log10; it now draws with math.log10, which differs from it in the
    # last bit on about 1% of inputs, and gives the same bytes
    @pytest.mark.parametrize(
        "field,digest",
        [
            ("purity_sc", "db3d9403f77a2d5815ece64c120ef3674c5a4bcfefd717147cee3c99e2595199"),
            ("d2", "7a1136eb01dcaf18f36b749d6f487e9e699a4e01975ad6be494eb57ac53de7d4"),
            ("regime", "163ea0dc3b4233c746700da2755723a426484de2d67412221701eec5a8573794"),
        ],
    )
    def test_render_bytes(self, tmp_path, field, digest):
        cfg = tmp_path / "plane.ini"
        cfg.write_text("[beam]\nkinetic_energy_kev = 200.0\nl_par_um = 1.3\n\n[spectrum]\nlambda_c_um = 0.5\ndk_ph_um_inv = 1.0\n")
        (tmp_path / "sweep.csv").write_text(PLANE_CSV)
        res = CliRunner().invoke(main, ["render", "--config", str(cfg), "--field", field, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256((tmp_path / f"render_{field}.svg").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("field", ["d2", "purity_sc", "regime"])
    def test_arrays_and_lists_give_one_document(self, field):
        x, y = [0.1, 1.0, 10.0, 100.0], [0.1, 1.7, 30.0]
        v = np.random.default_rng(2).uniform(0.01, 100.0, (4, 3))
        v[1, 2] = math.nan
        cats = ["A", "B", "C", "anomalous", "error", "A"] * 2 if field == "regime" else None

        def doc(xs, ys, values, categories):
            contour = ContourSpec(values, 1.0, "#ffffff", "d2 = 1")
            return render_heatmap(xs, ys, values, field, contours=[contour], categories=categories)

        as_arrays = doc(np.array(x), np.array(y), v, None if cats is None else np.array(cats))
        assert as_arrays == doc(x, y, v.tolist(), cats)
        assert as_arrays == doc(tuple(x), tuple(y), [tuple(row) for row in v], cats)
