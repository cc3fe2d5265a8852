import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isactwin.scene import (
    Material,
    Scene,
    SceneError,
    Surface,
    floor_grid,
    lattice_span,
    load_scene,
    scene_hash,
    serialize_scene,
    validate_scene,
)
from conftest import box_scene_doc, repo_scenario_dir


class TestLoadScene:
    def test_shoebox_loads_with_six_surfaces(self, box_doc):
        scene = load_scene(box_doc)
        assert len(scene.surfaces) == 6
        assert set(scene.materials) == {"wall"}

    def test_unknown_material_reference(self, box_doc):
        box_doc["surfaces"][0]["material"] = "glass"
        with pytest.raises(SceneError, match="glass"):
            load_scene(box_doc)

    def test_nonplanar_vertex_rejected(self, box_doc):
        # 4th floor vertex lifted h = 1 mm; oracle: the surface's own plane, with
        # Newell normal (3h, -4h, 24) through vertex 0, passes h / 2 from
        # vertices 1 and 3 and through vertex 2, so the distance is 5e-4 m >> 1e-9 m
        box_doc["surfaces"][0]["vertices"][3] = [0, 3, 0.001]
        surf = Surface(vertices=box_doc["surfaces"][0]["vertices"],
                       material=Material("wall", 0.7))
        distance = np.max(np.abs(surf.vertices @ surf.unit_normal - surf.plane_offset))
        assert distance == pytest.approx(5e-4, rel=1e-6)
        with pytest.raises(SceneError, match="coplanar"):
            load_scene(box_doc)

    def test_parse_failure(self, tmp_path):
        p = tmp_path / "bad.scene.json"
        p.write_text("{not json")
        with pytest.raises(SceneError, match="JSON"):
            load_scene(str(p))

    @pytest.mark.parametrize("as_str", [True, False], ids=["str", "Path"])
    def test_missing_file_is_not_found(self, tmp_path, as_str):
        p = tmp_path / "mistyped.scene.json"
        with pytest.raises(SceneError, match="scene file not found"):
            load_scene(str(p) if as_str else p)

    @pytest.mark.parametrize("where,edit", [
        (".surfaces[0].vertices[1][0]", lambda doc: doc["surfaces"][0]["vertices"][1].__setitem__(0, float("nan"))),
        (".bounds.max[2]", lambda doc: doc["bounds"]["max"].__setitem__(2, float("inf"))),
    ], ids=["nan-vertex", "infinite-bound"])
    def test_non_finite_number_in_file_rejected(self, box_doc, tmp_path, where, edit):
        edit(box_doc)
        p = tmp_path / "room.scene.json"
        p.write_text(json.dumps(box_doc))      # written as NaN / Infinity, which json reads back
        with pytest.raises(SceneError, match=f"non-finite number at {re.escape(where)}$"):
            load_scene(str(p))

    def test_missing_key(self, box_doc):
        del box_doc["bounds"]
        with pytest.raises(SceneError, match="bounds"):
            load_scene(box_doc)

    def test_duplicate_material(self, box_doc):
        box_doc["materials"].append({"name": "wall", "reflection_coeff": 0.5})
        with pytest.raises(SceneError, match="duplicate"):
            load_scene(box_doc)

    def test_empty_scene_rejected(self, box_doc):
        box_doc["surfaces"] = []
        with pytest.raises(SceneError, match=r"^scene document has \[\] at \.surfaces, which must be a non-empty list$"):
            load_scene(box_doc)

    def test_file_round_trip(self, box_doc, tmp_path):
        p = tmp_path / "room.scene.json"
        p.write_text(json.dumps(box_doc))
        for source in (p, str(p)):
            assert len(load_scene(source).surfaces) == 6


class TestValidateScene:
    def test_valid_box_has_no_violations(self, box_scene):
        assert validate_scene(box_scene) == []

    def test_out_of_range_coefficient_names_material(self, box_doc):
        # the scene schema's rule, refused when the document is read
        box_doc["materials"].append({"name": "bad", "reflection_coeff": 1.2})
        with pytest.raises(SceneError) as refused:
            load_scene(box_doc)
        assert str(refused.value) == "scene document has 1.2 at .materials[1].reflection_coeff, which must be in [0, 1]"

    def test_two_vertex_surface_named(self, box_scene):
        scene = replace(box_scene, surfaces=box_scene.surfaces + (
            Surface(vertices=[[0, 0, 0], [1, 0, 0]], material=Material("wall", 0.7), name="stub"),))
        violations = validate_scene(scene)
        assert any("stub" in v and "3 vertices" in v for v in violations)

    def test_surface_outside_bounds(self, box_scene):
        scene = replace(box_scene, surfaces=box_scene.surfaces + (
            Surface(vertices=[[0, 0, 0], [9, 0, 0], [9, 1, 0]], material=Material("wall", 0.7), name="oob"),))
        assert any("oob" in v and "bounds" in v for v in validate_scene(scene))

    @pytest.mark.filterwarnings("error")
    def test_far_out_vertex_is_reported_without_a_warning(self, box_doc):
        # its Newell norm overflows: the surface gets no plane, and the bounds check, not a
        # RuntimeWarning or a check of a zero plane, reports it
        box_doc["surfaces"][0]["vertices"][0][0] = 1e300
        with pytest.raises(SceneError) as refused:
            load_scene(box_doc)
        assert str(refused.value) == "surface#0: vertices outside scene bounds"
        far = Surface(vertices=box_doc["surfaces"][0]["vertices"], material=Material("wall", 0.7))
        assert far.unit_normal is None and far.edge_normals is None

    def test_nonconvex_surface_flagged(self, box_scene):
        dart = [[0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 0.5, 0], [0, 2, 0]]
        # a pentagram turns the same way at every vertex; only a half-plane
        # test finds its tips outside the other edges
        pentagram = [[1.5 + np.cos(a), 1.5 + np.sin(a), 0.0] for a in np.radians(90.0 + 144.0 * np.arange(5))]
        scene = replace(box_scene, surfaces=box_scene.surfaces + tuple(
            Surface(vertices=vertices, material=Material("wall", 0.7), name=name)
            for name, vertices in [("dart", dart), ("pentagram", pentagram)]))
        violations = validate_scene(scene)
        assert [v for v in violations if "dart" in v] == ["dart: polygon not convex"]
        assert [v for v in violations if "pentagram" in v] == ["pentagram: polygon not convex"]

    def test_collinear_vertices_flagged(self, box_scene):
        # a square with an extra vertex at the midpoint of one edge: the turn there is zero
        scene = replace(box_scene, surfaces=box_scene.surfaces + (
            Surface(vertices=[[0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 2, 0], [0, 2, 0]],
                    material=Material("wall", 0.7), name="notched"),))
        flagged = [v for v in validate_scene(scene) if "notched" in v]
        assert flagged == ["notched: consecutive vertices collinear"]

    def test_planarity_measured_from_the_reflection_plane(self, box_scene):
        # a shallow first corner: the plane through the first three vertices
        # leaves vertex 3 2.5 mm off, the Newell plane every vertex within 2.5e-10 m
        scene = replace(box_scene, bounds_max=[4.0, 5.0, 2.5], surfaces=box_scene.surfaces + (Surface(
            vertices=[[0, 0, 0], [1, 0, 0], [2, 1e-6, 5e-10], [2, 5, 0], [0, 5, 0]],
            material=box_scene.materials["wall"], name="shallow"),))
        assert validate_scene(scene) == []

    def test_collinear_first_three_vertices_is_one_violation(self, box_scene):
        scene = replace(box_scene, surfaces=box_scene.surfaces + (Surface(
            vertices=[[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]],
            material=box_scene.materials["wall"], name="straight"),))
        flagged = [v for v in validate_scene(scene) if "straight" in v]
        assert flagged == ["straight: consecutive vertices collinear"]

    @pytest.mark.parametrize("material", [Material("glass", 1.5), Material("wall", 1.5)],
                             ids=["foreign-name", "same-name-other-coefficient"])
    def test_foreign_material_is_one_violation(self, box_scene, material):
        scene = replace(box_scene, surfaces=box_scene.surfaces + (
            Surface(vertices=[[0, 0, 0], [2, 0, 0], [2, 1, 0]], material=material, name="odd"),))
        flagged = [v for v in validate_scene(scene) if "odd" in v]
        assert flagged == [f"odd: {material} not in scene materials"]

    @given(
        coeff=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
        # keep clear of the 1e-9 planarity threshold itself: the oracle below
        # compares the lift directly, the implementation a reconstructed distance
        lift=st.one_of(st.floats(0.0, 5e-10), st.floats(1e-8, 1e-3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_violations_iff_invariants_hold(self, coeff, lift):
        doc = box_scene_doc()
        doc["materials"][0]["reflection_coeff"] = coeff
        doc["surfaces"][1]["vertices"][2][2] += lift
        scene = None
        try:
            scene = load_scene(doc)
        except SceneError:
            pass
        coeff_ok = 0.0 <= coeff <= 1.0
        planar_ok = lift <= 1e-9
        if coeff_ok and planar_ok:
            assert scene is not None
            assert validate_scene(scene) == []
        else:
            assert scene is None


class TestSurfacePlanes:
    def test_edge_planes_match_np_cross(self):
        # np.cross is the oracle for the component form Surface.__post_init__ computes n x edge with
        rng = np.random.default_rng(7)
        polygons = []
        for _ in range(2000):   # random convex polygons: sorted angles on a circle, turned and moved
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, rng.integers(3, 9)))
            ring = np.column_stack((np.cos(angles), np.sin(angles), np.zeros(len(angles))))
            basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            vertices = rng.uniform(0.1, 5.0) * ring @ basis + rng.uniform(-5.0, 5.0, 3)
            polygons.append(Surface(vertices=vertices, material=Material("wall", 0.5)))
        shipped = load_scene(repo_scenario_dir() / "desk_box.scene.json").surfaces
        checked = 0
        for s in shipped + tuple(polygons):
            if s.unit_normal is None:
                continue
            edges = np.cross(s.unit_normal, np.concatenate((s.vertices[1:], s.vertices[:1])) - s.vertices)
            assert np.array_equal(s.edge_normals, edges)
            assert np.array_equal(s.edge_offsets, np.vecdot(edges, s.vertices))
            checked += 1
        assert checked >= 1990


class TestFloorGrid:
    def test_counting_small(self, box_doc):
        scene = load_scene(box_scene_doc(1.0, 1.0, 2.0))
        pts = floor_grid(scene, 0.5, 0.0)
        assert len(pts) == 9

    def test_counting_case_study_density(self, box_scene):
        # oracle: (floor(4/0.05)+1) * (floor(3/0.05)+1) = 81 * 61
        pts = floor_grid(box_scene, 0.05, 0.1)
        assert len(pts) == 81 * 61 == 4941

    def test_negative_spacing_rejected(self, box_scene):
        with pytest.raises(ValueError, match="spacing"):
            floor_grid(box_scene, -0.1, 0.0)

    def test_height_outside_bounds_rejected(self, box_scene):
        with pytest.raises(ValueError, match="height"):
            floor_grid(box_scene, 0.5, 5.0)

    def test_row_major_x_fastest(self, box_scene):
        pts = floor_grid(box_scene, 1.0, 0.0)
        assert np.allclose(pts[0], [0, 0, 0])
        assert np.allclose(pts[1], [1, 0, 0])  # x advances first
        assert np.allclose(pts[5], [0, 1, 0])  # then y

    @given(k=st.integers(min_value=1, max_value=40), lx=st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=50, deadline=None)
    def test_count_matches_per_axis_oracle(self, k, lx):
        # real-arithmetic oracle: spacing is intended as the exact rational lx/k,
        # so counts are floor(lx/s) + 1 = k + 1 and floor(ly/s) + 1 = floor(k/lx) + 1
        scene = load_scene(box_scene_doc(float(lx), 1.0, 2.0))
        pts = floor_grid(scene, lx / k, 0.0)
        ny = int(Fraction(k, lx)) + 1
        assert len(pts) == (k + 1) * ny

    @pytest.mark.parametrize("width,spacing", [(1.2, 0.1), (0.7, 0.1), (1.0, 0.05)])
    def test_no_point_passes_the_bounds(self, width, spacing):
        # 0.1 * 12 is 1.2000000000000002: that point would stand behind a wall on the bound
        pts = floor_grid(load_scene(box_scene_doc(width, width, 1.0)), spacing, 0.0)
        assert pts[:, 0].max() == pts[:, 1].max() == width


@st.composite
def lattices_and_rois(draw):
    """A scene footprint, a spacing giving at most 250 points per axis, and an ROI whose bounds
    are random or lattice values nudged by up to 2e-9, either side of the 1e-9 tolerance or onto it."""
    start = np.array([draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)), 0.0])
    extent = np.array([draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)), 1.0])
    spacing = draw(st.floats(0.02, 6.0))
    roi = []
    for corner in range(4):
        axis = corner % 2
        if draw(st.booleans()):
            nudge = draw(st.sampled_from([-1e-9, 1e-9]) | st.floats(-2e-9, 2e-9))
            value = start[axis] + spacing * draw(st.integers(-1, int(extent[axis] / spacing) + 2)) + nudge
        else:
            value = draw(st.floats(start[axis] - 1.0, start[axis] + extent[axis] + 1.0))
        roi.append(value)
    scene = Scene(surfaces=[], materials={}, bounds_min=start, bounds_max=start + extent)
    return scene, spacing, tuple(roi)


class TestRoiGrid:
    """floor_grid with an roi builds only the lattice's block that spans it, at today's values."""

    @given(lattices_and_rois())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_the_roi_block_is_the_cut_of_the_whole_lattice(self, case):
        scene, spacing, (xmin, ymin, xmax, ymax) = case
        whole = floor_grid(scene, spacing, 0.5)
        cut = whole[(whole[:, 0] >= xmin - 1e-9) & (whole[:, 0] <= xmax + 1e-9)
                    & (whole[:, 1] >= ymin - 1e-9) & (whole[:, 1] <= ymax + 1e-9)]
        grid = floor_grid(scene, spacing, 0.5, (xmin, ymin, xmax, ymax))
        assert np.array_equal(grid, cut)
        # the block it built: the ROI's indices, the 1e-9 slack and one more index each side
        first, last = lattice_span(scene, spacing, (xmin, ymin, xmax, ymax))
        assert np.all(last - first <= np.maximum((np.array([xmax, ymax]) - [xmin, ymin]) / spacing, 0) + 5)

    def test_the_shipped_roi(self):
        path = repo_scenario_dir() / "desk_two_ap.json"
        build = json.loads(path.read_text())["db"]["build"]
        scene = load_scene(path.parent / "desk_box.scene.json")
        whole = floor_grid(scene, build["spacing_m"], build["height_m"])
        xmin, ymin, xmax, ymax = build["roi_m"]
        cut = whole[(whole[:, 0] >= xmin - 1e-9) & (whole[:, 0] <= xmax + 1e-9)
                    & (whole[:, 1] >= ymin - 1e-9) & (whole[:, 1] <= ymax + 1e-9)]
        grid = floor_grid(scene, build["spacing_m"], build["height_m"], build["roi_m"])
        assert len(grid) == 195 and np.array_equal(grid, cut)


class TestSerialization:
    def test_round_trip_identity(self, box_scene):
        doc = serialize_scene(box_scene)
        again = load_scene(doc)
        for a, b in zip(box_scene.surfaces, again.surfaces):
            assert np.max(np.abs(a.vertices - b.vertices)) < 1e-12
        assert scene_hash(box_scene) == scene_hash(again)

    def test_hash_tracks_content(self, box_scene):
        changed = replace(box_scene, materials={"wall": Material("wall", 0.71)})
        assert scene_hash(changed) != scene_hash(box_scene)
