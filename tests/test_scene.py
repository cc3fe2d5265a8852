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
import scene_oracle


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


@st.composite
def convex_polygons(draw, counts=st.integers(3, 7)):
    """A convex planar polygon as a list of [x, y, z]: its vertices on a circle at angles at least
    0.05 rad apart, turned by three Euler angles (multiples of pi / 2 for an axis-aligned one, whose
    products hold exact zeros) and moved."""
    n = draw(counts)
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    angles = np.cumsum(gaps) * (2.0 * np.pi - 0.05) / gaps.sum()
    ring = np.column_stack((np.cos(angles), np.sin(angles), np.zeros(n)))
    turn = draw(st.lists(st.sampled_from([0.0, np.pi / 2, np.pi]) | st.floats(-np.pi, np.pi), min_size=3, max_size=3))
    basis = np.eye(3)
    for axis, angle in zip((2, 0, 2), turn):
        c, s = np.cos(angle), np.sin(angle)
        i, j = [k for k in range(3) if k != axis]
        step = np.eye(3)
        step[i, i], step[i, j], step[j, i], step[j, j] = c, -s, s, c
        basis = basis @ step
    center = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)))
    return (draw(st.floats(0.1, 5.0)) * ring @ basis + center).tolist()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _document(polygons, materials=("wall",)):
    points = np.concatenate([np.array(p) for p in polygons])
    return {"materials": [{"name": m, "reflection_coeff": 0.5} for m in materials],
            "surfaces": [{"vertices": p, "material": materials[i % len(materials)]} for i, p in enumerate(polygons)],
            "bounds": {"min": (points.min(axis=0) - 1.0).tolist(), "max": (points.max(axis=0) + 1.0).tolist()}}


class TestStackOracle:
    """The stacked tables and validate_scene's masks against the per-surface formulas of
    tests/scene_oracle.py. numpy sums a row of fewer than 8 terms in order and a longer one
    pairwise, in blocks set by its length, so a Newell sum over a padded row is the polygon's own,
    bit for bit, while the stack is at most 7 vertices wide or the polygon fills its row; a polygon
    padded into a wider stack is held to 1e-12."""

    @given(st.lists(convex_polygons(), min_size=1, max_size=6),
           st.lists(convex_polygons(st.integers(8, 12)), max_size=1))
    @settings(max_examples=60, deadline=None)
    def test_tables_match_the_per_surface_formulas(self, polygons, large):
        polygons = polygons + large
        width = max(map(len, polygons))
        loaded = load_scene(_document(polygons))
        built = Scene(surfaces=[Surface(vertices=p, material=Material("wall", 0.5)) for p in polygons],
                      materials={"wall": Material("wall", 0.5)}, bounds_min=loaded.bounds_min,
                      bounds_max=loaded.bounds_max)
        for scene in (loaded, built):
            t = scene.stack
            assert t.vertices.shape == (len(polygons), width, 3)
            for i, (p, surf) in enumerate(zip(polygons, scene.surfaces)):
                n = len(p)
                normal, offset, edge_normals, edge_offsets = scene_oracle.surface_planes(p)
                assert normal is not None and t.usable[i] and t.counts[i] == n
                assert _same_bits(surf.vertices, np.array(p)) and _same_bits(t.vertices[i, :n], np.array(p))
                assert (t.vertices[i, n:] == t.vertices[i, 0]).all()   # padded with the first vertex
                assert not t.edge_normals[i, n:].any() and not t.edge_offsets[i, n:].any()
                got = (t.normals[i], t.offsets[i], t.edge_normals[i, :n], t.edge_offsets[i, :n])
                want = (normal, np.float64(offset), edge_normals, edge_offsets)
                if width <= 7 or n == width:
                    assert all(_same_bits(g, w) for g, w in zip(got, want))
                else:
                    for g, w in zip(got, want):
                        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
                # a surface's fields are its row of the stack, and a lone surface's its own stack's
                assert _same_bits(surf.unit_normal, t.normals[i]) or surf is built.surfaces[i]
                lone = Surface(vertices=p, material=Material("wall", 0.5))
                assert all(_same_bits(g, w) for g, w in zip(
                    (lone.unit_normal, np.float64(lone.plane_offset), lone.edge_normals, lone.edge_offsets), want))
        assert all(_same_bits(a, b) for a, b in zip(loaded.stack, built.stack))

    @given(st.lists(convex_polygons(), min_size=2, max_size=5),
           st.lists(st.sampled_from(["few", "outside", "zero-area", "non-planar", "collinear", "non-convex",
                                     "foreign"]), min_size=1, max_size=4),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_validate_scene_gives_the_oracles_messages(self, polygons, defects, data):
        """Each defect, far from its threshold, on a drawn surface: validate_scene's messages are the
        per-surface loop's, in its order, for a scene built in code and for a loaded one."""
        polygons = [list(p) for p in polygons]
        bounds = _document(polygons)["bounds"]
        materials = ["wall"] * len(polygons)
        for defect in defects:
            i = data.draw(st.integers(0, len(polygons) - 1))
            p = np.array(polygons[i])
            centroid = p.mean(axis=0)
            if defect == "few":
                p = p[:data.draw(st.integers(1, 2))]
            elif defect == "outside":
                p = p + [0.0, 0.0, 100.0]
            elif defect == "zero-area":
                p = np.repeat(p[:1], len(p), axis=0)
            elif defect == "non-planar" and len(p) >= 4:
                normal = scene_oracle.newell_normal(p)
                if normal is not None:
                    p[-1] += data.draw(st.floats(1e-6, 1e-2)) * normal
            elif defect == "collinear" and len(p) >= 2:
                p = np.insert(p, 1, (p[0] + p[1]) / 2, axis=0)
            elif defect == "non-convex" and len(p) >= 4:
                p[1] = centroid + 0.3 * (centroid - p[1])   # past the center: a dart
            elif defect == "foreign":
                materials[i] = "glass"
            polygons[i] = p.tolist()
        library = {"wall": Material("wall", 0.5), "glass": Material("glass", 0.3)}
        built = Scene(surfaces=[Surface(vertices=p, material=library[m], name=f"surface#{i}")
                                for i, (p, m) in enumerate(zip(polygons, materials))],
                      materials={"wall": library["wall"]}, bounds_min=bounds["min"], bounds_max=bounds["max"])
        want = scene_oracle.validate_scene(built)
        assert validate_scene(built) == want
        if "glass" not in materials:   # a document cannot name a material it does not hold
            doc = _document(polygons) | {"bounds": bounds}
            if want:
                with pytest.raises(SceneError) as refused:
                    load_scene(doc)
                assert str(refused.value) == "; ".join(want)
            else:
                assert validate_scene(load_scene(doc)) == []

    def test_every_defect_kind_is_reported(self, box_scene):
        """The messages of each kind, as the oracle words them."""
        wall = box_scene.materials["wall"]
        cases = {"few": [[0, 0, 0], [1, 0, 0]], "outside": [[0, 0, 0], [9, 0, 0], [9, 1, 0]],
                 "flat": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
                 "lifted": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.01]],
                 "notched": [[0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 2, 0], [0, 2, 0]],
                 "dart": [[0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 0.5, 0], [0, 2, 0]]}
        scene = replace(box_scene, surfaces=box_scene.surfaces + tuple(
            Surface(vertices=v, material=wall, name=name) for name, v in cases.items()) + (
            Surface(vertices=cases["dart"], material=Material("glass", 0.2), name="odd"),))
        assert validate_scene(scene) == scene_oracle.validate_scene(scene) == [
            "few: fewer than 3 vertices", "outside: vertices outside scene bounds", "flat: polygon has zero area",
            "lifted: vertices not coplanar within 1e-09 m", "notched: consecutive vertices collinear",
            "dart: polygon not convex", "odd: Material(name='glass', reflection_coeff=0.2) not in scene materials",
            "odd: polygon not convex"]


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
