"""Set-up's arrays against plain oracles.

A user's index sets are sorted int arrays from the scenario parser to the rate plan; the plan built
from them must equal one built from sorted(set(...)) of the same indices, duplicates and all. The
db.build grid is built as one block; it must equal, byte for byte, a lattice built one point at a
time. And every refusal of an index set keeps its message.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_SCENE, tiny_scenario_doc
from isactwin.channel import _grid_layout
from isactwin.cli import main
from isactwin.network import NetworkError, ResourceRequest, allocate_resources
from isactwin.scene import Scene
from isactwin.simcore import DbBuildSpec, DbSpec, ScenarioConfig, _db_grid, _parse_index_set, _rate_plan


def _index_spec(upper):
    """A document's index set within 1..upper: left out, a {from, to} range, or a list with repeats."""
    ranges = st.integers(1, upper).flatmap(lambda first: st.integers(first, upper).map(
        lambda last: {"from": first, "to": last}))
    return st.none() | ranges | st.lists(st.integers(1, upper), min_size=1, max_size=2 * upper)


def _oracle_set(spec, upper):
    if spec is None:
        return list(range(1, upper + 1))
    if isinstance(spec, dict):
        return list(range(spec["from"], spec["to"] + 1))
    return sorted(set(spec))


@st.composite
def allocations(draw):
    """A grid, 1-4 transmitters with drawn index sets (one of them maybe without resources), and the
    links of 1-2 receivers into them, in the order init_world makes them."""
    n_sub, n_sym = draw(st.integers(1, 200)), draw(st.integers(1, 16))
    users = [{"id": f"ap{i}", "subcarriers": draw(_index_spec(n_sub)), "symbols": draw(_index_spec(n_sym)),
              "power_w": draw(st.floats(0.0, 10.0))} for i in range(draw(st.integers(1, 4)))]
    idle = ["idle"] if draw(st.booleans()) else []
    links = [(v, q) for v in ("rx0", "rx1")[:draw(st.integers(1, 2))]
             for q in sorted(u["id"] for u in users) + idle if draw(st.booleans()) or q == "ap0"]
    return n_sub, n_sym, users, links


def _ix(here, there):
    return np.ix_(np.array(here, dtype=np.intp), np.array(there, dtype=np.intp))


def _same_layout(a, b) -> bool:
    def flat(layout):
        return [layout.rows, layout.starts.tolist(),
                [(*c[:4], None if c[4] is None else [x.tolist() for x in c[4]]) for c in layout.chunks]]
    return flat(a) == flat(b)


@given(allocations())
@settings(max_examples=150, deadline=None)
def test_the_rate_plan_equals_one_built_from_sorted_sets(case):
    n_sub, n_sym, users, links = case
    requests = [ResourceRequest(user=u["id"], power_budget=u["power_w"],
                                subcarriers=_parse_index_set(u, "subcarriers", n_sub),
                                symbols=_parse_index_set(u, "symbols", n_sym)) for u in users]
    plan = _rate_plan(links, allocate_resources(requests, n_sub, n_sym))
    sets = {u["id"]: (_oracle_set(u["subcarriers"], n_sub), _oracle_set(u["symbols"], n_sym), u["power_w"])
            for u in users}
    assert list(plan) == links
    for (v, q), link in plan.items():
        if q not in sets:
            assert link is None
            continue
        subs, syms, budget = sets[q]
        assert _same_layout(link.layout, _grid_layout(np.array(subs)))
        assert link.symbols.tolist() == syms and not link.symbols.flags.writeable
        assert (int(link.rep[0]), int(link.rep[1])) == (subs[len(subs) // 2], syms[0])
        assert link.power == budget / (len(subs) * len(syms))
        expected = []
        for vv, qq in links:
            if vv != v or qq == q or qq not in sets:
                continue
            other_subs, other_syms, _ = sets[qq]
            shared_n = sorted(set(subs) & set(other_subs))
            shared_k = sorted(set(syms) & set(other_syms))
            if shared_n and shared_k:
                expected.append((qq, _ix([subs.index(n) for n in shared_n], [syms.index(k) for k in shared_k]),
                                 _ix([other_subs.index(n) for n in shared_n],
                                     [other_syms.index(k) for k in shared_k])))
        assert [qq for qq, *_ in link.interferers] == [qq for qq, *_ in expected]
        for got, want in zip(link.interferers, expected):
            for got_cells, want_cells in zip(got[1:], want[1:]):
                assert all(np.array_equal(g, w) for g, w in zip(got_cells, want_cells))


_TINY = ScenarioConfig.from_dict(tiny_scenario_doc())


def _oracle_lattice(start, stop, spacing, height, roi) -> np.ndarray:
    """The floor lattice one point at a time: index i of an axis is min(start + spacing i, bound) for
    i = 0 .. floor(extent / spacing + 1e-9), kept within 1e-9 of the roi, x fastest."""
    axes = []
    for a in (0, 1):
        values = [min(start[a] + spacing * i, stop[a]) for i in range(math.floor((stop[a] - start[a]) / spacing
                                                                                + 1e-9) + 1)]
        axes.append([x for x in values if roi[a] - 1e-9 <= x <= roi[a + 2] + 1e-9])
    return np.array([(x, y, float(height)) for y in axes[1] for x in axes[0]]).reshape(-1, 3)


@st.composite
def db_builds(draw):
    """A floor footprint of at most 60 lattice values per axis, a spacing, a height in the scene and an
    roi whose bounds are random or lattice values nudged by up to 2e-9."""
    start = [draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)), 0.0]
    spacing = draw(st.floats(0.01, 2.0))
    extent = [draw(st.floats(0.0, 59 * spacing)), draw(st.floats(0.0, 59 * spacing)), 1.0]
    roi = []
    for corner in range(4):
        axis = corner % 2
        if draw(st.booleans()):
            nudge = draw(st.sampled_from([-1e-9, 0.0, 1e-9]) | st.floats(-2e-9, 2e-9))
            roi.append(start[axis] + spacing * draw(st.integers(-1, 61)) + nudge)
        else:
            roi.append(draw(st.floats(start[axis] - 1.0, start[axis] + extent[axis] + 1.0)))
    stop = [s + e for s, e in zip(start, extent)]
    return start, stop, spacing, draw(st.floats(0.0, 1.0)), tuple(roi)


@given(db_builds())
@example(([0.0, 0.0, 0.0], [1.2, 1.2, 1.0], 0.1, 0.5, (0.0, 0.0, 1.2, 1.2)))   # 0.1 * 12 is 1.2 + 2e-16
@example(([0.0, 0.0, 0.0], [1.0, 0.8, 0.7], 0.05, 0.08, (0.15, 0.1, 0.85, 0.7)))   # the shipped grid
@settings(max_examples=200, deadline=None)
def test_the_db_build_grid_is_the_point_by_point_lattice(case):
    start, stop, spacing, height, roi = case
    config = dataclasses.replace(_TINY, db=DbSpec(path=None, build=DbBuildSpec(spacing=spacing, bin_width=1e-9,
                                                                               num_bins=8, roi=roi, height=height)))
    scene = Scene(surfaces=[], materials={}, bounds_min=start, bounds_max=stop)
    oracle = _oracle_lattice(start, stop, spacing, height, roi)
    if len(oracle) == 0:
        with pytest.raises(ValueError, match="holds no point of the floor grid"):
            _db_grid(config, scene)
        return
    grid = _db_grid(config, scene)
    assert grid.shape == oracle.shape and grid.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("subcarriers,message", [
    ([0], "subcarrier 0 outside 1..32"),
    ([5, 33, 2], "subcarrier 33 outside 1..32"),
    ([10**30], f"subcarrier {10**30} outside 1..32"),
    ([2**63, 4], f"subcarrier {2**63} outside 1..32"),
    ([-2**63 - 1, 7, 2**64], f"subcarrier {-2**63 - 1} outside 1..32"),
    ({"from": 10**30, "to": 10**30}, f"subcarrier {10**30} outside 1..32"),
    ({"from": 31, "to": 33}, "subcarrier 33 outside 1..32"),
    ([], "empty resource set"),
    ({"from": 5, "to": 4}, "empty resource set"),
], ids=["zero", "size-plus-one", "past-int64", "past-int64-unsigned", "both-sides", "range-past-int64",
        "range-past-the-grid", "empty-list", "empty-range"])
def test_an_index_set_refusal_keeps_its_message(tmp_path, capsys, subcarriers, message):
    doc = tiny_scenario_doc()
    doc["network"]["resources"]["users"][0]["subcarriers"] = subcarriers
    (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
    (tmp_path / "s.json").write_text(json.dumps(doc))
    for command in ("validate", "build-db", "run"):
        assert main([command, str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr().err == f"error: resource allocation invalid: user 'ap_a': {message}\n"
    # the library takes any iterable of ints, as a frozenset, and refuses it the same way
    if isinstance(subcarriers, list):
        request = ResourceRequest(user="ap_a", subcarriers=frozenset(subcarriers), symbols={1}, power_budget=1.0)
        with pytest.raises(NetworkError, match=f"^user 'ap_a': {message}$"):
            allocate_resources([request], 32, 4)


def test_an_index_set_is_a_sorted_read_only_array_with_repeats_merged():
    request = ResourceRequest(user="u", subcarriers=[9, 3, 3, 7, 9], symbols=range(2, 5), power_budget=1.0)
    assert request.subcarriers.tolist() == [3, 7, 9] and request.symbols.tolist() == [2, 3, 4]
    assert request.subcarriers.dtype == request.symbols.dtype == np.int64
    assert not request.subcarriers.flags.writeable and not request.symbols.flags.writeable
    assert allocate_resources([request], 16, 4).users["u"].subcarriers is request.subcarriers
