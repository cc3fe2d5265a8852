import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isactwin.network import (
    ArrayConfig,
    NetworkError,
    Node,
    ResourceRequest,
    allocate_resources,
    build_network,
    incoming_edges,
)
from isactwin.raytrace import Pose


def two_ap_graph():
    nodes = [
        Node(id="ap1", is_tx=True, array=ArrayConfig(32, 0.0625), pose=Pose.at(0, 0, 2)),
        Node(id="ap2", is_tx=True, array=ArrayConfig(1, 0.0625), pose=Pose.at(4, 3, 2)),
        Node(id="robot", array=ArrayConfig(2, 0.0625), pose=Pose.at(2, 1, 0.1)),
    ]
    return build_network(nodes, [("ap1", "robot"), ("ap2", "robot")])


class TestBuildNetwork:
    def test_two_aps_one_robot(self):
        g = two_ap_graph()
        assert {n.id for n in g.nodes.values() if n.is_tx} == {"ap1", "ap2"}
        assert {n.id for n in g.nodes.values() if not n.is_tx} == {"robot"}
        assert g.edges == {("ap1", "robot"), ("ap2", "robot")}

    def test_self_loop_rejected(self):
        nodes = [Node(id="robot")]
        with pytest.raises(NetworkError, match="self-loop"):
            build_network(nodes, [("robot", "robot")])

    def test_unknown_node_rejected(self):
        nodes = [Node(id="ap1", is_tx=True)]
        with pytest.raises(NetworkError, match="ghost"):
            build_network(nodes, [("ap1", "ghost")])

    def test_duplicate_id_rejected(self):
        nodes = [Node(id="a"), Node(id="a")]
        with pytest.raises(NetworkError, match="duplicate"):
            build_network(nodes, [])

    def test_edges_symmetrized(self):
        g = two_ap_graph()
        assert g.neighbors("robot") == {"ap1", "ap2"}
        assert g.neighbors("ap1") == {"robot"}


class TestIncomingEdges:
    def test_case_study_topology(self):
        assert incoming_edges(two_ap_graph(), "robot") == {"ap1", "ap2"}

    def test_isolated_node(self):
        g = build_network([Node(id="solo")], [])
        assert incoming_edges(g, "solo") == set()

    def test_unknown_node(self):
        with pytest.raises(NetworkError, match="unknown"):
            incoming_edges(two_ap_graph(), "ghost")


class TestAllocateResources:
    def test_uniform_split_across_full_grid(self):
        req = ResourceRequest(user="ap1", subcarriers=frozenset(range(1, 1025)),
                              symbols=frozenset(range(1, 15)), power_budget=1.0)
        alloc = allocate_resources([req], 1024, 14)
        ua = alloc.users["ap1"]
        assert ua.uniform_power == pytest.approx(1.0 / 14336, rel=1e-15)
        assert ua.total_power() == pytest.approx(1.0, rel=1e-12)

    def test_out_of_range_subcarrier_rejected(self):
        req = ResourceRequest(user="u", subcarriers=frozenset({1025}),
                              symbols=frozenset({1}), power_budget=1.0)
        with pytest.raises(NetworkError, match="1025"):
            allocate_resources([req], 1024, 14)

    def test_out_of_range_message_names_the_smallest_bad_index(self):
        req = ResourceRequest(user="u", subcarriers=frozenset({1025, 7, 0}),
                              symbols=frozenset({1}), power_budget=1.0)
        with pytest.raises(NetworkError, match=r"^user 'u': subcarrier 0 outside 1\.\.1024$"):
            allocate_resources([req], 1024, 14)
        req = ResourceRequest(user="u", subcarriers=frozenset({1}),
                              symbols=frozenset({15, 3, -2}), power_budget=1.0)
        with pytest.raises(NetworkError, match=r"^user 'u': symbol -2 outside 1\.\.14$"):
            allocate_resources([req], 1024, 14)

    def test_overlapping_allocations_representable(self):
        reqs = [
            ResourceRequest(user="a", subcarriers=frozenset({1, 2}), symbols=frozenset({1}),
                            power_budget=1.0),
            ResourceRequest(user="b", subcarriers=frozenset({2, 3}), symbols=frozenset({1}),
                            power_budget=2.0),
        ]
        alloc = allocate_resources(reqs, 4, 1)
        a, b = alloc.users["a"], alloc.users["b"]
        assert 2 in a.subcarriers & b.subcarriers and 1 in a.symbols & b.symbols

    def test_occupancy_indicator(self):
        req = ResourceRequest(user="u", subcarriers=frozenset({1, 3}), symbols=frozenset({2}),
                              power_budget=1.0)
        ua = allocate_resources([req], 4, 4).users["u"]
        assert ua.subcarriers == {1, 3} and ua.symbols == {2}
        assert ua.uniform_power == 0.5

    @st.composite
    def _requests(draw):
        n = draw(st.integers(2, 32))
        k = draw(st.integers(1, 8))
        users = []
        for i in range(draw(st.integers(1, 4))):
            subs = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
            syms = draw(st.sets(st.integers(1, k), min_size=1, max_size=k))
            budget = draw(st.floats(0.0, 10.0))
            users.append(ResourceRequest(user=f"u{i}", subcarriers=frozenset(subs),
                                         symbols=frozenset(syms), power_budget=budget))
        return users, n, k

    @given(_requests())
    @settings(max_examples=60, deadline=None)
    def test_power_budget_always_respected(self, case):
        reqs, n, k = case
        alloc = allocate_resources(reqs, n, k)
        for ua in alloc.users.values():
            total = sum(ua.uniform_power for i in range(1, n + 1) for j in range(1, k + 1)
                        if i in ua.subcarriers and j in ua.symbols)
            assert total <= ua.power_budget * (1 + 1e-9)

    @given(_requests())
    @settings(max_examples=30, deadline=None)
    def test_order_independent(self, case):
        reqs, n, k = case
        fwd = allocate_resources(reqs, n, k)
        rev = allocate_resources(list(reversed(reqs)), n, k)
        for user in fwd.users:
            assert fwd.users[user].uniform_power == rev.users[user].uniform_power
            assert fwd.users[user].subcarriers == rev.users[user].subcarriers


class TestArrayConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(NetworkError):
            ArrayConfig(0, 0.0625)
        with pytest.raises(NetworkError):
            ArrayConfig(4, 0.0)
