"""Network graph, antenna arrays, and OFDM resource allocation.

The topology is an undirected graph without self-loops over transmitter and
receiver nodes. Resource allocation assigns each transmitting user a set of
subcarriers and symbols (1-based indices, matching the usual resource-grid
numbering) and splits the user's power budget uniformly over that set.
Overlapping user allocations are allowed; interference handling is the
receiver's problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .raytrace import Pose


class NetworkError(ValueError):
    """Graph or allocation constraint violation."""


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array along the terminal's local x-axis."""

    num_elements: int
    spacing: float  # meters
    boresight: float = 0.0  # azimuth offset within the terminal frame, radians

    def __post_init__(self):
        if self.num_elements < 1:
            raise NetworkError(f"num_elements must be >= 1, got {self.num_elements}")
        if self.spacing <= 0.0:
            raise NetworkError(f"spacing must be > 0, got {self.spacing}")


@dataclass(frozen=True, eq=False)
class Node:
    id: str
    is_tx: bool = False
    array: ArrayConfig | None = None
    pose: Pose | None = None


@dataclass(eq=False)
class NetworkGraph:
    """Nodes by id and undirected edges; not changed after construction."""

    nodes: dict
    edges: frozenset  # canonical (min, max) id pairs

    def neighbors(self, node_id: str) -> set:
        if node_id not in self.nodes:
            raise NetworkError(f"unknown node {node_id!r}")
        out = set()
        for a, b in self.edges:
            if a == node_id:
                out.add(b)
            elif b == node_id:
                out.add(a)
        return out


def build_network(nodes, edges) -> NetworkGraph:
    """Assemble a graph: unique node ids, symmetric edge set, no self-loops."""
    node_map: dict = {}
    for node in nodes:
        if node.id in node_map:
            raise NetworkError(f"duplicate node id {node.id!r}")
        node_map[node.id] = node
    edge_set = set()
    for a, b in edges:
        if a == b:
            raise NetworkError(f"self-loop on node {a!r}")
        for end in (a, b):
            if end not in node_map:
                raise NetworkError(f"edge references unknown node {end!r}")
        edge_set.add((min(a, b), max(a, b)))
    return NetworkGraph(nodes=node_map, edges=frozenset(edge_set))


def incoming_edges(graph: NetworkGraph, v: str) -> set:
    """Transmitter nodes adjacent to receiver v (the set E_v)."""
    return {q for q in graph.neighbors(v) if graph.nodes[q].is_tx}


@dataclass(frozen=True)
class ResourceRequest:
    """One user's ask: subcarrier/symbol sets and a power budget."""

    user: str
    subcarriers: frozenset
    symbols: frozenset
    power_budget: float


@dataclass(eq=False)
class UserAllocation:
    subcarriers: frozenset
    symbols: frozenset
    power_budget: float
    uniform_power: float  # watts on each occupied resource element

    def total_power(self) -> float:
        return self.uniform_power * len(self.subcarriers) * len(self.symbols)


@dataclass(eq=False)
class ResourceAllocation:
    users: dict  # user id -> UserAllocation


def allocate_resources(requests, n_subcarriers: int, n_symbols: int) -> ResourceAllocation:
    """Validate requests against the grid and split each budget uniformly.

    Every resource element of a user gets budget / (subcarriers x symbols).
    User resource sets may overlap.
    """
    if n_subcarriers < 1 or n_symbols < 1:
        raise NetworkError("grid must have at least one subcarrier and one symbol")
    users: dict = {}
    for req in requests:
        if req.user in users:
            raise NetworkError(f"duplicate user {req.user!r}")
        subs, syms = frozenset(req.subcarriers), frozenset(req.symbols)
        if not subs or not syms:
            raise NetworkError(f"user {req.user!r}: empty resource set")
        for name, indices, size in (("subcarrier", subs, n_subcarriers), ("symbol", syms, n_symbols)):
            if min(indices) < 1 or max(indices) > size:
                bad = min(i for i in indices if not 1 <= i <= size)
                raise NetworkError(f"user {req.user!r}: {name} {bad} outside 1..{size}")
        if req.power_budget < 0.0:
            raise NetworkError(f"user {req.user!r}: negative power budget")
        users[req.user] = UserAllocation(
            subcarriers=subs,
            symbols=syms,
            power_budget=req.power_budget,
            uniform_power=req.power_budget / (len(subs) * len(syms)),
        )
    return ResourceAllocation(users=users)
