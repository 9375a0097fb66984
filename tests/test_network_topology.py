"""Tests for the interconnect topology models.

The models answer hop counts in closed form.  The oracle is each
topology's node-level graph, built here with networkx: its shortest
paths are the hop counts the closed forms must give.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machines.spec import NetworkTopology
from repro.network import (
    FatTree,
    FullCrossbar,
    Hypercube4D,
    Torus2D,
    make_topology,
)

ALL_CLASSES = [
    lambda n: FullCrossbar(n),
    lambda n: FatTree(n),
    lambda n: Hypercube4D(n),
    lambda n: Torus2D(n),
]


def _crossbar_graph(topo: FullCrossbar) -> nx.Graph:
    return nx.complete_graph(topo.num_nodes)


def _fat_tree_graph(topo: FatTree) -> nx.Graph:
    """Leaves ``0 .. num_nodes - 1``, then one switch per ``arity``
    children, level by level up to the root."""
    g = nx.Graph()
    leaves = list(range(topo.num_nodes))
    g.add_nodes_from(leaves)
    next_id = topo.num_nodes
    frontier = leaves
    while len(frontier) > 1:
        parents = []
        for i in range(0, len(frontier), topo.arity):
            parent = next_id
            next_id += 1
            parents.append(parent)
            for child in frontier[i : i + topo.arity]:
                g.add_edge(parent, child)
        frontier = parents
    return g


def _hypercube_graph(topo: Hypercube4D) -> nx.Graph:
    """A crossbar inside each subset; hypercube edges between the
    subsets' first nodes (their leaders)."""
    g = nx.Graph()
    g.add_nodes_from(range(topo.num_nodes))
    size = topo.subset_size
    for s in range(topo.num_subsets):
        members = range(s * size, min((s + 1) * size, topo.num_nodes))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                g.add_edge(a, b)
    dim = max(1, math.ceil(math.log2(max(topo.num_subsets, 2))))
    for s in range(topo.num_subsets):
        for bit in range(dim):
            t = s ^ (1 << bit)
            if s < t < topo.num_subsets:
                g.add_edge(s * size, t * size)
    return g


def _torus_graph(topo: Torus2D) -> nx.Graph:
    g = nx.Graph()
    for node in range(topo.num_nodes):
        x, y = topo._coords(node)
        right = ((x + 1) % topo.nx_dim) + y * topo.nx_dim
        up = x + ((y + 1) % topo.ny_dim) * topo.nx_dim
        if right != node:
            g.add_edge(node, right)
        if up != node:
            g.add_edge(node, up)
    return g


_GRAPHS = {
    FullCrossbar: _crossbar_graph,
    FatTree: _fat_tree_graph,
    Hypercube4D: _hypercube_graph,
    Torus2D: _torus_graph,
}


def build_graph(topo) -> nx.Graph:
    """The node-level graph of ``topo`` (switches are extra nodes)."""
    return _GRAPHS[type(topo)](topo)


def _is_leader(topo, node: int) -> bool:
    return isinstance(topo, Hypercube4D) and node % topo.subset_size == 0


@pytest.mark.parametrize("make", ALL_CLASSES)
class TestTopologyInvariants:
    def test_self_hops_zero(self, make):
        topo = make(16)
        for n in range(16):
            assert topo.hops(n, n) == 0

    def test_symmetry(self, make):
        topo = make(16)
        for a in range(16):
            for b in range(16):
                assert topo.hops(a, b) == topo.hops(b, a)

    def test_positive_between_distinct(self, make):
        topo = make(16)
        assert all(topo.hops(0, b) >= 1 for b in range(1, 16))

    def test_out_of_range_rejected(self, make):
        topo = make(8)
        with pytest.raises(IndexError):
            topo.hops(0, 8)

    def test_bisection_positive(self, make):
        assert make(16).bisection_links() > 0

    def test_graph_connected(self, make):
        g = build_graph(make(16))
        assert nx.is_connected(g)

    @pytest.mark.parametrize("n", [5, 16, 24, 64])
    def test_hops_are_graph_shortest_paths(self, make, n):
        """The closed form is the graph's shortest path.  A hypercube
        leader is charged the local hop it does not take, so a path
        from or to a leader may be shorter than the closed form."""
        topo = make(n)
        g = build_graph(topo)
        for a in range(n):
            dist = nx.single_source_shortest_path_length(g, a)
            for b in range(n):
                if _is_leader(topo, a) or _is_leader(topo, b):
                    assert dist[b] <= topo.hops(a, b)
                else:
                    assert dist[b] == topo.hops(a, b), (a, b)


class TestCrossbar:
    def test_single_hop_everywhere(self):
        topo = FullCrossbar(64)
        assert all(topo.hops(0, b) == 1 for b in range(1, 64))

    def test_no_contention(self):
        assert FullCrossbar(64).bisection_contention() == pytest.approx(1.0)


class TestFatTree:
    def test_same_switch_two_hops(self):
        topo = FatTree(64, arity=16)
        assert topo.hops(0, 15) == 2

    def test_cross_switch_more_hops(self):
        topo = FatTree(64, arity=16)
        assert topo.hops(0, 16) == 4

    def test_diameter_grows_logarithmically(self):
        small = FatTree(16, arity=4).diameter()
        large = FatTree(256, arity=4).diameter()
        assert large > small
        assert large <= 2 * 5  # 2 * ceil(log4(256)) + slack

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            FatTree(16, arity=1)


class TestHypercube:
    def test_intra_subset_one_hop(self):
        topo = Hypercube4D(64, subset_size=8)
        assert topo.hops(0, 7) == 1

    def test_inter_subset_hamming(self):
        topo = Hypercube4D(64, subset_size=8)
        # subset 0 -> subset 1: hamming 1, plus 2 local hops.
        assert topo.hops(0, 8) == 3
        # subset 0 -> subset 3: hamming 2.
        assert topo.hops(0, 24) == 4

    def test_graph_matches_hops_scaling(self):
        topo = Hypercube4D(32, subset_size=8)
        g = build_graph(topo)
        assert nx.is_connected(g)


class TestTorus:
    def test_wraparound(self):
        topo = Torus2D(16)  # 4 x 4
        assert topo.hops(0, 3) == 1  # wrap in x
        assert topo.hops(0, 12) == 1  # wrap in y

    def test_manhattan_distance(self):
        topo = Torus2D(16)
        assert topo.hops(0, 5) == 2  # (1, 1)

    def test_bisection_scales_with_side(self):
        assert Torus2D(64).bisection_links() > Torus2D(16).bisection_links()


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (NetworkTopology.FAT_TREE, FatTree),
            (NetworkTopology.OMEGA, FatTree),
            (NetworkTopology.CROSSBAR, FullCrossbar),
            (NetworkTopology.HYPERCUBE_4D, Hypercube4D),
            (NetworkTopology.TORUS_2D, Torus2D),
        ],
    )
    def test_make_topology(self, kind, cls):
        assert isinstance(make_topology(kind, 16), cls)


@given(st.integers(min_value=2, max_value=128), st.data())
def test_triangle_inequality_crossbar_and_torus(n, data):
    for topo in (FullCrossbar(n), Torus2D(n)):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        c = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c)
