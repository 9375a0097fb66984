"""Interconnect topologies of the evaluated platforms.

Table 1 lists a fat-tree for the three commodity clusters, a 4-D
hypercube for the X1/X1E (2-D torus beyond 512 MSPs), and single-stage
crossbars for the ES (custom IN) and SX-8 (IXS).  Each topology provides
hop counts between *nodes* and a bisection-capacity figure (in links)
that the collective models use to derate dense communication patterns.
Hop counts are closed forms; no graph is built.
"""

from __future__ import annotations

import abc
import math


class Topology(abc.ABC):
    """Abstract interconnect graph over ``num_nodes`` SMP nodes."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes

    @abc.abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Router-to-router hops between two nodes (0 when src == dst)."""

    @abc.abstractmethod
    def bisection_links(self) -> float:
        """Links crossing a worst-case even bipartition of the nodes."""

    def _check(self, src: int, dst: int) -> None:
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise IndexError(
                f"node out of range: {src}, {dst} (have {self.num_nodes})"
            )

    def diameter(self) -> int:
        """Maximum hop count over all node pairs (closed form per class)."""
        return max(
            self.hops(0, d) for d in range(self.num_nodes)
        )

    def bisection_contention(self) -> float:
        """Derating factor (>= 1) for all-to-all style traffic.

        An exchange in which every node sends across the bisection needs
        ``num_nodes / 2`` link-equivalents; a topology providing fewer
        bisection links serializes the difference.
        """
        demand = self.num_nodes / 2.0
        capacity = self.bisection_links()
        return max(1.0, demand / capacity) if capacity > 0 else 1.0


class FullCrossbar(Topology):
    """Single-stage crossbar: every node one hop from every other.

    The ES interconnect — the paper notes its ~1500 miles of cable and
    the O(nodes^2) cabling cost this buys.
    """

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return 0 if src == dst else 1

    def bisection_links(self) -> float:
        # Full bisection: each node's port reaches any partner directly.
        return self.num_nodes / 2.0


class FatTree(Topology):
    """Folded-Clos / fat-tree (SP Switch2, Quadrics Elan4, InfiniBand).

    Modeled as a full-bisection tree with radix-``arity`` switches: a
    message climbs to the lowest common ancestor and back down.
    """

    def __init__(self, num_nodes: int, arity: int = 16) -> None:
        super().__init__(num_nodes)
        if arity < 2:
            raise ValueError("switch arity must be >= 2")
        self.arity = arity
        self.levels = max(1, math.ceil(math.log(max(num_nodes, 2), arity)))

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        if src == dst:
            return 0
        # Find the tree level at which the two leaves diverge.
        level = 1
        a, b = src, dst
        while a // self.arity != b // self.arity:
            a //= self.arity
            b //= self.arity
            level += 1
        return 2 * level

    def bisection_links(self) -> float:
        # Constant-bisection fat-tree (the clusters studied were
        # non-blocking or close to it at the evaluated scales).
        return self.num_nodes / 2.0


class Hypercube4D(Topology):
    """The X1/X1E network: 8-node crossbar subsets in a 4-D hypercube.

    Within a subset of ``subset_size`` nodes communication is one hop;
    across subsets the hop count is the Hamming distance between subset
    coordinates plus the two local hops.
    """

    def __init__(self, num_nodes: int, subset_size: int = 8) -> None:
        super().__init__(num_nodes)
        if subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        self.subset_size = subset_size
        self.num_subsets = math.ceil(num_nodes / subset_size)

    def _subset(self, node: int) -> int:
        return node // self.subset_size

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        if src == dst:
            return 0
        s, d = self._subset(src), self._subset(dst)
        if s == d:
            return 1
        hamming = bin(s ^ d).count("1")
        return hamming + 2

    def bisection_links(self) -> float:
        # A d-dimensional hypercube of 2^d vertices has 2^(d-1) bisection
        # links; express in node terms via the subset size.
        if self.num_subsets <= 1:
            return self.num_nodes / 2.0
        return max(1.0, self.num_subsets / 2.0) * self.subset_size / 2.0


class Torus2D(Topology):
    """2-D torus — the X1 interconnect beyond 512 MSPs."""

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        self.nx_dim = int(math.sqrt(num_nodes))
        while self.nx_dim > 1 and num_nodes % self.nx_dim:
            self.nx_dim -= 1
        self.ny_dim = num_nodes // self.nx_dim

    def _coords(self, node: int) -> tuple[int, int]:
        return node % self.nx_dim, node // self.nx_dim

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        ax, ay = self._coords(src)
        bx, by = self._coords(dst)
        dx = abs(ax - bx)
        dy = abs(ay - by)
        return min(dx, self.nx_dim - dx) + min(dy, self.ny_dim - dy)

    def bisection_links(self) -> float:
        return 2.0 * min(self.nx_dim, self.ny_dim)


def make_topology(kind, num_nodes: int) -> Topology:
    """Build the right topology for a :class:`NetworkTopology` value."""
    from ..machines.spec import NetworkTopology

    table = {
        NetworkTopology.FAT_TREE: FatTree,
        NetworkTopology.OMEGA: FatTree,
        NetworkTopology.CROSSBAR: FullCrossbar,
        NetworkTopology.HYPERCUBE_4D: Hypercube4D,
        NetworkTopology.TORUS_2D: Torus2D,
    }
    cls = table.get(kind)
    if cls is None:
        raise KeyError(f"no topology model for {kind!r}")
    return cls(num_nodes)
