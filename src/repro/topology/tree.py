"""The q-ary tree of committee nodes — paper Section 3.2.2.

Processors are arranged into *nodes* (committees) forming a complete q-ary
tree, mirroring Figure 1 of the paper:

* Level 1 (leaves): one node per processor; the i-th leaf is where
  processor p_i initially secret-shares its candidate array.  Each leaf
  node *contains* ``k1`` processors chosen by a sampler (paper:
  k1 = log^3 n).
* Level ``l`` nodes contain ``k_l = q**(l-1) * k1`` processors (capped at
  n), again chosen by a sampler over all processors.
* The root (level ``lstar``) contains all processors.

The paper adds a log^3 n redundancy factor to the node count per level for
its w.h.p. union bounds; like Figure 1 we build the plain q-ary tree and
surface redundancy through the samplers' seed, since at simulation
scale the factor alone exceeds n (log^3 81 is about 255).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..samplers.sampler import Sampler


class TopologyError(ValueError):
    """Raised on invalid tree parameters or queries."""


@dataclass(frozen=True, order=True)
class NodeId:
    """Identifies one committee node: (level, index within level).

    Levels are numbered from the leaves (1) to the root (``lstar``), as in
    the paper.
    """

    level: int
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"L{self.level}N{self.index}"


class TreeTopology:
    """A concrete, fully materialised tree of committee nodes.

    Args:
        n: number of processors (IDs ``0..n-1``).
        q: tree arity (paper: log^delta n).
        k1: leaf committee size (paper: log^3 n).
        rng: seeded RNG used for all sampler constructions, so every
            processor can deterministically derive the same topology
            (the paper's "each processor has a copy of the required
            samplers").
    """

    def __init__(self, n: int, q: int, k1: int, rng: random.Random) -> None:
        if n < 1:
            raise TopologyError("need at least one processor")
        if q < 2:
            raise TopologyError("tree arity q must be >= 2")
        if k1 < 1:
            raise TopologyError("leaf committee size k1 must be >= 1")
        self.n = n
        self.q = q
        self.k1 = k1

        # Number of nodes per level: n leaves, shrinking by a factor q per
        # level until a single root remains.
        counts = [n]
        while counts[-1] > 1:
            counts.append(math.ceil(counts[-1] / q))
        self._counts = counts  # counts[l-1] = number of nodes on level l
        self.lstar = len(counts)

        # Committee membership per node, via one sampler per level.
        self._members: Dict[NodeId, Tuple[int, ...]] = {}
        for level in range(1, self.lstar + 1):
            size = self.node_size(level)
            count = self._counts[level - 1]
            if size >= n:
                for index in range(count):
                    self._members[NodeId(level, index)] = tuple(range(n))
            else:
                sampler = Sampler.random(r=count, s=n, d=size, rng=rng)
                for index in range(count):
                    self._members[NodeId(level, index)] = sampler.assign(index)
        # Leaf i always contains its owner p_i (the processor whose array
        # it hosts) — the paper assigns each leaf to a distinct processor.
        for index in range(n):
            node = NodeId(1, index)
            members = self._members[node]
            if index not in members:
                replaced = list(members)
                replaced[0] = index
                self._members[node] = tuple(sorted(replaced))

    # -- structure ---------------------------------------------------------------

    def node_size(self, level: int) -> int:
        """k_l = q**(l-1) * k1, capped at n; the root holds everyone."""
        self._check_level(level)
        if level == self.lstar:
            return self.n
        return min(self.n, self.k1 * self.q ** (level - 1))

    def nodes_on_level(self, level: int) -> List[NodeId]:
        """All node ids on one level, leftmost first."""
        self._check_level(level)
        return [NodeId(level, i) for i in range(self._counts[level - 1])]

    def node_count(self, level: int) -> int:
        """How many nodes a level has."""
        self._check_level(level)
        return self._counts[level - 1]

    def all_nodes(self) -> Iterator[NodeId]:
        """Every node, level by level from the leaves up."""
        for level in range(1, self.lstar + 1):
            yield from self.nodes_on_level(level)

    def parent(self, node: NodeId) -> NodeId:
        """The parent node; raises TopologyError at the root."""
        if node.level >= self.lstar:
            raise TopologyError("root has no parent")
        return NodeId(node.level + 1, node.index // self.q)

    def children(self, node: NodeId) -> List[NodeId]:
        """Child nodes (empty at the leaves)."""
        if node.level <= 1:
            return []
        lo = node.index * self.q
        hi = min(self._counts[node.level - 2], lo + self.q)
        return [NodeId(node.level - 1, i) for i in range(lo, hi)]

    def root(self) -> NodeId:
        """The single node on the top level."""
        return NodeId(self.lstar, 0)

    def members(self, node: NodeId) -> Tuple[int, ...]:
        """Processor ids assigned to a node by the membership sampler."""
        try:
            return self._members[node]
        except KeyError:
            raise TopologyError(f"unknown node {node}") from None

    def leaf_descendants(self, node: NodeId) -> List[NodeId]:
        """All level-1 nodes in this node's subtree."""
        span = self.q ** (node.level - 1)
        lo = node.index * span
        hi = min(self.n, lo + span)
        return [NodeId(1, i) for i in range(lo, hi)]

    def path_to_root(self, leaf: NodeId) -> List[NodeId]:
        """The node path from a leaf up to (and including) the root."""
        if leaf.level != 1:
            raise TopologyError("path_to_root starts at a leaf")
        path = [leaf]
        node = leaf
        while node.level < self.lstar:
            node = self.parent(node)
            path.append(node)
        return path

    # -- fault analysis -----------------------------------------------------------

    def good_fraction(self, node: NodeId, bad: Set[int]) -> float:
        """Fraction of a node's members outside the bad set."""
        members = self.members(node)
        good = sum(1 for p in members if p not in bad)
        return good / len(members)

    def is_good_node(
        self, node: NodeId, bad: Set[int], threshold: float
    ) -> bool:
        """Definition 3: a good node has >= threshold fraction good members.

        The paper uses threshold = 2/3 + eps/2.
        """
        return self.good_fraction(node, bad) >= threshold

    def bad_nodes(self, bad: Set[int], threshold: float) -> Set[NodeId]:
        """All nodes below the good-node threshold (Definition 3)."""
        return {
            node
            for node in self.all_nodes()
            if not self.is_good_node(node, bad, threshold)
        }

    def good_path_leaves(
        self, top: NodeId, bad: Set[int], threshold: float
    ) -> List[NodeId]:
        """Leaf descendants of ``top`` whose whole path to ``top`` is good.

        Used in Lemma 3(2) and in the definition of a good election
        (Section 3.7 condition (3)).
        """
        bad_node_set = {
            node
            for node in self.all_nodes()
            if node.level <= top.level
            and not self.is_good_node(node, bad, threshold)
        }
        result = []
        for leaf in self.leaf_descendants(top):
            node = leaf
            ok = node not in bad_node_set
            while ok and node.level < top.level:
                node = self.parent(node)
                ok = node not in bad_node_set
            if ok:
                result.append(leaf)
        return result

    def processor_appearances(self, processor: int) -> List[NodeId]:
        """Every node containing a given processor (polylog many, per Lemma 5)."""
        return [
            node
            for node, members in self._members.items()
            if processor in members
        ]

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.lstar:
            raise TopologyError(
                f"level {level} out of range 1..{self.lstar}"
            )
