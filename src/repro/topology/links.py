"""Edge structure over the committee tree — paper Section 3.2.2 edge types.

Three families of links connect processors:

1. **Uplinks** — from each processor in a child node to a sampler-chosen
   subset of processors in its parent node (paper degree: q * log^3 n).
   ``sendSecretUp`` shares travel along these; ``sendDown`` reverses them
   (:meth:`LinkStructure.reverse_uplinks`, memoised per child node).
2. **ℓ-links** — from processors in a node C at level ℓ directly to C's
   level-1 descendant nodes (paper degree: O(log^3 n) distinct leaf
   nodes).  ``sendOpen`` travels up these.
3. **Intra-node links** — a sparse regular graph among the processors of a
   single node, used by the a.e. BA with unreliable coins subprotocol
   (described with the Algorithm 5 analysis, Theorem 5).

All assignments derive from one seeded RNG so that the topology is common
knowledge, as the paper assumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .sparse_graph import random_regular_graph
from .tree import NodeId, TopologyError, TreeTopology


@dataclass(frozen=True)
class UplinkKey:
    """Identifies the uplink set of one processor within one child node."""

    child: NodeId
    processor: int


class LinkStructure:
    """Materialised uplinks, ℓ-links and intra-node graphs for a tree.

    Args:
        tree: the committee tree.
        uplink_degree: uplinks per (child-node, processor) pair.
        ell_link_degree: number of level-1 descendant nodes each processor
            of an ancestor node links to.
        intra_degree: degree of the intra-node regular graph.
        rng: seeded RNG (common knowledge).
    """

    def __init__(
        self,
        tree: TreeTopology,
        uplink_degree: int,
        ell_link_degree: int,
        intra_degree: int,
        rng: random.Random,
    ) -> None:
        self.tree = tree
        self.uplink_degree = uplink_degree
        self.ell_link_degree = ell_link_degree
        self.intra_degree = intra_degree

        self._uplinks: Dict[UplinkKey, Tuple[int, ...]] = {}
        for level in range(1, tree.lstar):
            for child in tree.nodes_on_level(level):
                parent = tree.parent(child)
                parent_members = tree.members(parent)
                d = min(uplink_degree, len(parent_members))
                for processor in tree.members(child):
                    chosen = tuple(sorted(rng.sample(parent_members, d)))
                    self._uplinks[UplinkKey(child, processor)] = chosen

        self._ell_links: Dict[Tuple[NodeId, int], Tuple[NodeId, ...]] = {}
        for level in range(2, tree.lstar + 1):
            for node in tree.nodes_on_level(level):
                leaves = tree.leaf_descendants(node)
                d = min(ell_link_degree, len(leaves))
                for processor in tree.members(node):
                    chosen = tuple(sorted(rng.sample(leaves, d)))
                    self._ell_links[(node, processor)] = chosen

        #: child node -> parent member -> child members uplinked to it.
        self._reverse: Dict[NodeId, Dict[int, Tuple[int, ...]]] = {}

        self._intra: Dict[NodeId, Dict[int, Tuple[int, ...]]] = {}
        for node in tree.all_nodes():
            members = tree.members(node)
            self._intra[node] = _intra_node_graph(members, intra_degree, rng)

    # -- uplinks -----------------------------------------------------------------

    def uplinks(self, child: NodeId, processor: int) -> Tuple[int, ...]:
        """Parent-node processors that ``processor`` in ``child`` shares up to."""
        try:
            return self._uplinks[UplinkKey(child, processor)]
        except KeyError:
            raise TopologyError(
                f"no uplinks for processor {processor} in node {child}"
            ) from None

    def reverse_uplinks(self, child: NodeId) -> Dict[int, Tuple[int, ...]]:
        """Parent member -> the ``child`` members whose uplinks include it.

        ``sendDown`` sends i-shares back down "the uplinks it came from plus
        the corresponding uplinks from each of its other children"; this is
        the reverse index needed for that.  Parent members no uplink
        reaches are absent; sources keep ``tree.members(child)`` order.
        Built once per child and shared: callers must not mutate it.
        """
        reverse = self._reverse.get(child)
        if reverse is None:
            index: Dict[int, List[int]] = {}
            for processor in self.tree.members(child):
                key = UplinkKey(child, processor)
                for target in self._uplinks.get(key, ()):
                    index.setdefault(target, []).append(processor)
            reverse = {t: tuple(sources) for t, sources in index.items()}
            self._reverse[child] = reverse
        return reverse

    def downlink_sources(self, child: NodeId, parent_processor: int) -> List[int]:
        """Child-node processors whose uplinks include ``parent_processor``."""
        return list(self.reverse_uplinks(child).get(parent_processor, ()))

    # -- ell links ----------------------------------------------------------------

    def ell_links(self, node: NodeId, processor: int) -> Tuple[NodeId, ...]:
        """Level-1 descendant nodes a processor of ``node`` listens to."""
        try:
            return self._ell_links[(node, processor)]
        except KeyError:
            raise TopologyError(
                f"no ell-links for processor {processor} in node {node}"
            ) from None

    # -- intra-node ----------------------------------------------------------------

    def intra_neighbors(self, node: NodeId, processor: int) -> Tuple[int, ...]:
        """Neighbors of a processor in the node's sparse regular graph."""
        try:
            return self._intra[node][processor]
        except KeyError:
            raise TopologyError(
                f"processor {processor} not in node {node}"
            ) from None


def _intra_node_graph(
    members: Sequence[int], degree: int, rng: random.Random
) -> Dict[int, Tuple[int, ...]]:
    """A (near-)regular undirected graph among ``members``.

    Small committees (fewer members than degree+1) fall back to the
    complete graph, which is what the asymptotic construction degenerates
    to at simulation scale.
    """
    k = len(members)
    if k <= 1:
        return {m: () for m in members}
    if degree >= k - 1:
        member_set = set(members)
        return {
            m: tuple(sorted(member_set - {m}))
            for m in members
        }
    adjacency = random_regular_graph(k, degree, rng)
    return {
        members[i]: tuple(sorted(members[j] for j in adjacency[i]))
        for i in range(k)
    }
