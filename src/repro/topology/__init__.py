"""Network topology substrate (paper Section 3.2.2 and Theorem 5)."""

from .links import LinkStructure, UplinkKey
from .sparse_graph import (
    GraphError,
    edge_count,
    expansion_estimate,
    is_regular,
    random_regular_graph,
    theorem5_degree,
)
from .tree import NodeId, TopologyError, TreeTopology
from .visualize import render_node, render_paths, render_tree

__all__ = [
    "LinkStructure",
    "UplinkKey",
    "GraphError",
    "edge_count",
    "expansion_estimate",
    "is_regular",
    "random_regular_graph",
    "theorem5_degree",
    "render_node",
    "render_paths",
    "render_tree",
    "NodeId",
    "TopologyError",
    "TreeTopology",
]
