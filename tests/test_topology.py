"""Unit tests for the committee tree, links, and sparse graphs."""

import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.topology.links import LinkStructure
from repro.topology.sparse_graph import (
    GraphError,
    edge_count,
    expansion_estimate,
    is_regular,
    random_regular_graph,
    theorem5_degree,
)
from repro.topology.tree import NodeId, TopologyError, TreeTopology


def small_tree(n=27, q=3, k1=4, seed=0):
    return TreeTopology(n=n, q=q, k1=k1, rng=random.Random(seed))


class TestTreeStructure:
    def test_leaf_count_equals_n(self):
        tree = small_tree()
        assert tree.node_count(1) == 27

    def test_levels_shrink_by_q(self):
        tree = small_tree()
        assert tree.node_count(2) == 9
        assert tree.node_count(3) == 3
        assert tree.node_count(4) == 1
        assert tree.lstar == 4

    def test_root_contains_everyone(self):
        tree = small_tree()
        assert tree.members(tree.root()) == tuple(range(27))

    def test_node_sizes_grow_geometrically(self):
        tree = small_tree()
        assert tree.node_size(1) == 4
        assert tree.node_size(2) == 12
        assert tree.node_size(3) == 27  # capped at n

    def test_leaf_contains_owner(self):
        tree = small_tree()
        for i in range(27):
            assert i in tree.members(NodeId(1, i))

    def test_parent_child_consistency(self):
        tree = small_tree()
        for level in range(1, tree.lstar):
            for node in tree.nodes_on_level(level):
                parent = tree.parent(node)
                assert node in tree.children(parent)

    def test_root_has_no_parent(self):
        tree = small_tree()
        with pytest.raises(TopologyError):
            tree.parent(tree.root())

    def test_leaves_have_no_children(self):
        tree = small_tree()
        assert tree.children(NodeId(1, 0)) == []

    def test_leaf_descendants_of_root_are_all_leaves(self):
        tree = small_tree()
        assert len(tree.leaf_descendants(tree.root())) == 27

    def test_leaf_descendants_partition(self):
        tree = small_tree()
        seen = []
        for node in tree.nodes_on_level(2):
            seen.extend(leaf.index for leaf in tree.leaf_descendants(node))
        assert sorted(seen) == list(range(27))

    def test_path_to_root_length(self):
        tree = small_tree()
        path = tree.path_to_root(NodeId(1, 13))
        assert len(path) == tree.lstar
        assert path[0] == NodeId(1, 13)
        assert path[-1] == tree.root()

    def test_path_to_root_requires_leaf(self):
        tree = small_tree()
        with pytest.raises(TopologyError):
            tree.path_to_root(NodeId(2, 0))

    def test_invalid_parameters(self):
        rng = random.Random(0)
        with pytest.raises(TopologyError):
            TreeTopology(0, 3, 4, rng)
        with pytest.raises(TopologyError):
            TreeTopology(10, 1, 4, rng)
        with pytest.raises(TopologyError):
            TreeTopology(10, 3, 0, rng)

    def test_non_power_of_q(self):
        tree = TreeTopology(n=10, q=3, k1=2, rng=random.Random(1))
        assert tree.node_count(1) == 10
        assert tree.node_count(2) == 4
        assert tree.node_count(3) == 2
        assert tree.node_count(4) == 1

    def test_single_processor_tree(self):
        tree = TreeTopology(n=1, q=2, k1=1, rng=random.Random(1))
        assert tree.lstar == 1
        assert tree.root() == NodeId(1, 0)
        assert tree.members(tree.root()) == (0,)

    def test_processor_appearances_nonempty(self):
        tree = small_tree()
        for p in range(0, 27, 9):
            appearances = tree.processor_appearances(p)
            assert any(node.level == tree.lstar for node in appearances)


class TestFaultAnalysis:
    def test_good_fraction(self):
        tree = small_tree()
        node = tree.root()
        assert tree.good_fraction(node, set()) == 1.0
        assert tree.good_fraction(node, set(range(9))) == pytest.approx(2 / 3)

    def test_is_good_node_threshold(self):
        tree = small_tree()
        bad = set(range(9))
        assert tree.is_good_node(tree.root(), bad, 2 / 3)
        assert not tree.is_good_node(tree.root(), bad, 0.7)

    def test_bad_nodes_empty_without_corruption(self):
        tree = small_tree()
        assert tree.bad_nodes(set(), 2 / 3) == set()

    def test_good_path_leaves_all_when_clean(self):
        tree = small_tree()
        leaves = tree.good_path_leaves(tree.root(), set(), 2 / 3)
        assert len(leaves) == 27

    def test_good_path_leaves_excludes_bad_paths(self):
        tree = small_tree()
        # Corrupt every member of leaf 0 -> its path is bad.
        bad = set(tree.members(NodeId(1, 0)))
        leaves = tree.good_path_leaves(tree.root(), bad, 2 / 3)
        assert NodeId(1, 0) not in leaves


class TestLinkStructure:
    def test_uplink_degrees(self):
        tree = small_tree()
        links = LinkStructure(
            tree, uplink_degree=3, ell_link_degree=2, intra_degree=3,
            rng=random.Random(2),
        )
        for level in range(1, tree.lstar):
            for child in tree.nodes_on_level(level):
                for p in tree.members(child):
                    ups = links.uplinks(child, p)
                    assert len(ups) == 3
                    parent_members = set(tree.members(tree.parent(child)))
                    assert set(ups) <= parent_members

    def test_downlink_sources_reverse_uplinks(self):
        tree = small_tree()
        links = LinkStructure(tree, 3, 2, 3, random.Random(2))
        for level in range(1, tree.lstar):
            for child in tree.nodes_on_level(level):
                parent = tree.parent(child)
                for parent_member in tree.members(parent):
                    sources = links.downlink_sources(child, parent_member)
                    for source in sources:
                        assert parent_member in links.uplinks(child, source)
                    # Complete: a brute-force scan of the child's uplinks
                    # finds the same sources, in membership order.
                    assert sources == [
                        p for p in tree.members(child)
                        if parent_member in links.uplinks(child, p)
                    ]

    def test_ell_links_point_to_descendant_leaves(self):
        tree = small_tree()
        links = LinkStructure(tree, 3, 2, 3, random.Random(2))
        for level in range(2, tree.lstar + 1):
            for node in tree.nodes_on_level(level):
                descendants = set(tree.leaf_descendants(node))
                for p in tree.members(node):
                    assert set(links.ell_links(node, p)) <= descendants

    def test_intra_neighbors_symmetric(self):
        tree = small_tree()
        links = LinkStructure(tree, 3, 2, 3, random.Random(2))
        node = NodeId(2, 0)
        for p in tree.members(node):
            for neighbor in links.intra_neighbors(node, p):
                assert p in links.intra_neighbors(node, neighbor)

    def test_unknown_queries_raise(self):
        tree = small_tree()
        links = LinkStructure(tree, 3, 2, 3, random.Random(2))
        with pytest.raises(TopologyError):
            links.uplinks(NodeId(1, 0), 9999)
        with pytest.raises(TopologyError):
            links.ell_links(NodeId(2, 0), 9999)
        with pytest.raises(TopologyError):
            links.intra_neighbors(NodeId(1, 0), 9999)


class TestSparseGraph:
    def test_theorem5_degree(self):
        assert theorem5_degree(1) == 0
        assert theorem5_degree(2) >= 1
        d = theorem5_degree(256, k=4.0)
        assert d == 32

    def test_random_regular_is_regular(self):
        g = random_regular_graph(20, 4, random.Random(3))
        assert is_regular(g)
        assert edge_count(g) == 20 * 4 // 2

    def test_random_regular_no_self_loops(self):
        g = random_regular_graph(16, 5, random.Random(4))
        for v, neighbors in g.items():
            assert v not in neighbors

    def test_odd_degree_sum_fixed_up(self):
        # n=5, degree=3 -> odd total, bumps to degree 4.
        g = random_regular_graph(5, 3, random.Random(5))
        assert is_regular(g)

    def test_zero_degree(self):
        g = random_regular_graph(5, 0, random.Random(5))
        assert all(len(v) == 0 for v in g.values())

    def test_invalid_degree(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 5, random.Random(5))

    def test_expansion_positive(self):
        g = random_regular_graph(40, 6, random.Random(6))
        assert expansion_estimate(g, trials=5, rng=random.Random(7)) > 0.5


def test_random_regular_graph_property():
    """Symmetric adjacency at every n from 4 to 60, one seed drawn each."""
    seeds = random.Random(2024)
    for n in range(4, 61):
        seed = seeds.randint(0, 2**32)
        degree = min(4, n - 1)
        g = random_regular_graph(n, degree, random.Random(seed))
        # Symmetric adjacency.
        for v, neighbors in g.items():
            for u in neighbors:
                assert v in g[u]


def _graph_digest(n, degree, seeds=(0, 1, 2)):
    """sha256 over one graph per seed: the vertex order, every neighbour
    set in iteration order, and the caller rng's next draw."""
    digest = hashlib.sha256()
    for seed in seeds:
        rng = random.Random(seed)
        g = random_regular_graph(n, degree, rng)
        neighbours = [list(g[v]) for v in range(n)]
        digest.update(
            repr((list(g), neighbours, rng.getrandbits(64))).encode()
        )
    return digest.hexdigest()


#: Recorded with networkx 3.6.1's generator behind the builder, before
#: the plain-Python port replaced it: the port must draw the same graphs.
GRAPH_DIGESTS = {
    # Algorithm 5 at the end-to-end benchmark's n = 256.
    (256, 32): (
        "09f39c0c20d288441a23b2f225e296671d2862619815eaf2cc85f02fa244d5c6"
    ),
    # A tree node's intra-node links (everywhere-ba at n = 9).
    (9, 6): "513c8d9eaf4c1e0721812da1f46c1d4c8657899e913570867453121e0b5b3665",
    # Odd degree sum, bumped to degree 4 (the complete graph).
    (5, 3): "faabcccd42f5bca8f9df8f06577408194c95d9d50e3147b5e2485da292b9b777",
    # The complete graph Theorem 5's degree gives at n = 16.
    (16, 15): (
        "600f5686b8cced9aaf291b22c68dea7df2bb05a5df927d4188c1340e03d3b5f2"
    ),
    # Dense enough that most attempts get stuck and restart.
    (40, 21): (
        "929f396c9c0c9a1b10da940cf708538ca14e95540d527c6fbc048224ee331e29"
    ),
}


class TestStegerWormaldBuilder:
    """One builder on every host: the same graphs, draw for draw."""

    @pytest.mark.parametrize(
        "n, degree", sorted(GRAPH_DIGESTS), ids=lambda v: str(v)
    )
    def test_graphs_are_pinned(self, n, degree):
        assert _graph_digest(n, degree) == GRAPH_DIGESTS[(n, degree)]

    def test_equals_networkx_generator(self):
        """Where networkx is installed, its generator, seeded with the
        builder's one draw, gives the same neighbour sets, filled in the
        same order."""
        nx = pytest.importorskip("networkx")
        cases = 0
        for n in (3, 4, 5, 8, 9, 12, 16, 17, 24, 33, 40, 64):
            for degree in sorted({1, 2, 3, 6, theorem5_degree(n), n - 1}):
                if degree >= n or (n * degree) % 2:
                    continue
                for seed in range(3):
                    rng = random.Random(seed)
                    nx_seed = random.Random(seed).randrange(1 << 30)
                    ours = random_regular_graph(n, degree, rng)
                    theirs = nx.random_regular_graph(degree, n, seed=nx_seed)
                    assert [list(ours[v]) for v in range(n)] == [
                        list(set(theirs.neighbors(v))) for v in range(n)
                    ], (n, degree, seed)
                    cases += 1
        assert cases > 100

    def test_algorithm5_trial_leaves_networkx_unloaded(self):
        """An Algorithm 5 trial, run in a fresh interpreter, imports
        nothing from networkx, installed or not."""
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        path = os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))
        )
        code = (
            "import sys\n"
            "from repro.engine import ExperimentSpec, SerialBackend\n"
            "spec = ExperimentSpec(runner='unreliable-coin-ba', n=64,"
            " trials=1, seed=29)\n"
            "assert all(r.ok for r in SerialBackend().run_trials(spec))\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'networkx'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"
