"""Sparse regular random graphs — substrate for Algorithm 5 (Theorem 5).

Theorem 5 requires a random ``k * log n``-regular graph G on the
processors of a node.  We build it in plain Python with Steger and
Wormald's algorithm (*Generating random regular graphs quickly*, 1999).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Set


class GraphError(ValueError):
    """Raised when a regular graph cannot be constructed."""


def theorem5_degree(n: int, k: float = 4.0) -> int:
    """The paper's degree choice k * log n, at least 2, at most n-1."""
    if n <= 1:
        return 0
    degree = max(2, int(round(k * math.log2(n))))
    return min(degree, n - 1)


def random_regular_graph(
    n: int, degree: int, rng: random.Random
) -> Dict[int, Set[int]]:
    """A random ``degree``-regular simple graph on ``n`` vertices.

    Steger-Wormald: pair shuffled stubs, keep the new edges, re-pair the
    leftover stubs while two of them could still form one, and start
    over when none can.  It takes one draw from ``rng``, the generator's
    seed, so the same ``rng`` state gives the same graph on every host.
    ``degree < n`` is required; an odd degree sum is fixed up by bumping
    the degree.  Returns vertex -> neighbor set.
    """
    if degree < 0 or degree >= n:
        raise GraphError(f"degree {degree} invalid for {n} vertices")
    if degree == 0:
        return {v: set() for v in range(n)}
    if (n * degree) % 2 != 0:
        # Regular graph of odd total degree doesn't exist; bump degree
        # (n is odd, so the odd degree was at most n - 2).
        degree += 1

    seed = random.Random(rng.randrange(1 << 30))
    edges = None
    while edges is None:
        edges = _try_creation(n, degree, seed)
    adjacency: Dict[int, Set[int]] = {v: set() for v in range(n)}
    for s1, s2 in edges:
        adjacency[s1].add(s2)
        adjacency[s2].add(s1)
    return adjacency


def _try_creation(n, degree, seed):
    """One attempt at an edge set, or ``None`` when it gets stuck."""
    edges = set()
    stubs = list(range(n)) * degree
    while stubs:
        potential_edges = {}
        seed.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential_edges[s1] = potential_edges.get(s1, 0) + 1
                potential_edges[s2] = potential_edges.get(s2, 0) + 1
        if not _suitable(edges, potential_edges):
            return None
        stubs = [s for s, k in potential_edges.items() for _ in range(k)]
    return edges


def _suitable(edges, potential_edges):
    """Whether two leftover stubs could still form a new edge."""
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            # The swap rebinds s1 for the rest of the inner loop; which
            # attempts restart, and so which graphs are drawn, depends on it.
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def edge_count(adjacency: Dict[int, Set[int]]) -> int:
    """Number of undirected edges in the adjacency map."""
    return sum(len(neigh) for neigh in adjacency.values()) // 2


def is_regular(adjacency: Dict[int, Set[int]]) -> bool:
    """Whether every vertex has the same degree."""
    degrees = {len(neigh) for neigh in adjacency.values()}
    return len(degrees) <= 1


def expansion_estimate(
    adjacency: Dict[int, Set[int]],
    trials: int,
    rng: random.Random,
) -> float:
    """Crude edge-expansion estimate: min over random halves of cut/|S|.

    Used by tests to sanity-check that ``random_regular_graph``'s graphs
    expand (Theorem 5's proof needs expander-like concentration).
    """
    n = len(adjacency)
    if n < 4:
        return 0.0
    best = float("inf")
    vertices = list(adjacency)
    for _ in range(trials):
        rng.shuffle(vertices)
        s = set(vertices[: n // 2])
        cut = sum(
            1
            for v in s
            for u in adjacency[v]
            if u not in s
        )
        best = min(best, cut / len(s))
    return best
