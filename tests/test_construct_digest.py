"""The two general constructors give the same labelings as before.

A digest over the labels of a fixed, seeded set of forests and odd-degree
graphs pins every label, so any change to the constructors' internals must
reproduce them exactly. The constant was captured from the constructors
as they stood when each component was re-indexed into its own graph.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import re

import pytest

from antimagic.constructors import construct_forest_sdds, construct_odd_degree
from antimagic.errors import WrongGraphClass
from antimagic.families import path, star
from antimagic.graph import build_graph
from antimagic.labeling import is_sdds

FOREST_DIGEST = "5361f28d1b1a1dc41db8042727401e0cd81774926210b0595d0c73ab6efbfb53"
ODD_DIGEST = "cf4fe610a4b9b3731d7c940933ac56917df0bd24be3ebfe71b5bbed1a234f260"


def prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n >= 3 vertices (Pruefer decoding)."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_cubic(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Simple 3-regular graph on n (even) vertices by the pairing model."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == len(points) // 2 and all(u != v for u, v in pairs):
            return sorted(pairs)


def shuffled_union(rng: random.Random, parts: list[tuple[int, list]]):
    """Disjoint union of (n, edges) parts on shuffled ids, so parts interleave."""
    total = sum(n for n, _ in parts)
    ids = list(range(total))
    rng.shuffle(ids)
    edges = []
    base = 0
    for n, part in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in part]
        base += n
    return build_graph(total, edges)


def forest_cases():
    rng = random.Random(20261018)
    cases = [path(n) for n in (3, 4, 5, 6, 7, 10, 31, 100, 1001)]
    for _ in range(12):
        n = rng.randint(3, 300)
        cases.append(build_graph(n, prufer_tree(rng, n)))
    for n in (40, 200, 1000):
        parts = []
        while sum(p for p, _ in parts) < n:
            size = rng.randint(3, 7)
            parts.append((size, prufer_tree(rng, size)))
        cases.append(shuffled_union(rng, parts))
    cases.append(star(999))
    return cases


def odd_cases():
    rng = random.Random(4181)
    cases = [build_graph(n, random_cubic(rng, n)) for n in (4, 8, 20, 50, 100, 300)]
    for count in (3, 12):
        parts = [(n, random_cubic(rng, n)) for n in rng.choices((4, 6, 8, 10, 20), k=count)]
        parts.append((4, [(0, 1), (0, 2), (0, 3)]))
        parts.append((10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]))
        cases.append(shuffled_union(rng, parts))
    cases.append(star(999))
    return cases


def digest(construct, graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        f = construct(g)
        assert is_sdds(f)
        h.update(repr((g.n, g.edges, f.labels)).encode())
    return h.hexdigest()


def test_forest_labelings_match_digest():
    assert digest(construct_forest_sdds, forest_cases()) == FOREST_DIGEST


def test_odd_degree_labelings_match_digest():
    assert digest(construct_odd_degree, odd_cases()) == ODD_DIGEST


def raises_exactly(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize(
    "n, edges, exc, message",
    [
        # a cycle on {0, 2, 4}, then a single edge {1, 6} and isolated 3, 5
        (
            7,
            [(0, 2), (2, 4), (0, 4), (1, 6)],
            WrongGraphClass,
            "component (0, 2, 4) contains a cycle",
        ),
        # a path on {0, 5, 7}, then the single edge {1, 6}, then a cycle on {2, 3, 4}
        (
            8,
            [(0, 5), (5, 7), (1, 6), (2, 3), (3, 4), (2, 4)],
            WrongGraphClass,
            "component (1, 6) is a single edge",
        ),
        # a path on {0, 1, 5}, then isolated 2, the single edge {3, 7}, a cycle on {4, 6, 8}
        (
            9,
            [(0, 1), (1, 5), (3, 7), (4, 6), (6, 8), (4, 8)],
            WrongGraphClass,
            "vertex 2 has no edges",
        ),
    ],
)
def test_forest_first_faulty_component_wins(n, edges, exc, message):
    with raises_exactly(exc, message):
        construct_forest_sdds(build_graph(n, edges))


@pytest.mark.parametrize(
    "n, edges, exc, message",
    [
        # the single edge {0, 3} is the first component, but degrees are checked first
        (5, [(0, 3), (1, 2), (1, 4)], WrongGraphClass, "vertex 1 has even degree 2"),
        # a claw on {0, 2, 4, 5}, then single edges {1, 6} and {3, 7}
        (
            8,
            [(0, 2), (0, 4), (0, 5), (3, 7), (1, 6)],
            WrongGraphClass,
            "component (1, 6) is a single edge",
        ),
    ],
)
def test_odd_degree_first_fault_wins(n, edges, exc, message):
    with raises_exactly(exc, message):
        construct_odd_degree(build_graph(n, edges))
