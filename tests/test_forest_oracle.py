"""construct_forest_sdds against a verbatim copy of the code it replaced.

The constructor now labels every tree in one layered pass: one scan finds
the roots, one breadth-first pass from all roots records the levels, and
each depth is labeled across all trees with a label counter per tree. The
copy below is the tree-by-tree loop it replaced. On every forest both
must return the same labels; on every input that is not a forest of trees
with three or more vertices both must raise the same exception with the
same message.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.constructors import construct_forest_sdds
from antimagic.errors import AntimagicError, WrongGraphClass
from antimagic.graph import Edge, Graph, _component_vertices, _root, build_graph
from antimagic.labeling import EdgeLabeling, is_sdds
from conftest import disjoint_union

# --- verbatim copy of the replaced constructor --------------------------------


def seed_construct_forest_sdds(g: Graph) -> EdgeLabeling:
    """Label a forest with 1..m so same-degree vertices get distinct sums.

    Works tree by tree in order of least vertex id, each tree taking the
    next block of labels. Within a tree, rooted at its lowest-id vertex of
    maximum degree, levels are labeled bottom-up; inside a level, vertices
    are ordered by the sum already sitting on their edges to the level
    below, and their parent edges take ascending labels in that order.
    """
    deg = g.degrees()
    _, trees = _component_vertices(g)
    for verts in trees:
        if len(verts) == 1:
            raise WrongGraphClass(f"vertex {verts[0]} has no edges")
        if len(verts) == 2:
            raise WrongGraphClass(f"component {tuple(sorted(verts))} is a single edge")
        if sum(deg[v] for v in verts) != 2 * (len(verts) - 1):
            raise WrongGraphClass(f"component {tuple(sorted(verts))} contains a cycle")
    adj = g.adjacency()
    parent = [-1] * g.n
    up = [0] * g.n  # label of the edge from a vertex to its parent
    below = [0] * g.n  # sum of labels on the edges to a vertex's children
    nxt = 1
    for verts in trees:
        levels = [[_root(verts, deg)]]
        while True:
            deeper = []
            for v in levels[-1]:
                for child in adj[v]:
                    if child != parent[v]:
                        parent[child] = v
                        deeper.append(child)
            if not deeper:
                break
            levels.append(deeper)
        for level in reversed(levels[1:]):
            for _, v in sorted((below[v], v) for v in level):
                up[v] = nxt
                below[parent[v]] += nxt
                nxt += 1
    return EdgeLabeling(
        g, tuple(up[v] if parent[v] == u else up[u] for u, v in g.edges), base=0
    )


# --- inputs -------------------------------------------------------------------


def prufer_tree(rng: random.Random, n: int) -> list[Edge]:
    """Uniform random labeled tree on n >= 2 vertices (Pruefer decoding)."""
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


def spider(legs: list[int]) -> tuple[int, list[Edge]]:
    """A center 0 with one path of each given length hanging off it."""
    edges = []
    n = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return n, edges


def caterpillar(spine: int, leaves: list[int]) -> tuple[int, list[Edge]]:
    """A path of `spine` vertices, spine vertex i carrying leaves[i] leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, count in enumerate(leaves[:spine]):
        for _ in range(count):
            edges.append((i, n))
            n += 1
    return n, edges


PIECES = ["prufer", "small", "path", "star", "spider", "caterpillar"]


def piece(kind: str, rng: random.Random, draw) -> tuple[int, list[Edge]]:
    if kind == "prufer":
        n = draw(st.integers(3, 120))
        return n, prufer_tree(rng, n)
    if kind == "small":  # the benchmark's 3-6-vertex trees
        n = draw(st.integers(3, 6))
        return n, prufer_tree(rng, n)
    if kind == "path":
        n = draw(st.integers(3, 400))
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        leaves = draw(st.integers(2, 30))
        return leaves + 1, [(0, i) for i in range(1, leaves + 1)]
    if kind == "spider":
        return spider(draw(st.lists(st.integers(1, 8), min_size=2, max_size=6)))
    spine = draw(st.integers(3, 12))
    return caterpillar(spine, draw(st.lists(st.integers(0, 3), min_size=spine, max_size=spine)))


@st.composite
def forests(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(PIECES), min_size=1, max_size=8))
    return disjoint_union([piece(kind, rng, draw) for kind in kinds], rng)


BAD = ["isolated", "k2", "cycle", "unicyclic"]


def bad_piece(kind: str, rng: random.Random, draw) -> tuple[int, list[Edge]]:
    if kind == "isolated":
        return 1, []
    if kind == "k2":
        return 2, [(0, 1)]
    if kind == "cycle":
        n = draw(st.integers(3, 9))
        return n, [(i, (i + 1) % n) for i in range(n)]
    n = draw(st.integers(4, 30))  # a tree plus one edge
    edges = prufer_tree(rng, n)
    extra = [(u, v) for u in range(n) for v in range(u + 1, n)]
    missing = sorted(set(extra) - {tuple(sorted(e)) for e in edges})
    return n, edges + [rng.choice(missing)]


@st.composite
def rejected_graphs(draw):
    """Forest pieces plus one or more faulty components, in any order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(PIECES), max_size=4))
    parts = [piece(kind, rng, draw) for kind in kinds]
    bad = draw(st.lists(st.sampled_from(BAD), min_size=1, max_size=3))
    parts += [bad_piece(kind, rng, draw) for kind in bad]
    return disjoint_union(parts, rng)


# --- the comparison ----------------------------------------------------------


def same_outcome(g: Graph) -> EdgeLabeling | None:
    """Both constructors return equal labelings, or raise the same class
    and message."""
    try:
        want = seed_construct_forest_sdds(g)
    except AntimagicError as exc:
        with pytest.raises(type(exc)) as got:
            construct_forest_sdds(g)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return None
    got = construct_forest_sdds(g)
    assert got == want
    return got


@settings(max_examples=200, deadline=None)
@given(forests())
def test_same_labels_on_forests(g):
    f = same_outcome(g)
    assert f is not None and is_sdds(f)


@settings(max_examples=200, deadline=None)
@given(rejected_graphs())
def test_same_rejection_on_graphs_that_are_not_forests_of_trees(g):
    assert same_outcome(g) is None


def round_robin(parts: list[tuple[int, list[Edge]]]) -> Graph:
    """The parts side by side, ids dealt out one per part in turn, so every
    tree's vertices interleave with every other's."""
    order = sorted((v, t) for t, (size, _) in enumerate(parts) for v in range(size))
    new = {key: i for i, key in enumerate(order)}
    edges = [(new[u, t], new[v, t]) for t, (_, part) in enumerate(parts) for u, v in part]
    return build_graph(len(order), edges)


def test_same_labels_where_trees_share_levels_with_interleaved_ids():
    # equal spiders: every depth holds vertices of each tree with equal
    # sums below, so only the per-tree label blocks keep them apart
    for parts in (
        [spider([2, 3, 3, 1])] * 2,
        [spider([1, 1, 4])] * 3 + [spider([4, 1, 1])],
        [caterpillar(6, [1, 0, 2, 1, 0, 3]), caterpillar(4, [2, 2, 0, 1]), spider([3, 3])],
    ):
        f = same_outcome(round_robin(parts))
        assert f is not None and is_sdds(f)


def test_same_labels_on_large_forests():
    rng = random.Random(20261019)
    small = [(s, prufer_tree(rng, s)) for s in (rng.randint(3, 6) for _ in range(600))]
    for g in (
        build_graph(4000, [(i, i + 1) for i in range(3999)]),
        build_graph(5000, prufer_tree(rng, 5000)),
        disjoint_union(small, rng),
        disjoint_union([spider([40] * 30), caterpillar(500, [2] * 500)], rng),
    ):
        assert is_sdds(same_outcome(g))


@pytest.mark.parametrize(
    "parts",
    [
        [(3, [(0, 1), (1, 2)]), (1, []), (2, [(0, 1)])],
        [(2, [(0, 1)]), (3, [(0, 1), (1, 2), (0, 2)]), (1, [])],
        [(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), (3, [(0, 1), (0, 2)])],
        [(1, []), (1, [])],
    ],
)
def test_same_rejection_in_any_component_order(parts):
    # the pieces in many orders on shuffled ids: whichever faulty
    # component has the least vertex id names the fault
    rng = random.Random(7)
    parts = list(parts)
    for _ in range(30):
        rng.shuffle(parts)
        assert same_outcome(disjoint_union(parts, rng)) is None


def test_empty_graph():
    assert construct_forest_sdds(build_graph(0, [])).labels == ()
    assert same_outcome(build_graph(0, [])) is not None
