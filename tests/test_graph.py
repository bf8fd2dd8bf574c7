"""Graph container, components, BFS levels, and edge-list parsing."""

from __future__ import annotations

import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import families
from antimagic.errors import BadParameters, InvalidGraph, ParseError
from antimagic.families import complete_bipartite, cube, path, star
from antimagic.graph import (
    Graph,
    _canonical_edges,
    build_graph,
    canonical_edge,
    components,
    default_root,
    level_partition,
    parse_edge_list,
)
from conftest import edge_list_text, random_graph, random_tree


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def test_build_graph_sorts_edges():
    g = build_graph(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert g.n == 4 and g.m == 3


def test_build_graph_rejects_loops():
    with pytest.raises(InvalidGraph, match=r"edge \(1, 1\) is a loop"):
        build_graph(3, [(1, 1)])


def test_build_graph_rejects_duplicates():
    with pytest.raises(InvalidGraph, match=r"edge \(0, 1\) appears more than once"):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_rejects_bad_endpoints():
    with pytest.raises(InvalidGraph, match=r"edge \(0, 3\) leaves vertex range \[0, 3\)"):
        build_graph(3, [(0, 3)])
    with pytest.raises(InvalidGraph, match=r"edge \(-1, 2\) leaves vertex range"):
        build_graph(3, [(-1, 2)])


def test_adjacency_and_incident():
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert g.adjacency()[1] == [0, 2, 3]
    assert [e for e in g.edges if 1 in e] == [(0, 1), (1, 2), (1, 3)]
    assert [e for e in g.edges if 3 in e] == [(1, 3)]


def test_adjacency_is_built_once_per_graph():
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert g.adjacency() is g.adjacency()
    assert g == build_graph(4, [(1, 3), (1, 2), (0, 1)])


def test_degrees_and_max_degree():
    g = star(4)
    assert g.degrees() == [4, 1, 1, 1, 1]
    assert g.degrees() is g.degrees()
    assert g.max_degree() == 4
    assert sum(g.degrees()) == 2 * g.m


def test_has_edge_and_edge_index():
    g = build_graph(3, [(0, 2), (0, 1)])
    assert (0, 2) in g.edges
    assert (1, 2) not in g.edges
    assert g.edges.index((0, 2)) == 1


def test_components_smallest_vertex_order():
    g = build_graph(6, [(3, 5), (0, 2), (2, 4)])
    comps = components(g)
    assert [c.vertices for c in comps] == [(0, 2, 4), (1,), (3, 5)]
    first = comps[0]
    assert first.graph.n == 3 and first.graph.edges == ((0, 1), (1, 2))
    assert first.parent_edge((0, 1)) == (0, 2)
    assert first.parent_edge((1, 2)) == (2, 4)
    assert comps[1].graph.m == 0
    assert comps[2].graph.edges == ((0, 1),)


def test_default_root_prefers_lowest_id_max_degree():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    assert default_root(g) == 1


def test_level_partition_shape():
    p = level_partition(cube())
    assert p.root == 0
    assert p.levels[0] == (0,)
    assert p.levels[1] == (1, 2, 4)
    assert p.levels[2] == (3, 5, 6)
    assert p.levels[3] == (7,)
    assert p.d == 3
    assert p.level_of()[6] == 2


def test_level_partition_bad_root():
    with pytest.raises(BadParameters, match="root 5 is not a vertex of a 3-vertex graph"):
        level_partition(path(3), root=5)


def test_level_partition_of_empty_graph():
    empty = build_graph(0, [])
    with pytest.raises(BadParameters, match="no vertices has no root"):
        default_root(empty)
    with pytest.raises(BadParameters, match="no vertices has no root"):
        level_partition(empty)
    assert components(empty) == []


def test_level_partition_matches_bfs_oracle():
    rng = random.Random(20260816)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 12)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        g = random_graph(rng, n, m)
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(n))
        if not nx.is_connected(h):
            continue
        root = rng.randrange(n)
        levels = level_partition(g, root=root).level_of()
        dist = nx.single_source_shortest_path_length(h, root)
        for v in range(n):
            assert levels[v] == dist[v]
        checked += 1


def test_a_graph_refuses_edges_that_are_not_a_tuple():
    # the search caches its plan by the graph's value, so list edges made
    # every search raise a bare TypeError; the graph now refuses them
    message = r"^edges must be a tuple, got list; build_graph takes any edge list$"
    with pytest.raises(InvalidGraph, match=message):
        Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidGraph, match=message):
        Graph(n=3, edges=[(0, 1), (1, 2)])
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(InvalidGraph, match=message):
        g._replace(edges=[(0, 1)])
    with pytest.raises(InvalidGraph, match=message):
        Graph._make((3, [(0, 1)]))
    assert g._replace(n=4) == Graph(4, ((0, 1), (1, 2)))
    assert build_graph(3, [(0, 1), (1, 2)]) == g


@pytest.mark.parametrize(
    "n, edges",
    [
        (2, ((0, 5),)),  # an endpoint out of range
        (3, ((-1, 1),)),
        (3, ((0, 0), (1, 2))),  # a loop
        (3, ((0, 1), (0, 1))),  # a repeated edge
        (3, ((1, 2), (0, 1))),  # out of order
        (3, ((1, 0),)),  # a reversed pair
        (-1, ()),  # a negative vertex count
        (3.0, ()),  # a vertex count that is not an int
        (True, ((0, 1),)),
        (3, ([0, 1],)),  # an edge that is not a tuple
        (3, ((0, 1, 2),)),  # not a pair
        (3, ((0,),)),
        (3, ((0, None),)),  # endpoints that do not compare
    ],
)
def test_a_graph_refuses_edges_outside_the_canonical_format(n, edges):
    # unchecked, each of these reaches the search and the graph core,
    # which raise IndexError or answer for a graph that is not simple
    with pytest.raises(InvalidGraph):
        Graph(n, edges)
    with pytest.raises(InvalidGraph):
        Graph(3, ((0, 1),))._replace(n=n, edges=edges)
    with pytest.raises(InvalidGraph):
        Graph._make((n, edges))


def test_a_graph_refuses_an_edge_that_is_a_tuple_subclass():
    message = r"^edges must be ascending pairs 0 <= u < v < 3, got \(0, 1\)$"
    with pytest.raises(InvalidGraph, match=message):
        Graph(3, (Pair((0, 1)),))
    assert build_graph(3, (Pair((0, 1)),)) == Graph(3, ((0, 1),))


@st.composite
def edge_tuples(draw):
    """(n, edges): a canonical edge tuple, or one broken by a list edge, a
    reversed pair, an endpoint out of range, a loop, a repeat, two edges
    out of order, a 3-tuple, or a negative or non-int n."""
    n = size = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["list", "reverse", "range", "loop", "repeat", "swap", "triple", "n"]
        ))
        at = draw(st.integers(0, len(edges)))
        if kind == "range":
            edges.insert(at, (draw(st.integers(-2, size + 2)), draw(st.integers(size, size + 2))))
        elif kind == "loop":
            u = draw(st.integers(-1, size))
            edges.insert(at, (u, u))
        elif kind == "n":
            n = draw(st.sampled_from([-1, -5, float(size), size == 1, None, str(size)]))
        elif not edges:
            continue
        elif kind == "repeat":
            edges.insert(at, draw(st.sampled_from(edges)))
        elif kind == "swap":
            i, j = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, len(edges) - 1))
            edges[i], edges[j] = edges[j], edges[i]
        else:
            i = draw(st.integers(0, len(edges) - 1))
            u, v = edges[i][:2]
            edges[i] = {"list": [u, v], "reverse": (v, u), "triple": (u, v, v)}[kind]
    return n, tuple(edges)


@settings(max_examples=400)
@given(edge_tuples())
def test_a_graph_takes_exactly_the_edges_build_graph_would_return(case):
    n, edges = case
    made = outcome(Graph, n, edges)
    built = outcome(build_graph, n, edges)
    if made[0] == "ok":
        assert built == made
        # build_graph hands over the very edge objects it was given
        assert all(e is given for e, given in zip(built[1].edges, edges))
    else:
        assert made[0] is InvalidGraph
        assert built[0] != "ok" or built[1].edges != edges


@settings(max_examples=200)
@given(st.integers(1, 30), st.data())
def test_adjacency_rows_come_out_ascending(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [e if data.draw(st.booleans()) else e[::-1] for e in edges]
    g = build_graph(n, edges)
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    for v, row in enumerate(g.adjacency()):
        assert all(a < b for a, b in zip(row, row[1:])), (v, row)
        assert set(row) == neighbours[v]


def test_adjacency_rows_of_large_random_graphs_come_out_ascending():
    rng = random.Random(20261020)
    graphs = [random_graph(rng, 300, 3000), random_tree(rng, 2000), cube(), star(50)]
    for g in graphs:
        for v, row in enumerate(g.adjacency()):
            assert row == sorted(set(row)), (v, row)


def test_family_builders_refuse_empty_parts():
    with pytest.raises(BadParameters, match=r"^need at least one vertex, got 0$"):
        families.complete(0)
    with pytest.raises(BadParameters, match=r"^parts must be nonempty, got \(0, 1\)$"):
        complete_bipartite(0, 1)


def test_family_builders_refuse_more_edges_than_the_cap(monkeypatch):
    assert families.MAX_EDGES >= 999_999  # p1000000 still builds
    monkeypatch.setattr(families, "MAX_EDGES", 12)
    for build, fits, too_big in [
        (families.path, (13,), (14,)),
        (families.cycle, (12,), (13,)),
        (families.star, (12,), (13,)),
        (families.double_star, (5, 6), (6, 6)),
        (families.cp3, (6,), (7,)),
        (families.complete, (5,), (6,)),
        (families.complete_bipartite, (3, 4), (1, 13)),
    ]:
        assert build(*fits).m <= 12
        with pytest.raises(BadParameters, match=r"edges, more than the 12 allowed$"):
            build(*too_big)


def test_parse_format_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 10)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        assert parse_edge_list(edge_list_text(g)) == g


def test_parse_edge_list_reports_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("3 2\n0 1\n1 x\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")
    # the first interior blank line, not the last line
    with pytest.raises(ParseError, match=r"^line 3: expected 'u v', got a blank line$"):
        parse_edge_list("3 2\n0 1\n\n1 2\n")
    with pytest.raises(ParseError, match=r"^line 2: "):
        parse_edge_list("3 1\n\n\n0 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: expected header 'n m'"),
        ("a b\n", "line 1: expected two integers in header, got 'a b'"),
        ("-1 0\n", "line 1: counts must be nonnegative"),
        ("2 1\n0 0\n", "invalid edge list: edge (0, 0) is a loop"),
    ],
)
def test_parse_edge_list_rejects_bad_headers_and_loops(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_edge_list(text)


def test_parse_tree_example():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g == path(4)
    assert parse_edge_list("4 3\n0 1\n1 2\n2 3\n\n  \n") == g


# --- networkx cross-checks -------------------------------------------------


def to_nx(g):
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(range(g.n))
    return h


def assert_components_match_networkx(g):
    h = to_nx(g)
    expected = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
    comps = components(g)
    assert [c.vertices for c in comps] == expected
    for c in comps:
        lifted = sorted(c.parent_edge(e) for e in c.graph.edges)
        assert lifted == sorted(canonical_edge(*e) for e in h.edges(c.vertices))


def assert_levels_match_networkx(g, root):
    p = level_partition(g, root=root)
    dist = nx.single_source_shortest_path_length(to_nx(g), root)
    assert p.root == root
    assert sorted(v for layer in p.levels for v in layer) == sorted(dist)
    for i, layer in enumerate(p.levels):
        assert list(layer) == sorted(layer)
        assert all(dist[v] == i for v in layer)


def small_tree_forest(rng, n):
    """Trees of 1..6 vertices on shuffled ids, so components interleave."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    start = 0
    while start < n:
        size = min(rng.randint(1, 6), n - start)
        tree = random_tree(rng, size)
        edges += [(ids[start + u], ids[start + v]) for u, v in tree.edges]
        start += size
    return build_graph(n, edges)


def test_deep_path_matches_networkx():
    g = path(20000)
    assert_components_match_networkx(g)
    for root in (0, 1, 9999, 19999):
        assert_levels_match_networkx(g, root)
    assert level_partition(g).d == 19998


def test_forest_of_small_trees_matches_networkx():
    rng = random.Random(20261018)
    g = small_tree_forest(rng, 12000)
    assert len(components(g)) > 3000
    assert_components_match_networkx(g)
    for root in rng.sample(range(g.n), 50):
        assert_levels_match_networkx(g, root)


@settings(max_examples=150)
@given(st.integers(1, 30), st.data())
def test_random_graphs_match_networkx(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = build_graph(n, edges)
    assert_components_match_networkx(g)
    assert_levels_match_networkx(g, data.draw(st.integers(0, n - 1)))
    assert_levels_match_networkx(g, default_root(g))


@pytest.mark.parametrize("text", [None, b"2 1\n0 1\n", ["2 1", "0 1"]])
def test_parse_edge_list_refuses_what_is_not_text(text):
    # None once raised a bare AttributeError
    message = f"^an edge list must be text, got {type(text).__name__}$"
    with pytest.raises(ParseError, match=message):
        parse_edge_list(text)


# --- the bulk build_graph against the edge-by-edge loop it replaced ---------


def seed_build_graph(n: int, edges) -> Graph:
    """build_graph as it was before its bulk fast path (verbatim, but for
    the one InvalidGraph that replaced its three exception classes, and
    the edge that is not a pair of ints, now named as InvalidGraph)."""
    if n < 0:
        raise InvalidGraph(f"vertex count {n} is negative")
    canon: list = []
    seen: set = set()
    for e in edges:
        if len(e) != 2:
            raise InvalidGraph(f"edge {e!r} is not a pair (u, v)")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise InvalidGraph(f"edge {e!r} has an endpoint that is not an int")
        if u == v:
            raise InvalidGraph(f"edge ({u}, {v}) is a loop")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"edge ({u}, {v}) leaves vertex range [0, {n})")
        e = canonical_edge(u, v)
        if e in seen:
            raise InvalidGraph(f"edge {e} appears more than once")
        seen.add(e)
        canon.append(e)
    canon.sort()
    return Graph(n, tuple(canon))


def outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@st.composite
def faulty_edge_lists(draw):
    """Edge lists with loops, repeats in either orientation, endpoints out
    of range, and now and then a bool, a float, None or a 3-element edge."""
    n = draw(st.integers(-1, 9))
    vertex = st.integers(-2, max(n, 0) + 2)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    for _ in range(draw(st.integers(0, 3))):
        if not edges:
            break
        i = draw(st.integers(0, len(edges) - 1))
        u, v = edges[i][:2]
        kind = draw(st.sampled_from(["repeat", "reverse", "loop", "odd", "short"]))
        if kind == "repeat":
            edges.insert(draw(st.integers(0, len(edges))), (u, v))
        elif kind == "reverse":
            edges.insert(draw(st.integers(0, len(edges))), (v, u))
        elif kind == "loop":
            edges[i] = (u, u)
        elif kind == "odd":
            edges[i] = (draw(st.sampled_from([True, False, 1.0, 0.5, None])), v)
        else:
            edges[i] = (u, v, u)
    shape = draw(st.sampled_from([list, tuple, "lists", "generator"]))
    if shape == "lists":
        return n, [list(e) for e in edges]
    if shape == "generator":
        return n, (e for e in edges)
    return n, shape(edges)


@settings(max_examples=400)
@given(faulty_edge_lists())
def test_build_graph_matches_the_edge_by_edge_loop(case):
    n, edges = case
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
        assert outcome(build_graph, n, iter(edges)) == outcome(seed_build_graph, n, edges)
    assert outcome(build_graph, n, edges) == outcome(seed_build_graph, n, edges)


# --- canonical input edges are shared, not copied -------------------------


def seed_canonical_edges(n: int, edges) -> list:
    """graph._canonical_edges as it was before it kept canonical input
    tuples (verbatim)."""
    if n < 0:
        raise InvalidGraph(f"vertex count {n} is negative")
    if isinstance(edges, (list, tuple)):
        try:
            # a loop or an endpoint out of range canonicalizes to None
            canon = [
                (u, v) if 0 <= u < v < n else (v, u) if 0 <= v < u < n else None
                for u, v in edges
            ]
            distinct = set(canon)
            if len(distinct) == len(canon) and None not in distinct:
                return canon
        except (TypeError, ValueError):  # the loop names the faulty edge
            pass
    canon = []
    seen: set = set()
    for u, v in edges:
        if u == v:
            raise InvalidGraph(f"edge ({u}, {v}) is a loop")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"edge ({u}, {v}) leaves vertex range [0, {n})")
        e = canonical_edge(u, v)
        if e in seen:
            raise InvalidGraph(f"edge {e} appears more than once")
        seen.add(e)
        canon.append(e)
    return canon


class Pair(tuple):
    """A tuple subclass, which a graph must not keep as an edge."""


def test_build_graph_keeps_canonical_plain_tuples():
    edges = [(0, 1), (0, 3), (1, 2), (2, 3)]
    g = build_graph(4, edges)
    assert all(g.edges[i] is edges[i] for i in range(len(edges)))
    assert all(e is edges[i] for i, e in enumerate(build_graph(4, tuple(edges)).edges))


def test_build_graph_copies_reversed_edges_lists_and_subclasses():
    edges = [(1, 0), [1, 2], Pair((2, 3)), Pair((4, 3)), (0, 4)]
    g = build_graph(5, edges)
    assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert all(type(e) is tuple for e in g.edges)
    assert not any(e is x for e in g.edges for x in edges[:4])
    assert g.edges[1] is edges[4]


@st.composite
def mixed_edge_lists(draw):
    """Edge lists mixing plain tuples, reversed tuples, 2-lists and tuple
    subclasses, with loops, repeats in either order and endpoints out of
    range."""
    n = draw(st.integers(0, 9))
    vertex = st.integers(-2, n + 2)
    shapes = st.sampled_from([tuple, list, Pair, "reversed"])
    edges = []
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=14)):
        shape = draw(shapes)
        if draw(st.integers(0, 5)) == 0 and edges:  # a repeat, in either order
            u, v = draw(st.sampled_from(edges))[:: draw(st.sampled_from([1, -1]))]
        if shape == "reversed":
            edges.append((max(u, v), min(u, v)))
        else:
            edges.append(shape((u, v)))
    container = draw(st.sampled_from([list, tuple]))
    return n, container(edges)


@settings(max_examples=400)
@given(mixed_edge_lists())
def test_canonical_edges_fail_as_before_and_share_what_they_keep(case):
    n, edges = case
    got = outcome(_canonical_edges, n, edges)
    assert got == outcome(seed_canonical_edges, n, edges)
    if got[0] == "ok":
        kept = {e: e for e in build_graph(n, edges).edges}  # each edge as the graph holds it
        for given_edge in edges:
            e = kept[canonical_edge(*given_edge)]
            assert type(e) is tuple
            assert (e is given_edge) == (type(given_edge) is tuple and e == given_edge)


def test_graph_from_canonical_tuples_keeps_under_16_bytes_per_edge():
    m = 100_000
    edges = [(i, i + 1) for i in range(m)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(m + 1, edges)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.m == m
    assert kept < 16 * m
