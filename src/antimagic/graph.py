"""Immutable simple graphs, connectivity, and breadth-first level structure.

Vertices are integers 0..n-1. Edges are stored canonically as (min, max)
pairs sorted lexicographically, so two graphs with the same edge set are
equal as values. `Graph` enforces the format: an int n >= 0, and a tuple
of 2-tuples (u, v) of ints with 0 <= u < v < n, strictly ascending.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from functools import cached_property

from .errors import BadParameters, InvalidGraph, ParseError, require_int

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """(u, v) in ascending order; InvalidGraph unless both are ints."""
    if type(u) is not int or type(v) is not int:
        raise InvalidGraph(f"edge {reprlib.repr((u, v))} has an endpoint that is not an int")
    return (u, v) if u <= v else (v, u)


class Graph(namedtuple("Graph", "n edges")):
    """A simple undirected graph on vertices 0..n-1.

    `n` is the vertex count, a plain int >= 0; `edges` the canonical edge
    tuple of plain 2-tuples (u, v) of ints, 0 <= u < v < n, strictly ascending.
    Anything else raises InvalidGraph, also through `_replace`. Unlike the
    other records, a graph has an instance dict: it holds the cached
    adjacency and degrees, and is written only by those caches.
    """

    def __new__(cls, n: int, edges: tuple[Edge, ...]) -> Graph:
        if not isinstance(edges, tuple):
            kind = type(edges).__name__
            raise InvalidGraph(f"edges must be a tuple, got {kind}; build_graph takes any edge list")
        if type(n) is not int or n < 0:
            raise InvalidGraph(f"vertex count must be an int >= 0, got {reprlib.repr(n)}")
        pu = pv = -1  # the previous edge, before every edge; ints compare faster than tuples
        try:
            for e in edges:
                u, v = e
                if not (type(e) is tuple and type(u) is type(v) is int
                        and 0 <= u < v < n and (pu < u or pu == u and pv < v)):
                    break
                pu, pv = e
            else:
                return tuple.__new__(cls, (n, edges))
        except (TypeError, ValueError):  # not a pair
            pass
        raise InvalidGraph(f"edges must be ascending pairs 0 <= u < v < {n}, got {reprlib.repr(e)}")

    @classmethod
    def _make(cls, iterable) -> Graph:
        # `_replace` builds through `_make`; both keep the format check
        return cls(*iterable)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, ascending.

        Built on the first call and cached on the graph: every later call
        returns the same lists, so callers must not mutate them.
        """
        return self._adjacency

    @cached_property
    def _adjacency(self) -> list[list[int]]:
        # ascending as built: the edges (w, v) that give row v its smaller
        # neighbours sort before the edges (v, x) that give it larger ones
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        """Vertex degrees, read off the cached adjacency rows.

        Built on the first call and cached on the graph: every later call
        returns the same list, so callers must not mutate it.
        """
        return self._degrees

    @cached_property
    def _degrees(self) -> list[int]:
        return [len(row) for row in self._adjacency]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects, with InvalidGraph, edges that are not iterable, an n or an
    endpoint that is not an int, an edge that is not a pair, loops,
    repeated vertex pairs (in either order), and endpoints outside
    [0, n). An edge that is already a plain tuple (u, v) with u < v is
    kept, not copied: the graph shares it with its input.
    """
    if not isinstance(edges, (list, tuple)):
        edges = _canonical_edges(n, edges)  # an iterator is read once
    try:
        canon = [
            (e if type(e) is tuple else (u, v)) if u < v else (v, u) for e in edges for u, v in (e,)
        ]
        canon.sort()
        return Graph(n, tuple(canon))
    except (InvalidGraph, TypeError, ValueError):
        _canonical_edges(n, edges)  # names the first faulty edge in input order
        raise


def _canonical_edges(n: int, edges) -> list[Edge]:
    """The fault-naming loop: each edge's canonical form in input order, or
    InvalidGraph naming the first fault in `Graph`'s format. Runs only where
    `Graph` refuses an edge tuple, or to read an iterator once."""
    if type(n) is not int:
        raise InvalidGraph(f"vertex count must be an int, got {reprlib.repr(n)}")
    if n < 0:
        raise InvalidGraph(f"vertex count {n} is negative")
    try:
        edges = iter(edges)
    except TypeError:
        raise InvalidGraph(f"edges must be iterable, got {reprlib.repr(edges)}") from None
    canon = []
    seen: set[Edge] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InvalidGraph(f"edge {reprlib.repr(e)} is not a pair (u, v)") from None
        if type(u) is not int or type(v) is not int:
            raise InvalidGraph(f"edge {reprlib.repr(e)} has an endpoint that is not an int")
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


class Component(namedtuple("Component", "graph vertices")):
    """A connected component re-indexed to 0..k-1.

    `vertices[new_id]` is the original vertex id, so labelings computed on
    the component `graph` can be mapped back onto the parent graph.
    """

    __slots__ = ()

    def parent_edge(self, e: Edge) -> Edge:
        return canonical_edge(self.vertices[e[0]], self.vertices[e[1]])


def _component_vertices(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Component id per vertex, and each component's vertices in BFS order.

    Components are numbered by their smallest vertex id; one pass over the
    adjacency rows finds them all.
    """
    adj = g.adjacency()
    comp_of = [-1] * g.n
    groups: list[list[int]] = []
    for start in range(g.n):
        if comp_of[start] >= 0:
            continue
        cid = len(groups)
        comp_of[start] = cid
        verts = [start]
        for w in verts:  # grows while it is walked: a breadth-first queue
            for nb in adj[w]:
                if comp_of[nb] < 0:
                    comp_of[nb] = cid
                    verts.append(nb)
        groups.append(verts)
    return comp_of, groups


def components(g: Graph) -> list[Component]:
    """Connected components, ordered by their smallest original vertex id."""
    comp_of, groups = _component_vertices(g)
    comp_edges: list[list[Edge]] = [[] for _ in groups]
    for e in g.edges:
        comp_edges[comp_of[e[0]]].append(e)
    out: list[Component] = []
    for verts, edges in zip(groups, comp_edges):
        verts.sort()
        back = {orig: new for new, orig in enumerate(verts)}
        sub_edges = [(back[u], back[v]) for u, v in edges]
        out.append(Component(build_graph(len(verts), sub_edges), tuple(verts)))
    return out


class LevelPartition(namedtuple("LevelPartition", "root levels")):
    """Breadth-first layers from a root: levels[i] holds distance-i vertices."""

    __slots__ = ()

    @property
    def d(self) -> int:
        return len(self.levels) - 1

    def level_of(self) -> dict[int, int]:
        return {v: i for i, layer in enumerate(self.levels) for v in layer}


def default_root(g: Graph) -> int:
    """Lowest-id vertex of maximum degree."""
    if g.n == 0:
        raise BadParameters("a graph with no vertices has no root")
    return _root(range(g.n), g.degrees())


def _root(verts, deg: list[int]) -> int:
    """Lowest-id vertex of maximum degree among `verts`: the root of every
    breadth-first layering the constructors take."""
    top = max(map(deg.__getitem__, verts))
    return min(v for v in verts if deg[v] == top)


def level_partition(g: Graph, root: int | None = None) -> LevelPartition:
    """Distance layers from `root` within the root's component.

    Layer tuples are ascending; callers normally pass connected graphs.
    """
    if root is None:
        root = default_root(g)
    require_int("root", root)
    if not (0 <= root < g.n):
        raise BadParameters(f"root {root} is not a vertex of a {g.n}-vertex graph")
    levels, _ = _breadth_first(g, [root])
    return LevelPartition(root, tuple(tuple(sorted(layer)) for layer in levels))


def _breadth_first(g: Graph, roots: list[int]) -> tuple[list[list[int]], list[int]]:
    """Breadth-first layers from all `roots` at once, and each vertex's parent.

    `levels[d]` holds the depth-d vertices in the order they were found,
    so those reached from earlier roots come first. `parent[v]` is the
    vertex that found v: a root's parent is itself, an unreached vertex's
    is -1.
    """
    adj = g.adjacency()
    parent = [-1] * g.n
    for r in roots:
        parent[r] = r
    levels = [list(roots)]
    for level in levels:  # grows while it is walked
        deeper = []
        for v in level:
            for x in adj[v]:
                if parent[x] < 0:
                    parent[x] = v
                    deeper.append(x)
        if deeper:
            levels.append(deeper)
    return levels, parent


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: a header line "n m" and then m lines "u v".

    Vertex ids are 0-based. Malformed input raises ParseError naming the
    offending 1-based line number; anything but a str raises it too.
    """
    if not isinstance(text, str):
        raise ParseError(f"an edge list must be text, got {type(text).__name__}")
    lines = text.splitlines()
    body = [(no, line.strip()) for no, line in enumerate(lines, start=1)]
    # trailing blank lines are tolerated, interior ones are not
    while body and not body[-1][1]:
        body.pop()
    if not body:
        raise ParseError("line 1: expected header 'n m'")
    no, header = body[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {no}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {no}: expected two integers in header, got {header!r}") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {no}: counts must be nonnegative")
    for no, line in body[1:]:
        if not line:  # an interior one: the trailing ones are gone
            raise ParseError(f"line {no}: expected 'u v', got a blank line")
    if len(body) - 1 != m:
        raise ParseError(
            f"line {body[-1][0] if len(body) > 1 else no}: "
            f"expected {m} edge lines, found {len(body) - 1}"
        )
    edges: list[Edge] = []
    for no, line in body[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {no}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {no}: expected two integers, got {line!r}") from None
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except InvalidGraph as exc:
        raise ParseError(f"invalid edge list: {exc}") from exc
