"""Trail decompositions of the cross blocks between two adjacent levels.

Given the bipartite block between level i and level i-1, the odd-degree
construction reserves one incident cross edge per level-i vertex (the sigma
choice) and needs the leftover edges to split into edge-disjoint open
trails, no two of which share an initial or terminal vertex. A leftover
component admits such a split exactly when it has odd-degree vertices:
pairing the odd vertices with virtual edges, walking one closed trail
through everything, and cutting at the virtual edges produces open trails
whose two ends are odd vertices, each used once.

Trails are classified by where their endpoints live: W has both ends on
the shallow side (level i-1), M both on the deep side (level i), N one on
each. In a bipartite block W and M trails have even length and N trails
odd length.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Sequence
from operator import contains

from .errors import InvalidTrails
from .graph import Edge, Graph


class Trail(namedtuple("Trail", "vertices kind")):
    """An open trail through `vertices`, of `kind` "W", "M" or "N"."""

    __slots__ = ()

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [(a, b) if a <= b else (b, a) for a, b in zip(vs, vs[1:])]

    def reversed(self) -> Trail:
        return Trail(tuple(reversed(self.vertices)), self.kind)


class TrailDecomposition(namedtuple("TrailDecomposition", "cross deep sigma trails")):
    """A sigma choice plus open trails covering the rest of a cross block.

    `deep` holds the level-i vertices, ascending; `sigma` pairs each with
    its reserved edge, as (deep vertex, edge); `trails` covers the rest of
    the `cross` block's edges.
    """

    __slots__ = ()

    def validate(self) -> None:
        """Raise InvalidTrails unless every structural invariant holds."""
        deep = set(self.deep)
        keys = [v for v, _ in self.sigma]
        sigma_edges = [e for _, e in self.sigma]
        # one pass over all pairs accepts; the scan names the first fault
        if not (all(map(contains, sigma_edges, keys)) and deep.issuperset(keys)):
            for v, e in self.sigma:
                if v not in e:
                    raise InvalidTrails(f"sigma edge {e} is not incident to vertex {v}")
                if v not in deep:
                    raise InvalidTrails(f"sigma key {v} is not a deep-side vertex")
        distinct = set(sigma_edges)
        if len(distinct) != len(sigma_edges):
            raise InvalidTrails("sigma is not injective")
        if sorted(keys) != sorted(deep):
            raise InvalidTrails("sigma must choose exactly one edge per deep vertex")

        for vs, kind in self.trails:
            if len(vs) < 2:
                raise InvalidTrails("trail with no edges")
            first, last = vs[0], vs[-1]
            if first == last:
                raise InvalidTrails(f"trail {vs} is closed")
            expected = _kind(first, last, deep)
            if kind != expected:
                raise InvalidTrails(f"trail {vs} typed {kind}, endpoints say {expected}")
        ends = [x for vs, _ in self.trails for x in (vs[0], vs[-1])]
        if len(set(ends)) != len(ends):
            raise InvalidTrails("two trails share an initial or terminal vertex")
        walked = [e for t in self.trails for e in t.edges()]
        distinct.update(walked)
        if len(distinct) != len(sigma_edges) + len(walked):
            raise InvalidTrails("an edge is covered twice")
        if distinct != set(self.cross.edges):
            raise InvalidTrails("sigma plus trails do not partition the cross edges")


def _kind(first: int, last: int, deep: set[int]) -> str:
    """The kind of a trail with these two ends."""
    first_deep = first in deep
    if first_deep != (last in deep):
        return "N"
    return "M" if first_deep else "W"


def _classify(seq: list[int], deep: set[int]) -> Trail:
    kind = _kind(seq[0], seq[-1], deep)
    # N trails start on the deep side, W and M trails at their smaller end
    flip = seq[0] not in deep if kind == "N" else seq[0] > seq[-1]
    return Trail(tuple(seq[::-1] if flip else seq), kind)


def find_sigma_and_trails(h: Graph, deep: Iterable[int]) -> TrailDecomposition:
    """Reserve one cross edge per deep vertex so the rest splits into trails.

    Each deep vertex first reserves its first incident edge in the order of
    `h.edges`. The leftover edges split into open trails unless some leftover
    component C is closed (every vertex even). Each closed C is repaired
    once, in order of least vertex: its highest-id deep vertex v gives back
    its reserved edge (v, w) and reserves its first edge (v, x) of C
    instead. Then x turns odd and stays joined to C, because an all-even
    component has no bridge; (v, w) joins w's component to C. So C stops
    being closed, and w's component, if it was closed too, is merged into
    C and needs no repair of its own. Whichever repaired component of a
    merged group comes last keeps its x odd, as no later swap lands in it.

    One pass over `h.edges` checks the block, makes the first reservations
    and builds one adjacency of the leftover edges. That adjacency serves
    the leftover components, their odd vertices and every Euler walk, so
    past one sort of its vertices the split takes time linear in the
    block. Its rows hold (neighbour, edge index) pairs in edge order, which
    is ascending neighbour order because `h.edges` is sorted.

    Raises InvalidTrails when the input is not a cross block: an edge
    without exactly one deep endpoint, or a deep vertex with no incident
    edge.
    """
    deep_sorted = sorted(set(deep))
    deep_set = set(deep_sorted)
    edges = h.edges
    adj: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    sigma: dict[int, int] = {}  # deep vertex -> index of its reserved edge
    for eid, e in enumerate(edges):
        u, v = e
        if u in deep_set:
            if v in deep_set:
                raise InvalidTrails(f"edge {e} does not join a deep vertex to a shallow one")
            if u not in sigma:
                sigma[u] = eid
                continue
        elif v not in deep_set:
            raise InvalidTrails(f"edge {e} does not join a deep vertex to a shallow one")
        elif v not in sigma:
            sigma[v] = eid
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    if len(sigma) < len(deep_sorted):
        v = next(v for v in deep_sorted if v not in sigma)
        raise InvalidTrails(f"deep vertex {v} has no incident cross edge")

    comp_of, comps = _leftover(adj)
    if not all(odd for odd, _ in comps):
        opened: set[int | None] = set()
        for i, (odd, verts) in enumerate(comps):
            if odd or i in opened:
                continue
            v = max(x for x in verts if x in deep_set)
            a, b = edges[sigma[v]]
            w = b if a == v else a
            opened.add(comp_of.get(w))
            # v has even degree in C, and all its edges but sigma[v] lie in C
            x, eid = adj[v][0]
            adj[v].remove((x, eid))
            adj[x].remove((v, eid))
            insort(adj[v], (w, sigma[v]))
            insort(adj[w], (v, sigma[v]))
            sigma[v] = eid
        comp_of, comps = _leftover(adj)

    dec = TrailDecomposition(
        cross=h,
        deep=tuple(deep_sorted),
        sigma=tuple(zip(deep_sorted, [edges[sigma[v]] for v in deep_sorted])),
        trails=tuple(_open_trails(adj, comps, len(edges), deep_set)),
    )
    dec.validate()
    return dec


def _leftover(
    adj: dict[int, list[tuple[int, int]]],
) -> tuple[dict[int, int], list[tuple[list[int], list[int]]]]:
    """The connected components of an adjacency, in order of least vertex.

    Returns the component index of every vertex with an edge and, per
    component, its odd-degree vertices ascending and all its vertices.
    """
    comp_of: dict[int, int] = {}
    comps: list[tuple[list[int], list[int]]] = []
    for start in sorted(adj):
        if start in comp_of or not adj[start]:
            continue
        c = len(comps)
        comp_of[start] = c
        verts = [start]
        odd = []
        for w in verts:  # grows while it is walked: a breadth-first queue
            row = adj[w]
            if len(row) % 2:
                odd.append(w)
            for x, _ in row:
                if x not in comp_of:
                    comp_of[x] = c
                    verts.append(x)
        odd.sort()
        comps.append((odd, verts))
    return comp_of, comps


def _open_trails(
    adj: dict[int, list[tuple[int, int]]],
    comps: list[tuple[list[int], list[int]]],
    real: int,
    deep: set[int],
) -> list[Trail]:
    """Split each component into open trails ending at its odd vertices.

    `real` is the number of edges; every odd vertex list must be nonempty.
    Virtual edges pair up each component's odd vertices, one closed walk
    from the least of them takes every edge (Hierholzer, rows scanned in
    order), and cutting it at the virtual edges, from the first one on,
    leaves the trails.
    """
    used = [False] * real
    rest = {v: iter(row) for v, row in adj.items()}  # where each row scan resumes
    trails: list[Trail] = []
    for odd, _ in comps:
        # virtual edges take the indices after the real ones, so each
        # sorts after a real edge to the same neighbour
        for j in range(0, len(odd), 2):
            a, b = odd[j], odd[j + 1]
            insort(adj[a], (b, len(used)))
            insort(adj[b], (a, len(used)))
            used.append(False)
        stack = [odd[0]]
        entered = [-1]  # the edge each stacked vertex was reached by
        walk: list[int] = []  # the closed walk, backwards
        cuts: list[int] = []  # where in it a virtual edge was taken
        while stack:
            for x, eid in rest[stack[-1]]:
                if not used[eid]:
                    used[eid] = True
                    stack.append(x)
                    entered.append(eid)
                    break
            else:
                if entered.pop() >= real:
                    cuts.append(len(walk))
                walk.append(stack.pop())
        walk.reverse()
        # walk[j] is reached by a virtual edge for each j in cuts, and the
        # first trail starts after the first one; the last wraps round
        cuts = [len(walk) - 1 - j for j in reversed(cuts)]
        for j, k in zip(cuts, cuts[1:]):
            trails.append(_classify(walk[j:k], deep))
        trails.append(_classify(walk[cuts[-1] :] + walk[1 : cuts[0]], deep))
    return trails


def label_trails(dec: TrailDecomposition, labels: Sequence[int] | range) -> dict[Edge, int]:
    """Assign a contiguous label block to the trail edges of a decomposition.

    Labels are handed out from both ends of the block: each trail
    alternates low/high picks so that consecutive edges at an internal
    shallow vertex sum to s+l or s+l+1 and at an internal deep vertex to
    s+l or s+l-1, where s and l bound the block. W trails start low from
    their smaller endpoint, M trails start high. N trails are paired
    longest-first: the first of a pair starts high from its deep endpoint,
    the second starts low from its shallow endpoint, and a leftover N
    trail is labeled like a first. Returns the edge -> label mapping for
    just the trail edges.
    """
    pool = list(labels)
    if pool != sorted(pool) or (pool and pool != list(range(pool[0], pool[-1] + 1))):
        raise InvalidTrails(f"labels must form an ascending run, got {pool}")
    trails = dec.trails
    total = sum(len(vs) for vs, _ in trails) - len(trails)
    if total != len(pool):
        raise InvalidTrails(f"{len(pool)} labels for {total} trail edges")
    for vs, kind in trails:
        if kind in ("W", "M") and len(vs) % 2 == 0:
            raise InvalidTrails(f"{kind} trail {vs} has odd length")
    if not pool:
        return {}

    deep = set(dec.deep)

    def orient(t: Trail, start_deep: bool) -> Trail:
        if (t.vertices[0] in deep) == start_deep:
            return t
        if (t.vertices[-1] in deep) == start_deep:
            return t.reversed()
        return t

    # (trail, whether its first edge takes a high label), in labeling order
    plan = [(t, False) for t in trails if t.kind == "W"]
    plan += [(t, True) for t in trails if t.kind == "M"]
    ns = sorted((t for t in trails if t.kind == "N"), key=lambda t: -len(t.vertices))
    for j in range(0, len(ns) - 1, 2):
        plan.append((orient(ns[j], start_deep=True), True))
        plan.append((orient(ns[j + 1], start_deep=False), False))
    if len(ns) % 2 == 1:
        plan.append((orient(ns[-1], start_deep=True), True))

    s, l = pool[0], pool[-1]
    lo, hi = s, l  # the next label from each end of the block
    out: dict[Edge, int] = {}
    labeled: list[tuple[Trail, list[Edge]]] = []
    for t, high in plan:
        es = t.edges()
        for e in es:
            if high:
                out[e] = hi
                hi -= 1
            else:
                out[e] = lo
                lo += 1
            high = not high
        labeled.append((t, es))
    if (lo - s) + (l - hi) != len(pool):
        raise InvalidTrails("label block not fully consumed")
    _check_pair_sums(labeled, deep, out, s, l)
    return out


def _check_pair_sums(
    labeled: list[tuple[Trail, list[Edge]]], deep: set[int], out: dict[Edge, int], s: int, l: int
) -> None:
    # the whole construction leans on these sums; fail loudly if broken
    for t, es in labeled:
        for w, e, f in zip(t.vertices[1:], es, es[1:]):
            pair = out[e] + out[f]
            if pair != s + l and pair != (s + l - 1 if w in deep else s + l + 1):
                allowed = (s + l, s + l - 1) if w in deep else (s + l, s + l + 1)
                raise InvalidTrails(
                    f"internal vertex {w} of trail {t.vertices} sees pair sum "
                    f"{pair}, expected one of {allowed}"
                )
