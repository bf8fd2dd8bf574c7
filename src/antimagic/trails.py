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

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import InvalidTrails
from .graph import Edge, Graph, canonical_edge


class Trail(namedtuple("Trail", "vertices kind")):
    """An open trail through `vertices`, of `kind` "W", "M" or "N"."""

    __slots__ = ()

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [canonical_edge(vs[j], vs[j + 1]) for j in range(len(vs) - 1)]

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
        sigma_edges: list[Edge] = []
        for v, e in self.sigma:
            if v not in e:
                raise InvalidTrails(f"sigma edge {e} is not incident to vertex {v}")
            if v not in deep:
                raise InvalidTrails(f"sigma key {v} is not a deep-side vertex")
            sigma_edges.append(e)
        if len(set(sigma_edges)) != len(sigma_edges):
            raise InvalidTrails("sigma is not injective")
        if sorted(v for v, _ in self.sigma) != sorted(deep):
            raise InvalidTrails("sigma must choose exactly one edge per deep vertex")

        covered: list[Edge] = list(sigma_edges)
        ends: list[int] = []
        for t in self.trails:
            if len(t.vertices) < 2:
                raise InvalidTrails("trail with no edges")
            for a, b in zip(t.vertices, t.vertices[1:]):
                covered.append(canonical_edge(a, b))
            first, last = t.vertices[0], t.vertices[-1]
            if first == last:
                raise InvalidTrails(f"trail {t.vertices} is closed")
            ends.extend((first, last))
            expected = _kind(first, last, deep)
            if t.kind != expected:
                raise InvalidTrails(
                    f"trail {t.vertices} typed {t.kind}, endpoints say {expected}"
                )
        if len(set(ends)) != len(ends):
            raise InvalidTrails("two trails share an initial or terminal vertex")
        if len(set(covered)) != len(covered):
            raise InvalidTrails("an edge is covered twice")
        if set(covered) != set(self.cross.edges):
            raise InvalidTrails("sigma plus trails do not partition the cross edges")


def _edge_components(edges: Sequence[Edge]) -> list[list[Edge]]:
    """Group edges by connected component, components ordered by least vertex."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    comp_of: dict[int, int] = {}
    count = 0
    for start in sorted(adj):
        if start in comp_of:
            continue
        comp_of[start] = count
        stack = [start]
        while stack:
            w = stack.pop()
            for nb in adj[w]:
                if nb not in comp_of:
                    comp_of[nb] = count
                    stack.append(nb)
        count += 1
    out: list[list[Edge]] = [[] for _ in range(count)]
    for e in edges:
        out[comp_of[e[0]]].append(e)
    return out


def _euler_steps(
    adj: dict[int, list[tuple[int, int]]], start: int, edge_count: int
) -> list[tuple[int, int, int]]:
    """Closed walk using every edge once, as (from, edge id, to) steps."""
    ptr = {v: 0 for v in adj}
    used = [False] * edge_count
    stack: list[tuple[int, int | None, int | None]] = [(start, None, None)]
    popped: list[tuple[int, int | None, int | None]] = []
    while stack:
        v = stack[-1][0]
        lst = adj[v]
        i = ptr[v]
        while i < len(lst) and used[lst[i][1]]:
            i += 1
        ptr[v] = i
        if i == len(lst):
            popped.append(stack.pop())
        else:
            nbr, eid = lst[i]
            used[eid] = True
            stack.append((nbr, eid, v))
    popped.reverse()
    return [(frm, eid, v) for v, eid, frm in popped if eid is not None]


def _odd_vertices(comp: Sequence[Edge]) -> list[int]:
    """The vertices of odd degree in an edge set, ascending."""
    deg: dict[int, int] = {}
    for u, v in comp:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return sorted(v for v, dv in deg.items() if dv % 2 == 1)


def _open_trails(comp: Sequence[Edge], odd: list[int]) -> list[list[int]]:
    """Split a connected edge set into open trails ending at its odd vertices.

    `odd` must be the component's odd-degree vertices, and not empty.
    Returns trail vertex sequences.
    """
    n_real = len(comp)
    records: list[Edge] = list(comp)
    records += [(odd[j], odd[j + 1]) for j in range(0, len(odd), 2)]
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid, (u, v) in enumerate(records):
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    for row in adj.values():
        row.sort()
    steps = _euler_steps(adj, odd[0], len(records))
    cut = next(i for i, s in enumerate(steps) if s[1] >= n_real)
    steps = steps[cut + 1 :] + steps[: cut + 1]
    trails: list[list[int]] = []
    current: list[tuple[int, int, int]] = []
    for frm, eid, to in steps:
        if eid >= n_real:
            if not current:
                raise InvalidTrails("virtual edges ended up adjacent in the walk")
            trails.append([current[0][0]] + [s[2] for s in current])
            current = []
        else:
            current.append((frm, eid, to))
    if current:
        raise InvalidTrails("walk did not end on a virtual edge")
    return trails


def _kind(first: int, last: int, deep: set[int]) -> str:
    """The kind of a trail with these two ends."""
    return {(True, True): "M", (False, False): "W"}.get((first in deep, last in deep), "N")


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

    Raises InvalidTrails when the input is not a cross block: an edge
    without exactly one deep endpoint, or a deep vertex with no incident
    edge.
    """
    deep_sorted = sorted(set(deep))
    incident: dict[int, list[Edge]] = {v: [] for v in deep_sorted}
    for e in h.edges:
        u, v = e
        u_deep = u in incident
        if u_deep == (v in incident):
            raise InvalidTrails(f"edge {e} does not join a deep vertex to a shallow one")
        incident[u if u_deep else v].append(e)
    for v in deep_sorted:
        if not incident[v]:
            raise InvalidTrails(f"deep vertex {v} has no incident cross edge")

    def leftover(sigma: dict[int, Edge]) -> tuple[list[list[Edge]], list[list[int]]]:
        reserved = set(sigma.values())
        comps = _edge_components([e for e in h.edges if e not in reserved])
        return comps, [_odd_vertices(comp) for comp in comps]

    sigma = {v: incident[v][0] for v in deep_sorted}
    comps, odds = leftover(sigma)
    if not all(odds):
        comp_of = {x: i for i, comp in enumerate(comps) for e in comp for x in e}
        opened: set[int | None] = set()
        for i, comp in enumerate(comps):
            if odds[i] or i in opened:
                continue
            v = max(a if a in incident else b for a, b in comp)
            a, b = sigma[v]
            opened.add(comp_of.get(b if a == v else a))
            # v has even degree in C, and all its edges but sigma[v] lie in C
            sigma[v] = incident[v][1]
        comps, odds = leftover(sigma)

    deep_set = set(deep_sorted)
    dec = TrailDecomposition(
        cross=h,
        deep=tuple(deep_sorted),
        sigma=tuple(sigma.items()),
        trails=tuple(
            _classify(seq, deep_set)
            for comp, odd in zip(comps, odds)
            for seq in _open_trails(comp, odd)
        ),
    )
    dec.validate()
    return dec


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
    total = sum(t.edge_count for t in dec.trails)
    if total != len(pool):
        raise InvalidTrails(f"{len(pool)} labels for {total} trail edges")
    for t in dec.trails:
        if t.kind in ("W", "M") and t.edge_count % 2 == 1:
            raise InvalidTrails(f"{t.kind} trail {t.vertices} has odd length")
    if not pool:
        return {}

    s, l = pool[0], pool[-1]
    lo_used = 0
    hi_used = 0
    deep = set(dec.deep)
    out: dict[Edge, int] = {}

    def orient(t: Trail, start_deep: bool) -> Trail:
        if (t.vertices[0] in deep) == start_deep:
            return t
        if (t.vertices[-1] in deep) == start_deep:
            return t.reversed()
        return t

    def assign(t: Trail, start_high: bool) -> None:
        nonlocal lo_used, hi_used
        for j, e in enumerate(t.edges()):
            if start_high == (j % 2 == 0):
                out[e] = l - hi_used
                hi_used += 1
            else:
                out[e] = s + lo_used
                lo_used += 1

    ws = [t for t in dec.trails if t.kind == "W"]
    ms = [t for t in dec.trails if t.kind == "M"]
    ns = sorted(
        (t for t in dec.trails if t.kind == "N"),
        key=lambda t: -t.edge_count,
    )
    labeled: list[Trail] = []
    for t in ws:
        assign(t, start_high=False)
        labeled.append(t)
    for t in ms:
        assign(t, start_high=True)
        labeled.append(t)
    for j in range(0, len(ns) - 1, 2):
        first = orient(ns[j], start_deep=True)
        second = orient(ns[j + 1], start_deep=False)
        assign(first, start_high=True)
        assign(second, start_high=False)
        labeled.extend((first, second))
    if len(ns) % 2 == 1:
        last = orient(ns[-1], start_deep=True)
        assign(last, start_high=True)
        labeled.append(last)

    if lo_used + hi_used != len(pool):
        raise InvalidTrails("label block not fully consumed")
    _check_pair_sums(labeled, deep, out, s, l)
    return out


def _check_pair_sums(
    trails: list[Trail], deep: set[int], out: dict[Edge, int], s: int, l: int
) -> None:
    # the whole construction leans on these sums; fail loudly if broken
    for t in trails:
        es = t.edges()
        vs = t.vertices
        for j in range(len(es) - 1):
            w = vs[j + 1]
            pair = out[es[j]] + out[es[j + 1]]
            allowed = (s + l, s + l - 1) if w in deep else (s + l, s + l + 1)
            if pair not in allowed:
                raise InvalidTrails(
                    f"internal vertex {w} of trail {t.vertices} sees pair sum "
                    f"{pair}, expected one of {allowed}"
                )
