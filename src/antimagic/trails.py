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

import reprlib
from bisect import insort
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Sequence
from itertools import pairwise
from operator import contains

from .errors import InvalidTrails
from .graph import Edge, Graph
from .labeling import _plain_ints


class Trail(namedtuple("Trail", "vertices kind")):
    """An open trail through `vertices`, of `kind` "W", "M" or "N"."""

    __slots__ = ()


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
        try:  # an entry that is no (vertex, edge) pair fails to unpack, to hold v or to hash
            keys = [v for v, _ in self.sigma]
            sigma_edges = [e for _, e in self.sigma]
            incident = all(map(contains, sigma_edges, keys))
            distinct = set(sigma_edges)
        except (TypeError, ValueError):
            bad = reprlib.repr(self.sigma)
            raise InvalidTrails(f"sigma must hold (vertex, edge) pairs, got {bad}") from None
        # keys listing the distinct deep vertices in order need no set of their own
        listed = keys == list(self.deep) and len(keys) == len(deep)
        # one pass over all pairs accepts; the scan names the first fault
        if not (incident and (listed or deep.issuperset(keys))):
            for v, e in self.sigma:
                if v not in e:
                    raise InvalidTrails(f"sigma edge {e} is not incident to vertex {v}")
                if v not in deep:
                    raise InvalidTrails(f"sigma key {v} is not a deep-side vertex")
        if len(distinct) != len(sigma_edges):
            raise InvalidTrails("sigma is not injective")
        if not (listed or len(keys) == len(deep) == len(set(keys))):  # keys lie in deep
            raise InvalidTrails("sigma must choose exactly one edge per deep vertex")

        ends: list[int] = []
        for vs, kind in map(_pair, self.trails):
            if type(vs) is not tuple and type(vs) is not list:
                raise InvalidTrails(f"trail vertices {reprlib.repr(vs)} are not a tuple or a list")
            if len(vs) < 2:
                raise InvalidTrails("trail with no edges")
            first, last = vs[0], vs[-1]
            if first == last:
                raise InvalidTrails(f"trail {vs} is closed")
            expected = _kind(first, last, deep)
            if kind != expected:
                raise InvalidTrails(f"trail {vs} typed {kind}, endpoints say {expected}")
            ends += first, last
        if len(set(ends)) != len(ends):
            raise InvalidTrails("two trails share an initial or terminal vertex")
        walked = [(a, b) if a <= b else (b, a) for vs, _ in self.trails for a, b in pairwise(vs)]
        distinct.update(walked)
        if len(distinct) != len(sigma_edges) + len(walked):
            raise InvalidTrails("an edge is covered twice")
        if distinct != set(self.cross.edges):
            raise InvalidTrails("sigma plus trails do not partition the cross edges")


def _pair(entry: Trail) -> tuple:
    """A trails entry as (vertices, kind); InvalidTrails unless it unpacks so."""
    try:
        vs, kind = entry
    except (TypeError, ValueError):
        raise InvalidTrails(f"trail entry {reprlib.repr(entry)} is not a (vertices, kind) pair") from None
    return vs, kind


def _int_list(values: Iterable[int], what: str) -> list[int]:
    """`values` as a list; InvalidTrails unless each is a plain int."""
    try:
        out = list(values)
    except TypeError:
        raise InvalidTrails(f"expected ints, got {reprlib.repr(values)}") from None
    if not _plain_ints(out):
        bad = next(x for x in out if type(x) is not int)
        raise InvalidTrails(f"{what} {reprlib.repr(bad)} is not an int")
    return out


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
    # tuple.__new__ skips the namedtuple's Python-level __new__, once per trail
    return tuple.__new__(Trail, (tuple(seq[::-1] if flip else seq), kind))


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
    past one sort of its vertices the split costs a constant per edge.
    Its rows hold (neighbour, edge index) pairs in edge order, which is
    ascending neighbour order because `h.edges` is sorted.

    Raises InvalidTrails when the input is not a cross block: a deep
    vertex that is not a plain int, an edge without exactly one deep
    endpoint, or a deep vertex with no incident edge.
    """
    deep_set = set(_int_list(deep, "deep vertex"))
    deep_sorted = sorted(deep_set)
    edges = h.edges
    adj: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    sigma: dict[int, int] = {}  # deep vertex -> index of its reserved edge
    for eid, (u, v) in enumerate(edges):
        if u in deep_set:
            if v in deep_set:
                raise InvalidTrails(f"edge {(u, v)} does not join a deep vertex to a shallow one")
            if u not in sigma:
                sigma[u] = eid
                continue
        elif v not in deep_set:
            raise InvalidTrails(f"edge {(u, v)} does not join a deep vertex to a shallow one")
        elif v not in sigma:
            sigma[v] = eid
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    if len(sigma) < len(deep_sorted):
        v = next(v for v in deep_sorted if v not in sigma)
        raise InvalidTrails(f"deep vertex {v} has no incident cross edge")

    comp_of, comps = _leftover(adj)
    if not all(odd for odd, _, _ in comps):
        opened: set[int | None] = set()
        for i, (odd, verts, _) in enumerate(comps):
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
        sigma=tuple(zip(deep_sorted, map(edges.__getitem__, map(sigma.__getitem__, deep_sorted)))),
        trails=tuple(_open_trails(adj, comps, len(edges), deep_set)),
    )
    dec.validate()
    return dec


def _leftover(
    adj: dict[int, list[tuple[int, int]]],
) -> tuple[dict[int, int], list[tuple[list[int], list[int], int]]]:
    """The connected components of an adjacency, in order of least vertex.

    Returns the component index of every vertex with an edge and, per
    component, its odd vertices ascending, its vertices and degree sum.
    """
    comp_of: dict[int, int] = {}
    comps: list[tuple[list[int], list[int], int]] = []
    for start in sorted(adj):
        if start in comp_of or not adj[start]:
            continue
        c = len(comps)
        comp_of[start] = c
        verts = [start]
        odd = []
        ends = 0
        for w in verts:  # grows while it is walked: a breadth-first queue
            row = adj[w]
            ends += len(row)
            if len(row) % 2:
                odd.append(w)
            for x, _ in row:
                if x not in comp_of:
                    comp_of[x] = c
                    verts.append(x)
        odd.sort()
        comps.append((odd, verts, ends))
    return comp_of, comps


def _open_trails(
    adj: dict[int, list[tuple[int, int]]],
    comps: list[tuple[list[int], list[int], int]],
    real: int,
    deep: set[int],
) -> list[Trail]:
    """Split each component into open trails ending at its odd vertices.

    `real` is the number of edges; every odd vertex list must be nonempty.
    A path (a tree with two odd vertices) is one trail, walked end to end
    unless its breadth-first order, from an end, already is the walk. In
    any other component virtual edges pair up the odd vertices, one closed
    walk from the least of them takes every edge (Hierholzer, rows scanned
    in order), and cutting it at the virtual edges, from the first one on,
    leaves the trails.
    """
    used = [False] * real
    trails: list[Trail] = []
    for odd, verts, ends in comps:
        if len(odd) == 2 and ends == 2 * len(verts) - 2:
            walk = verts
            if verts[0] != odd[0]:  # the search began inside the path
                walk = [odd[0], adj[odd[0]][0][0]]
                while walk[-1] != odd[1]:  # every vertex between the ends has two edges
                    (x, _), (y, _) = adj[walk[-1]]
                    walk.append(y if x == walk[-2] else x)
            trails.append(_classify(walk, deep))
            continue
        # virtual edges take the indices after the real ones, so each
        # sorts after a real edge to the same neighbour
        for j in range(0, len(odd), 2):
            a, b = odd[j], odd[j + 1]
            insort(adj[a], (b, len(used)))
            insort(adj[b], (a, len(used)))
            used.append(False)
        rest = {v: iter(adj[v]) for v in verts}  # where each row scan resumes
        stack = [odd[0]]
        entered = [-1]  # the edge each stacked vertex was reached by
        walk = []  # the closed walk, backwards
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
    just the trail edges. Labels other than plain ints raise InvalidTrails.
    """
    # a range holds only ints, so only other sequences are scanned
    pool = list(labels) if type(labels) is range else _int_list(labels, "label")
    if pool and pool != list(range(pool[0], pool[-1] + 1)):
        raise InvalidTrails(f"labels must form an ascending run, got {pool}")
    trails = list(map(_pair, dec.trails))
    seqs = [vs for vs, _ in trails]
    if not all(type(vs) is tuple or type(vs) is list for vs in seqs):
        raise InvalidTrails(f"trail vertices must be a tuple or a list, got {reprlib.repr(dec.trails)}")
    total = sum(map(len, seqs)) - len(trails)
    if total != len(pool):
        raise InvalidTrails(f"{len(pool)} labels for {total} trail edges")
    for vs, kind in trails:
        if kind in ("W", "M") and len(vs) % 2 == 0:
            raise InvalidTrails(f"{kind} trail {vs} has odd length")
    if not pool:
        return {}

    deep = set(dec.deep)
    # (trail vertices, whether its first edge takes a high label), in
    # labeling order; N trails go longest first (reverse=True keeps ties
    # in order), each first of a pair high from its deep end, each second
    # low from its shallow end
    plan = [(vs, False) for vs, kind in trails if kind == "W"]
    plan += [(vs, True) for vs, kind in trails if kind == "M"]
    ns = sorted([vs for vs, kind in trails if kind == "N"], key=len, reverse=True)
    for j, vs in enumerate(ns):
        first = j % 2 == 0  # the first of a pair, or the one left over
        if (vs[0] in deep) != first and (vs[-1] in deep) == first:
            vs = tuple(reversed(vs))
        plan.append((vs, first))

    s, l = pool[0], pool[-1]
    lo, hi = s, l  # the next label from each end of the block
    out: dict[Edge, int] = {}
    for vs, high in plan:
        for a, b in pairwise(vs):
            e = (a, b) if a <= b else (b, a)
            if high:
                out[e] = hi
                hi -= 1
            else:
                out[e] = lo
                lo += 1
            high = not high
    if (lo - s) + (l - hi) != len(pool):
        raise InvalidTrails("label block not fully consumed")
    _check_pair_sums([vs for vs, _ in plan if len(vs) > 2], deep, out, s, l)
    return out


def _check_pair_sums(
    trails: list[tuple[int, ...]], deep: set[int], out: dict[Edge, int], s: int, l: int
) -> None:
    # the whole construction leans on these sums; fail loudly if broken
    for vs in trails:
        for a, w, b in zip(vs, vs[1:], vs[2:]):
            pair = out[(a, w) if a <= w else (w, a)] + out[(w, b) if w <= b else (b, w)]
            if pair != s + l and pair != (s + l - 1 if w in deep else s + l + 1):
                allowed = (s + l, s + l - 1) if w in deep else (s + l, s + l + 1)
                raise InvalidTrails(
                    f"internal vertex {w} of trail {vs} sees pair sum "
                    f"{pair}, expected one of {allowed}"
                )
