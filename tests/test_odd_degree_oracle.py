"""construct_odd_degree against a verbatim copy of the code it replaced.

The constructor now files edges into level blocks in one pass, keeps
labels in a list by edge position and vertex sums as labels land, and
`find_sigma_and_trails` splits each cross block over one adjacency. The
copy below is that path as it was: per-level `layer_subgraphs`, a
`partial_vertex_sum` per reserved edge, and per-component adjacencies and
walks. On every all-odd-degree graph both must return the same labels; on
every rejected input both must raise the same exception with the same
message. The trail steps are compared on their own as well.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.constructors import construct_odd_degree
from antimagic.errors import (
    AntimagicError,
    BadParameters,
    InvalidLabeling,
    InvalidTrails,
    WrongGraphClass,
)
from antimagic.families import complete, complete_bipartite, cube, petersen, star
from antimagic.graph import (
    Edge,
    Graph,
    LevelPartition,
    _component_vertices,
    _root,
    build_graph,
    canonical_edge,
    default_root,
)
from antimagic.labeling import EdgeLabeling
from antimagic.trails import Trail, TrailDecomposition, find_sigma_and_trails, label_trails
from conftest import disjoint_union, k32_blocks, k32_fan, pairing_regular

# --- verbatim copy of the replaced path --------------------------------------
# (each name prefixed with seed_, TrailDecomposition.validate written as a
# function of the decomposition, and the Trail record's edge count, edge list
# and reversal spelled out on its vertices)


def seed_validate(self: TrailDecomposition) -> None:
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
        expected = seed_kind(first, last, deep)
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


def seed_edge_components(edges: Sequence[Edge]) -> list[list[Edge]]:
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


def seed_euler_steps(
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


def seed_odd_vertices(comp: Sequence[Edge]) -> list[int]:
    """The vertices of odd degree in an edge set, ascending."""
    deg: dict[int, int] = {}
    for u, v in comp:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return sorted(v for v, dv in deg.items() if dv % 2 == 1)


def seed_open_trails(comp: Sequence[Edge], odd: list[int]) -> list[list[int]]:
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
    steps = seed_euler_steps(adj, odd[0], len(records))
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


def seed_kind(first: int, last: int, deep: set[int]) -> str:
    """The kind of a trail with these two ends."""
    return {(True, True): "M", (False, False): "W"}.get((first in deep, last in deep), "N")


def seed_classify(seq: list[int], deep: set[int]) -> Trail:
    kind = seed_kind(seq[0], seq[-1], deep)
    # N trails start on the deep side, W and M trails at their smaller end
    flip = seq[0] not in deep if kind == "N" else seq[0] > seq[-1]
    return Trail(tuple(seq[::-1] if flip else seq), kind)


def seed_find_sigma_and_trails(h: Graph, deep: Iterable[int]) -> TrailDecomposition:
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
        comps = seed_edge_components([e for e in h.edges if e not in reserved])
        return comps, [seed_odd_vertices(comp) for comp in comps]

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
            seed_classify(seq, deep_set)
            for comp, odd in zip(comps, odds)
            for seq in seed_open_trails(comp, odd)
        ),
    )
    seed_validate(dec)
    return dec


def seed_label_trails(dec: TrailDecomposition, labels: Sequence[int] | range) -> dict[Edge, int]:
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
    total = sum(len(t.vertices) - 1 for t in dec.trails)
    if total != len(pool):
        raise InvalidTrails(f"{len(pool)} labels for {total} trail edges")
    for t in dec.trails:
        if t.kind in ("W", "M") and (len(t.vertices) - 1) % 2 == 1:
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
            return Trail(tuple(reversed(t.vertices)), t.kind)
        return t

    def assign(t: Trail, start_high: bool) -> None:
        nonlocal lo_used, hi_used
        vs = t.vertices
        es = [(a, b) if a <= b else (b, a) for a, b in zip(vs, vs[1:])]
        for j, e in enumerate(es):
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
        key=lambda t: -(len(t.vertices) - 1),
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
    seed_check_pair_sums(labeled, deep, out, s, l)
    return out


def seed_check_pair_sums(
    trails: list[Trail], deep: set[int], out: dict[Edge, int], s: int, l: int
) -> None:
    # the whole construction leans on these sums; fail loudly if broken
    for t in trails:
        vs = t.vertices
        es = [(a, b) if a <= b else (b, a) for a, b in zip(vs, vs[1:])]
        for j in range(len(es) - 1):
            w = vs[j + 1]
            pair = out[es[j]] + out[es[j + 1]]
            allowed = (s + l, s + l - 1) if w in deep else (s + l, s + l + 1)
            if pair not in allowed:
                raise InvalidTrails(
                    f"internal vertex {w} of trail {t.vertices} sees pair sum "
                    f"{pair}, expected one of {allowed}"
                )


def seed_level_partition(g: Graph, root: int | None = None) -> LevelPartition:
    """Distance layers from `root` within the root's component.

    Layer tuples are ascending; callers normally pass connected graphs.
    """
    if root is None:
        root = default_root(g)
    if not (0 <= root < g.n):
        raise BadParameters(f"root {root} is not a vertex of a {g.n}-vertex graph")
    adj = g.adjacency()
    seen = {root}
    layers = [[root]]
    while True:
        nxt = []
        for w in layers[-1]:
            for nb in adj[w]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        if not nxt:
            break
        layers.append(nxt)
    return LevelPartition(root, tuple(tuple(sorted(layer)) for layer in layers))


def seed_layer_subgraphs(g: Graph, p: LevelPartition, i: int) -> tuple[Graph, Graph]:
    """The level-i edge blocks: (edges within level i, edges to level i-1).

    Both are returned on the full vertex range of g so ids stay stable.
    """
    if not (1 <= i <= p.d):
        raise BadParameters(f"layer {i} out of range 1..{p.d}")
    here = set(p.levels[i])
    above = set(p.levels[i - 1])
    adj = g.adjacency()
    intra: list[Edge] = []
    cross: list[Edge] = []
    for v in p.levels[i]:
        for w in adj[v]:
            if w in here:
                if v < w:
                    intra.append((v, w))
            elif w in above:
                cross.append(canonical_edge(v, w))
    return build_graph(g.n, intra), build_graph(g.n, cross)


def seed_partial_vertex_sum(
    g: Graph, labels: Mapping[Edge, int], v: int, excluded: Edge
) -> int:
    """Sum of labels on v's incident edges, skipping the one excluded edge.

    Every other incident edge must already be labeled.
    """
    excluded = canonical_edge(*excluded)
    if v not in excluded:
        raise InvalidLabeling(f"excluded edge {excluded} is not incident to vertex {v}")
    if not (0 <= v < g.n):
        raise InvalidLabeling(f"{v} is not a vertex of a {g.n}-vertex graph")
    total = 0
    for w in g.adjacency()[v]:
        e = canonical_edge(v, w)
        if e == excluded:
            continue
        if e not in labels:
            raise InvalidLabeling(f"edge {e} at vertex {v} has no label yet")
        total += labels[e]
    return total


def seed_construct_odd_degree(g: Graph) -> EdgeLabeling:
    """Same-degree-distinct-sum labeling for graphs whose degrees are all odd.

    Components are labeled in order of least vertex id with consecutive
    label blocks. Within a component, levels from a breadth-first root
    (its lowest-id vertex of maximum degree) are handled deepest first;
    each level labels its internal edges, then the trail edges of a
    cross-block decomposition, then the reserved edge of each level vertex
    in ascending order of the sum already at that vertex.
    """
    deg = g.degrees()
    for v, d in enumerate(deg):
        if d % 2 == 0:
            raise WrongGraphClass(f"vertex {v} has even degree {d}")
    _, comps = _component_vertices(g)
    for verts in comps:
        if len(verts) == 2:
            raise WrongGraphClass(f"component {tuple(sorted(verts))} is a single edge")
    labels: dict[Edge, int] = {}
    nxt = 1
    for verts in comps:
        p = seed_level_partition(g, _root(verts, deg))
        for depth in range(p.d, 0, -1):
            intra, cross = seed_layer_subgraphs(g, p, depth)
            for e in intra.edges:
                labels[e] = nxt
                nxt += 1
            dec = seed_find_sigma_and_trails(cross, p.levels[depth])
            block = sum(len(t.vertices) - 1 for t in dec.trails)
            labels.update(seed_label_trails(dec, range(nxt, nxt + block)))
            nxt += block
            ranked = sorted(
                (seed_partial_vertex_sum(g, labels, v, e), v, e) for v, e in dec.sigma
            )
            for _, _, e in ranked:
                labels[e] = nxt
                nxt += 1
    return EdgeLabeling(g, tuple(labels[e] for e in g.edges), base=0)


# --- inputs -------------------------------------------------------------------


PIECES = ["cubic", "quintic", "k4", "k33", "k8", "k57", "star", "fan", "petersen"]


def piece(kind: str, rng: random.Random, draw) -> tuple[int, list[Edge]]:
    if kind == "cubic":
        n = draw(st.sampled_from([4, 6, 8, 10, 16, 30, 60]))
        return n, pairing_regular(n, 3, rng)
    if kind == "quintic":  # denser blocks: many leftover edges per vertex
        n = draw(st.sampled_from([6, 8, 12, 20]))
        return n, pairing_regular(n, 5, rng)
    if kind == "k4":
        return 4, list(complete(4).edges)
    if kind == "k33":
        return 6, list(complete_bipartite(3, 3).edges)
    if kind == "k8":
        return 8, list(complete(8).edges)
    if kind == "k57":
        return 12, list(complete_bipartite(5, 7).edges)
    if kind == "star":
        leaves = draw(st.sampled_from([3, 5, 7, 9]))
        return leaves + 1, list(star(leaves).edges)
    if kind == "fan":  # its level-2 block takes the sigma repair branch
        return k32_fan(draw(st.sampled_from([1, 3, 5])))
    return 10, list(petersen().edges)


@st.composite
def odd_degree_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(PIECES), min_size=1, max_size=4))
    return disjoint_union([piece(kind, rng, draw) for kind in kinds], rng)


@st.composite
def rejected_graphs(draw):
    """All-odd pieces plus one that breaks the rule: an even-degree vertex
    (a cycle, or a random graph) or a single-edge component."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(PIECES), max_size=3))
    parts = [piece(kind, rng, draw) for kind in kinds]
    bad = draw(st.sampled_from(["k2", "cycle", "random"]))
    if bad == "k2":
        parts.append((2, [(0, 1)]))
    elif bad == "cycle":
        parts.append((5, [(i, (i + 1) % 5) for i in range(5)]))
    else:
        n = draw(st.integers(2, 8))
        pool = list(combinations(range(n), 2))
        parts.append((n, rng.sample(pool, draw(st.integers(1, len(pool))))))
    return disjoint_union(parts, rng)


# --- the comparison ----------------------------------------------------------


def same_outcome(new, old, *args):
    """Both calls return equal values, or raise the same class and message."""
    try:
        want = old(*args)
    except AntimagicError as exc:
        with pytest.raises(type(exc)) as got:
            new(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return None
    got = new(*args)
    assert got == want
    return got


@settings(max_examples=150, deadline=None)
@given(odd_degree_graphs())
def test_same_labels_on_all_odd_degree_graphs(g):
    f = same_outcome(construct_odd_degree, seed_construct_odd_degree, g)
    assert f is not None


@settings(max_examples=150, deadline=None)
@given(rejected_graphs())
def test_same_rejection_on_graphs_that_are_not_all_odd(g):
    # a random piece is sometimes all odd after all; then labels must agree
    same_outcome(construct_odd_degree, seed_construct_odd_degree, g)


def test_same_labels_on_the_fixed_families():
    for g in (complete(4), complete(6), complete(10), complete_bipartite(3, 3),
              complete_bipartite(3, 5), complete_bipartite(7, 9), cube(), petersen(), star(9)):
        same_outcome(construct_odd_degree, seed_construct_odd_degree, g)


def test_same_labels_on_large_cubic_graphs_and_their_union():
    rng = random.Random(20181)
    parts = [(n, pairing_regular(n, 3, rng)) for n in (500, 1000, 2000)]
    for n, edges in parts:
        g = build_graph(n, edges)
        same_outcome(construct_odd_degree, seed_construct_odd_degree, g)
    same_outcome(construct_odd_degree, seed_construct_odd_degree, disjoint_union(parts, rng))


def test_the_repair_branch_is_reached_and_agrees():
    # level 2 of the fan is c disjoint K(3,2) blocks, each stranding a
    # closed 4-cycle under the first choices
    h, deep = k32_blocks(5)
    first = {v: next(e for e in h.edges if v in e) for v in deep}
    dec = same_outcome(find_sigma_and_trails, seed_find_sigma_and_trails, h, deep)
    assert dict(dec.sigma) != first
    n, edges = k32_fan(5)
    same_outcome(construct_odd_degree, seed_construct_odd_degree, build_graph(n, edges))


def random_block(rng: random.Random) -> tuple[Graph, list[int]]:
    """Any small graph with a random deep set: a cross block or not."""
    n = rng.randint(2, 9)
    pool = list(combinations(range(n), 2))
    h = build_graph(n, rng.sample(pool, rng.randint(1, min(len(pool), 12))))
    return h, rng.sample(range(n), rng.randint(1, n - 1))


def random_cross_block(rng: random.Random) -> tuple[Graph, list[int]]:
    """A bipartite block in which every deep vertex has an edge, up to
    dense: shallow vertices meet many deep ones, as in the upper levels
    of a dense graph."""
    n = rng.randint(3, 14)
    ids = list(range(n))
    rng.shuffle(ids)
    cut = rng.randint(1, n - 1)
    deep, shallow = ids[:cut], ids[cut:]
    pairs = [(v, s) for v in deep for s in shallow]
    edges = {(v, rng.choice(shallow)) for v in deep}
    edges |= set(rng.sample(pairs, rng.randint(0, len(pairs))))
    return build_graph(n, sorted(edges)), deep


@pytest.mark.parametrize("make", [random_block, random_cross_block])
def test_same_decomposition_or_rejection_on_random_blocks(make):
    rng = random.Random(7)
    for _ in range(3000):
        h, deep = make(rng)
        dec = same_outcome(find_sigma_and_trails, seed_find_sigma_and_trails, h, deep)
        if dec is not None:
            block = range(1, 1 + sum(len(t.vertices) - 1 for t in dec.trails))
            same_outcome(label_trails, seed_label_trails, dec, block)


def test_label_trails_rejects_alike():
    cross = build_graph(4, [(0, 1), (0, 3), (2, 3)])
    odd_w = TrailDecomposition(cross, (0, 3), (), (Trail((1, 0, 3, 2), "W"),))
    m_trail = TrailDecomposition(
        build_graph(3, [(0, 1), (1, 2)]), (0, 2), (), (Trail((0, 1, 2), "M"),)
    )
    # a W trail whose inner vertex is deep breaks the pair sums
    bent = TrailDecomposition(
        build_graph(3, [(0, 1), (1, 2)]), (1,), (), (Trail((0, 1, 2), "W"),)
    )
    repeated = TrailDecomposition(
        build_graph(3, [(0, 1), (1, 2)]), (0,), (), (Trail((1, 0, 1), "W"), Trail((1, 2), "N"))
    )
    cases = [
        (odd_w, range(1, 4)),
        (m_trail, range(1, 4)),
        (m_trail, [4, 6]),
        (m_trail, range(5, 7)),
        (bent, range(1, 3)),
        (repeated, range(1, 4)),
        (m_trail, []),
    ]
    for dec, labels in cases:
        same_outcome(label_trails, seed_label_trails, dec, labels)


def test_validate_rejects_alike():
    cross = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    walk = Trail((0, 1, 2), "M")
    cases = [
        TrailDecomposition(cross, (0,), ((0, (1, 2)),), ()),
        TrailDecomposition(cross, (0,), ((1, (0, 1)),), ()),
        TrailDecomposition(cross, (0, 2), ((0, (0, 1)), (2, (0, 1))), ()),
        TrailDecomposition(cross, (0, 2), ((0, (0, 1)),), ()),
        TrailDecomposition(cross, (), (), (Trail((0,), "W"),)),
        TrailDecomposition(cross, (), (), (Trail((0, 1, 0), "W"),)),
        TrailDecomposition(cross, (), (), (walk, walk)),
        TrailDecomposition(cross, (0, 2), (), (walk, Trail((2, 3), "N"))),
        TrailDecomposition(cross, (0, 2), (), (walk, Trail((0, 1), "N"))),
        TrailDecomposition(cross, (0,), ((0, (0, 1)),), (Trail((1, 2), "W"),)),
        TrailDecomposition(cross, (0, 2), (), (walk,)),
        TrailDecomposition(cross, (0, 3), (), (Trail((0, 1, 2, 3), "M"),)),
    ]
    for dec in cases:
        same_outcome(TrailDecomposition.validate, seed_validate, dec)
