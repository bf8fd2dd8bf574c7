"""Sigma selection against a verbatim copy of the search it replaced.

`find_sigma_and_trails` picks sigma by first choice plus one repair pass.
The depth-first search below is the code it replaced. On the family level
blocks, uniform random blocks and disjoint K(3,2) blocks both must return
the very same decomposition: the same sigma and the same trails in the
same order. On a saturated random stream they may differ only at the
listed draws, and both must be valid there.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

import pytest

from antimagic import constructors
from antimagic.errors import InvalidTrails
from antimagic.families import complete, complete_bipartite, cube, petersen
from antimagic.graph import Edge, Graph, build_graph, level_partition
from antimagic.trails import TrailDecomposition, Trail, _classify, find_sigma_and_trails
from conftest import disjoint_union, k32_blocks, k32_fan, pairing_regular
from test_odd_degree_oracle import seed_layer_subgraphs

# --- verbatim copy of the replaced search -----------------------------------
# (only its exception class renamed to the one that replaced it)


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


def _open_trail_split(edges: Sequence[Edge]) -> list[list[int]] | None:
    """Split the edges into open trails ending at the odd-degree vertices.

    Returns trail vertex sequences, or None when some component has no
    odd-degree vertex (a closed component cannot be split without reusing
    an endpoint).
    """
    trails: list[list[int]] = []
    for comp in _edge_components(edges):
        deg: dict[int, int] = {}
        for u, v in comp:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        odd = sorted(v for v, dv in deg.items() if dv % 2 == 1)
        if not odd:
            return None
        n_real = len(comp)
        records: list[Edge] = list(comp)
        records += [(odd[j], odd[j + 1]) for j in range(0, len(odd), 2)]
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in deg}
        for eid, (u, v) in enumerate(records):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        for row in adj.values():
            row.sort()
        steps = _euler_steps(adj, odd[0], len(records))
        cut = next(i for i, s in enumerate(steps) if s[1] >= n_real)
        steps = steps[cut + 1 :] + steps[: cut + 1]
        current: list[tuple[int, int, int]] = []
        for frm, eid, to in steps:
            if eid >= n_real:
                if not current:
                    raise ValueError("virtual edges ended up adjacent in the walk")
                trails.append([current[0][0]] + [s[2] for s in current])
                current = []
            else:
                current.append((frm, eid, to))
        if current:
            raise ValueError("walk did not end on a virtual edge")
    return trails


def seed_find_sigma_and_trails(h: Graph, deep: Iterable[int]) -> TrailDecomposition:
    """Reserve one cross edge per deep vertex so the rest splits into trails.

    Searches depth-first over per-vertex incident-edge choices in canonical
    order; the first choice whose remainder decomposes wins. Raises
    InvalidTrails when no choice works, or when the input did not come from
    a level partition: an edge without exactly one deep endpoint, or a
    deep vertex with no incident edge.
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

    # Depth-first search with an explicit stack, so a level with thousands
    # of vertices cannot exhaust the recursion limit: chosen[i] is the edge
    # reserved for deep_sorted[i], and tried[i] is where the scan of its
    # candidates resumes after a backtrack.
    chosen: list[Edge] = []
    chosen_set: set[Edge] = set()
    tried = [0] * (len(deep_sorted) + 1)
    split: list[list[int]] | None = None
    idx = 0
    while idx >= 0:
        if idx == len(deep_sorted):
            remainder = [e for e in h.edges if e not in chosen_set]
            split = _open_trail_split(remainder)
            if split is not None:
                break
        else:
            options = incident[deep_sorted[idx]]
            i = tried[idx]
            while i < len(options) and options[i] in chosen_set:
                i += 1
            if i < len(options):
                tried[idx] = i + 1
                chosen.append(options[i])
                chosen_set.add(options[i])
                idx += 1
                tried[idx] = 0
                continue
        # dead end (the remainder does not split, or no candidate is
        # left here): undo the choice one vertex up
        idx -= 1
        if idx >= 0:
            chosen_set.discard(chosen.pop())

    if split is None:
        raise InvalidTrails(
            f"no edge reservation for {deep_sorted} leaves an open-trail remainder"
        )
    deep_set = set(deep_sorted)
    dec = TrailDecomposition(
        cross=h,
        deep=tuple(deep_sorted),
        sigma=tuple(zip(deep_sorted, chosen)),
        trails=tuple(_classify(seq, deep_set) for seq in split),
    )
    dec.validate()
    return dec


# --- the comparison ----------------------------------------------------------


def assert_same_decomposition(h: Graph, deep) -> TrailDecomposition:
    dec = find_sigma_and_trails(h, deep)
    assert dec == seed_find_sigma_and_trails(h, deep)
    return dec


def level_blocks(g: Graph):
    """Every cross block of every breadth-first partition of g."""
    for root in range(g.n):
        p = level_partition(g, root)
        for depth in range(1, p.d + 1):
            yield seed_layer_subgraphs(g, p, depth)[1], p.levels[depth]


def test_same_decomposition_on_every_level_block_of_the_families():
    graphs = [
        complete(4),
        complete_bipartite(3, 3),
        complete_bipartite(3, 5),
        complete(6),
        complete(8),
        cube(),
        petersen(),
    ]
    for g in graphs:
        for cross, deep in level_blocks(g):
            assert_same_decomposition(cross, deep)


def random_cross_block(rng: random.Random) -> tuple[Graph, list[int]]:
    """A bipartite block whose every deep vertex has at least one edge."""
    n = rng.randint(2, 10)
    ids = list(range(n))
    rng.shuffle(ids)
    cut = rng.randint(1, n - 1)
    deep, shallow = ids[:cut], ids[cut:]
    edges = [(v, rng.choice(shallow)) for v in deep]
    pairs = [(v, s) for v in deep for s in shallow]
    edges += rng.sample(pairs, rng.randint(0, len(pairs)))
    return build_graph(n, sorted(set(edges))), deep


def test_same_decomposition_on_random_cross_blocks():
    rng = random.Random(20181)
    for _ in range(2000):
        assert_same_decomposition(*random_cross_block(rng))


def saturated_cross_block(rng: random.Random) -> tuple[Graph, list[int]]:
    """A block where the first choice often strands a closed component.

    Deep vertices take three stubs plus one random edge, shallow vertices
    two stubs each, so many shallow vertices have exactly two edges.
    """
    a = rng.randint(1, 4)
    ids = list(range(5 * a))
    rng.shuffle(ids)
    deep, shallow = ids[: 2 * a], ids[2 * a :]
    stubs = [s for s in shallow for _ in range(2)]
    rng.shuffle(stubs)
    edges = set(zip([v for v in deep for _ in range(3)], stubs))
    edges |= {(v, rng.choice(shallow)) for v in deep}
    return build_graph(5 * a, sorted(edges)), deep


# Draws of the saturated stream where the two differ. There the search
# backtracks a deep vertex outside the closed component (the highest-id
# deep vertex of the whole block), and that choice happens to open the
# component too; the repair moves the highest-id deep vertex inside it.
# Both decompositions validate.
SATURATED_DIFFERENCES = {1782, 1904}


def test_saturated_blocks_differ_only_at_the_listed_draws():
    rng = random.Random(20181)
    differ = set()
    for i in range(2000):
        h, deep = saturated_cross_block(rng)
        old = seed_find_sigma_and_trails(h, deep)
        if find_sigma_and_trails(h, deep) != old:
            old.validate()
            differ.add(i)
    assert differ == SATURATED_DIFFERENCES


def test_a_repair_can_open_a_later_closed_component():
    # first choices strand two 4-cycles, 0-6-8-7 and 2-4-3-5; moving 8 off
    # (2, 8) gives that edge back, which joins the second cycle to the first
    h = build_graph(9, [
        (0, 1), (0, 6), (0, 7), (6, 8), (7, 8), (2, 8),
        (2, 4), (3, 4), (2, 5), (3, 5), (1, 4), (1, 5),
    ])
    dec = assert_same_decomposition(h, [0, 4, 5, 8])
    assert dict(dec.sigma) == {0: (0, 1), 4: (1, 4), 5: (1, 5), 8: (6, 8)}
    assert len(dec.trails) == 1


def test_same_decomposition_where_the_search_backtracks():
    for c in range(1, 5):
        dec = assert_same_decomposition(*k32_blocks(c))
        assert len(dec.sigma) == 2 * c


# --- the split's shapes: large graphs, the repair at scale, paths by hand ------


def construction_blocks(g: Graph, monkeypatch) -> list[tuple[Graph, list[int]]]:
    """Every cross block, with its deep vertices, that construct_odd_degree splits."""
    blocks = []
    split = constructors.find_sigma_and_trails

    def record(h, deep):
        blocks.append((h, list(deep)))
        return split(h, blocks[-1][1])

    with monkeypatch.context() as patch:
        patch.setattr(constructors, "find_sigma_and_trails", record)
        constructors.construct_odd_degree(g)
    return blocks


def test_same_decomposition_on_every_block_of_large_cubic_graphs(monkeypatch):
    # nearly every leftover component here is a path of one to five edges
    rng = random.Random(2018)
    parts = [(2000, pairing_regular(2000, 3, rng)) for _ in range(8)]
    graphs = [build_graph(*parts[0]), build_graph(*parts[1]), disjoint_union(parts, rng)]
    for g in graphs:
        blocks = construction_blocks(g, monkeypatch)
        assert len(blocks) > 10
        for h, deep in blocks:
            assert_same_decomposition(h, deep)


def test_the_repair_at_scale_matches_the_search_group_by_group():
    # level 2 of the fan is 200 disjoint K(3,2) blocks, each stranding a
    # 4-cycle at first choice; the search would backtrack through all of
    # them at once, so each group is checked against it on its own
    g = build_graph(*k32_fan(200))
    p = level_partition(g, 0)
    cross, deep = seed_layer_subgraphs(g, p, 2)[1], p.levels[2]
    dec = find_sigma_and_trails(cross, deep)
    sigma, trails = [], []
    for j in range(200):
        group = [e for e in cross.edges if e[1] in (4 + 5 * j, 5 + 5 * j)]
        solo = seed_find_sigma_and_trails(build_graph(g.n, group), [4 + 5 * j, 5 + 5 * j])
        sigma += solo.sigma
        trails += solo.trails
        assert dict(solo.sigma)[5 + 5 * j] != group[1]  # not its first edge: repaired
    assert dec == (cross, tuple(deep), tuple(sigma), tuple(trails))


# (edges, deep vertices, the trails expected), n one past the largest id
PATH_BLOCKS = {
    "single N edge, deep end larger": (
        [(0, 5), (1, 5)], [5], [Trail((5, 1), "N")],
    ),
    "W path from its lesser end": (
        [(0, 5), (1, 5), (3, 5)], [5], [Trail((1, 5, 3), "W")],
    ),
    "W path entered inside": (
        [(0, 1), (1, 3), (1, 5)], [1], [Trail((3, 1, 5), "W")],
    ),
    "M path from its lesser end": (
        [(0, 4), (0, 6), (4, 5), (5, 6)], [4, 6], [Trail((4, 5, 6), "M")],
    ),
    "M path entered inside": (
        [(0, 4), (0, 6), (1, 4), (1, 6)], [4, 6], [Trail((4, 1, 6), "M")],
    ),
    "N path from its shallow end": (
        [(0, 7), (0, 9), (2, 7), (7, 8), (8, 9)], [7, 9], [Trail((9, 8, 7, 2), "N")],
    ),
    "long path beside a star": (
        [(0, 3), (3, 4), (3, 5), (3, 6), (0, 10), (0, 12), (0, 14),
         (9, 10), (10, 11), (11, 12), (12, 13), (13, 14), (14, 15)],
        [3, 10, 12, 14],
        [Trail((3, 5), "N"), Trail((4, 3, 6), "W"), Trail((9, 10, 11, 12, 13, 14, 15), "W")],
    ),
    "long path entered inside": (
        [(0, 1), (0, 20), (0, 22), (1, 21), (1, 23), (20, 21), (20, 25), (22, 23), (22, 24)],
        [1, 20, 22],
        [Trail((24, 22, 23, 1, 21, 20, 25), "W")],
    ),
}


@pytest.mark.parametrize("name", PATH_BLOCKS)
def test_same_decomposition_on_hand_built_path_components(name):
    edges, deep, trails = PATH_BLOCKS[name]
    h = build_graph(1 + max(map(max, edges)), edges)
    assert list(assert_same_decomposition(h, deep).trails) == trails
