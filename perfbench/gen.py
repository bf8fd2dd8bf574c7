"""Seeded input generators.

Every generator takes a `random.Random` and returns plain data: a vertex
count and a list of (u, v) pairs. The program under test only ever sees
these inputs, turned into `Graph` objects or edge-list files by the
workloads, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

Edges = list[tuple[int, int]]


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def star(leaves: int) -> Edges:
    return [(0, i) for i in range(1, leaves + 1)]


def double_star(a: int, b: int) -> Edges:
    """Same vertex numbering as the toolkit's own double star."""
    return (
        [(0, 1)]
        + [(0, i) for i in range(2, a + 2)]
        + [(1, i) for i in range(a + 2, a + b + 2)]
    )


def cp3(c: int) -> Edges:
    return [e for i in range(c) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))]


FAMILY_EDGES = {
    "path": lambda p: (p["n"], path(p["n"])),
    "star": lambda p: (p["n"] + 1, star(p["n"])),
    "double_star": lambda p: (p["a"] + p["b"] + 2, double_star(p["a"], p["b"])),
    "cp3": lambda p: (3 * p["c"], cp3(p["c"])),
    "two_p4": lambda p: (8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]),
    "two_s3": lambda p: (8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]),
    "p5prime": lambda p: (6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
}


def prufer_tree(n: int, rng: random.Random) -> Edges:
    """A uniformly random labeled tree on n >= 2 vertices (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges: Edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def small_tree_forest(n: int, rng: random.Random, lo: int = 3, hi: int = 6) -> tuple[int, Edges]:
    """Disjoint random trees of lo..hi vertices filling about n vertices.

    Trees have at least three vertices, so there is no single-edge
    component; vertex ids are shuffled so components interleave.
    """
    edges: Edges = []
    base = 0
    while base + lo <= n:
        size = min(rng.randint(lo, hi), n - base)
        if n - base - size < lo:
            size = n - base
        edges += [(u + base, v + base) for u, v in prufer_tree(size, rng)]
        base += size
    return base, _relabel(base, edges, rng)


def random_forest_m(m: int, rng: random.Random) -> tuple[int, Edges]:
    """A random forest with exactly m edges and no single-edge component."""
    sizes: list[int] = []
    left = m
    while left:
        part = left if left < 4 else rng.randint(2, left)
        if left - part == 1:
            part = left
        sizes.append(part)
        left -= part
    edges: Edges = []
    base = 0
    for part in sizes:
        edges += [(u + base, v + base) for u, v in prufer_tree(part + 1, rng)]
        base += part + 1
    return base, _relabel(base, edges, rng)


def random_cubic(n: int, rng: random.Random) -> Edges:
    """A simple 3-regular graph on n (even) vertices by the pairing model.

    Pairings with a loop or a repeated pair are rejected and redrawn.
    """
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        seen: set[tuple[int, int]] = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in seen:
                break
            seen.add(e)
        else:
            return sorted(seen)


def saturated_cross_cycle(n: int, edges: Edges) -> bool:
    """Whether a connected graph has a saturated cycle between BFS levels.

    Levels are taken from vertex 0, the root the toolkit picks for a
    regular graph. The cycle must run between two adjacent levels, through
    deep vertices whose edges all go up and shallow vertices with exactly
    two edges down. The odd-degree construction reserves one upward edge
    per deep vertex, and only such a cycle can leave an all-even remainder
    behind. So without one, its sigma search never backtracks. With one,
    the search can take exponential time. About 3% of random cubic graphs
    on 2,000 vertices have such a cycle; of eight such graphs, one ran past
    3 s, and another graph seen earlier ran for more than eight minutes.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    up = [sum(dist[w] == dist[v] - 1 for w in adj[v]) for v in range(n)]
    down = [sum(dist[w] == dist[v] + 1 for w in adj[v]) for v in range(n)]
    # union-find over deep copies 0..n-1 and shallow copies n..2n-1, so
    # the blocks of different level pairs never merge
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if dist[u] == dist[v]:
            continue
        if dist[u] > dist[v]:
            u, v = v, u
        if len(adj[v]) == up[v] and down[u] == 2:
            a, b = find(v), find(n + u)
            if a == b:
                return True
            parent[a] = b
    return False


def settled_cubic(n: int, rng: random.Random) -> Edges:
    """A random cubic graph without a saturated cross-level cycle (redrawn
    until it has none), on which the toolkit's sigma search cannot stall."""
    while True:
        edges = random_cubic(n, rng)
        if not saturated_cross_cycle(n, edges):
            return edges


def cubic_union(n: int, parts: int, rng: random.Random) -> tuple[int, Edges]:
    """Disjoint union of `parts` settled cubic graphs on n // parts vertices each."""
    size = n // parts
    edges: Edges = []
    for i in range(parts):
        edges += [(u + i * size, v + i * size) for u, v in settled_cubic(size, rng)]
    return size * parts, edges


def edge_list_text(n: int, edges: Edges) -> str:
    """The toolkit's plain edge-list format: header "n m", then "u v" lines."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])
