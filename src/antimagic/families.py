"""Generators for the graph families the toolkit knows by name."""

from __future__ import annotations

from itertools import combinations

from .errors import BadParameters
from .graph import Graph, build_graph

# The most edges a family may have: about twice those of p1000000. Each
# builder checks its closed-form edge count before it builds anything.
MAX_EDGES = 2_000_000


def _check_size(family: str, m: int) -> None:
    if m > MAX_EDGES:
        raise BadParameters(f"{family} would have {m} edges, more than the {MAX_EDGES} allowed")


def path(n: int) -> Graph:
    """Path on vertices 0..n-1 in order."""
    if n < 1:
        raise BadParameters(f"path needs at least one vertex, got {n}")
    _check_size("path", n - 1)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameters(f"cycle needs at least three vertices, got {n}")
    _check_size("cycle", n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    if leaves < 1:
        raise BadParameters(f"star needs at least one leaf, got {leaves}")
    _check_size("star", leaves)
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers: vertex 0 with a leaves, vertex 1 with b leaves.

    The a leaves are 2..a+1 and the b leaves are a+2..a+b+1.
    """
    if a < 1 or b < 1:
        raise BadParameters(f"double star needs a, b >= 1, got ({a}, {b})")
    _check_size("double star", a + b + 1)
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, a + 2)]
    edges += [(1, i) for i in range(a + 2, a + b + 2)]
    return build_graph(a + b + 2, edges)


def cp3(c: int) -> Graph:
    """Disjoint union of c three-vertex paths; component i is 3i-3i+1-3i+2."""
    if c < 1:
        raise BadParameters(f"need at least one component, got {c}")
    _check_size("cp3", 2 * c)
    edges = []
    for i in range(c):
        edges.append((3 * i, 3 * i + 1))
        edges.append((3 * i + 1, 3 * i + 2))
    return build_graph(3 * c, edges)


def two_p4() -> Graph:
    """Two disjoint four-vertex paths: 0-1-2-3 and 4-5-6-7."""
    return build_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])


def two_s3() -> Graph:
    """Two disjoint three-leaf stars with centers 0 and 4."""
    return build_graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])


def p5prime() -> Graph:
    """Five-vertex path 0-1-2-3-4 with an extra leaf 5 on the middle vertex."""
    return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameters(f"need at least one vertex, got {n}")
    _check_size("complete graph", n * (n - 1) // 2)
    return build_graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise BadParameters(f"parts must be nonempty, got ({a}, {b})")
    _check_size("complete bipartite graph", a * b)
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cube() -> Graph:
    """The 3-dimensional hypercube on vertices 0..7 (bit flips are edges)."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return build_graph(8, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)
