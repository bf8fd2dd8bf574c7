"""Generators for the graph families the toolkit knows by name.

A family with a constructor is also described without being built:
`_path(n)` and its siblings check the parameters as the builder does and
return the shape (n, m, edges), the edges an iterator in canonical order.
The builder reads that same iterator, and a family request is checked
against its graph by streaming the graph's edges past it.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, combinations, product

from .errors import BadParameters, require_int
from .graph import Edge, Graph, build_graph

# The most edges a family may have: about twice those of p1000000. Each
# builder checks its closed-form edge count before it builds anything.
MAX_EDGES = 2_000_000

_Shape = tuple[int, int, Iterable[Edge]]


def _check_size(family: str, m: int) -> None:
    if m > MAX_EDGES:
        raise BadParameters(f"{family} would have {m} edges, more than the {MAX_EDGES} allowed")


def _build(shape: _Shape) -> Graph:
    n, _, edges = shape
    return Graph(n, tuple(edges))


def _path(n: int) -> _Shape:
    require_int("path vertex count", n)
    if n < 1:
        raise BadParameters(f"path needs at least one vertex, got {n}")
    _check_size("path", n - 1)
    return n, n - 1, zip(range(n - 1), range(1, n))


def path(n: int) -> Graph:
    """Path on vertices 0..n-1 in order."""
    return _build(_path(n))


def cycle(n: int) -> Graph:
    require_int("cycle vertex count", n)
    if n < 3:
        raise BadParameters(f"cycle needs at least three vertices, got {n}")
    _check_size("cycle", n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _star(leaves: int) -> _Shape:
    require_int("star leaf count", leaves)
    if leaves < 1:
        raise BadParameters(f"star needs at least one leaf, got {leaves}")
    _check_size("star", leaves)
    return leaves + 1, leaves, product((0,), range(1, leaves + 1))


def star(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return _build(_star(leaves))


def _double_star(a: int, b: int) -> _Shape:
    require_int("double star leaf count a", a)
    require_int("double star leaf count b", b)
    if a < 1 or b < 1:
        raise BadParameters(f"double star needs a, b >= 1, got ({a}, {b})")
    _check_size("double star", a + b + 1)
    edges = chain([(0, 1)], product((0,), range(2, a + 2)), product((1,), range(a + 2, a + b + 2)))
    return a + b + 2, a + b + 1, edges


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers: vertex 0 with a leaves, vertex 1 with b leaves.

    The a leaves are 2..a+1 and the b leaves are a+2..a+b+1.
    """
    return _build(_double_star(a, b))


def _cp3(c: int) -> _Shape:
    require_int("cp3 component count", c)
    if c < 1:
        raise BadParameters(f"need at least one component, got {c}")
    _check_size("cp3", 2 * c)
    return 3 * c, 2 * c, ((v, v + 1) for v in range(3 * c) if v % 3 != 2)


def cp3(c: int) -> Graph:
    """Disjoint union of c three-vertex paths; component i is 3i-3i+1-3i+2."""
    return _build(_cp3(c))


# The fixed graphs with a constructor, as shapes
_TWO_P4 = 8, 6, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7))
_TWO_S3 = 8, 6, ((0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7))
_P5PRIME = 6, 5, ((0, 1), (1, 2), (2, 3), (2, 5), (3, 4))


def two_p4() -> Graph:
    """Two disjoint four-vertex paths: 0-1-2-3 and 4-5-6-7."""
    return _build(_TWO_P4)


def two_s3() -> Graph:
    """Two disjoint three-leaf stars with centers 0 and 4."""
    return _build(_TWO_S3)


def p5prime() -> Graph:
    """Five-vertex path 0-1-2-3-4 with an extra leaf 5 on the middle vertex."""
    return _build(_P5PRIME)


def complete(n: int) -> Graph:
    require_int("complete graph vertex count", n)
    if n < 1:
        raise BadParameters(f"need at least one vertex, got {n}")
    _check_size("complete graph", n * (n - 1) // 2)
    return build_graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    require_int("complete bipartite part size a", a)
    require_int("complete bipartite part size b", b)
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
