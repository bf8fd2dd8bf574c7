"""Constructive labelings for families with known shifted spectra.

The level route `construct_sdds` labels a union of trees and all-odd
components so same-degree sums differ; shifting such a labeling far
enough makes every vertex sum distinct. The forest and odd-degree
builders check their stricter classes and run the same construction,
`_label_levels`, which finds no trails to label on a forest. The
family-specific builders (paths, stars, double stars, copies of the
three-vertex path, and a few small sporadic graphs) return a labeling
for an exact shift k, or None when that shift is provably infeasible
for the family. Each takes the family graph to label as an optional
keyword `g`, used as is; without it, the constructor builds the graph
itself.

The module closes with the registry of named families, `FAMILIES`, one
entry per family, and the command line's `SHORTHANDS`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from itertools import accumulate, groupby

from .errors import BadParameters, WrongGraphClass, require_int
from .families import (
    _P5PRIME, _TWO_P4, _TWO_S3, _check_size, _cp3, _double_star, _path, _star, complete,
    complete_bipartite, cp3, cube, cycle, double_star, p5prime, path, petersen, star, two_p4,
    two_s3,
)
from .graph import Edge, Graph, _breadth_first, _component_vertices
from .labeling import EdgeLabeling, mirror
from .trails import find_sigma_and_trails, label_trails


def construct_forest_sdds(g: Graph) -> EdgeLabeling:
    """Label a forest with 1..m so same-degree vertices get distinct sums.

    `_label_levels` without trails: each vertex's parent edge takes the
    next label of its tree, in order of the sum on the edges below it.
    """
    return _label_levels(g, False, g.degrees())


def construct_odd_degree(g: Graph) -> EdgeLabeling:
    """Same-degree-distinct-sum labeling for graphs whose degrees are all odd."""
    deg = g.degrees()
    for v, d in enumerate(deg):
        if d % 2 == 0:
            raise WrongGraphClass(f"vertex {v} has even degree {d}")
    return _label_levels(g, True, deg)  # `construct_sdds`, on the degrees at hand


def construct_sdds(g: Graph) -> EdgeLabeling:
    """Same-degree-distinct-sum labeling of a union of trees with three or
    more vertices, components whose degrees are all odd and at most one
    isolated vertex; WrongGraphClass names the first other component.

    Within a component the labels depend only on it and where its block
    starts, and the forest and odd-degree arguments hold at any start. A
    tree's cross blocks are its parent edges with no trails, so it gets
    exactly its forest-route labels. Any d labels from a lower block sum
    below any d from a higher one, so same-degree sums in different
    components never meet. One isolated vertex is alone in degree class 0.
    """
    return _label_levels(g, True, g.degrees())


def _label_levels(g: Graph, mixed: bool, deg: list[int]) -> EdgeLabeling:
    """Label g by 1..m level by level, given its degrees, once each
    component is a tree with three or more vertices or, if `mixed`, all
    odd or the one isolated vertex; WrongGraphClass names the first that fails.

    Components take consecutive label blocks in order of least vertex id.
    Each is layered breadth-first from its lowest-id vertex of maximum
    degree and labeled deepest level first: the level's internal edges in
    edge order, then the trail edges of its cross block's decomposition
    (`find_sigma_and_trails`), then each level vertex's reserved edge up,
    in ascending order of the sum already at the vertex (ties by id). Each
    depth is labeled across all components at once, each on its own label
    counter. In a forest (m = n minus the component count) a vertex's one
    edge up is its parent edge, so no blocks or trails are built. The run
    is linear in the graph apart from the sorts.
    """
    comp_of, comps = _component_vertices(g)
    forest = g.m == g.n - len(comps)
    if min(map(len, comps), default=3) < 3 or not (forest or mixed and all(d % 2 for d in deg)):
        lone = 0  # isolated vertices so far
        for verts in comps:  # name the first faulty component
            lone += len(verts) == 1
            if len(verts) == 1 and (lone > 1 or not mixed):
                raise WrongGraphClass(f"vertex {verts[0]} has no edges")
            if len(verts) == 2:
                raise WrongGraphClass(f"component {tuple(sorted(verts))} is a single edge")
            cyclic = sum(deg[v] for v in verts) >= 2 * len(verts)
            if cyclic and not (mixed and all(deg[v] % 2 for v in verts)):
                why = " and an even degree" if mixed else ""
                raise WrongGraphClass(f"component {tuple(sorted(verts))} contains a cycle{why}")
    roots, top = [0] * len(comps), [-1] * len(comps)
    for v, c in enumerate(comp_of):
        if deg[v] > top[c]:
            top[c] = deg[v]
            roots[c] = v
    # levels[d]: every component's depth-d vertices, component by component;
    # above[v]: far end of v's reserved edge up, its parent unless sigma picks another
    levels, above = _breadth_first(g, roots)
    if not forest:
        depth = [0] * g.n
        # per component, at 2d the edges within depth d, at 2d - 1 those up from it
        blocks: list[list[list[Edge]]] = [[] for _ in comps]
        for d, level in enumerate(levels):
            for v in level:
                depth[v] = d
            for c, _ in groupby(level, comp_of.__getitem__):
                blocks[c] += ([], []) if d else ([],)
        for e in g.edges:
            u, v = e
            blocks[comp_of[u]][depth[u] + depth[v]].append(e)
    # each component's next label, after the edges of those before it
    sizes = (len(vs) - 1 if forest else sum(map(deg.__getitem__, vs)) // 2 for vs in comps)
    nxt = list(accumulate(sizes, initial=1))
    fixed: dict[Edge, int] = {}  # labels of the internal and trail edges
    vsum = [0] * g.n  # the labels at each vertex so far, but its reserved one's
    up = [0] * g.n  # the label of each vertex's reserved edge
    for d in range(len(levels) - 1, 0, -1):
        level = levels[d]
        if not forest:
            level = []  # each component's depth-d vertices, ascending
            for c, deep in groupby(levels[d], comp_of.__getitem__):
                inner, cross = blocks[c][2 * d], blocks[c][2 * d - 1]
                dec = find_sigma_and_trails(Graph(g.n, tuple(cross)), deep)
                x = nxt[c] + len(inner)
                new = label_trails(dec, range(x, x + len(cross) - len(dec.sigma)))
                new.update(zip(inner, range(nxt[c], x)))
                for (u, v), y in new.items():
                    vsum[u] += y
                    vsum[v] += y
                fixed.update(new)
                nxt[c] += len(new)
                for v, (a, b) in dec.sigma:
                    above[v] = b if a == v else a
                level += dec.deep
        if len(level) > 1:
            # by (sum so far, id) within a component; components count
            # separately, so their vertices may interleave
            if forest:
                level.sort()
            level.sort(key=vsum.__getitem__)
        for v in level:
            c = comp_of[v]
            x = nxt[c]
            nxt[c] = x + 1
            up[v] = x
            vsum[above[v]] += x
    return EdgeLabeling(g, tuple([  # in a forest, each edge is one end's reserved edge
        up[v] if above[v] == u else up[u] if forest or above[u] == v else fixed[u, v]
        for u, v in g.edges
    ]), base=0)


def _strong_path_labels(n: int) -> list[int]:
    # edge i joins path vertices i-1 and i; lists are in that edge order
    if n % 2 == 1:
        return [1] + [i + 1 for i in range(2, n - 1)] + [2]
    return [1] + [n + 1 - i for i in range(2, n)]


def construct_path_strong(n: int) -> EdgeLabeling:
    """Label a path with 1..n-1 so sums grow strictly with degree."""
    require_int("path vertex count", n)
    if n < 3:
        raise BadParameters(f"need at least three vertices, got {n}")
    return EdgeLabeling(path(n), tuple(_strong_path_labels(n)), base=0)


def construct_path_shifted(n: int, k: int, *, g: Graph | None = None) -> EdgeLabeling:
    """A k-shifted labeling of the path on n >= 6 vertices, any integer k.

    Nonnegative shifts lift the strong labeling. Shifts down to -(n//2)
    either use an explicit pattern (k = -2) or split the path at the
    zero-labeled edge into a negated prefix and a strong suffix. Anything
    lower is the mirror image of one of those.
    """
    require_int("path vertex count", n)
    if n < 6:
        raise BadParameters(f"the every-shift construction needs n >= 6, got {n}")
    require_int("shift", k)
    if g is None:
        g = path(n)

    def upper(j: int) -> EdgeLabeling:
        if j >= 0:
            # the strong labeling, shifted by j
            return EdgeLabeling(g, tuple(lab + j for lab in _strong_path_labels(n)), base=j)
        if j == -2:
            if n % 2 == 1:
                labels = [-1, 1, 0] + [i - 2 for i in range(4, n)]
            else:
                labels = [0, -1] + [n - i for i in range(3, n)]
            return EdgeLabeling(g, tuple(labels), base=-2)
        q = -j
        head = [-lab for lab in _strong_path_labels(q)] if q >= 3 else []
        tail = _strong_path_labels(n - q)
        return EdgeLabeling(g, tuple(head + [0] + tail), base=j)

    return mirror(upper, n - 1, k)


def construct_star(leaves: int, k: int, *, g: Graph | None = None) -> EdgeLabeling | None:
    """k-shifted labeling of a star, or None when that k is impossible.

    Every labeling gives the center the same sum, so the shift is
    infeasible exactly when that sum lands inside the label range.
    """
    require_int("star leaf count", leaves)
    if leaves < 2:
        raise BadParameters(f"need at least two leaves, got {leaves}")
    require_int("shift", k)
    center = leaves * k + leaves * (leaves + 1) // 2
    if k + 1 <= center <= k + leaves:
        return None
    return EdgeLabeling(
        star(leaves) if g is None else g, tuple(range(k + 1, k + leaves + 1)), base=k
    )


def _deal(labels_desc: list[int], count_a: int, count_b: int) -> tuple[list[int], list[int]]:
    """Alternate labels a, b, a, b, ... with overflow going to side a."""
    a: list[int] = []
    b: list[int] = []
    for lab in labels_desc:
        if len(a) < count_a and (len(a) <= len(b) or len(b) >= count_b):
            a.append(lab)
        else:
            b.append(lab)
    return a, b


def _double_star_plan(
    big: int, small: int, k: int, m: int
) -> tuple[int, list[int], list[int]] | None:
    """Label values for a double star: (bridge, big-side leaves, small-side).

    Assumes at least as many positive labels as negative ones, which holds
    on the upper half 2k >= -(m+1); the caller mirrors the other half.
    Returns None for the shifts the family genuinely misses.
    """
    labels = list(range(k + 1, k + m + 1))
    neg = max(0, min(k + m, -1) - k)
    pos = max(0, k + m) - max(0, k)
    diff = pos - neg
    if neg == 0:
        desc = labels[::-1]
        a_list, b_list = _deal(desc[1:], big, small)
        return desc[0], a_list, b_list
    if small == 1:
        if diff >= 2:
            rest = sorted(set(labels) - {pos, 0}, reverse=True)
            return pos, rest, [0]
        if diff == 1 and big >= 4:
            rest = sorted(set(labels) - {-(neg - 1), -neg}, reverse=True)
            return -(neg - 1), rest, [-neg]
        return None
    if diff >= 2:
        # cancel the negatives in +j/-j leaf pairs, small side first
        pu = min(neg, small // 2)
        pv = neg - pu
        b_pairs = [x for j in range(1, pu + 1) for x in (j, -j)]
        a_pairs = [x for j in range(pu + 1, neg + 1) for x in (j, -j)]
        rest = list(range(pos, neg, -1)) + [0]
        free_b = small - 2 * pu
        free_a = big - 2 * pv
        if free_b == 0:
            return rest[0], a_pairs + rest[1:], b_pairs
        assert free_a > 0, "pairs cannot exhaust the bigger side at this gap"
        a_extra, b_extra = _deal(rest[1:], free_a, free_b)
        return rest[0], a_pairs + a_extra, b_pairs + b_extra
    if diff == 1:
        pairs = neg - 2
        pu = min((small - 2) // 2, pairs)
        pv = pairs - pu
        b_pairs = [x for j in range(1, pu + 1) for x in (j, -j)]
        a_pairs = [x for j in range(pu + 1, pairs + 1) for x in (j, -j)]
        three = [pos, neg, neg - 1]
        two = [-neg, -(neg - 1)]
        if small - 2 * pu == 2:
            return 0, a_pairs + three, b_pairs + two
        return 0, a_pairs + two, b_pairs + three
    asc = [x for x in labels if x != 0]
    return 0, asc[small:], asc[:small]


def construct_double_star(
    a: int, b: int, k: int, *, g: Graph | None = None
) -> EdgeLabeling | None:
    """k-shifted labeling of the double star with a and b leaves, or None.

    The leaf counts decide everything: with both centers holding two or
    more leaves every shift works; a single-leaf center misses one or two
    shifts near the mirror axis.
    """
    _double_star(a, b)  # raises BadParameters unless a, b are ints >= 1
    require_int("shift", k)
    if g is None:
        g = double_star(a, b)

    def upper(j: int) -> EdgeLabeling | None:
        plan = _double_star_plan(max(a, b), min(a, b), j, g.m)
        if plan is None:
            return None
        bridge, big, small = plan
        # canonical edge order: the bridge, center 0's a leaves, center 1's b
        return EdgeLabeling(g, (bridge, *big, *small) if a >= b else (bridge, *small, *big), base=j)

    return mirror(upper, g.m, k)


def _cp3_pairs(c: int) -> list[tuple[int, int]]:
    # label pairs per component at the smallest directly handled shift
    half = c // 2
    out: list[tuple[int, int]] = []
    if c % 2 == 1:
        for i in range(half + 1):
            out.append((half + 2 * i + 1, 4 * half + 2 - i))
        for i in range(1, half + 1):
            out.append((half + 2 * i, 5 * half + 3 - i))
    else:
        for i in range(half):
            out.append((half + 2 * i + 1, 4 * half - i))
        for i in range(1, half + 1):
            out.append((half + 2 * i, 5 * half + 1 - i))
    return out


def construct_cp3(c: int, k: int, *, g: Graph | None = None) -> EdgeLabeling:
    """k-shifted labeling of c disjoint three-vertex paths, for k >= c//2.

    Component i gets one label pair, smaller value on its first edge, so
    endpoint sums are the labels themselves and the center sums form runs
    sitting strictly above them. Shifts below c//2 down to the other end
    of the excluded band are impossible, and anything lower is reached by
    negating this construction (`mirror`); both are the caller's business.
    """
    _cp3(c)  # raises BadParameters unless c is an int >= 1
    require_int("shift", k)
    if k < c // 2:
        raise BadParameters(f"direct construction needs k >= {c // 2}, got {k}")
    if g is None:
        g = cp3(c)
    t = k - c // 2
    # canonical edge order: each component's first edge, then its second
    return EdgeLabeling(g, tuple(x + t for pair in _cp3_pairs(c) for x in pair), base=k)


# A fixed small graph's labelings by table: on the upper half
# 2k >= -(m+1), the first shift `start` from which labels are k plus
# `offsets`, and the labels of the shifts in `fixed` below it; every other
# shift there is infeasible. The graph and m are its `FAMILIES` entry's.
_TABLES: dict[str, tuple[int, tuple, dict]] = {
    "two_p4": (-1, (1, 5, 2, 3, 6, 4), {-3: (-2, -1, 0, 2, 3, 1)}),
    "two_s3": (-1, (1, 3, 6, 2, 4, 5), {-3: (-2, -1, 0, 1, 2, 3)}),
    # canonical edge order: the four path edges interleaved with the
    # pendant edge at the middle vertex
    "p5prime": (0, (2, 4, 5, 1, 3), {-1: (1, 3, 4, 0, 2), -2: (3, 2, 1, -1, 0)}),
}


def _tabled(name: str, k: int, g: Graph | None = None) -> EdgeLabeling | None:
    """k-shifted labeling of the fixed graph `name` from its table, or
    None; `mirror` covers the lower half."""
    start, offsets, fixed = _TABLES[name]
    require_int("shift", k)
    entry = FAMILIES[name]

    def upper(j: int) -> EdgeLabeling | None:
        if j >= start:
            labels = tuple(j + x for x in offsets)
        elif j in fixed:
            labels = fixed[j]
        else:
            return None
        return EdgeLabeling(entry.build() if g is None else g, labels, base=j)

    return mirror(upper, entry.shape()[1], k)


def _tabled_excluded(name: str) -> frozenset[int]:
    # the upper-half shifts below `start` with no `fixed` row, and their mirrors
    start, _, fixed = _TABLES[name]
    m = FAMILIES[name].shape()[1]
    upper = [j for j in range(-((m + 1) // 2), start) if j not in fixed]
    return frozenset(upper + [-(m + 1) - j for j in upper])


def construct_two_p4(k: int, *, g: Graph | None = None) -> EdgeLabeling | None:
    """k-shifted labeling of two disjoint four-vertex paths, or None."""
    return _tabled("two_p4", k, g)


def construct_two_s3(k: int, *, g: Graph | None = None) -> EdgeLabeling | None:
    """k-shifted labeling of two disjoint three-leaf stars, or None."""
    return _tabled("two_s3", k, g)


def construct_p5prime(k: int, *, g: Graph | None = None) -> EdgeLabeling | None:
    """k-shifted labeling of the five-vertex path with an extra middle leaf."""
    return _tabled("p5prime", k, g)


def p3_threshold(m: int) -> int:
    """How many three-vertex paths force an absolutely antimagic union.

    For a graph with m edges, returns the least component count c at which
    the widest label pair spread still clears the densest packing of the
    smaller sums: the first c with (1+m+2c)(m+2c) < (1+m+5c)(c-m).
    """
    require_int("edge count", m)
    if m < 0:
        raise BadParameters(f"edge count cannot be negative, got {m}")
    # expanded, the inequality reads c^2 - (8m+1)c - 2m(m+1) > 0, false
    # for every c from 0 up to its positive root: count up from there
    b = 8 * m + 1
    c = (b + math.isqrt(b * b + 8 * m * (m + 1))) // 2
    while (1 + m + 2 * c) * (m + 2 * c) >= (1 + m + 5 * c) * (c - m):
        c += 1
    return c


class AllShifts:
    """Exclusion set meaning every shift is infeasible."""

    def __contains__(self, k: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "AllShifts()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AllShifts)

    def __hash__(self) -> int:
        return hash("AllShifts")


ALL_SHIFTS = AllShifts()


def _path_excluded(n: int | None) -> frozenset[int] | AllShifts:
    if n is None or n < 2:
        raise BadParameters("path needs n >= 2")
    if n == 2:
        return ALL_SHIFTS
    return {3: frozenset({-2, -1}), 4: frozenset({-2}), 5: frozenset({-3, -2})}.get(n, frozenset())


def _star_excluded(n: int | None) -> frozenset[int] | AllShifts:
    if n is None or n < 1:
        raise BadParameters("star needs a leaf count n >= 1")
    if n == 1:
        return ALL_SHIFTS
    if n % 2 == 0:
        return frozenset({-n // 2 - 1, -n // 2})
    return frozenset({-(n + 1) // 2})


def _double_star_excluded(a: int | None, b: int | None) -> frozenset[int]:
    if a is None or b is None or a < 1 or b < 1:
        raise BadParameters("double star needs a, b >= 1")
    big, small = max(a, b), min(a, b)
    if small >= 2:
        return frozenset()
    if big == 1:
        return frozenset({-2})
    if big == 2:
        return frozenset({-3, -2})
    if big % 2 == 1:
        return frozenset({-(big + 3) // 2})
    return frozenset()


def _cp3_excluded(c: int | None) -> frozenset[int]:
    if c is None or c < 1:
        raise BadParameters("need a component count c >= 1")
    _check_size("cp3", 2 * c)  # the set holds about 3c shifts
    return frozenset(range(-((5 * c) // 2), c // 2))


def _construct_path(k: int, g: Graph, search: Callable, n: int) -> EdgeLabeling | None:
    # the single edge has no labeling; below six vertices, search
    if n == 2:
        return None
    if n >= 6:
        return construct_path_shifted(n, k, g=g)
    return search(k)


def _construct_cp3(k: int, g: Graph, search: Callable, c: int) -> EdgeLabeling | None:
    # from c//2 down to the mirror axis lies the excluded band
    return mirror(lambda j: construct_cp3(c, j, g=g) if j >= c // 2 else None, g.m, k)


class Family(namedtuple("Family", "params build shape construct excluded", defaults=(None,) * 3)):
    """A graph family known by name, built by `build(**params)`.

    `params` names the keyword parameters. `shape(**params)` is the
    (n, m, canonical edges) `build` would build: a family request's graph
    is checked against it. `construct(k, g=graph, search=search,
    **params)` returns a k-shifted labeling of that very graph (`f.graph
    is g`) or None when k is infeasible; `search(k)` decides shift k on
    g exhaustively, for the paths too short for a construction.
    `excluded(**params)` gives the closed-form infeasible shifts, and
    raises BadParameters on a parameter out of range or None. The last
    three are None where the family has no construction or closed form.
    """

    __slots__ = ()


# Adding a family means adding one entry here. Entries call builders, shapes
# and constructors by this module's names, so a function rebound here is called.
FAMILIES: dict[str, Family] = {
    "path": Family(("n",), lambda n: path(n), lambda n: _path(n), _construct_path, _path_excluded),
    "star": Family(
        ("n",),
        lambda n: star(n),
        lambda n: _star(n),
        lambda k, g, n, **_: None if n == 1 else construct_star(n, k, g=g),
        _star_excluded,
    ),
    "double_star": Family(
        ("a", "b"),
        lambda a, b: double_star(a, b),
        lambda a, b: _double_star(a, b),
        lambda k, g, a, b, **_: construct_double_star(a, b, k, g=g),
        _double_star_excluded,
    ),
    "cp3": Family(("c",), lambda c: cp3(c), lambda c: _cp3(c), _construct_cp3, _cp3_excluded),
    "two_p4": Family(
        (),
        lambda: two_p4(),
        lambda: _TWO_P4,
        lambda k, g, **_: construct_two_p4(k, g=g),
        lambda: _tabled_excluded("two_p4"),
    ),
    "two_s3": Family(
        (),
        lambda: two_s3(),
        lambda: _TWO_S3,
        lambda k, g, **_: construct_two_s3(k, g=g),
        lambda: _tabled_excluded("two_s3"),
    ),
    "p5prime": Family(
        (),
        lambda: p5prime(),
        lambda: _P5PRIME,
        lambda k, g, **_: construct_p5prime(k, g=g),
        lambda: _tabled_excluded("p5prime"),
    ),
    "cycle": Family(("n",), lambda n: cycle(n)),
    "complete": Family(("n",), lambda n: complete(n)),
    "complete_bipartite": Family(("a", "b"), lambda a, b: complete_bipartite(a, b)),
    "cube": Family((), lambda: cube()),
    "petersen": Family((), lambda: petersen()),
}

# Command-line shorthands: `p7` is the path on 7 vertices, `s4` the star with 4 leaves.
SHORTHANDS = {"p": "path", "s": "star"}


def closed_form_spectrum(
    family: str,
    n: int | None = None,
    a: int | None = None,
    b: int | None = None,
    c: int | None = None,
) -> frozenset[int] | AllShifts:
    """The known excluded-shift set for a named family.

    Returns a frozenset of infeasible shifts, or ALL_SHIFTS for the
    single-edge graph where no shift works. BadParameters for a family
    without one, or a parameter that is neither None nor an int, or one
    the family does not take.
    """
    entry = FAMILIES.get(family) if isinstance(family, str) else None
    if entry is None or entry.excluded is None:
        raise BadParameters(f"no closed form for family {family!r}")
    given = {"n": n, "a": a, "b": b, "c": c}
    for key, value in given.items():
        if value is not None:
            require_int(f"{family} parameter {key}", value)
            if key not in entry.params:
                raise BadParameters(f"{family} takes no parameter {key}")
    return entry.excluded(**{key: given[key] for key in entry.params})
