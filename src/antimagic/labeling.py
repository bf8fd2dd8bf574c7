"""Edge labelings, vertex sums, and the verification predicates.

An EdgeLabeling binds integer labels to the edges of a graph, aligned with
the graph's canonical edge order. `base` records the claimed shift k when
the labels are meant to be exactly {k+1, ..., k+m}; raw labelings leave it
None. Verification never trusts `base` or any cached sums: everything is
recomputed from the labels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import repeat
from operator import add, mul

from .errors import BadParameters, InvalidLabeling, require_int
from .graph import Edge, Graph


class EdgeLabeling(namedtuple("EdgeLabeling", "graph labels base")):
    """Labels on a graph's edges, in canonical edge order, and the claimed
    shift `base` (None for a raw labeling); BadParameters unless `base`
    is None or an int."""

    __slots__ = ()

    def __new__(
        cls, graph: Graph, labels: tuple[int, ...], base: int | None = None
    ) -> EdgeLabeling:
        if len(labels) != graph.m:
            raise InvalidLabeling(f"{len(labels)} labels for {graph.m} edges")
        if base is not None:
            require_int("shift", base)
        return tuple.__new__(cls, (graph, labels, base))

    @classmethod
    def _make(cls, iterable) -> EdgeLabeling:
        # `_replace` builds through `_make`; both keep the length check
        return cls(*iterable)

    @classmethod
    def from_dict(
        cls, graph: Graph, mapping: Mapping[Edge, int], base: int | None = None
    ) -> EdgeLabeling:
        """Build a labeling from an edge -> label mapping covering every edge."""
        labels = []
        for e in graph.edges:
            if e not in mapping:
                raise InvalidLabeling(f"edge {e} has no label")
            labels.append(mapping[e])
        return cls(graph, tuple(labels), base)

    def as_dict(self) -> dict[Edge, int]:
        return dict(zip(self.graph.edges, self.labels))


class Verdict(namedtuple("Verdict", "ok code witness detail", defaults=(None, None, None))):
    """Outcome of a verification check; true exactly when `ok`.

    `code` names the first violated condition; `witness` pins down where.
    Checks run in a fixed order so the same bad input always yields the
    same verdict.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def accept() -> Verdict:
        return Verdict(True)

    @staticmethod
    def reject(code: str, witness: tuple, detail: str) -> Verdict:
        return Verdict(False, code, witness, detail)


def vertex_sums(f: EdgeLabeling) -> tuple[int, ...]:
    """Sum of incident edge labels per vertex; isolated vertices get 0."""
    return tuple(_leading_sums(f, f.graph.n))


def _leading_sums(f: EdgeLabeling, count: int) -> list[int]:
    """Vertex sums of vertices 0..count-1 only."""
    sums = [0] * count
    if count == f.graph.n:  # every endpoint is in range: no test per edge
        for (u, v), lab in zip(f.graph.edges, f.labels):
            sums[u] += lab
            sums[v] += lab
        return sums
    for (u, v), lab in zip(f.graph.edges, f.labels):
        if u < count:
            sums[u] += lab
        if v < count:
            sums[v] += lab
    return sums


def verify_shifted(f: EdgeLabeling, k: int) -> Verdict:
    """Check that f is a k-shifted antimagic labeling.

    Accepts iff the labels are exactly {k+1, ..., k+m} and all vertex sums
    are pairwise distinct. Label-set violations are reported before sum
    collisions, each with the first witness in canonical edge order.
    Raises BadParameters unless k is an int.
    """
    require_int("shift", k)
    return _shifted_verdict(f, k)


def _shifted_verdict(f: EdgeLabeling, k: int, sums: list[int] | None = None) -> Verdict:
    """verify_shifted's verdict, reusing every vertex's sum when given.

    Without `sums`, only vertices 0..min(n, 2m+2)-1 are summed: at most 2m
    vertices touch an edge, so two of vertices 0..2m+1 are isolated and
    share the sum 0, the first collision lies in that prefix, and a huge
    n costs nothing. The scan of all n sums finds that same collision.
    The least and greatest label and one set accept (m distinct labels in
    [lo, hi] are exactly lo..hi); the scans run only to name the first
    violation.
    """
    g = f.graph
    lo, hi = k + 1, k + g.m
    labels = f.labels
    if len(labels) != g.m or (
        labels and (min(labels) != lo or max(labels) != hi or len(set(labels)) != g.m)
    ):
        seen: dict[int, int] = {}
        for i, lab in enumerate(labels):
            if lab in seen:
                first = g.edges[seen[lab]]
                return Verdict.reject(
                    "duplicate-label",
                    (first, g.edges[i], lab),
                    f"label {lab} used on both {first} and {g.edges[i]}",
                )
            seen[lab] = i
        for i, lab in enumerate(labels):
            if not (lo <= lab <= hi):
                return Verdict.reject(
                    "label-out-of-range",
                    (g.edges[i], lab),
                    f"label {lab} on {g.edges[i]} outside [{lo}, {hi}]",
                )
    if sums is None:
        sums = _leading_sums(f, min(g.n, 2 * g.m + 2))
    if len(set(sums)) < len(sums):
        return _sum_collision(sums)
    return Verdict.accept()


def _first_repeat(keys: Iterable) -> tuple[int, int] | None:
    """(u, v) for the first vertex v whose key an earlier vertex u holds.

    Callers test first, with one set, that some key repeats, so an
    accepted labeling never pays for this scan.
    """
    first_with: dict = {}
    for v, key in enumerate(keys):
        u = first_with.setdefault(key, v)
        if u != v:
            return u, v
    return None


def _sum_collision(sums: Sequence[int]) -> Verdict:
    """The rejection naming the first two vertices with equal sums."""
    u, v = _first_repeat(sums)
    s = sums[v]
    return Verdict.reject(
        "vertex-sum-collision", (u, v, s), f"vertices {u} and {v} both sum to {s}"
    )


def _require_one_to_m(f: EdgeLabeling) -> None:
    """Raise InvalidLabeling unless the labels are a permutation of 1..m.

    m labels that cover 1..m are a permutation of it, so one set accepts;
    the sort runs only to name the labels in the message, or when they
    are unhashable.
    """
    m = f.graph.m
    try:
        if len(f.labels) == m and set(f.labels).issuperset(range(1, m + 1)):
            return
    except TypeError:
        pass
    if sorted(f.labels) != list(range(1, m + 1)):
        raise InvalidLabeling(
            f"labels must be a permutation of 1..{m}, got {sorted(f.labels)}"
        )


def is_sdds(f: EdgeLabeling) -> Verdict:
    """Check distinct sums among same-degree vertices for a 1..m labeling."""
    _require_one_to_m(f)
    sums = vertex_sums(f)
    deg = f.graph.degrees()
    # each (degree, sum) as the one int sum * width + degree, as 0 <= degree < width
    width = f.graph.max_degree() + 1
    if len(set(map(add, map(mul, sums, repeat(width)), deg))) < len(sums):
        u, v = _first_repeat(zip(deg, sums))
        s = sums[v]
        return Verdict.reject(
            "same-degree-sum-collision",
            (u, v, s),
            f"degree-{deg[v]} vertices {u} and {v} both sum to {s}",
        )
    return Verdict.accept()


def is_strongly_antimagic(f: EdgeLabeling) -> Verdict:
    """Check antimagic with sums ordered strictly by degree (1..m labels).

    Accepts iff all vertex sums are pairwise distinct and deg(u) > deg(v)
    implies sum(u) > sum(v). A degree-order violation is reported as its
    first pair (u, v), u < v, in pair order.
    """
    _require_one_to_m(f)
    sums = vertex_sums(f)
    deg = f.graph.degrees()
    if len(set(sums)) < len(sums):
        return _sum_collision(sums)
    u = _first_out_of_order(deg, sums)
    if u is None:
        return Verdict.accept()
    # u is the least vertex in any violation, so its first partner is the
    # first violating pair in (u, v) order
    v = next(v for v in range(u + 1, len(sums)) if (deg[u] - deg[v]) * (sums[u] - sums[v]) < 0)
    hi, lo = (u, v) if deg[u] > deg[v] else (v, u)
    return Verdict.reject(
        "degree-order-violation",
        (hi, lo),
        f"deg({hi})={deg[hi]} > deg({lo})={deg[lo]} but sum {sums[hi]} < {sums[lo]}",
    )


def _first_out_of_order(deg: Sequence[int], sums: Sequence[int]) -> int | None:
    """The least vertex whose sum breaks the degree order with some other
    vertex, or None; sums must be distinct.

    A vertex breaks it when a vertex of lower degree has a larger sum or
    one of higher degree a smaller sum, so the largest sum below its
    degree and the smallest above decide it: O(n log n) in all, for the
    sort of the degrees.
    """
    top: dict[int, int] = {}  # degree -> largest sum at it
    bottom: dict[int, int] = {}  # degree -> smallest sum at it
    for d, s in zip(deg, sums):
        top[d] = max(top.get(d, s), s)
        bottom[d] = min(bottom.get(d, s), s)
    below: dict[int, float] = {}  # degree -> largest sum at a lower degree
    above: dict[int, float] = {}  # degree -> smallest sum at a higher degree
    run: float = -math.inf
    for d in sorted(top):
        below[d], run = run, max(run, top[d])
    run = math.inf
    for d in sorted(top, reverse=True):
        above[d], run = run, min(run, bottom[d])
    return next(
        (u for u, (d, s) in enumerate(zip(deg, sums)) if below[d] > s or above[d] < s), None
    )


def shift_labeling(f: EdgeLabeling, t: int) -> EdgeLabeling:
    """Add t to every label. Vertex sums move by t * deg(v)."""
    require_int("shift", t)
    base = None if f.base is None else f.base + t
    return EdgeLabeling(f.graph, tuple(lab + t for lab in f.labels), base)


def negate_labeling(f: EdgeLabeling) -> EdgeLabeling:
    """Negate every label.

    A labeling onto {k+1, ..., k+m} becomes one onto {k'+1, ..., k'+m}
    with k' = -(m + k + 1), and vertex sums negate, so distinctness is
    preserved. The recorded base is updated accordingly.
    """
    base = None if f.base is None else -(f.graph.m + f.base + 1)
    return EdgeLabeling(f.graph, tuple(-lab for lab in f.labels), base)


def mirror(upper: Callable[[int], EdgeLabeling | None], m: int, k: int) -> EdgeLabeling | None:
    """A k-shifted labeling from a construction of the upper half only.

    `upper(j)` must return a j-shifted labeling of an m-edge graph, or None
    when shift j is infeasible, for every j with 2j >= -(m+1). Negation
    maps shift j to -(m+1)-j, so below that axis the answer is the
    negation of `upper(-(m+1)-k)`, and None stays None.
    """
    if 2 * k >= -(m + 1):
        return upper(k)
    f = upper(-(m + 1) - k)
    return None if f is None else negate_labeling(f)


def sdds_shift_threshold(g: Graph) -> int:
    """Smallest shift guaranteed to turn same-degree-distinct sums into
    all-distinct sums: (m - 1) * (max degree - 1)."""
    if g.m == 0:
        raise BadParameters("threshold undefined for a graph with no edges")
    return (g.m - 1) * (g.max_degree() - 1)
