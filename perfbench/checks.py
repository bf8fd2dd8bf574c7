"""Independent output checks.

Nothing here calls the toolkit. Labelings are judged by recomputing vertex
sums from plain edge lists, spectra by a table of the family formulas and
by brute-force enumeration, so a defect in the toolkit's own verifiers
cannot hide a wrong answer.
"""

from __future__ import annotations

from itertools import permutations

Edges = list[tuple[int, int]]


def vertex_sums(n: int, edges: Edges, labels) -> list[int]:
    sums = [0] * n
    for (u, v), lab in zip(edges, labels):
        sums[u] += lab
        sums[v] += lab
    return sums


def labeling_error(n: int, edges: Edges, labels, k: int, same_degree_only: bool = False) -> str | None:
    """None when `labels` is a k-shifted labeling of the graph, else a reason.

    The labels must be exactly {k+1, ..., k+m}. With `same_degree_only`
    only vertices of equal degree need distinct sums (the sdds property);
    otherwise every vertex sum must be distinct.
    """
    m = len(edges)
    if len(labels) != m:
        return f"{len(labels)} labels for {m} edges"
    if sorted(labels) != list(range(k + 1, k + m + 1)):
        return f"labels are not exactly {k + 1}..{k + m}"
    sums = vertex_sums(n, edges, labels)
    if same_degree_only:
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        keys = list(zip(deg, sums))
    else:
        keys = sums
    if len(set(keys)) != n:
        return "two vertices share a sum" if not same_degree_only else "two same-degree vertices share a sum"
    return None


def strong_error(n: int, edges: Edges, labels) -> str | None:
    """None when `labels` is a degree-ordered labeling, else a reason.

    The labels must be exactly {1, ..., m}, and ordering the vertices by
    degree must order their sums strictly: equal-degree sums differ, and a
    vertex of lower degree has the lower sum.
    """
    err = labeling_error(n, edges, labels, 0)
    if err:
        return err
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    ordered = [s for _, s in sorted(zip(deg, vertex_sums(n, edges, labels)))]
    if any(a >= b for a, b in zip(ordered, ordered[1:])):
        return "sums do not follow the degree order"
    return None


def shifted_labeling_exists(n: int, edges: Edges, k: int) -> bool:
    """Plain enumeration of every assignment of k+1..k+m to the edges.

    A pendant vertex's sum is its edge's label, so only the other
    vertices' sums are added up for each assignment.
    """
    m = len(edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    pendant = [inc[0] for inc in incident if len(inc) == 1]
    inner = [inc for inc in incident if len(inc) != 1]
    for perm in permutations(range(k + 1, k + m + 1)):
        sums = [perm[i] for i in pendant]
        sums += [sum(perm[i] for i in inc) for inc in inner]
        if len(set(sums)) == n:
            return True
    return False


def forest_key(n: int, edges: Edges) -> tuple[str, ...]:
    """Isomorphism invariant of a forest: each tree's canonical string
    (rooted at a centre, children sorted), sorted. Shift feasibility only
    depends on the graph up to isomorphism, so equal keys share verdicts."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rooted(v: int, parent: int) -> str:
        return "(" + "".join(sorted(rooted(w, v) for w in adj[v] if w != parent)) + ")"

    seen = [False] * n
    keys = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        # strip leaves layer by layer; the last one or two vertices are the centres
        deg = {v: len(adj[v]) for v in comp}
        layer = [v for v in comp if deg[v] <= 1]
        left = len(comp)
        while left > 2:
            left -= len(layer)
            nxt = []
            for v in layer:
                for w in adj[v]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
            layer = nxt
        keys.append(min(rooted(c, -1) for c in layer))
    return tuple(sorted(keys))


def family_excluded(family: str, p: dict) -> frozenset[int]:
    """Excluded shifts of the named families, as the paper states them."""
    if family == "path":
        return frozenset({3: {-2, -1}, 4: {-2}, 5: {-3, -2}}.get(p["n"], set()))
    if family == "star":
        n = p["n"]
        return frozenset({-n // 2 - 1, -n // 2} if n % 2 == 0 else {-(n + 1) // 2})
    if family == "double_star":
        big, small = max(p["a"], p["b"]), min(p["a"], p["b"])
        if small >= 2:
            return frozenset()
        if big <= 2:
            return frozenset(range(-big - 1, -1))
        return frozenset({-(big + 3) // 2}) if big % 2 == 1 else frozenset()
    if family == "cp3":
        c = p["c"]
        return frozenset(range(-(5 * c // 2), c // 2))
    if family in ("two_p4", "two_s3"):
        return frozenset({-5, -2})
    if family == "p5prime":
        return frozenset({-3})
    raise ValueError(f"no formula for {family}")


def p3_threshold(m: int) -> int:
    """Least c > m with (1+m+2c)(m+2c) < (1+m+5c)(c-m)."""
    c = m + 1
    while (1 + m + 2 * c) * (m + 2 * c) >= (1 + m + 5 * c) * (c - m):
        c += 1
    return c
