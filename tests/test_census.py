"""A census of every tree on 3 to 10 vertices, every swept shift, and of
every atlas graph with 1 to 10 edges.

The trees are all of `networkx.nonisomorphic_trees`, counted against
OEIS A000055. On each, every labeling `spectrum` returns must verify at
its shift, every shift it excludes on a tree with at most 7 edges must
be refuted by enumerating all m! label orders, and the trees that
exclude any shift are exactly the pinned fifteen, the stars, paths and
double stars among them excluding what their closed forms say.

The atlas graphs are the 705 of `networkx.graph_atlas_g` (every graph on
up to 7 vertices) with 1 to 10 edges. Those without a window are exactly
those with a single-edge component or two isolated vertices; on the rest
the same checks hold, every excluded shift refuted by enumeration.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations

import pytest

from antimagic.constructors import ALL_SHIFTS, closed_form_spectrum
from antimagic.families import double_star, path, star
from antimagic.graph import build_graph
from antimagic.labeling import verify_shifted
from antimagic.spectrum import spectrum

nx = pytest.importorskip("networkx")

# OEIS A000055: the number of trees on n unlabeled vertices
TREE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}

# every census tree that excludes a shift: (name, closed-form family and
# parameters or None, the tree)
EXCLUDING = [
    *((f"star({leaves})", ("star", {"n": leaves}), star(leaves)) for leaves in range(2, 10)),
    *((f"path({n})", ("path", {"n": n}), path(n)) for n in (4, 5)),
    *(
        (f"double_star({a}, {b})", ("double_star", {"a": a, "b": b}), double_star(a, b))
        for a, b in ((2, 1), (3, 1), (5, 1), (7, 1))
    ),
    ("spider(2, 2, 1)", None, build_graph(6, [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4)])),
]


@pytest.fixture(scope="module")
def census():
    """(tree, its spectrum) for every tree on 3 to 10 vertices."""
    out = []
    for n in TREE_COUNTS:
        for t in nx.nonisomorphic_trees(n):
            g = build_graph(n, list(t.edges()))
            out.append((g, spectrum(g)))
    return out


def refuted_by_enumeration(g, shifts):
    """True when no order of the labels k+1..k+m on g's edges gives
    distinct vertex sums, at any of `shifts`."""
    deg = g.degrees()
    for order in permutations(range(1, g.m + 1)):
        sums = [0] * g.n
        for (u, v), lab in zip(g.edges, order):
            sums[u] += lab
            sums[v] += lab
        # label k+p on each edge adds k to each incident label
        if any(len({s + k * d for s, d in zip(sums, deg)}) == g.n for k in shifts):
            return False
    return True


def test_the_census_counts_every_tree_once(census):
    counts = dict.fromkeys(TREE_COUNTS, 0)
    for g, _ in census:
        assert nx.is_tree(nx.Graph(g.edges)) and g.m == g.n - 1
        counts[g.n] += 1
    assert counts == TREE_COUNTS


def test_every_certificate_verifies_at_its_shift(census):
    for g, rep in census:
        for row in rep.entries:
            if row.certificate is not None:
                assert row.certificate.graph == g
                assert verify_shifted(row.certificate, row.k), (g.edges, row.k)


def test_every_excluded_shift_is_an_infeasible_row(census):
    for g, rep in census:
        infeasible = [row.k for row in rep.entries if row.status == "infeasible"]
        assert all(row.certificate is None for row in rep.entries if row.status == "infeasible")
        assert list(rep.excluded) == infeasible, g.edges


def test_excluded_shifts_of_small_trees_agree_with_enumeration(census):
    checked = 0
    for g, rep in census:
        if g.m <= 7 and rep.excluded:
            assert refuted_by_enumeration(g, rep.excluded), (g.edges, rep.excluded)
            # and finds a labeling just above the sweep, where the window proves one
            assert not refuted_by_enumeration(g, [rep.sweep_hi + 1]), g.edges
            checked += 1
    # the stars with 2 to 7 leaves, P4, P5, the double stars (2, 1), (3, 1)
    # and (5, 1), and the spider
    assert checked == 12


def test_exactly_the_pinned_trees_exclude_a_shift(census):
    excluding = [(g, rep) for g, rep in census if rep.excluded]
    assert len(excluding) == len(EXCLUDING) == 15
    for name, closed, want in EXCLUDING:
        matches = [
            rep
            for g, rep in excluding
            if g.n == want.n and nx.is_isomorphic(nx.Graph(g.edges), nx.Graph(want.edges))
        ]
        assert len(matches) == 1, name
        excluded = frozenset(matches[0].excluded)
        if closed is None:
            assert excluded == {-3}, name
        else:
            family, params = closed
            assert excluded == closed_form_spectrum(family, **params), name


@pytest.fixture(scope="module")
def atlas():
    """(graph, its spectrum) for every atlas graph with 1 to 10 edges."""
    out = []
    for a in nx.graph_atlas_g():
        if 1 <= a.number_of_edges() <= 10:
            g = build_graph(a.number_of_nodes(), list(a.edges()))
            out.append((g, spectrum(g)))
    return out


def test_atlas_graphs_without_a_window_have_a_single_edge_or_two_isolated_vertices(atlas):
    assert len(atlas) == 705
    reasons = Counter()
    for g, rep in atlas:
        deg = Counter(chain.from_iterable(g.edges))
        single_edge = any(deg[u] == deg[v] == 1 for u, v in g.edges)
        two_isolated = g.n - len(deg) >= 2
        assert (rep.window is None) == (single_edge or two_isolated), g.edges
        if rep.window is None:
            assert (rep.excluded, rep.entries) == (ALL_SHIFTS, ()), g.edges
            reasons[single_edge, two_isolated] += 1
    assert reasons == {(True, False): 44, (False, True): 39, (True, True): 8}


def test_atlas_certificates_verify_and_exclusions_are_the_infeasible_rows(atlas):
    for g, rep in atlas:
        for row in rep.entries:
            if row.certificate is not None:
                assert row.certificate.graph == g
                assert verify_shifted(row.certificate, row.k), (g.edges, row.k)
        if rep.window is not None:
            infeasible = [row.k for row in rep.entries if row.status == "infeasible"]
            assert list(rep.excluded) == infeasible, g.edges


def test_atlas_exclusions_agree_with_enumeration(atlas):
    windowed = [(g, rep) for g, rep in atlas if rep.window is not None]
    excluding = [(g, rep) for g, rep in windowed if rep.excluded]
    assert (len(excluding), len(windowed) - len(excluding)) == (36, 578)
    assert sum(len(rep.excluded) for _, rep in excluding) == 98
    for g, rep in excluding:
        assert g.m <= 7, g.edges
        assert refuted_by_enumeration(g, rep.excluded), (g.edges, rep.excluded)
        # and finds a labeling just above the sweep, where the window proves one
        assert not refuted_by_enumeration(g, [rep.sweep_hi + 1]), g.edges
