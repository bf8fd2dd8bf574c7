"""Shared helpers for building random inputs with seeded stdlib RNGs."""

from __future__ import annotations

import importlib
import random
from itertools import combinations

import pytest

from antimagic.graph import Graph, build_graph, canonical_edge
from antimagic.labeling import EdgeLabeling


def random_tree(rng: random.Random, n: int) -> Graph:
    """Random labeled tree on n vertices via random attachment."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_graph(n, edges)


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform simple graph with exactly m edges on n vertices."""
    pool = list(combinations(range(n), 2))
    if m > len(pool):
        raise ValueError(f"cannot place {m} edges on {n} vertices")
    return build_graph(n, rng.sample(pool, m))


def edge_list_text(g: Graph) -> str:
    """g in the plain text format `parse_edge_list` reads."""
    return "".join([f"{g.n} {g.m}\n", *(f"{u} {v}\n" for u, v in g.edges)])


def random_labeling(rng: random.Random, g: Graph, k: int) -> EdgeLabeling:
    """Random bijection from the edges of g onto {k+1, ..., k+m}."""
    labels = list(range(k + 1, k + g.m + 1))
    rng.shuffle(labels)
    return EdgeLabeling(g, tuple(labels), base=k)


def k32_blocks(c: int) -> tuple[Graph, list[int]]:
    """c disjoint K(3,2) cross blocks: shallow 5i..5i+2, deep 5i+3 and 5i+4.

    The first-choice sigma strands a closed 4-cycle in every block.
    """
    edges = [(5 * i + s, 5 * i + d) for i in range(c) for s in range(3) for d in (3, 4)]
    return build_graph(5 * c, edges), [5 * i + d for i in range(c) for d in (3, 4)]


def pairing_regular(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """A simple d-regular graph on n vertices (d*n even) from the pairing model."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {canonical_edge(stubs[i], stubs[i + 1]) for i in range(0, d * n, 2)}
        if len(edges) == d * n // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def disjoint_union(parts: list[tuple[int, list[tuple[int, int]]]], rng: random.Random) -> Graph:
    """The parts side by side, vertex ids shuffled, so parts interleave."""
    n = sum(size for size, _ in parts)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    base = 0
    for size, part in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in part]
        base += size
    return build_graph(n, edges)


def k32_fan(c: int) -> tuple[int, list[tuple[int, int]]]:
    """A hub joined to c groups of three, each group complete to two deep
    vertices: level 2 from the hub is c disjoint K(3,2) blocks. All
    degrees are odd when c is."""
    edges = []
    for j in range(c):
        shallow = [1 + 5 * j + s for s in range(3)]
        edges += [(0, s) for s in shallow]
        edges += [(s, 4 + 5 * j + d) for s in shallow for d in range(2)]
    return 1 + 5 * c, edges


@pytest.fixture
def forbid_components(monkeypatch):
    """Make every binding of graph.components fail when called."""

    def boom(g):
        raise AssertionError("components() called")

    # import_module, because the package re-exports a function named spectrum
    monkeypatch.setattr(importlib.import_module("antimagic.graph"), "components", boom)
    for name in ("antimagic.spectrum", "antimagic.constructors"):
        monkeypatch.setattr(importlib.import_module(name), "components", boom, raising=False)


@pytest.fixture
def forbid_sums_past_prefix(monkeypatch):
    """Fail any vertex-sum pass that reaches past vertex 2m+1.

    Every binding of labeling.vertex_sums (which sums all n vertices)
    fails, and the prefix helper fails when asked for more than the 2m+2
    vertices 0..2m+1.
    """
    labeling = importlib.import_module("antimagic.labeling")
    prefix = labeling._leading_sums

    def bounded(f, count):
        if count > 2 * f.graph.m + 2:
            raise AssertionError(f"sums of {count} vertices for {f.graph.m} edges")
        return prefix(f, count)

    def boom(f):
        raise AssertionError("vertex_sums() called")

    monkeypatch.setattr(labeling, "_leading_sums", bounded)
    for name in ("antimagic.labeling", "antimagic.certificate", "antimagic.cli"):
        monkeypatch.setattr(importlib.import_module(name), "vertex_sums", boom, raising=False)
