"""Shared helpers for building random inputs with seeded stdlib RNGs."""

from __future__ import annotations

import importlib
import random
from itertools import combinations

import pytest

from antimagic.graph import Graph, build_graph
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


def random_labeling(rng: random.Random, g: Graph, k: int) -> EdgeLabeling:
    """Random bijection from the edges of g onto {k+1, ..., k+m}."""
    labels = list(range(k + 1, k + g.m + 1))
    rng.shuffle(labels)
    return EdgeLabeling(g, tuple(labels), base=k)


@pytest.fixture
def forbid_components(monkeypatch):
    """Make every binding of graph.components fail when called."""

    def boom(g):
        raise AssertionError("components() called")

    # import_module, because the package re-exports a function named spectrum
    monkeypatch.setattr(importlib.import_module("antimagic.graph"), "components", boom)
    for name in ("antimagic.spectrum", "antimagic.constructors"):
        monkeypatch.setattr(importlib.import_module(name), "components", boom, raising=False)
