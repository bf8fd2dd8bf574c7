"""Spectra report the same labelings as before, shift for shift.

The exhaustive search returns the first labeling in a fixed visit order,
so a digest over whole spectrum reports pins its edge order, its label
order and every verdict. The constant was captured from the search that
kept one rule object per sum rule and re-sorted the unlabeled edges at
every step.
"""

from __future__ import annotations

import hashlib
import json
import random

from antimagic.families import cp3, double_star, p5prime, path, star, two_p4, two_s3
from antimagic.graph import build_graph
from antimagic.spectrum import spectrum
from test_construct_digest import prufer_tree

SPECTRUM_DIGEST = "bb2a7c1ef5886b3c8669da388c078c5bbab641e250d6d6df11e6db2e7b39c29d"


def closed_form_graphs():
    """Every family with a closed-form spectrum and a window, m <= 8."""
    graphs = [path(n) for n in range(3, 10)] + [star(n) for n in range(2, 9)]
    graphs += [double_star(a, b) for a in range(1, 7) for b in range(a, 8 - a)]
    graphs += [cp3(c) for c in range(1, 5)] + [two_p4(), two_s3(), p5prime()]
    return graphs


def random_forest(rng: random.Random, m: int):
    """A forest with m edges, no single-edge component, on shuffled ids."""
    parts = []
    left = m
    while left:
        part = left if left < 4 else rng.randint(2, left)
        if left - part == 1:
            part = left
        parts.append(part)
        left -= part
    n = sum(parts) + len(parts)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    base = 0
    for part in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in prufer_tree(rng, part + 1)]
        base += part + 1
    return build_graph(n, edges)


def forests():
    rng = random.Random(8128)
    return [random_forest(rng, rng.randint(6, 8)) for _ in range(60)]


def test_spectra_match_digest():
    h = hashlib.sha256()
    for g in closed_form_graphs() + forests():
        h.update(json.dumps(spectrum(g).to_dict(), sort_keys=True).encode())
    # windowless: a single edge, and a path with two isolated vertices
    for g, window in ((path(2), (-4, 2)), (build_graph(5, [(0, 1), (1, 2)]), (-5, 2))):
        h.update(json.dumps(spectrum(g, window=window).to_dict(), sort_keys=True).encode())
    assert h.hexdigest() == SPECTRUM_DIGEST
