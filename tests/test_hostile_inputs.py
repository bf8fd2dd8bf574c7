"""Tiny requests whose cost would be out of all proportion to them.

Each request runs as `python -m antimagic` in a child process whose
address space is capped at 512 MiB. With n > 2m+1 two vertices are
isolated and share the sum 0, so no shift is feasible; the toolkit must
say so from the edges alone, exit with its usual status and print no
traceback. A per-vertex list for n = 10^9 would need gigabytes. A sweep
over two billion shifts or of more labels than the sweep cap, or a
family with 10^8 or more edges, must be refused in one error line before
any work starts. In process, with the caps made small, each size is
taken exactly at its cap and refused one past it.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import antimagic
from antimagic import families
from antimagic.constructors import FAMILIES
from antimagic.errors import BadParameters
from antimagic.families import path

spectrum_module = sys.modules["antimagic.spectrum"]

SRC = Path(antimagic.__file__).resolve().parent.parent
CAP = 512 * 2**20

SINGLE_EDGE = "1000000000 1\n0 1\n"  # a single-edge component, then isolated vertices
PATH_P4 = "1000000000 3\n0 1\n1 2\n2 3\n"  # no single-edge component


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "antimagic", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        (SINGLE_EDGE, ("construct", "--k", "0"), 2, "infeasible: no 0-shifted labeling exists"),
        (SINGLE_EDGE, ("decide", "--k", "0"), 2, "infeasible: exhaustive search rules out k=0"),
        (PATH_P4, ("construct", "--k", "5"), 2, "infeasible: no 5-shifted labeling exists"),
        (PATH_P4, ("decide", "--k", "-2"), 2, "infeasible: exhaustive search rules out k=-2"),
        (SINGLE_EDGE, ("spectrum",), 0, "every shift is infeasible for this graph"),
        (PATH_P4, ("spectrum",), 0, "every shift is infeasible for this graph"),
    ],
    ids=["construct-k2", "decide-k2", "construct-p4", "decide-p4", "spectrum-k2", "spectrum-p4"],
)
def test_huge_vertex_count_is_settled_from_the_edges(tmp_path, text, argv, code, message):
    graph = tmp_path / "graph.txt"
    graph.write_text(text)
    proc = run_capped(*argv, "--graph", str(graph))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == message
    if argv == ("spectrum",):
        assert json.loads(proc.stdout)["excluded_all_shifts"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("spectrum", "--family", "p9", "--window=-1000000000:1000000000"),
            "error: sweep range -1000000000..1000000000 holds 2000000001 shifts,"
            " more than the 10000 allowed",
        ),
        (
            ("construct", "--family", "complete", "--n", "100000", "--k", "0"),
            "error: complete graph would have 4999950000 edges, more than the 2000000 allowed",
        ),
        (
            ("construct", "--family", "cycle", "--n", "100000000", "--k", "0"),
            "error: cycle would have 100000000 edges, more than the 2000000 allowed",
        ),
        (
            ("construct", "--family", "p100000000", "--k", "0"),
            "error: path would have 99999999 edges, more than the 2000000 allowed",
        ),
        # 10,000 lemma certificates of 1,999 labels each would outgrow the cap
        (
            ("spectrum", "--family", "p2000", "--window=2000:11999"),
            "error: sweep range 2000..11999 of a 1999-edge graph holds 19990000 labels,"
            " more than the 5000000 allowed",
        ),
    ],
    ids=[
        "spectrum-wide-window",
        "construct-complete",
        "construct-cycle",
        "construct-path",
        "spectrum-past-the-cap",
    ],
)
def test_wide_sweeps_and_huge_families_are_refused(argv, message):
    proc = run_capped(*argv)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == message


# --- each cap, at it and one past it ------------------------------------------

# the parameters at which each sized family has exactly six edges
AT_SIX_EDGES = {
    "path": {"n": 7},
    "star": {"n": 6},
    "double_star": {"a": 2, "b": 3},
    "cp3": {"c": 3},
    "cycle": {"n": 6},
    "complete": {"n": 4},
    "complete_bipartite": {"a": 2, "b": 3},
}


def test_every_sized_family_is_built_at_the_edge_cap_and_refused_one_past_it(monkeypatch):
    monkeypatch.setattr(families, "MAX_EDGES", 6)
    assert set(AT_SIX_EDGES) == {name for name, entry in FAMILIES.items() if entry.params}
    for name, params in AT_SIX_EDGES.items():
        entry = FAMILIES[name]
        assert entry.build(**params).m == 6, name
        if entry.shape is not None:
            assert entry.shape(**params)[1] == 6, name
        for key in params:
            past = {**params, key: params[key] + 1}
            with pytest.raises(BadParameters, match=r"edges, more than the 6 allowed$"):
                entry.build(**past)
            if entry.shape is not None:  # a family request is refused by its shape
                with pytest.raises(BadParameters, match=r"edges, more than the 6 allowed$"):
                    antimagic.spectrum(path(3), family=(name, past))


def test_a_sweep_is_made_at_each_cap_and_refused_one_past_it(monkeypatch):
    monkeypatch.setattr(spectrum_module, "MAX_SWEEP", 5)
    assert len(antimagic.spectrum(path(4), window=(1, 5)).entries) == 5
    with pytest.raises(BadParameters, match=r"^sweep range 1\.\.6 holds 6 shifts, more than the 5 allowed$"):
        antimagic.spectrum(path(4), window=(1, 6))
    # path(4) has 3 edges, and its full window -3..-1 holds 9 labels
    monkeypatch.setattr(spectrum_module, "MAX_SWEEP_LABELS", 12)
    assert len(antimagic.spectrum(path(4), window=(1, 4)).entries) == 4
    with pytest.raises(BadParameters, match=r"holds 15 labels, more than the 12 allowed$"):
        antimagic.spectrum(path(4), window=(1, 5))
    monkeypatch.setattr(spectrum_module, "MAX_SWEEP_LABELS", 9)
    assert len(antimagic.spectrum(path(4)).entries) == 3
    monkeypatch.setattr(spectrum_module, "MAX_SWEEP_LABELS", 8)
    with pytest.raises(BadParameters, match=r"holds 9 labels, more than the 8 allowed$"):
        antimagic.spectrum(path(4))
