"""Command-line interface: exit codes, JSON output, and file handling."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import cli
from antimagic.cli import main
from antimagic.graph import Graph
from antimagic.constructors import FAMILIES
from antimagic.spectrum import decide
from test_cli_corpus import GRAPHS

# the module itself: the package exports the function `spectrum` under its name
spectrum_module = sys.modules["antimagic.spectrum"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_then_verify_round_trip(tmp_path, capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "p8", "--k", "-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == -3 and doc["valid"] is True
    assert "feasible" in err

    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, err = run_cli(capsys, "verify", str(cert))
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert "valid certificate" in err


def test_construct_infeasible_exits_two(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "s4", "--k", "-3")
    assert code == 2
    doc = json.loads(out)
    assert doc == {"feasible": False, "k": -3, "m": 4, "n": 5}


def test_construct_infeasible_huge_header_skips_components(tmp_path, capsys, forbid_components):
    graph = tmp_path / "g.txt"
    graph.write_text("200000 3\n0 1\n2 3\n3 4\n")
    code, out, _ = run_cli(capsys, "construct", "--graph", str(graph), "--k", "0")
    assert code == 2
    assert json.loads(out) == {"feasible": False, "k": 0, "m": 3, "n": 200000}


def test_construct_with_a_single_edge_component_is_infeasible_past_the_budget(
    tmp_path, capsys, monkeypatch
):
    # 14 edges exceed the search budget of 10, but the component 0-1 alone
    # rules out every shift, so the answer comes without a search
    def no_search(*args):
        raise AssertionError("decide() called")

    monkeypatch.setattr(spectrum_module, "decide", no_search)
    lines = ["30 14", "0 1"] + [f"{v} {v + 1}" for v in range(2, 15)]
    graph = tmp_path / "g.txt"
    graph.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "construct", "--graph", str(graph), "--k", "5")
    assert code == 2
    assert json.loads(out) == {"feasible": False, "k": 5, "m": 14, "n": 30}
    assert "infeasible" in err


@pytest.mark.parametrize(("header", "code"), [("1 0", 0), ("2 0", 2)])
def test_construct_on_an_edgeless_graph_still_searches(tmp_path, capsys, monkeypatch, header, code):
    calls = []
    monkeypatch.setattr(spectrum_module, "decide", lambda *a: calls.append(a) or decide(*a))
    graph = tmp_path / "g.txt"
    graph.write_text(header + "\n")
    assert run_cli(capsys, "construct", "--graph", str(graph), "--k", "0")[0] == code
    assert len(calls) == 1


def test_construct_family_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "double_star", "--a", "3", "--b", "2",
        "--k", "0",
    )
    assert code == 0
    assert json.loads(out)["valid"] is True

    code, out, _ = run_cli(capsys, "construct", "--family", "cp3", "--c", "4",
                           "--k", "-11")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == -11 and doc["valid"] is True


def test_verify_tampered_certificate_exits_two(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "p6", "--k", "0")
    assert code == 0
    doc = json.loads(out)
    doc["vertex_sums"][0] -= 1
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(cert))
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert report["code"] == "vertex-sums-mismatch"


def test_verify_prints_the_sums_the_check_computed(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "construct", "--family", "p8", "--k", "-3")
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, report, _ = run_cli(capsys, "verify", str(cert))
    assert code == 0
    assert json.loads(report)["vertex_sums"] == [-1, -3, -2, 1, 4, 7, 6, 2]
    doc = json.loads(out)
    doc["labels"][0] = doc["labels"][1]  # rejected before any sum is needed
    cert.write_text(json.dumps(doc))
    code, report, _ = run_cli(capsys, "verify", str(cert))
    assert code == 2
    assert json.loads(report)["vertex_sums"] == [-2, -4, -2, 1, 4, 7, 6, 2]


def test_verify_huge_edgeless_certificate_prints_no_sums(tmp_path, capsys, forbid_sums_past_prefix):
    cert = tmp_path / "huge.json"
    cert.write_text(json.dumps({"n": 3_000_000, "edges": [], "k": 0, "labels": []}))
    code, out, _ = run_cli(capsys, "verify", str(cert))
    assert code == 2
    assert len(out.encode()) < 1024
    report = json.loads(out)
    assert report["code"] == "vertex-sum-collision"
    assert report["witness"] == [0, 1, 0]
    assert report["vertex_sums"] is None


@pytest.mark.parametrize(("n", "sums"), [(3, [1, 1, 0]), (4, None)])
def test_verify_prints_sums_up_to_n_of_2m_plus_1(tmp_path, capsys, n, sums):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"n": n, "edges": [[0, 1]], "k": 0, "labels": [1]}))
    code, out, _ = run_cli(capsys, "verify", str(cert))
    assert code == 2
    assert json.loads(out)["vertex_sums"] == sums


def test_verify_garbage_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "error" in err


def test_verify_a_json_array_exits_one(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text("[]")
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert (code, out, err) == (1, "", "error: certificate must be a JSON object\n")


def test_decide_exit_codes(tmp_path, capsys):
    g = tmp_path / "p4.txt"
    g.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "decide", "--graph", str(g), "--k", "-1")
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, out, _ = run_cli(capsys, "decide", "--graph", str(g), "--k", "-2")
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_graph_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("4 3\n0 1\n1 2\n2 3\n"))
    code, out, _ = run_cli(capsys, "decide", "--graph", "-", "--k", "0")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_spectrum_family_shorthand(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--family", "p5")
    assert code == 0
    doc = json.loads(out)
    assert doc["excluded"] == [-3, -2]
    assert doc["window"] == {"lo": -4, "hi": -1, "method": "strong"}
    assert "excluded shifts: [-3, -2]" in err


def test_spectrum_window_override_equals_form(tmp_path, capsys):
    g = tmp_path / "p4.txt"
    g.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "spectrum", "--graph", str(g),
                           "--window=-5:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["sweep"] == {"lo": -5, "hi": 2}
    assert doc["excluded"] == [-2]


def test_spectrum_single_edge_reports_total_exclusion(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "p2")
    assert code == 0
    doc = json.loads(out)
    assert doc["excluded_all_shifts"] is True
    assert doc["window"] is None


def test_spectrum_windowless_without_closed_form_excludes_all_shifts(tmp_path, capsys):
    g = tmp_path / "k2pair.txt"
    g.write_text("4 2\n0 1\n2 3\n")
    code, out, err = run_cli(capsys, "spectrum", "--graph", str(g))
    assert code == 0
    doc = json.loads(out)
    assert doc["excluded_all_shifts"] is True and doc["window"] is None
    assert err == "every shift is infeasible for this graph\n"


def test_spectrum_of_k2_from_a_file_matches_the_family(tmp_path, capsys):
    g = tmp_path / "k2.txt"
    g.write_text("2 1\n0 1\n")
    from_file = run_cli(capsys, "spectrum", "--graph", str(g))
    assert from_file == run_cli(capsys, "spectrum", "--family", "p2")
    assert from_file[0] == 0


def test_spectrum_of_an_edgeless_graph_is_an_error(tmp_path, capsys):
    g = tmp_path / "k1.txt"
    g.write_text("1 0\n")
    assert run_cli(capsys, "spectrum", "--graph", str(g)) == (1, "", "error: no edges to label\n")


def family_name(fam: list[str]) -> str:
    """The registry name the command line resolves `fam` to."""
    return cli._build_family(cli._build_parser().parse_args(["spectrum", *fam]))[1][0]


@pytest.mark.parametrize("budget", ["10", "2"])
@pytest.mark.parametrize(
    "fam",
    # p1 has no edge: spectrum has nothing to sweep
    [
        fam
        for fam in GRAPHS
        if fam[1] != "p1" and FAMILIES[family_name(fam)].construct is not None
    ],
    ids=" ".join,
)
def test_construct_finds_a_labeling_exactly_off_the_spectrum(capsys, fam, budget):
    # construct and spectrum take one route per shift, so they agree on
    # every corpus graph whose family has a constructor, or refuse alike
    code, out, err = run_cli(capsys, "spectrum", *fam, "--budget", budget)
    doc = json.loads(out) if code == 0 else None
    for k in range(-16, 8):
        found, _, why = run_cli(capsys, "construct", *fam, "--k", str(k), "--budget", budget)
        if doc is None:
            assert (found, why) == (1, err), k
        elif doc.get("excluded_all_shifts") or k in doc["excluded"]:
            assert found == 2, k
        else:
            assert found == 0, k


def test_threshold_values(capsys):
    code, out, _ = run_cli(capsys, "threshold-p3", "--edges", "3")
    assert code == 0
    assert json.loads(out) == {"edges": 3, "threshold": 26}


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "threshold-p3", "--edges", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"edges": 2, "threshold": 18}


def test_construct_frees_the_graph_before_the_emit(tmp_path, capsys, monkeypatch):
    # the certificate holds every edge again; the graph must not outlive it
    emit, live = cli._emit, []

    def checked_emit(doc, out):
        gc.collect()
        live.extend(o for o in gc.get_objects() if isinstance(o, Graph) and o.m == 999)
        emit(doc, out)

    monkeypatch.setattr(cli, "_emit", checked_emit)
    target = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "construct", "--family", "p1000", "--k", "0",
                             "--out", str(target))
    assert (code, out, err) == (0, "", "feasible: labels 1..999 placed on 999 edges\n")
    assert json.loads(target.read_text())["valid"] is True
    assert live == []


def test_missing_graph_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "decide", "--graph", "/nonexistent/g.txt",
                           "--k", "0")
    assert code == 1
    assert "error" in err


def test_bad_edge_list_reports_line(tmp_path, capsys):
    g = tmp_path / "bad.txt"
    g.write_text("3 2\n0 1\nnope\n")
    code, _, err = run_cli(capsys, "decide", "--graph", str(g), "--k", "0")
    assert code == 1
    assert "line 3" in err


def test_bad_window_string_exits_one(tmp_path, capsys):
    g = tmp_path / "p4.txt"
    g.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run_cli(capsys, "spectrum", "--graph", str(g),
                           "--window", "five")
    assert code == 1
    assert "error" in err


def test_non_integer_window_bounds_exit_one(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--family", "p6", "--window=a:b")
    assert (code, out, err) == (1, "", "error: window bounds must be integers, got 'a:b'\n")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "p6"])
    assert exc.value.code == 1


def test_unknown_family_exits_one(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "wheel", "--k", "0")
    assert code == 1
    assert "error" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "antimagic", "threshold-p3", "--edges", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"edges": 0, "threshold": 2}


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # -S skips site hooks, which may import typing before any package code
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, antimagic.cli; "
         "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


REUSE_REQUESTS = [
    ["construct", "--family", "p6"],  # usage error: --k is missing
    ["construct", "--family", "wheel", "--k", "0"],  # AntimagicError
    ["construct", "--family", "p8", "--k", "-3"],
    ["decide", "--family", "s4", "--k", "-3"],
    ["threshold-p3", "--edges", "7"],
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_answers_like_a_fresh_one(capsys):
    fresh = []
    for argv in REUSE_REQUESTS:
        cli._build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert [code for code, _, _ in fresh] == [("SystemExit", 1), 1, 0, 2, 0]
    assert "error: the following arguments are required: --k" in fresh[0][2]
    assert fresh[1][2] == "error: unknown family 'wheel'\n"

    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv, want in zip(REUSE_REQUESTS, fresh):
            assert outcome(capsys, argv) == want
    assert cli._build_parser.cache_info().misses == 1


def test_memory_error_ends_in_one_error_line(monkeypatch, capsys):
    def exhausted(edges):
        raise MemoryError

    monkeypatch.setattr(cli, "p3_threshold", exhausted)
    code, out, err = run_cli(capsys, "threshold-p3", "--edges", "5")
    assert code == 1
    assert out == ""
    assert err == "error: out of memory\n"


# --- the emitter writes exactly what json.dumps would ---------------------

texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é ∑ 𝄞", "</script>"]
)
ints = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
scalars = st.none() | st.booleans() | ints | texts | st.floats()
pairs = st.lists(st.lists(ints, min_size=2, max_size=2), max_size=5)


def json_docs():
    leaves = scalars | st.lists(ints, max_size=5) | pairs
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(st.dictionaries(texts, inner, max_size=3), max_size=3)
        | st.dictionaries(texts, inner, max_size=4)
        | st.dictionaries(st.integers(-5, 5), inner, max_size=3)  # the fallback
        | st.tuples(inner, inner),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(texts, json_docs(), max_size=5))
def test_emit_writes_what_json_dumps_writes(doc):
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        cli._emit(doc, None)
    assert buf.getvalue() == want
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "doc.json")
        cli._emit(doc, target)
        with open(target, encoding="utf-8", newline="") as fh:
            assert fh.read() == want


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"f": []}},
        {"edges": [[0, 1], [1, 2]], "labels": [-1, 0, 2**80], "valid": True, "x": None},
        {"shifts": [{"k": -1, "labels": [1, 2]}, {"k": 0, "labels": None}]},
        {"pairs": [[True, 1], [0, 1.5], [0, 1, 2], (0, 1)], "t": (1, [2, {"z": 3}])},
        {"keys": {1: "a", 2: {"b": [3]}}, "floats": [0.5, float("inf"), float("nan")]},
    ],
)
def test_emit_matches_json_dumps_on_edge_cases(doc, capsys):
    cli._emit(doc, None)
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
