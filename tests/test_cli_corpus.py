"""The command line gives the same answers to a fixed corpus of requests.

Every named family and the p<n>/s<n> shorthands go through decide at
each shift from -16 to 7, and through construct (same shifts) and
spectrum (with and without a window) once with the default search budget
and once with a budget of 2. threshold-p3 and the usage errors (a
missing parameter, an unknown family, an empty path) close the corpus.
One digest pins the stdout and exit code of every request. The constant
was captured from the command line as it stood before the family
registry replaced the per-family dispatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from antimagic.cli import main

CORPUS_DIGEST = "69ebbf73ca5a7258d029322f8405b60821b00112c2e2bf56307a319decd50949"

GRAPHS = [
    *(["--family", f"p{n}"] for n in (1, 2, 3, 4, 5, 6, 7, 8)),
    *(["--family", f"s{n}"] for n in (1, 2, 3, 4, 5)),
    ["--family", "path", "--n", "9"],
    ["--family", "star", "--n", "6"],
    *(
        ["--family", "double_star", "--a", str(a), "--b", str(b)]
        for a, b in ((1, 1), (1, 2), (2, 1), (3, 1), (1, 4), (2, 2), (2, 3))
    ),
    ["--family", "double-star", "--a", "1", "--b", "3"],
    *(["--family", "cp3", "--c", str(c)] for c in (1, 2, 3)),
    ["--family", "two_p4"],
    ["--family", "two_s3"],
    ["--family", "p5prime"],
    ["--family", "cycle", "--n", "4"],
    ["--family", "cycle", "--n", "5"],
    *(["--family", "complete", "--n", str(n)] for n in (1, 2, 3, 4)),
    ["--family", "complete_bipartite", "--a", "1", "--b", "2"],
    ["--family", "complete_bipartite", "--a", "2", "--b", "3"],
    ["--family", "cube"],
    ["--family", "petersen"],
]

USAGE_ERRORS = [
    ["construct", "--family", "path", "--k", "0"],
    ["construct", "--family", "double_star", "--a", "2", "--k", "0"],
    ["decide", "--family", "complete_bipartite", "--b", "2", "--k", "0"],
    ["spectrum", "--family", "cp3"],
    ["construct", "--family", "wheel", "--n", "5", "--k", "0"],
    ["spectrum", "--family", "p"],
    ["construct", "--family", "p0", "--k", "0"],
    ["decide", "--family", "s0", "--k", "0"],
    ["spectrum", "--family", "cp3", "--c", "0"],
    ["construct", "--family", "cycle", "--n", "2", "--k", "0"],
    ["spectrum", "--family", "p6", "--window=3:1"],
]


def requests():
    for fam in GRAPHS:
        for k in range(-16, 8):
            yield ["decide", *fam, "--k", str(k)]
        for budget in ([], ["--budget", "2"]):
            for k in range(-16, 8):
                yield ["construct", *fam, "--k", str(k), *budget]
            yield ["spectrum", *fam, *budget]
            yield ["spectrum", *fam, "--window=-16:7", *budget]
    for edges in range(-1, 13):
        yield ["threshold-p3", "--edges", str(edges)]
    yield from USAGE_ERRORS


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def test_cli_corpus_matches_digest():
    h = hashlib.sha256()
    for argv in requests():
        h.update(repr((argv, *run(argv))).encode())
    assert h.hexdigest() == CORPUS_DIGEST
