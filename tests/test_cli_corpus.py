"""The command line gives the same answers to a fixed corpus of requests.

Every named family and the p<n>/s<n> shorthands go through decide at
each shift from -16 to 7, and through construct (same shifts) and
spectrum (with and without a window) once with the default search budget
and once with a budget of 2. threshold-p3 and the usage errors (a
missing parameter, an unknown family, an empty path) close the corpus.
One digest pins the stdout and exit code of every request. The constant
was captured from the command line as it stood before the family
registry replaced the per-family dispatch. A second digest pins the
`error: ...` lines each request writes to stderr, which are the messages
of the toolkit errors `main` reports; argparse's own usage text is left
out because its wording differs between Python versions. It was captured
before the exception classes were folded into one class per kind of bad
input. Both were re-captured when `spectrum` took the family route past
the search budget and answered a windowless graph with every shift
excluded: a per-request diff against the previous command line showed
that only 44 requests changed, all from exit 1 to exit 0 (42 spectra
past the budget of 2 on families with a constructor, and the two
spectra of `complete --n 2`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io

from antimagic.cli import main

CORPUS_DIGEST = "f0cd8a736d0c882cc9bd92de74b8c9941bca3b80989e05ec40ff118cf6ca3c90"
ERROR_DIGEST = "0b950cb54fc7207255e756618b08be7227267286eaa48812baa51a5410886eab"

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


def run(argv: list[str]) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    return code, out.getvalue(), errors


@functools.cache
def corpus_digests() -> tuple[str, str]:
    """Digest of (argv, exit code, stdout) and of (argv, error lines)."""
    answers, messages = hashlib.sha256(), hashlib.sha256()
    for argv in requests():
        code, out, errors = run(argv)
        answers.update(repr((argv, code, out)).encode())
        messages.update(repr((argv, errors)).encode())
    return answers.hexdigest(), messages.hexdigest()


def test_cli_corpus_matches_digest():
    assert corpus_digests()[0] == CORPUS_DIGEST


def test_cli_error_messages_match_digest():
    assert corpus_digests()[1] == ERROR_DIGEST
