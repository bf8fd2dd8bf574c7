"""The three workloads: construct, spectrum and cli.

Each workload is one closed-loop caller: the next item starts only after
the previous one returns. A workload object offers

- `setup()`: make every input from the seed, warm up, and prepare the
  first round (timed as set-up);
- `make_round()`: fresh inputs for the next round, built outside the
  timed region, so no object the program may have cached in a previous
  round is reused;
- `run(item)`: the timed call, returning the program's output;
- `check(item, output)`: the independent check, run outside the timed
  span; returns None or a reason;
- `edges(item)`: edges of the item's graph, for `edges_per_s`;
- `tail_per_round`: samples per round above `item_ms_tail`.

A round has a fixed composition for every seed; only the random graphs
differ. That keeps the mix of cheap and expensive items, and so the
metrics, comparable from seed to seed.

`item_ms_tail` has `tail_per_round` samples above it for every complete
round, so it stays on the same class of item however many rounds a
faster or slower toolkit completes. At 18 s of item time today that is
at least 10 samples above it on each workload.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import checks
import gen

Edges = list[tuple[int, int]]


def canonical(edges: Edges) -> Edges:
    """The toolkit's edge order: (min, max) pairs sorted lexicographically."""
    return sorted((u, v) if u < v else (v, u) for u, v in edges)


def max_degree(n: int, edges: Edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


class Input:
    """One generated graph and what the checks need to know about it."""

    __slots__ = ("label", "n", "edges", "canon", "odd", "family", "params")

    def __init__(self, label, n, edges, odd=False, family=None, params=None):
        self.label = label
        self.n = n
        self.edges = edges
        self.canon = canonical(edges)
        self.odd = odd
        self.family = family
        self.params = params


class GraphWorkload:
    """A workload whose items are (Input, freshly built Graph) pairs."""

    def __init__(self, am, seed: int, workdir: Path) -> None:
        self.am = am
        self.seed = seed

    def make_round(self):
        return [(inp, self.am.build_graph(inp.n, inp.edges)) for inp in self.inputs]

    @staticmethod
    def edges(item) -> int:
        return len(item[0].edges)


# ---------------------------------------------------------------- construct

# (shape, vertices, copies per round). Paths are the deep case (one long
# BFS level chain), Pruefer trees the typical one, forests of 3..6-vertex
# trees stress per-component work, and cubic graphs (all degrees odd) use
# the trail construction. Connected cubic graphs stop at 2,000 vertices:
# from ~4,000 a BFS level passes ~990 vertices and the toolkit raises
# RecursionError, which the traced run's probes count instead; the 16k
# cubic rung is a union of eight 2,000-vertex cubic graphs. Cubic graphs
# are "settled" (gen.settled_cubic): the ~3% on which the sigma search
# can stall for minutes are redrawn, and a probe keeps one of them.
# The copies place the median inside the 1k-forest class and the tail
# (5 samples per round above it) inside the 2k-cubic class, below the
# four largest items (path16k, cubic16k, forest16k, path4k).
CONSTRUCT_ROUND = (
    ("path", 1000, 1),
    ("path", 4000, 1),
    ("path", 16000, 1),
    ("tree", 1000, 2),
    ("tree", 4000, 2),
    ("tree", 16000, 1),
    ("forest", 1000, 30),
    ("forest", 4000, 2),
    ("forest", 16000, 1),
    ("cubic", 1000, 2),
    ("cubic", 2000, 8),
    ("cubic", 16000, 1),
)


def construct_input(shape: str, n: int, rng: random.Random) -> Input:
    if shape == "path":
        return Input(f"path{n}", n, gen.path(n))
    if shape == "tree":
        return Input(f"tree{n}", n, gen.prufer_tree(n, rng))
    if shape == "forest":
        size, edges = gen.small_tree_forest(n, rng)
        return Input(f"forest{n}", size, edges)
    if n <= 2000:
        return Input(f"cubic{n}", n, gen.settled_cubic(n, rng), odd=True)
    size, edges = gen.cubic_union(n, n // 2000, rng)
    return Input(f"cubic{n}", size, edges, odd=True)


def construct_item(am, g, odd: bool):
    """Label, verify, shift past the threshold and round-trip a certificate."""
    f = am.construct_odd_degree(g) if odd else am.construct_forest_sdds(g)
    sdds_ok = bool(am.is_sdds(f))
    k = am.sdds_shift_threshold(g) + 1
    shifted = am.shift_labeling(f, k)
    doc = json.loads(json.dumps(am.labeling_to_certificate(shifted, k)))
    verdict, _, k_back = am.check_certificate(doc)
    return f.labels, shifted.labels, k, sdds_ok, bool(verdict), k_back


def construct_error(inp: Input, out) -> str | None:
    labels, shifted, k, sdds_ok, verdict, k_back = out
    err = checks.labeling_error(inp.n, inp.canon, labels, 0, same_degree_only=True)
    if err:
        return f"base labeling: {err}"
    want_k = (len(inp.canon) - 1) * (max_degree(inp.n, inp.canon) - 1) + 1
    if k != want_k or k_back != k:
        return f"shift {k} (certificate {k_back}), expected {want_k}"
    err = checks.labeling_error(inp.n, inp.canon, shifted, k)
    if err:
        return f"shifted labeling: {err}"
    if not (sdds_ok and verdict):
        return "the toolkit rejected its own correct labeling"
    return None


class Construct(GraphWorkload):
    name = "construct"
    tail_per_round = 5

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = [
            construct_input(shape, n, rng)
            for shape, n, copies in CONSTRUCT_ROUND
            for _ in range(copies)
        ]
        rng.shuffle(self.inputs)
        warm = min(self.inputs, key=lambda inp: len(inp.edges))
        self.run((warm, self.am.build_graph(warm.n, warm.edges)))
        self.first = self.make_round()

    def run(self, item):
        inp, g = item
        return construct_item(self.am, g, inp.odd)

    def check(self, item, out) -> str | None:
        return construct_error(item[0], out)


# ----------------------------------------------------------------- spectrum

# Every family with a closed form, at sizes the exhaustive search settles
# within its 10-edge budget. cp3(5), star(9), double_star(1,7), cp3(4)
# and star(8) spend most of their time proving shifts infeasible and are
# the slowest items, so the tail (4 samples per round above it) falls
# among the cp3(4) and star(8) runs rather than on a random forest.
SPECTRUM_FAMILIES = (
    [("star", {"n": n}) for n in range(2, 10)]
    + [("path", {"n": n}) for n in range(3, 10)]
    + [("double_star", {"a": a, "b": b}) for a, b in ((1, 2), (1, 3), (2, 2), (1, 5), (2, 3), (3, 3), (1, 7))]
    + [("cp3", {"c": c}) for c in range(1, 6)]
    + [("two_p4", {}), ("two_s3", {}), ("p5prime", {})]
)

# Random forests with 6..8 edges, mostly quick feasible finds: they hold
# the median. All their infeasible verdicts can be confirmed by
# enumerating at most 8! assignments. At 9-10 edges single random forests
# take up to 2 s, which made the pass time swing by a fifth from seed to
# seed; many small ones keep the median steady.
SPECTRUM_RANDOM = ((6, 500), (7, 500), (8, 60))


# The warm-up runs the ten smallest families, the same for every seed, so
# set-up time does not depend on which slow item a shuffle puts first.
SPECTRUM_WARMUP = sorted(SPECTRUM_FAMILIES, key=lambda fp: len(gen.FAMILY_EDGES[fp[0]](fp[1])[1]))[:10]


def sweep_error(inp: Input, window, sweep, rows) -> str | None:
    """None when the rows settle every shift that brute force must settle.

    The rows must be the contiguous sweep, and the sweep must cover the
    range that the window certificate leaves open, derived here: [-m, -1]
    when the certificate passes the own degree-ordered check, otherwise
    [-(h+m+1), h] with h = (m-1)(max degree-1), when it passes the own
    same-degree-distinct check.
    """
    method, cert = window
    m = len(inp.canon)
    if [k for k, _, _ in rows] != list(range(sweep[0], sweep[1] + 1)):
        return f"rows are not the contiguous sweep {sweep[0]}..{sweep[1]}"
    if method == "strong":
        err = checks.strong_error(inp.n, inp.canon, cert)
        need = (-m, -1)
    else:
        err = checks.labeling_error(inp.n, inp.canon, cert, 0, same_degree_only=True)
        h = (m - 1) * (max_degree(inp.n, inp.canon) - 1)
        need = (-(h + m + 1), h)
    if err:
        return f"{method} window certificate: {err}"
    if sweep[0] > need[0] or sweep[1] < need[1]:
        return f"sweep {sweep[0]}..{sweep[1]} leaves part of {need[0]}..{need[1]} unsettled"
    return None


class Spectrum(GraphWorkload):
    name = "spectrum"
    tail_per_round = 4

    def __init__(self, am, seed: int, workdir: Path) -> None:
        super().__init__(am, seed, workdir)
        self._exists: dict[tuple[tuple[str, ...], int], bool] = {}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        inputs = []
        for family, params in SPECTRUM_FAMILIES:
            n, edges = gen.FAMILY_EDGES[family](params)
            inputs.append(Input(family, n, edges, family=family, params=params))
        for m, count in SPECTRUM_RANDOM:
            for _ in range(count):
                n, edges = gen.random_forest_m(m, rng)
                inputs.append(Input(f"forest-m{m}", n, edges))
        rng.shuffle(inputs)
        self.inputs = inputs
        for family, params in SPECTRUM_WARMUP:
            n, edges = gen.FAMILY_EDGES[family](params)
            self.am.spectrum(self.am.build_graph(n, edges))
        self.first = self.make_round()

    def run(self, item):
        report = self.am.spectrum(item[1])
        rows = tuple(
            (row.k, row.status, None if row.certificate is None else row.certificate.labels)
            for row in report.entries
        )
        window = (report.window.method, report.window.certificate.labels)
        return window, (report.sweep_lo, report.sweep_hi), tuple(report.excluded), rows

    def check(self, item, out) -> str | None:
        inp = item[0]
        window, sweep, excluded, rows = out
        err = sweep_error(inp, window, sweep, rows)
        if err:
            return err
        infeasible = sorted(k for k, status, _ in rows if status == "infeasible")
        if infeasible != sorted(excluded):
            return "excluded list disagrees with the rows"
        for k, status, labels in rows:
            if status == "infeasible":
                continue
            if labels is None:
                return f"feasible shift {k} without a labeling"
            err = checks.labeling_error(inp.n, inp.canon, labels, k)
            if err:
                return f"shift {k}: {err}"
        if inp.family is not None:
            want = checks.family_excluded(inp.family, inp.params)
            if set(excluded) != want:
                return f"excluded {sorted(excluded)}, formula gives {sorted(want)}"
            return None
        for k in excluded:
            key = (checks.forest_key(inp.n, inp.canon), k)
            if key not in self._exists:
                self._exists[key] = checks.shifted_labeling_exists(inp.n, inp.canon, k)
            if self._exists[key]:
                return f"shift {k} reported infeasible but a labeling exists"
        return None


# ---------------------------------------------------------------------- cli


class Request:
    """One CLI invocation with the result the checks expect."""

    __slots__ = ("kind", "argv", "exit", "expect", "m")

    def __init__(self, kind, argv, exit_code, expect=None, m=0):
        self.kind = kind
        self.argv = argv
        self.exit = exit_code
        self.expect = expect
        self.m = m


def family_args(family: str, params: dict) -> list[str]:
    args = ["--family", family]
    for key in ("n", "a", "b", "c"):
        if key in params:
            args += [f"--{key}", str(params[key])]
    return args


def family_construct(family: str, params: dict, k: int) -> Request:
    n, edges = gen.FAMILY_EDGES[family](params)
    feasible = k not in checks.family_excluded(family, params)
    return Request(
        "labeling",
        ["construct", *family_args(family, params), "--k", str(k)],
        0 if feasible else 2,
        (n, canonical(edges), k),
        len(edges),
    )


def family_decide(family: str, params: dict, k: int) -> Request:
    n, edges = gen.FAMILY_EDGES[family](params)
    canon = canonical(edges)
    feasible = checks.shifted_labeling_exists(n, canon, k)
    return Request(
        "labeling",
        ["decide", *family_args(family, params), "--k", str(k)],
        0 if feasible else 2,
        (n, canon, k),
        len(edges),
    )


def family_spectrum(family: str, params: dict) -> Request:
    n, edges = gen.FAMILY_EDGES[family](params)
    want = sorted(checks.family_excluded(family, params))
    return Request(
        "spectrum", ["spectrum", *family_args(family, params)], 0, (n, canonical(edges), want), len(edges)
    )


def cli_error(req: Request, out) -> str | None:
    code, stdout = out
    if code != req.exit:
        return f"exit {code}, expected {req.exit}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if req.kind == "labeling":
        n, canon, k = req.expect
        if code == 2:
            return None if doc.get("feasible") is False else "infeasible answer without feasible: false"
        if [tuple(e) for e in doc["edges"]] != canon or doc["n"] != n or doc["k"] != k:
            return "certificate describes another graph or shift"
        if doc.get("valid") is not True:
            return "certificate not marked valid"
        return checks.labeling_error(n, canon, doc["labels"], k)
    if req.kind == "verify":
        if doc["valid"] != (code == 0):
            return "exit code and valid flag disagree"
        return None if doc["code"] == req.expect else f"code {doc['code']}, expected {req.expect}"
    if req.kind == "spectrum":
        n, canon, want = req.expect
        if doc["excluded"] != want:
            return f"excluded {doc['excluded']}, formula gives {want}"
        for row in doc["shifts"]:
            if row["status"] != "infeasible":
                err = checks.labeling_error(n, canon, row["labels"], row["k"])
                if err:
                    return f"shift {row['k']}: {err}"
        return None
    if req.kind == "threshold":
        return None if doc["threshold"] == req.expect else f"threshold {doc['threshold']}, expected {req.expect}"
    raise ValueError(req.kind)


def _pick_shift(rng: random.Random, family: str, params: dict) -> int:
    """Half of the time an excluded shift, otherwise any shift near the band."""
    excluded = sorted(checks.family_excluded(family, params))
    m = len(gen.FAMILY_EDGES[family](params)[1])
    if excluded and rng.random() < 0.5:
        return rng.choice(excluded)
    return rng.randint(-m - 3, 3)


def tree_certificate(am, n: int, rng: random.Random) -> tuple[dict, Edges]:
    """A valid certificate for a random tree, confirmed by the own checker."""
    edges = gen.prufer_tree(n, rng)
    g = am.build_graph(n, edges)
    k = am.sdds_shift_threshold(g) + 1
    doc = am.labeling_to_certificate(am.shift_labeling(am.construct_forest_sdds(g), k), k)
    if checks.labeling_error(n, canonical(edges), doc["labels"], k):
        raise RuntimeError("set-up certificate failed the independent check")
    return doc, canonical(edges)


def corrupt(doc: dict, how: str) -> dict:
    bad = json.loads(json.dumps(doc))
    m = len(bad["labels"])
    if how == "duplicate-label":
        bad["labels"][1] = bad["labels"][0]
    elif how == "label-out-of-range":
        bad["labels"][m // 2] = bad["k"] + m + 1
    else:
        bad["vertex_sums"][0] += 1
    return bad


class Cli:
    name = "cli"
    tail_per_round = 2

    def __init__(self, am, seed: int, workdir: Path) -> None:
        self.am = am
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(Path(am.__file__).parent.parent))
        self.cwd = Path.cwd()

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        reqs: list[Request] = []
        # 12 family constructs, feasible and excluded shifts
        for family, low, high in (("path", 3, 12), ("star", 2, 10), ("cp3", 1, 6)):
            for _ in range(3):
                key = "c" if family == "cp3" else "n"
                params = {key: rng.randint(low, high)}
                reqs.append(family_construct(family, params, _pick_shift(rng, family, params)))
        for _ in range(3):
            params = {"a": rng.randint(1, 4), "b": rng.randint(1, 4)}
            reqs.append(family_construct("double_star", params, _pick_shift(rng, "double_star", params)))
        # 4 constructs from edge-list files of mid-sized trees, shifted
        # outside the provable window so no search runs
        for i, n in enumerate((500, 600, 700, 800)):
            edges = gen.prufer_tree(n, rng)
            canon = canonical(edges)
            h = (n - 2) * (max_degree(n, canon) - 1)
            k = h + rng.randint(1, 20)
            if i % 2:
                k = -(h + n) - rng.randint(1, 20)
            path = self.workdir / f"tree{i}.txt"
            path.write_text(gen.edge_list_text(n, edges), encoding="utf-8")
            reqs.append(Request("labeling", ["construct", "--graph", str(path), "--k", str(k)], 0, (n, canon, k), n - 1))
        # 6 verifies: three valid certificates and one of each corruption
        for i, (n, how) in enumerate(
            ((300, None), (400, None), (500, None), (300, "duplicate-label"), (400, "label-out-of-range"), (500, "vertex-sums-mismatch"))
        ):
            doc, canon = tree_certificate(self.am, n, rng)
            if how is not None:
                doc = corrupt(doc, how)
            path = self.workdir / f"cert{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            reqs.append(Request("verify", ["verify", str(path)], 0 if how is None else 2, how, len(canon)))
        # 4 small decides, expected verdicts by enumeration
        for family, params in (
            ("star", {"n": rng.randint(3, 6)}),
            ("path", {"n": rng.randint(3, 7)}),
            ("cp3", {"c": rng.randint(1, 3)}),
            ("double_star", {"a": 1, "b": rng.randint(1, 4)}),
        ):
            reqs.append(family_decide(family, params, _pick_shift(rng, family, params)))
        # 3 small spectra and 2 thresholds
        for family, params in rng.sample(
            [("star", {"n": 5}), ("path", {"n": 5}), ("cp3", {"c": 2}), ("two_p4", {}), ("p5prime", {}), ("double_star", {"a": 1, "b": 3})],
            3,
        ):
            reqs.append(family_spectrum(family, params))
        for _ in range(2):
            e = rng.randint(0, 300)
            reqs.append(Request("threshold", ["threshold-p3", "--edges", str(e)], 0, checks.p3_threshold(e)))
        rng.shuffle(reqs)
        self.requests = reqs
        # A fixed request, the same for every seed, warms the interpreter
        # and bytecode caches.
        self.run(Request("threshold", ["threshold-p3", "--edges", "10"], 0))
        self.first = self.make_round()

    def make_round(self):
        return list(self.requests)

    def run(self, req: Request):
        proc = subprocess.run(
            [sys.executable, "-m", "antimagic", *req.argv],
            cwd=self.cwd,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    def run_inprocess(self, req: Request):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = importlib.import_module("antimagic.cli").main(list(req.argv))
        return code, stdout.getvalue()

    def check(self, req: Request, out) -> str | None:
        return cli_error(req, out)

    @staticmethod
    def edges(req: Request) -> int:
        return req.m


WORKLOADS = {w.name: w for w in (Construct, Spectrum, Cli)}
