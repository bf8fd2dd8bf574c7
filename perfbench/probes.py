"""Fixed layer probes that every traced run adds after its workload stream.

- `ladder`: the graph core and the two general constructors on size
  ladders, giving growth slopes, plus the inputs known to fail today
  (RecursionError, or a sigma search stopped after STALL_S seconds),
  which show up in the layers' `failed` counts;
- `search`: one exhaustive search under each rule;
- `cli_inprocess`: `cli.main(argv)` once per subcommand path;
- `memory`: tracemalloc peaks on the largest rungs, run untraced;
- `interpreter`: interpreter start and `import antimagic.cli` in fresh
  processes, so process overhead separates from program work.

With the stream alone, a workload that never reaches a layer would report
zero for it; the probes make every layer's figures exist on every
workload, and they are the same work on every workload.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import gen
import workloads as wl

TREE_RUNGS = (1000, 4000, 16000)
# From ~4,000 vertices a connected cubic graph can reach the
# RecursionError, so the odd-degree ladder stops at 2,000 vertices.
CUBIC_RUNGS = (500, 1000, 2000)


def _timed(fn, arg, repeats: int = 1) -> float:
    """Median seconds of fn(arg) over `repeats` calls."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ladder(am, seed: int) -> tuple[dict[str, float], int, list[str]]:
    """Growth slopes, the number of items checked, and check failures."""
    rng = random.Random(f"ladder-{seed}")
    points: dict[str, list[tuple[int, float]]] = {
        "graph.level_partition": [],
        "graph.components": [],
        "constructors.construct_forest_sdds": [],
        "constructors.construct_odd_degree": [],
    }
    errors: list[str] = []
    checked = 0
    for n in TREE_RUNGS:
        reps = 3 if n < 16000 else 1
        tree = wl.Input(f"tree{n}", n, gen.prufer_tree(n, rng))
        g = am.build_graph(tree.n, tree.edges)
        points["graph.level_partition"].append((g.m, _timed(am.level_partition, g, repeats=reps)))
        points["constructors.construct_forest_sdds"].append(
            (g.m, _timed(am.construct_forest_sdds, g, repeats=reps))
        )
        err = wl.construct_error(tree, wl.construct_item(am, g, False))
        checked += 1
        if err:
            errors.append(f"{tree.label}: {err}")
        size, edges = gen.small_tree_forest(n, rng)
        forest = am.build_graph(size, edges)
        points["graph.components"].append((forest.m, _timed(am.components, forest, repeats=reps)))
    for n in CUBIC_RUNGS:
        cubic = wl.Input(f"cubic{n}", n, gen.settled_cubic(n, rng), odd=True)
        g = am.build_graph(cubic.n, cubic.edges)
        points["constructors.construct_odd_degree"].append(
            (g.m, _timed(am.construct_odd_degree, g, repeats=3 if n < 2000 else 1))
        )
        err = wl.construct_error(cubic, wl.construct_item(am, g, True))
        checked += 1
        if err:
            errors.append(f"{cubic.label}: {err}")
    # Known to fail today: a BFS level of ~1,500 vertices in a cubic graph
    # and the 999 leaves of a star raise RecursionError, and on the cubic
    # graph drawn from "stall-131" the sigma search backtracks for minutes
    # (it has a saturated cross-level cycle; see gen.saturated_cross_cycle),
    # so it gets STALL_S seconds. An answer, once the toolkit gives one,
    # must still pass the check.
    for inp in (
        wl.Input("cubic8000", 8000, gen.settled_cubic(8000, rng), odd=True),
        wl.Input("star999", 1000, gen.star(999), odd=True),
        wl.Input("stall-131", 2000, gen.random_cubic(2000, random.Random("stall-131")), odd=True),
    ):
        checked += 1
        try:
            with time_limit(STALL_S):
                out = wl.construct_item(am, am.build_graph(inp.n, inp.edges), True)
        except (RecursionError, OverTime):
            continue
        err = wl.construct_error(inp, out)
        if err:
            errors.append(f"{inp.label}: {err}")
    return {name: slope(pts) for name, pts in points.items()}, checked, errors


STALL_S = 3.0


class OverTime(Exception):
    """Raised into a probe call that runs past its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OverTime

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _strong_error(n: int, canon, labels) -> str | None:
    err = checks.labeling_error(n, canon, labels, 0)
    if err:
        return err
    sums = checks.vertex_sums(n, canon, labels)
    deg = [0] * n
    for u, v in canon:
        deg[u] += 1
        deg[v] += 1
    by_degree = sorted(zip(deg, sums))
    if any(a[1] > b[1] for a, b in zip(by_degree, by_degree[1:]) if a[0] < b[0]):
        return "sums do not grow with degree"
    return None


def search(am) -> tuple[int, list[str]]:
    """One exhaustive search per rule on a star and on cp3(3)."""
    errors: list[str] = []
    checked = 0
    for family, params, k_bad, k_good in (("star", {"n": 6}, -4, 0), ("cp3", {"c": 3}, -3, 2)):
        n, edges = gen.FAMILY_EDGES[family](params)
        canon = wl.canonical(edges)
        g = am.build_graph(n, edges)
        strong = am.search_strong(g)
        sdds = am.search_sdds(g)
        bad = am.decide(g, k_bad)
        good = am.decide(g, k_good)
        checked += 4
        if strong is not None and _strong_error(n, canon, strong.labels):
            errors.append(f"{family}: strong labeling fails the check")
        if sdds is None or checks.labeling_error(n, canon, sdds.labels, 0, same_degree_only=True):
            errors.append(f"{family}: no valid sdds labeling")
        if bad is not None or good is None or checks.labeling_error(n, canon, good.labels, k_good):
            errors.append(f"{family}: decide disagrees with the formula")
    return checked, errors


def cli_requests(am, workdir: Path) -> list[wl.Request]:
    """One request for each subcommand and family path, with expectations."""
    doc, canon = wl.tree_certificate(am, 60, random.Random("cli-probe"))
    cert = workdir / "probe-cert.json"
    cert.write_text(json.dumps(doc), encoding="utf-8")
    return [
        wl.family_construct("path", {"n": 8}, -7),
        wl.family_construct("star", {"n": 5}, -3),
        wl.family_construct("cp3", {"c": 3}, -9),
        wl.family_construct("double_star", {"a": 1, "b": 3}, -4),
        wl.family_construct("two_p4", {}, -9),
        wl.family_construct("two_s3", {}, 2),
        wl.family_construct("p5prime", {}, -8),
        wl.Request("verify", ["verify", str(cert)], 0, None, len(canon)),
        wl.family_decide("star", {"n": 4}, -3),
        wl.family_decide("path", {"n": 6}, 0),
        wl.family_spectrum("cp3", {"c": 2}),
        wl.Request("threshold", ["threshold-p3", "--edges", "40"], 0, checks.p3_threshold(40)),
    ]


def cli_inprocess(cli: wl.Cli, requests: list[wl.Request], repeats: int = 3) -> tuple[int, list[str]]:
    errors = []
    for _ in range(repeats):
        for req in requests:
            err = cli.check(req, cli.run_inprocess(req))
            if err:
                errors.append(f"{' '.join(req.argv)}: {err}")
    return repeats * len(requests), errors


def memory(am, seed: int) -> dict[str, float]:
    """tracemalloc peak (KiB) above the live heap, one call each."""
    rng = random.Random(f"memory-{seed}")
    n = TREE_RUNGS[-1]
    tree = am.build_graph(n, gen.prufer_tree(n, rng))
    cubic = am.build_graph(CUBIC_RUNGS[-1], gen.settled_cubic(CUBIC_RUNGS[-1], rng))
    k = am.sdds_shift_threshold(tree) + 1
    doc = am.labeling_to_certificate(am.shift_labeling(am.construct_forest_sdds(tree), k), k)
    out = {}
    for name, fn, arg in (
        ("constructors.construct_forest_sdds", am.construct_forest_sdds, tree),
        ("constructors.construct_odd_degree", am.construct_odd_degree, cubic),
        ("certificate.check_certificate", am.check_certificate, doc),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(arg)
            out[name] = (tracemalloc.get_traced_memory()[1] - base) / 1024
        finally:
            tracemalloc.stop()
    return out


def interpreter(env: dict, cwd: Path, repeats: int = 7) -> tuple[float, float]:
    """Median ms of a bare interpreter, and of `import antimagic.cli` on top."""
    start, imported = [], []
    for _ in range(repeats):
        for code, bucket in (("pass", start), ("import antimagic.cli", imported)):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True)
            bucket.append((time.perf_counter() - t) * 1000)
    base = statistics.median(start)
    return base, statistics.median(imported) - base
