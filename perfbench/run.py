"""Benchmark of the antimagic toolkit: three workloads, one command.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the toolkit is imported from
`src/`. With `--trace 0` the workload runs untraced and the end-to-end
metrics are printed; with `--trace 1` each item of one round runs
untraced and traced, the fixed layer probes follow, and the per-layer
metrics are printed. Every output is checked independently, outside
the timed spans. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import probes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# Speed normalisation. The machines this runs on are shared, and their
# speed drifts by a third over seconds to minutes, for the toolkit and any
# other Python code alike. So a fixed pure-Python reference loop, which
# never touches the toolkit, runs between timed items and around set-up
# steps, and each time is scaled by REF_S over the reference times measured
# around it (see Speedometer). Reported times are thus seconds on a machine
# where the reference loop takes REF_S: a slower or faster toolkit moves
# them, a busier machine much less. The summary lines print raw values too.
REF_S = 0.0008


def reference() -> float:
    """Seconds taken by the fixed reference loop.

    The loop runs twice and the second, warm run counts, so what the
    toolkit left in the caches matters little. The garbage collector is
    off meanwhile, so a collection of the toolkit's garbage cannot land in
    the reference instead of the item.
    """
    gc.disable()
    try:
        for _ in range(2):
            t = time.perf_counter()
            d: dict[int, int] = {}
            s = 0
            for i in range(6000):
                k = i & 511
                d[k] = d.get(k, 0) + i
                s += i % 7
            sorted(d.values())
            dt = time.perf_counter() - t
        return dt
    finally:
        gc.enable()


class Speedometer:
    """Reference loops between timed items, and the scale for each item.

    An item's scale is REF_S over the median reference time in a window
    around it that reaches half its duration, and at least half a second,
    to each side, so a long item is judged by the speed of the machine
    around it and one disturbed loop counts little.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        dt = reference()
        self.stamps.append(time.perf_counter() - dt / 2)
        self.times.append(dt)

    def scale(self, start: float, end: float) -> float:
        reach = max(0.5, (end - start) / 2)
        lo = bisect.bisect_left(self.stamps, start - reach)
        hi = bisect.bisect_right(self.stamps, end + reach)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.times), mid + 2)
        return REF_S / statistics.median(self.times[lo:hi])


def scaled(fn, *args):
    """(raw seconds, reference-scaled seconds, result) of fn(*args)."""
    refs = [reference() for _ in range(3)]
    t = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t
    refs += [reference() for _ in range(3)]
    return dt, dt * REF_S / statistics.median(refs), out


def tail(samples: list[float], beyond: int) -> tuple[float, float]:
    """The sample with `beyond` samples above it; returns (value, percentile)."""
    s = sorted(samples)
    beyond = min(beyond, len(s) - 1)
    return s[-1 - beyond], 100 * (len(s) - beyond) / len(s)


def verdict(w, item, out) -> str | None:
    """The check's verdict on one item's output: None when correct."""
    return f"raised {type(out).__name__}: {out}" if isinstance(out, Exception) else w.check(item, out)


def judge(w, results) -> list[str | None]:
    return [verdict(w, item, out) for item, out in results]


def timed_phase(w, seconds: float):
    """Closed loop over complete rounds until `seconds` of scaled item time pass.

    Each output is judged right after its timed span and then dropped, with
    its item, so peak memory does not grow with the number of rounds.
    Returns raw and reference-scaled seconds per item, the verdicts, the
    edges of the correct items, and the number of rounds.
    """
    meter = Speedometer()
    spans: list[tuple[float, float]] = []
    verdicts: list[str | None] = []
    ok_edges = 0
    busy = 0.0  # reference-scaled, so the round count does not follow machine noise
    rnd = 0
    items, w.first = w.first, None
    meter.sample()
    while True:
        for i, item in enumerate(items):
            start = time.perf_counter()
            try:
                out = w.run(item)
            except Exception as exc:  # a failed item, reported by the checks
                out = exc
            spans.append((start, time.perf_counter()))
            meter.sample()
            busy += (spans[-1][1] - start) * REF_S / statistics.median(meter.times[-5:])
            verdicts.append(verdict(w, item, out))
            if not verdicts[-1]:
                ok_edges += w.edges(item)
            items[i] = out = None
        rnd += 1
        if busy >= seconds:
            break
        items = w.make_round()
        meter.sample()
    for _ in range(3):
        meter.sample()
    raw = [end - start for start, end in spans]
    samples = [(end - start) * meter.scale(start, end) for start, end in spans]
    return raw, samples, verdicts, ok_edges, rnd


def report_errors(errors) -> list[str]:
    bad = [e for e in errors if e]
    for err in bad[:10]:
        print(f"check failed: {err}")
    return bad


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:48s} {value:14.6g} {unit:6s} {note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def end_to_end(w, args, setup_s: float, setup_raw: float) -> int:
    raw, samples, verdicts, ok_edges, rounds = timed_phase(w, args.seconds)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF)
    attempted, failed = len(verdicts), len(report_errors(verdicts))
    busy, busy_raw = sum(samples), sum(raw)
    beyond = w.tail_per_round * rounds
    tail_value, tail_p = tail(samples, beyond)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": ((attempted - failed) / busy, "1/s"),
        "item_ms_p50": (statistics.median(samples) * 1000, "ms"),
        "item_ms_tail": (tail_value * 1000, "ms"),
        "edges_per_s": (ok_edges / busy, "1/s"),
        "peak_rss_mib": (rss.ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": f"raw {setup_raw:.4g} s",
        "items_per_s": f"raw {(attempted - failed) / busy_raw:.4g}; {rounds} round(s), {busy_raw:.2f} s of item time",
        "item_ms_p50": f"raw {statistics.median(raw) * 1000:.4g} ms",
        "item_ms_tail": f"raw {tail(raw, beyond)[0] * 1000:.4g} ms; p{tail_p:.1f} of {len(samples)} samples",
        "edges_per_s": f"raw {ok_edges / busy_raw:.4g}",
    }
    if w.name == "cli":
        notes["peak_rss_mib"] = "largest child process"
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} items; also in the JSON counts)")
    emit(failed == 0, attempted, failed, metrics, notes)
    return 0


def traced(w, args, workdir: Path) -> int:
    """Each item of a round untraced and traced, then the layer probes."""
    am = w.am
    run = w.run_inprocess if w.name == "cli" else w.run
    # A cli round in-process takes well under a second; more passes
    # steady the overhead ratio.
    passes = 5 if w.name == "cli" else 1
    tracer = tracing.Tracer()

    meter = Speedometer()

    def timed_call(item, trace: bool):
        if trace:
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                out = run(item)
            except Exception as exc:  # compared and checked below
                out = exc
            return (start, time.perf_counter()), out
        finally:
            if trace:
                tracer.uninstall()
            meter.sample()

    # Each item runs untraced and traced back to back, on separate fresh
    # inputs, in alternating order, and both times are reference-scaled, so
    # drift in machine speed cancels.
    meter.sample()
    spans: dict[bool, list[tuple[float, float]]] = {True: [], False: []}
    mismatch = 0
    outputs = []
    for p in range(passes):
        for i, (a, b) in enumerate(zip(w.make_round(), w.make_round())):
            traced_first = (i + p) % 2 == 1
            pair = {trace: (item, *timed_call(item, trace)) for item, trace in ((a, traced_first), (b, not traced_first))}
            for trace, (_, span, _) in pair.items():
                spans[trace].append(span)
            mismatch += repr(pair[False][2]) != repr(pair[True][2])
            outputs.append((pair[True][0], pair[True][2]))
    for _ in range(3):
        meter.sample()
    plain_s, traced_s = (sum((end - start) * meter.scale(start, end) for start, end in spans[t]) for t in (False, True))
    errors = [e for e in judge(w, outputs) if e]
    attempted = len(outputs)

    cli = w if w.name == "cli" else workloads.Cli(am, args.seed, workdir)
    requests = probes.cli_requests(am, workdir)
    tracer.install()
    try:
        growth, checked, errs = probes.ladder(am, args.seed)
        attempted += checked
        errors += errs
        checked, errs = probes.search(am)
        attempted += checked
        errors += errs
        checked, errs = probes.cli_inprocess(cli, requests)
        attempted += checked
        errors += errs
    finally:
        tracer.uninstall()
    peaks = probes.memory(am, args.seed)
    start_ms, import_ms = probes.interpreter(cli.env, cli.cwd)
    tracer.write(workdir.parent / f"spans-{w.name}.jsonl")

    report_errors(errors)
    if mismatch:
        print(f"{mismatch} item(s) gave another outcome traced than untraced")
    metrics = layer_metrics(tracer.spans, growth, peaks, start_ms, import_ms)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    emit(not errors and not mismatch, attempted, len(errors), metrics, {})
    return 0


FAMILY_CONSTRUCTIONS = (
    "construct_path_strong",
    "construct_path_shifted",
    "construct_star",
    "construct_double_star",
    "construct_cp3",
    "construct_two_p4",
    "construct_two_s3",
    "construct_p5prime",
)
CLI_SUBCOMMANDS = ("construct", "verify", "decide", "spectrum", "threshold-p3")


def layer_metrics(spans, growth, peaks, start_ms, import_ms) -> dict:
    totals = tracing.aggregate(spans)
    empty = tracing.Totals()

    def get(name):
        return totals.get(name, empty)

    def add(*names):
        t = tracing.Totals()
        for name in names:
            s = get(name)
            t.calls += s.calls
            t.failed += s.failed
            t.total_ns += s.total_ns
            t.self_ns += s.self_ns
        return t

    out: dict[str, tuple[float, str]] = {}

    def put(name, t, *fields):
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (t.calls, "count")
            elif field == "failed":
                out[f"{name}.failed"] = (t.failed, "count")
            else:
                out[f"{name}.{field}"] = (getattr(t, field.replace("_ms", "_ns")) / 1e6, "ms")

    for name in ("graph.components", "graph.level_partition", "graph.build_graph", "graph.Graph.adjacency", "graph.Graph.degrees"):
        put(name, get(name), "calls", "self_ms")
    put("graph.layer_subgraphs", get("graph.layer_subgraphs"), "self_ms")
    put("labeling.partial_vertex_sum", get("labeling.partial_vertex_sum"), "calls", "self_ms")
    put("labeling.verify_shifted", get("labeling.verify_shifted"), "calls", "self_ms")
    for name in ("vertex_sums", "is_sdds", "shift_labeling", "negate_labeling"):
        put(f"labeling.{name}", get(f"labeling.{name}"), "self_ms")
    put("trails.find_sigma_and_trails", get("trails.find_sigma_and_trails"), "calls", "self_ms", "failed")
    put("trails.label_trails", get("trails.label_trails"), "self_ms")
    put("constructors.construct_forest_sdds", get("constructors.construct_forest_sdds"), "calls", "total_ms", "self_ms")
    put("constructors.construct_odd_degree", get("constructors.construct_odd_degree"), "calls", "total_ms", "self_ms", "failed")
    put("constructors.family", add(*(f"constructors.{b}" for b in FAMILY_CONSTRUCTIONS)), "self_ms")
    put("spectrum.decide.feasible", get("spectrum.decide.feasible"), "calls", "total_ms")
    put("spectrum.decide.infeasible", get("spectrum.decide.infeasible"), "calls", "total_ms")
    strong = add("spectrum.search_strong.hit", "spectrum.search_strong.miss")
    put("spectrum.search_strong", strong, "calls", "total_ms")
    out["spectrum.search_strong.miss_frac"] = (get("spectrum.search_strong.miss").calls / max(strong.calls, 1), "ratio")
    put("spectrum.finite_window", get("spectrum.finite_window"), "total_ms")
    put("spectrum.search_sdds", get("spectrum.search_sdds"), "total_ms")
    put("spectrum.spectrum", get("spectrum.spectrum"), "self_ms")
    put("certificate.labeling_to_certificate", get("certificate.labeling_to_certificate"), "self_ms")
    put("certificate.check_certificate", get("certificate.check_certificate"), "calls", "self_ms")
    put("families", add(*(n for n in totals if n.startswith("families."))), "self_ms")
    out["cli.interpreter_start_ms"] = (start_ms, "ms")
    out["cli.import_ms"] = (import_ms, "ms")
    for sub in CLI_SUBCOMMANDS:
        durations = get(f"cli.main.{sub}").durations
        out[f"cli.main.{sub}.ms"] = (statistics.median(durations) / 1e6 if durations else 0.0, "ms")
    for name, value in growth.items():
        out[f"{name}.growth"] = (value, "slope")
    for name, kib in peaks.items():
        out[f"{name}.peak_kib"] = (kib, "KiB")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "antimagic" / "__init__.py").is_file():
        print(f"error: no toolkit sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Build: cached bytecode, as an installed toolkit has it.
    compileall.compile_dir(str(SRC / "antimagic"), quiet=1)
    sys.path.insert(0, str(SRC))

    workdir = HERE / "_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_raw, import_s, am = scaled(importlib.import_module, "antimagic")
        w = workloads.WORKLOADS[args.workload](am, args.seed, workdir)
        setups = [scaled(w.setup)[:2] for _ in range(SETUP_REPEATS)]
        if args.trace:
            return traced(w, args, workdir)
        return end_to_end(
            w,
            args,
            import_s + statistics.median(s for _, s in setups),
            import_raw + statistics.median(r for r, _ in setups),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
