"""Benchmark of the wellcovered package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload, both modes

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  With ``--trace 0`` the run reports the end-to-end metrics,
in reference-speed seconds (see ``calibrate.py``); with ``--trace 1`` the
per-layer metrics from spans recorded around the package's public functions
(see ``spans.py``), in wall-clock seconds.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
the run finished; ``correct`` says whether every output passed the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import calibrate
import spans
from workloads import Outcome, all_workloads, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 11
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
}

PER_LAYER = {
    "corpus.generate_all_graphs.s": "s",
    "corpus.classes": "count",
    "graphs.cartesian_product.s": "s",
    "graphs.cartesian_product.calls": "count",
    "graphs.graph6.s": "s",
    "graphs.products_per_pair": "ratio",
    "independence.product_wc.s": "s",
    "independence.product_wc.calls": "count",
    "independence.product_wc.witnessed_share": "ratio",
    "independence.factor_wc.s": "s",
    "independence.isolatable_vertices.s": "s",
    "independence.mis_size_histogram.s": "s",
    "independence.mis_visited": "count",
    "independence.mis_per_s": "1/s",
    "theorem.analyze_factor.s": "s",
    "theorem.witness_inputs.s": "s",
    "theorem.verify_pair.s": "s",
    "theorem.verify_pair.p50_ms": "ms",
    "theorem.verify_pair.tail_ms": "ms",
    "theorem.build_product_witness.s": "s",
    "theorem.witness_invariants.s": "s",
    "theorem.witness_applied_ratio": "ratio",
    "cli.load_corpus.s": "s",
    "cli.render.s": "s",
    "cli.report_bytes": "bytes",
    "cli.parallel_efficiency": "ratio",
    **{f"layer.{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

RENDERERS = ("cli.render_scan_json", "cli._witness_dict", "cli._print_json")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------


def import_package():
    """Import ``wellcovered`` afresh from this checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "wellcovered" or k.startswith("wellcovered.")]:
        del sys.modules[key]
    cli = importlib.import_module("wellcovered.cli")
    source = ROOT / "src" / "wellcovered"
    if Path(cli.__file__).resolve().parent != source.resolve():
        raise BenchError(f"wellcovered was imported from {cli.__file__}, not {source}")
    return cli


def trace_targets(cli) -> list:
    """Every public function a workload reaches, at the attribute its caller
    looks up.  ``enumerate_maximal_independent_sets`` is counted per MIS
    instead of timed, because callers consume its stream lazily."""
    theorem = sys.modules["wellcovered.theorem"]
    independence = sys.modules["wellcovered.independence"]
    options = {
        "verify_pair": {"new_item": True, "note": lambda verdict: verdict.witness is not None},
        "generate_all_graphs": {"note": len},
    }
    names = {
        cli: ["load_corpus", "generate_all_graphs", "from_graph6", "to_graph6",
              "analyze_factor", "verify_pair", "is_well_covered", "isolatable_vertices",
              "mis_size_histogram", "witness_inputs", "build_product_witness",
              "witness_invariants", "render_scan_json", "_witness_dict", "_print_json"],
        theorem: ["analyze_factor", "cartesian_product", "is_well_covered",
                  "isolatable_vertices", "build_product_witness"],
    }
    targets = []
    for module, attrs in names.items():
        for attr in attrs:
            if not hasattr(module, attr):
                print(f"note: {module.__name__}.{attr} is gone; not traced", file=sys.stderr)
                continue
            targets.append((module, attr, options.get(attr, {})))
    targets.append((independence, "enumerate_maximal_independent_sets", {"count": True}))
    return targets


class Client:
    """Sends one CLI request in-process and captures its output."""

    def __init__(self, main) -> None:
        self.main = main

    def __call__(self, argv: list[str], stdin: str = "", keep: bool = False) -> Outcome:
        out = io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                start = perf_counter()
                code = self.main(argv)
                end = perf_counter()
        finally:
            sys.stdin = saved_stdin
        text = out.getvalue()
        data = text.encode("utf-8")
        return Outcome(argv, code, hashlib.sha256(data).hexdigest(), len(data),
                       text if keep else None, start, end, end - start)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Pass:
    """One timed pass.  With a running ``ticker``, ``wall`` and each
    outcome's ``seconds`` are in reference-speed seconds and ``clock`` keeps
    the wall-clock time; without one, both are wall-clock seconds."""

    def __init__(self, workload, client, jobs: int | None = None,
                 ticker: calibrate.Ticker | None = None) -> None:
        self.jobs = jobs or workload.jobs
        if ticker:
            ticker.probe()
        cpu = cpu_seconds()
        start = perf_counter()
        self.outcomes = workload.run_pass(client, jobs=jobs)
        end = perf_counter()
        self.cpu = cpu_seconds() - cpu
        self.clock = self.wall = end - start
        if ticker:
            ticker.probe()
            self.wall = ticker.reference_seconds(start, end)
            for outcome in self.outcomes:
                outcome.seconds = ticker.reference_seconds(outcome.start, outcome.end)
        self.failed = workload.gate(self.outcomes)

    def release(self) -> None:
        """Drop kept outputs once a later pass has been gated."""
        for outcome in self.outcomes:
            outcome.out = None


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup(workload, seed: int, golden: dict,
          ticker: calibrate.Ticker | None = None) -> tuple[object, list[float]]:
    """Import the package afresh and build the inputs SETUP_REPEATS times;
    return the last import and the time of each round, in reference-speed
    seconds when a ``ticker`` runs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        if ticker:
            ticker.probe()
        start = perf_counter()
        cli = import_package()
        workload.build(seed, golden)
        end = perf_counter()
        if ticker:
            ticker.probe()
            samples.append(ticker.reference_seconds(start, end))
        else:
            samples.append(end - start)
    return cli, samples


def room_for(cycle: list[float], start: float, seconds: float) -> bool:
    """Whether another cycle of passes, as long as the median of ``cycle``
    so far, still ends within ``seconds`` of ``start``.  Every run gets one
    cycle; later ones start only if they fit, so a run does not overshoot
    its length by up to a whole pass."""
    if not cycle:
        return True
    return perf_counter() - start + statistics.median(cycle) <= seconds


def end_to_end(workload, cli, seconds: float,
               ticker: calibrate.Ticker) -> tuple[list[Pass], dict, str]:
    client = Client(cli.main)
    passes: list[Pass] = []
    start = perf_counter()
    while room_for([p.clock for p in passes], start, seconds):
        if passes:
            passes[-1].release()
        passes.append(Pass(workload, client, ticker=ticker))
    walls = [p.wall for p in passes]
    # A call is one CLI request where a pass sends many (witness-large) and
    # the whole pass otherwise.  Every pass sends the same calls, so each
    # call's latency is its median over the passes; one call alone is too
    # short for the calibration to time it closely.  The percentiles are
    # then taken over the calls, so they do not depend on how many passes
    # fit in the run.
    if workload.per_request_latency:
        calls = [statistics.median(row) for row in zip(*(
            [o.seconds for o in p.outcomes] for p in passes))]
    else:
        calls = [statistics.median(walls)]
    tail_value, percentile = tail(calls)
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(workload.items() / w for w in walls),
        "peak_rss_mib": peak_rss_mib(),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_tail_ms": 1e3 * tail_value,
    }
    note = (f"{len(passes)} passes of {len(passes[0].outcomes)} requests; "
            f"call_tail_ms is p{percentile:.1f} of {len(calls)} calls; wall-clock pass median "
            f"{statistics.median(p.clock for p in passes):.4f} s at host speed "
            f"{ticker.speed():.3f} of the reference")
    return passes, metrics, note


def traced(workload, cli, seconds: float) -> tuple[list[Pass], dict, spans.Tracer]:
    """Untraced and traced passes in turn, in wall-clock seconds, while
    another pair fits in ``seconds`` (at least one pair).  A workload with
    ``parallel_jobs`` first runs one untraced pass with that many workers
    for the parallel efficiency; spans recorded in pool workers would be
    lost, so the traced passes run as the workload does (serially)."""
    plain = Client(cli.main)
    tracer = spans.Tracer()
    client = Client(tracer.wrap(cli.main, name="cli.main", new_item=True))
    start = perf_counter()
    parallel = [Pass(workload, plain, jobs=workload.parallel_jobs)] if workload.parallel_jobs else []
    for p in parallel:
        p.release()
    untraced: list[Pass] = []
    runs: list[Pass] = []
    while room_for([a.wall + b.wall for a, b in zip(untraced, runs)], start, seconds):
        if runs:
            untraced[-1].release()
            runs[-1].release()
        untraced.append(Pass(workload, plain))
        tracer.install(trace_targets(cli))
        try:
            runs.append(Pass(workload, client))
        finally:
            tracer.restore()
    metrics = layer_metrics(tracer, workload, len(runs))
    metrics["cli.parallel_efficiency"] = statistics.median(
        p.cpu / (p.jobs * p.wall) for p in parallel or untraced
    )
    metrics["cli.report_bytes"] = sum(o.size for o in runs[-1].outcomes)
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in runs) - statistics.median(p.wall for p in untraced)
    )
    return parallel + untraced + runs, metrics, tracer


def layer_metrics(tracer: spans.Tracer, workload, runs: int) -> dict:
    records = tracer.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for record in records:
        name = record[spans.NAME]
        total[name] = total.get(name, 0.0) + record[spans.END] - record[spans.START]
        calls[name] = calls.get(name, 0) + 1

    def seconds(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names) / runs

    def count(name: str) -> float:
        return calls.get(name, 0) / runs

    product_wc = [
        r for r in records
        if r[spans.NAME] == "independence.is_well_covered"
        and r[spans.PARENT] >= 0
        and records[r[spans.PARENT]][spans.NAME] == "theorem.verify_pair"
    ]
    product_wc_s = sum(r[spans.END] - r[spans.START] for r in product_wc)
    witnessed_s = sum(
        r[spans.END] - r[spans.START] for r in product_wc if records[r[spans.PARENT]][spans.NOTE]
    )
    pair_ms = sorted(
        1e3 * (r[spans.END] - r[spans.START]) for r in records
        if r[spans.NAME] == "theorem.verify_pair"
    )
    pairs = workload.pairs() * runs
    witnessed_pairs = calls.get("theorem.build_product_witness", 0)
    layers = spans.layer_self_times(records)
    mis = tracer.counts.get("independence.enumerate_maximal_independent_sets", 0)
    classes = sum(r[spans.NOTE] for r in records if r[spans.NAME] == "corpus.generate_all_graphs")
    return {
        "corpus.generate_all_graphs.s": seconds("corpus.generate_all_graphs"),
        "corpus.classes": classes / runs,
        "graphs.cartesian_product.s": seconds("graphs.cartesian_product"),
        "graphs.cartesian_product.calls": count("graphs.cartesian_product"),
        "graphs.graph6.s": seconds("graphs.from_graph6", "graphs.to_graph6"),
        "graphs.products_per_pair": calls.get("graphs.cartesian_product", 0) / pairs if pairs else 0.0,
        "independence.product_wc.s": product_wc_s / runs,
        "independence.product_wc.calls": len(product_wc) / runs,
        "independence.product_wc.witnessed_share": witnessed_s / product_wc_s if product_wc_s else 0.0,
        "independence.factor_wc.s": seconds("independence.is_well_covered") - product_wc_s / runs,
        "independence.isolatable_vertices.s": seconds("independence.isolatable_vertices"),
        "independence.mis_size_histogram.s": seconds("independence.mis_size_histogram"),
        "independence.mis_visited": mis / runs,
        "independence.mis_per_s": mis / layers["independence"] if layers["independence"] else 0.0,
        "theorem.analyze_factor.s": seconds("theorem.analyze_factor"),
        "theorem.witness_inputs.s": seconds("theorem.witness_inputs"),
        "theorem.verify_pair.s": seconds("theorem.verify_pair"),
        "theorem.verify_pair.p50_ms": statistics.median(pair_ms) if pair_ms else 0.0,
        "theorem.verify_pair.tail_ms": tail(pair_ms)[0] if pair_ms else 0.0,
        "theorem.build_product_witness.s": seconds("theorem.build_product_witness"),
        "theorem.witness_invariants.s": seconds("theorem.witness_invariants"),
        "theorem.witness_applied_ratio": witnessed_pairs / pairs if pairs else 0.0,
        "cli.load_corpus.s": seconds("cli.load_corpus"),
        "cli.render.s": seconds(*RENDERERS),
        **{f"layer.{layer}.self_s": value / runs for layer, value in layers.items()},
        "trace.spans": len(records) / runs,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = all_workloads()
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(workloads)} or all")
    return run_workload(workloads[name], seed, seconds, trace, load_golden())


def run_workload(workload, seed: int, seconds: float, trace: bool, golden: dict,
                 trace_dir: Path = OUT_DIR) -> dict:
    """Set up, measure, gate and check one workload; print the metrics and
    return the result object."""
    name = workload.name
    if trace:
        cli, _ = setup(workload, seed, golden)
        passes, metrics, tracer = traced(workload, cli, seconds)
        units = PER_LAYER
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"trace-{name}-seed{seed}.jsonl"
        tracer.dump(trace_path)
        note = f"{len(passes)} passes; spans in {os.path.relpath(trace_path, ROOT)}"
    else:
        with calibrate.Ticker() as ticker:
            cli, setup_samples = setup(workload, seed, golden, ticker)
            passes, metrics, note = end_to_end(workload, cli, seconds, ticker)
            # Set up again after the passes, so that the median spans the run.
            setup_samples += setup(workload, seed, golden, ticker)[1]
        metrics["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END
    attempted = workload.items() * len(passes)
    failed = sum(p.failed for p in passes)
    problems = workload.verify(passes[-1].outcomes, random.Random(seed))
    failed = min(attempted, failed + len(problems))
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{name} seed={seed} trace={int(trace)}: {note}; "
          f"failed {failed}/{attempted} (failed_ratio {failed / attempted:.4f})")
    for key, unit in units.items():
        print(f"  {key:44s} {metrics[key]:14.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in its own process so that
    peak memory and imports do not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in all_workloads():
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise BenchError(f"{name} --trace {trace} exited with {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"all-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(combined, handle, indent=1, sort_keys=True)
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "wellcovered" / "__init__.py").is_file():
            raise BenchError(f"no wellcovered sources under {ROOT / 'src'}")
        sys.path.insert(0, str(ROOT / "src"))
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
