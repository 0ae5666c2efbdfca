"""Command-line harness for well-coveredness analysis of graphs and their
Cartesian products.

Subcommands:
    analyze <g6|->        well-covered report, isolatable vertices, size histogram
    product <g6> <g6>     product construction plus full pair verification
    witness <g6> <g6>     constructive distinct-cardinality witness in the product
    scan [options]        pair scan over generated and ingested corpora
    gen <n>               canonical graph6 lines, one per isomorphism class

Graphs are read as graph6 lines from arguments, files (--corpus), or
standard input (one per line).  Reports are JSON (scan also supports CSV).

Exit codes: 0 success/consistent, 1 scan found a consistency violation,
2 input error, 3 resource cap exceeded, 4 witness hypotheses not applicable.

Environment: WELLCOVERED_ENUM_CAP and WELLCOVERED_PRODUCT_CAP override the
default caps; explicit flags take precedence over both.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import chain, combinations_with_replacement, product as iter_product
from typing import Iterable, TextIO

from .corpus import GENERATION_CAP, generate_all_graphs
from .graphs import (
    CapExceeded,
    Graph,
    Graph6Error,
    VertexSet,
    from_graph6,
    is_connected,
    to_graph6,
)
from .independence import (
    DEFAULT_ENUMERATION_CAP,
    IsolatableWitness,
    WellCoveredReport,
    mis_size_histogram,
)
from .theorem import (
    FactorAnalysis,
    PairVerdict,
    ProductWitness,
    _orient_witness,
    analyze_factor,
    verify_pair,
    witness_invariants,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP = 3
EXIT_NOT_APPLICABLE = 4

ENV_ENUM_CAP = "WELLCOVERED_ENUM_CAP"
ENV_PRODUCT_CAP = "WELLCOVERED_PRODUCT_CAP"

DEFAULT_SCAN_FACTOR_ORDER = 5
DEFAULT_SCAN_PRODUCT_ORDER = 30
DEFAULT_PRODUCT_CMD_CAP = 36
DEFAULT_WITNESS_CMD_CAP = 1024


# ---------------------------------------------------------------------------
# Scan machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of one pair scan; identical configs give byte-identical
    reports regardless of parallelism."""

    max_factor_order: int = DEFAULT_SCAN_FACTOR_ORDER
    max_product_order: int = DEFAULT_SCAN_PRODUCT_ORDER
    corpus_paths: tuple[str, ...] = ()
    generate_up_to: int = 5
    parallelism: int = 1
    connected_only: bool = False
    enum_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self) -> None:
        if self.max_factor_order < 1:
            raise ValueError("max factor order must be positive")
        if self.max_product_order < 1:
            raise ValueError("max product order must be positive")
        if not 0 <= self.generate_up_to <= GENERATION_CAP:
            raise ValueError(f"generate_up_to must be between 0 and {GENERATION_CAP}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if self.enum_cap < 1:
            raise ValueError("enumeration cap must be positive")


@dataclass(frozen=True)
class ScanRecord:
    """One unordered pair: factor verdicts, product verdict, witness summary."""

    g6_g: str
    g6_h: str
    g_well_covered: bool
    g_alpha: int
    g_min_maximal: int
    g_isolatable: tuple[int, ...]
    h_well_covered: bool
    h_alpha: int
    h_min_maximal: int
    h_isolatable: tuple[int, ...]
    product_n: int
    product_m: int
    product_well_covered: bool
    product_alpha: int
    product_min_maximal: int
    theorem_consistent: bool
    witness_applicable: bool
    witness_swapped: bool | None
    witness_big_size: int | None
    witness_small_size: int | None


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    records: tuple[ScanRecord, ...]
    violations: tuple[tuple[ScanRecord, PairVerdict], ...]

    @property
    def cells(self) -> list[dict]:
        counts = Counter(
            (rec.g_well_covered, rec.h_well_covered, rec.product_well_covered)
            for rec in self.records
        )
        return [
            {
                "g_well_covered": g,
                "h_well_covered": h,
                "product_well_covered": p,
                "count": counts[(g, h, p)],
            }
            for g, h, p in iter_product((False, True), repeat=3)
        ]


def load_corpus(config: ScanConfig) -> dict[str, Graph]:
    """Generated plus ingested graphs, filtered by the factor caps and
    deduplicated by graph6 line, keyed by that line in sorted order.  No
    order above the factor order cap is generated."""
    graphs: list[Graph] = []
    for n in range(1, min(config.generate_up_to, config.max_factor_order) + 1):
        graphs.extend(generate_all_graphs(n))
    for path in config.corpus_paths:
        # latin-1 decodes every byte, so from_graph6 rejects a non-ASCII one
        # on the line that holds it.
        with open(path, "r", encoding="latin-1") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    try:
                        graphs.append(from_graph6(line))
                    except Graph6Error as exc:
                        raise Graph6Error(f"{path}:{number}: {exc}") from None
    selected: dict[str, Graph] = {}
    for graph in graphs:
        if not 1 <= graph.n <= config.max_factor_order:
            continue
        if config.connected_only and not is_connected(graph):
            continue
        selected.setdefault(to_graph6(graph), graph)
    return dict(sorted(selected.items()))


def _record_from_verdict(g6_g: str, g6_h: str, verdict: PairVerdict) -> ScanRecord:
    g, h = verdict.g_analysis, verdict.h_analysis
    return ScanRecord(
        g6_g=g6_g,
        g6_h=g6_h,
        g_well_covered=g.report.verdict,
        g_alpha=g.report.alpha,
        g_min_maximal=g.report.min_maximal,
        g_isolatable=tuple(w.vertex for w in g.isolatable),
        h_well_covered=h.report.verdict,
        h_alpha=h.report.alpha,
        h_min_maximal=h.report.min_maximal,
        h_isolatable=tuple(w.vertex for w in h.isolatable),
        product_n=verdict.product_order,
        product_m=verdict.product_size,
        product_well_covered=verdict.product_report.verdict,
        product_alpha=verdict.product_report.alpha,
        product_min_maximal=verdict.product_report.min_maximal,
        theorem_consistent=verdict.theorem_consistent,
        witness_applicable=verdict.witness is not None,
        witness_swapped=verdict.witness_swapped if verdict.witness else None,
        witness_big_size=len(verdict.witness.big) if verdict.witness else None,
        witness_small_size=len(verdict.witness.small) if verdict.witness else None,
    )


def _evaluate_pair(
    task: tuple[str, str, FactorAnalysis, FactorAnalysis],
) -> tuple[ScanRecord, PairVerdict | None]:
    g6_g, g6_h, g, h = task
    verdict = verify_pair(g.graph, h.graph, enum_cap=g.cap, g_analysis=g, h_analysis=h)
    record = _record_from_verdict(g6_g, g6_h, verdict)
    return record, (verdict if not verdict.theorem_consistent else None)


def _worker_count(requested: int, tasks: int) -> int:
    """Pool size for a scan: never more workers than CPUs or tasks."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def scan(config: ScanConfig) -> ScanResult:
    """Evaluate every unordered corpus pair whose product fits the cap.
    Only the factors of those pairs are analysed."""
    graphs = load_corpus(config)
    pairs = [
        (g, h)
        for g, h in combinations_with_replacement(graphs, 2)
        if graphs[g].n * graphs[h].n <= config.max_product_order
    ]
    used = dict.fromkeys(chain.from_iterable(pairs))
    analyses = {g6: analyze_factor(graphs[g6], config.enum_cap) for g6 in used}
    tasks = [(g, h, analyses[g], analyses[h]) for g, h in pairs]
    workers = _worker_count(config.parallelism, len(tasks))
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_pair, tasks, chunksize=chunk))
    else:
        outcomes = [_evaluate_pair(task) for task in tasks]
    outcomes.sort(key=lambda item: (item[0].g6_g, item[0].g6_h))
    records = tuple(record for record, _ in outcomes)
    violations = tuple(
        (record, verdict) for record, verdict in outcomes if verdict is not None
    )
    return ScanResult(config=config, records=records, violations=violations)


# ---------------------------------------------------------------------------
# JSON / CSV rendering
# ---------------------------------------------------------------------------


def _report_dict(report: WellCoveredReport) -> dict:
    return {
        "well_covered": report.verdict,
        "alpha": report.alpha,
        "min_maximal": report.min_maximal,
        "witness_max": list(report.witness_max),
        "witness_min": list(report.witness_min),
    }


def _isolatable_list(witnesses: Iterable[IsolatableWitness]) -> list[dict]:
    return [
        {"vertex": w.vertex, "certificate": list(w.certificate)} for w in witnesses
    ]


CSV_COLUMNS = [field.name for field in fields(ScanRecord)]


def _record_dict(rec: ScanRecord) -> dict:
    # Tuple fields serialise as JSON lists.
    return {name: getattr(rec, name) for name in CSV_COLUMNS}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(map(str, value))
    return str(value)


def render_scan_csv(result: ScanResult, out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in result.records:
        writer.writerow([_csv_cell(getattr(rec, col)) for col in CSV_COLUMNS])


def render_scan_json(result: ScanResult) -> str:
    config = result.config
    # Execution details (parallelism) are deliberately not
    # echoed: identical scan inputs give byte-identical reports.
    document = {
        "config": {
            "max_factor_order": config.max_factor_order,
            "max_product_order": config.max_product_order,
            "corpus_paths": list(config.corpus_paths),
            "generate_up_to": config.generate_up_to,
            "connected_only": config.connected_only,
            "enum_cap": config.enum_cap,
        },
        "records": [_record_dict(rec) for rec in result.records],
        "summary": {
            "pairs": len(result.records),
            "cells": result.cells,
            "violations": [
                {
                    "record": _record_dict(rec),
                    "g_report": _report_dict(verdict.g_analysis.report),
                    "h_report": _report_dict(verdict.h_analysis.report),
                    "product_report": _report_dict(verdict.product_report),
                }
                for rec, verdict in result.violations
            ],
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _witness_set_dict(s: VertexSet, witness: ProductWitness) -> dict:
    return {
        "size": len(s),
        "indices": list(s),
        "pairs": [list(witness.index_map.decode(p)) for p in s],
    }


def _witness_dict(
    g6_g: str, g6_h: str, swapped: bool, witness: ProductWitness, checks: dict[str, bool]
) -> dict:
    return {
        "g6_g": g6_g,
        "g6_h": g6_h,
        "swapped": swapped,
        "isolatable_vertex": witness.isolatable_vertex,
        "isolating_set": list(witness.isolating_set),
        "column_big": list(witness.column_big),
        "column_small": list(witness.column_small),
        "sets": {
            name: _witness_set_dict(getattr(witness, name), witness)
            for name in (
                "core", "core_big", "core_small",
                "gaps_big", "gaps_small",
                "patch_small", "patch_big",
                "big", "small",
            )
        },
        "checks": checks,
        "all_checks_pass": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


_CAP_SOURCES = {
    "enum_cap": ("--enum-cap", ENV_ENUM_CAP),
    "product_cap": ("--product-cap", ENV_PRODUCT_CAP),
}


def _resolve_cap(args: argparse.Namespace, dest: str, fallback: int) -> int:
    """The cap from its flag, else from its environment variable, else the
    fallback; a value that is not a positive integer is an input error that
    names where it came from."""
    flag, env_name = _CAP_SOURCES[dest]
    raw, source = getattr(args, dest), flag
    if raw is None:
        raw, source = os.environ.get(env_name) or None, env_name
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{source} must be a positive integer, got {raw!r}")
    return value


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _factor_dict(analysis: FactorAnalysis) -> dict:
    return {**_report_dict(analysis.report), "isolatable": _isolatable_list(analysis.isolatable)}


def _analysis_dict(graph: Graph, cap: int) -> dict:
    histogram = mis_size_histogram(graph, cap)
    return {
        "graph6": to_graph6(graph),
        "n": graph.n,
        "m": graph.edge_count,
        **_factor_dict(analyze_factor(graph, cap)),
        "mis_size_histogram": {str(size): count for size, count in histogram.items()},
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    enum_cap = _resolve_cap(args, "enum_cap", DEFAULT_ENUMERATION_CAP)
    if args.graph == "-":
        # All or nothing: parse every line, then analyse them, then write.
        graphs = []
        for number, line in enumerate(sys.stdin, 1):
            if line.strip():
                try:
                    graphs.append(from_graph6(line))
                except Graph6Error as exc:
                    raise Graph6Error(f"line {number}: {exc}") from None
        records = [json.dumps(_analysis_dict(g, enum_cap), sort_keys=True) for g in graphs]
        sys.stdout.writelines(record + "\n" for record in records)
    else:
        _print_json(_analysis_dict(from_graph6(args.graph), enum_cap))
    return EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    product_cap = _resolve_cap(args, "product_cap", DEFAULT_PRODUCT_CMD_CAP)
    enum_cap = _resolve_cap(args, "enum_cap", max(DEFAULT_ENUMERATION_CAP, product_cap))
    graph_g = from_graph6(args.g6_g)
    graph_h = from_graph6(args.g6_h)
    verdict = verify_pair(graph_g, graph_h, enum_cap=enum_cap, product_cap=product_cap)
    witness_summary: dict = {"applicable": verdict.witness is not None}
    if verdict.witness is not None:
        witness_summary.update(
            swapped=verdict.witness_swapped,
            big_size=len(verdict.witness.big),
            small_size=len(verdict.witness.small),
        )
    _print_json(
        {
            "g6_g": to_graph6(graph_g),
            "g6_h": to_graph6(graph_h),
            "product": {
                "n": verdict.product_order,
                "m": verdict.product_size,
                **_report_dict(verdict.product_report),
            },
            "g": _factor_dict(verdict.g_analysis),
            "h": _factor_dict(verdict.h_analysis),
            "theorem_consistent": verdict.theorem_consistent,
            "witness": witness_summary,
        }
    )
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    enum_cap = _resolve_cap(args, "enum_cap", DEFAULT_ENUMERATION_CAP)
    product_cap = _resolve_cap(args, "product_cap", DEFAULT_WITNESS_CMD_CAP)
    graph_g = from_graph6(args.g6_g)
    graph_h = from_graph6(args.g6_h)

    g, h = analyze_factor(graph_g, enum_cap), analyze_factor(graph_h, enum_cap)
    oriented = _orient_witness(g, h, product_cap)
    if oriented is None:
        _print_json(
            {
                "applicable": False,
                "reason": (
                    "neither orientation pairs an isolatable vertex with a "
                    "non-well-covered co-factor"
                ),
                "g_well_covered": g.report.verdict,
                "h_well_covered": h.report.verdict,
                "g_isolatable": [w.vertex for w in g.isolatable],
                "h_isolatable": [w.vertex for w in h.isolatable],
            }
        )
        return EXIT_NOT_APPLICABLE
    witness, swapped = oriented
    left, right = (h, g) if swapped else (g, h)
    checks = witness_invariants(left.graph, right.graph, witness)
    _print_json(
        _witness_dict(to_graph6(graph_g), to_graph6(graph_h), swapped, witness, checks)
    )
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    product_cap = _resolve_cap(args, "product_cap", DEFAULT_SCAN_PRODUCT_ORDER)
    enum_cap = _resolve_cap(args, "enum_cap", max(DEFAULT_ENUMERATION_CAP, product_cap))
    gen_up_to = args.gen_up_to
    if gen_up_to is None:
        gen_up_to = 0 if args.corpus else 5
    config = ScanConfig(
        max_factor_order=args.max_n,
        max_product_order=product_cap,
        corpus_paths=tuple(args.corpus),
        generate_up_to=gen_up_to,
        parallelism=args.jobs,
        connected_only=args.connected_only,
        enum_cap=enum_cap,
    )
    result = scan(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _write_scan(result, args.format, handle)
    else:
        _write_scan(result, args.format, sys.stdout)
    print(
        f"scanned {len(result.records)} pairs, {len(result.violations)} violations",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if result.violations else EXIT_OK


def _write_scan(result: ScanResult, output_format: str, out: TextIO) -> None:
    if output_format == "csv":
        render_scan_csv(result, out)
    else:
        out.write(render_scan_json(result))


def _cmd_gen(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= GENERATION_CAP:
        print(f"error: order must be between 1 and {GENERATION_CAP}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for graph in generate_all_graphs(args.n):
        print(to_graph6(graph))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcovered",
        description=(
            "Decide well-coveredness of graphs and Cartesian products, build "
            "distinct-cardinality witnesses, and scan small-graph corpora."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one graph (or stdin lines)")
    p_analyze.add_argument("graph", help="graph6 line, or - to read lines from stdin")
    p_analyze.add_argument("--enum-cap", default=None,
                           help=f"enumeration order cap (default {DEFAULT_ENUMERATION_CAP})")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_product = sub.add_parser("product", help="verify one factor pair")
    p_product.add_argument("g6_g")
    p_product.add_argument("g6_h")
    p_product.add_argument("--enum-cap", default=None)
    p_product.add_argument("--product-cap", default=None,
                           help=f"product order cap (default {DEFAULT_PRODUCT_CMD_CAP})")
    p_product.set_defaults(func=_cmd_product)

    p_witness = sub.add_parser(
        "witness", help="construct the distinct-cardinality product witness"
    )
    p_witness.add_argument("g6_g")
    p_witness.add_argument("g6_h")
    p_witness.add_argument("--enum-cap", default=None)
    p_witness.add_argument("--product-cap", default=None,
                           help=f"product order cap (default {DEFAULT_WITNESS_CMD_CAP})")
    p_witness.set_defaults(func=_cmd_witness)

    p_scan = sub.add_parser("scan", help="scan all unordered corpus pairs")
    p_scan.add_argument("--max-n", type=int, default=DEFAULT_SCAN_FACTOR_ORDER,
                        help="max factor order (default %(default)s)")
    p_scan.add_argument("--product-cap", default=None,
                        help=f"max product order (default {DEFAULT_SCAN_PRODUCT_ORDER})")
    p_scan.add_argument("--corpus", action="append", default=[], metavar="FILE",
                        help="graph6 file, one line per graph (repeatable)")
    p_scan.add_argument("--gen-up-to", type=int, default=None,
                        help="generate all graphs up to this order "
                             "(default 5, or 0 when --corpus is given)")
    p_scan.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.add_argument("--out", default=None, help="write the report to this path")
    p_scan.add_argument("--connected-only", action="store_true",
                        help="keep only connected corpus graphs")
    p_scan.add_argument("--enum-cap", default=None)
    p_scan.set_defaults(func=_cmd_scan)

    p_gen = sub.add_parser("gen", help="emit canonical graph6 lines for one order")
    p_gen.add_argument("n", type=int)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (Graph6Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
