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
Every indented JSON report goes through ``_render_json``, which writes the
same bytes as ``json.dumps`` with a two-space indent and sorted keys, with
fast paths for the flat int lists and int pairs that witness reports are made
of; ``analyze -`` writes compact one-line records with ``json.dumps``.

Exit codes: 0 success/consistent, 1 scan found a consistency violation,
2 input error, 3 resource cap exceeded, 4 witness hypotheses not applicable.

Environment: WELLCOVERED_ENUM_CAP and WELLCOVERED_PRODUCT_CAP override the
default caps; explicit flags take precedence over both.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product as iter_product
from operator import attrgetter
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, TextIO

from .corpus import GENERATION_CAP, generate_all_graphs
from .graphs import (
    CapExceeded,
    Graph,
    Graph6Error,
    VertexSet,
    _check_product_cap,
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
    PRODUCT_SETS,
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


class ScanRecord(NamedTuple):
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
    g6_g: str, g6_h: str, g: FactorAnalysis, h: FactorAnalysis, reports: dict
) -> tuple[ScanRecord, PairVerdict | None]:
    verdict = verify_pair(g, h, reports)
    record = _record_from_verdict(g6_g, g6_h, verdict)
    return record, (verdict if not verdict.theorem_consistent else None)


# A pool worker's factor analyses, set once by the initializer so that each
# builds its components and orbit tables once per worker, and the component-
# product reports its pairs share, which end with the scan's pool.
_worker_analyses: dict[str, FactorAnalysis] = {}
_worker_reports: dict = {}


def _start_worker(analyses: dict[str, FactorAnalysis]) -> None:
    global _worker_analyses, _worker_reports
    _worker_analyses, _worker_reports = analyses, {}


def _evaluate_in_worker(pair: tuple[str, str]) -> tuple[ScanRecord, PairVerdict | None]:
    g, h = pair
    return _evaluate_pair(g, h, _worker_analyses[g], _worker_analyses[h], _worker_reports)


def _worker_count(requested: int, tasks: int) -> int:
    """Pool size for a scan: never more workers than CPUs or tasks."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def scan(config: ScanConfig) -> ScanResult:
    """Evaluate every unordered corpus pair whose product fits the cap.
    Only the factors of those pairs are analysed.  The pairs share one dict
    of component-product reports per scan, one per worker with ``--jobs``."""
    graphs = load_corpus(config)
    pairs = [
        (g, h)
        for g, h in combinations_with_replacement(graphs, 2)
        if graphs[g].n * graphs[h].n <= config.max_product_order
    ]
    used = dict.fromkeys(chain.from_iterable(pairs))
    analyses = {g6: analyze_factor(graphs[g6], config.enum_cap) for g6 in used}
    workers = _worker_count(config.parallelism, len(pairs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(pairs) // (workers * 4))
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(analyses,)) as pool:
            outcomes = list(pool.map(_evaluate_in_worker, pairs, chunksize=chunk))
    else:
        reports: dict = {}
        outcomes = [_evaluate_pair(g, h, analyses[g], analyses[h], reports) for g, h in pairs]
    outcomes.sort(key=lambda item: (item[0].g6_g, item[0].g6_h))
    records = tuple(record for record, _ in outcomes)
    violations = tuple(
        (record, verdict) for record, verdict in outcomes if verdict is not None
    )
    return ScanResult(config=config, records=records, violations=violations)


# ---------------------------------------------------------------------------
# JSON / CSV rendering
# ---------------------------------------------------------------------------


class _Rendered(str):
    """JSON text already rendered for the place it is inserted at."""


_INDENT = "  "
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    _Rendered: str,
}


def _render_json(value, newline: str = "\n") -> str:
    """``json.dumps`` with a two-space indent and sorted keys, byte for byte,
    for the types the reports hold: dicts with ``str`` keys, lists, tuples,
    ``str``, ``int``, ``bool`` and ``None``; a ``_Rendered`` text is written
    as it is.  Any other type raises ``TypeError``.

    ``json.dumps`` never uses its C encoder when it indents, so this renders
    the common shapes in bulk: a list of ints with one join, a list of
    equal-length int tuples with one ``%`` over one joined template and the
    flattened tuples, and scalar dict values without a recursive call.
    ``newline`` is a line break plus the indentation of the line ``value``
    starts on."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + _INDENT
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            item = value[key]
            scalar = _SCALARS.get(type(item))
            text = scalar(item) if scalar is not None else _render_json(item, inner)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + _INDENT
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif (
            kinds == {tuple}
            and len(widths := set(map(len, value))) == 1
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            deeper = inner + _INDENT
            template = "[" + deeper + ("," + deeper).join(["%d"] * widths.pop()) + inner + "]"
            joined = "[" + inner + ("," + inner).join([template] * len(value)) + newline + "]"
            return joined % tuple(chain.from_iterable(value))
        else:
            items = [_render_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"cannot render {kind.__name__} as JSON")


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


CSV_COLUMNS = list(ScanRecord._fields)


# One record of the scan document's "records" list, whose fields start
# three indents deep, as one template over the sorted field names.
_RECORD_NEWLINE = "\n" + 3 * _INDENT
_RECORD_TEMPLATE = "{" + _RECORD_NEWLINE + ("," + _RECORD_NEWLINE).join(
    encode_basestring_ascii(name) + ": %s" for name in sorted(CSV_COLUMNS)
) + "\n" + 2 * _INDENT + "}"
_record_values = attrgetter(*sorted(CSV_COLUMNS))


def _render_record(rec: ScanRecord) -> _Rendered:
    """``_render_json`` of ``rec._asdict()`` in that list, by one ``%``."""
    return _Rendered(_RECORD_TEMPLATE % tuple([
        scalar(value) if (scalar := _SCALARS.get(type(value)))
        else _render_json(value, _RECORD_NEWLINE)
        for value in _record_values(rec)
    ]))


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
        writer.writerow(map(_csv_cell, rec))


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
        "records": [_render_record(rec) for rec in result.records],
        "summary": {
            "pairs": len(result.records),
            "cells": result.cells,
            "violations": [
                {
                    "record": rec._asdict(),
                    "g_report": _report_dict(verdict.g_analysis.report),
                    "h_report": _report_dict(verdict.h_analysis.report),
                    "product_report": _report_dict(verdict.product_report),
                }
                for rec, verdict in result.violations
            ],
        },
    }
    return _render_json(document) + "\n"


def _witness_set_dict(s: VertexSet, n_right: int) -> dict:
    # Product vertex p is the pair divmod(p, n_right) (see cartesian_product).
    members = list(s)
    return {
        "size": len(members),
        "indices": members,
        "pairs": [divmod(p, n_right) for p in members],
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
            name: _witness_set_dict(getattr(witness, name), witness.column_big.n)
            for name in PRODUCT_SETS
        },
        "checks": checks,
        "all_checks_pass": all(checks.values()),
    }


def _not_applicable_dict(g: FactorAnalysis, h: FactorAnalysis) -> dict:
    return {
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
    print(_render_json(obj))


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
    # Every limit is checked before any search: the enumeration cap of G,
    # then of H, then the product cap, then (in verify_pair) the largest
    # component product.
    g, h = analyze_factor(graph_g, enum_cap), analyze_factor(graph_h, enum_cap)
    _check_product_cap(graph_g.n * graph_h.n, product_cap)
    verdict = verify_pair(g, h)
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
            "g": _factor_dict(g),
            "h": _factor_dict(h),
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

    # Every limit is checked before any search: the enumeration cap of G,
    # then of H, then the product cap.
    g, h = analyze_factor(graph_g, enum_cap), analyze_factor(graph_h, enum_cap)
    _check_product_cap(graph_g.n * graph_h.n, product_cap)
    oriented = _orient_witness(g, h)
    if oriented is None:
        _print_json(_not_applicable_dict(g, h))
        return EXIT_NOT_APPLICABLE
    witness, swapped = oriented
    left, right = (graph_h, graph_g) if swapped else (graph_g, graph_h)
    checks = witness_invariants(left, right, witness, witness.product)
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
    if args.out:
        with _report_file(args.out) as handle:
            result = scan(config)
            handle.truncate(0)
            _write_scan(result, args.format, handle)
    else:
        result = scan(config)
        _write_scan(result, args.format, sys.stdout)
    print(
        f"scanned {len(result.records)} pairs, {len(result.violations)} violations",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if result.violations else EXIT_OK


@contextlib.contextmanager
def _report_file(path: str) -> Iterator[TextIO]:
    """``scan --out PATH``, opened before the scan so that an unwritable path
    fails at once; appended to, and removed on error only if created here."""
    created = not os.path.exists(path)
    handle = open(path, "a", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write_scan(result: ScanResult, output_format: str, out: TextIO) -> None:
    if output_format == "csv":
        render_scan_csv(result, out)
    else:
        out.write(render_scan_json(result))


def _cmd_gen(args: argparse.Namespace) -> int:
    for graph in generate_all_graphs(args.n):
        print(to_graph6(graph))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and reused by every later ``main``
    call in the process; ``parse_args`` gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="wellcovered",
        description=(
            "Decide well-coveredness of graphs and Cartesian products, build "
            "distinct-cardinality witnesses, and scan small-graph corpora."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    enum_cap_help = f"enumeration order cap (default {DEFAULT_ENUMERATION_CAP})"
    product_enum_cap_help = (
        f"enumeration order cap (default the larger of {DEFAULT_ENUMERATION_CAP} "
        "and the product cap)"
    )

    p_analyze = sub.add_parser("analyze", help="analyze one graph (or stdin lines)")
    p_analyze.add_argument("graph", help="graph6 line, or - to read lines from stdin")
    p_analyze.add_argument("--enum-cap", default=None, help=enum_cap_help)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_product = sub.add_parser("product", help="verify one factor pair")
    p_product.add_argument("g6_g")
    p_product.add_argument("g6_h")
    p_product.add_argument("--enum-cap", default=None, help=product_enum_cap_help)
    p_product.add_argument("--product-cap", default=None,
                           help=f"product order cap (default {DEFAULT_PRODUCT_CMD_CAP})")
    p_product.set_defaults(func=_cmd_product)

    p_witness = sub.add_parser(
        "witness", help="construct the distinct-cardinality product witness"
    )
    p_witness.add_argument("g6_g")
    p_witness.add_argument("g6_h")
    p_witness.add_argument("--enum-cap", default=None, help=enum_cap_help)
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
    p_scan.add_argument("--enum-cap", default=None, help=product_enum_cap_help)
    p_scan.set_defaults(func=_cmd_scan)

    p_gen = sub.add_parser("gen", help="emit canonical graph6 lines for one order")
    p_gen.add_argument("n", type=int)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or error: 2 for a bad flag, 0 for --help.
        return exc.code
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
