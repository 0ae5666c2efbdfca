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
Every indented JSON report is ``json.dumps`` with a two-space indent and
sorted keys.  Two parts are spliced in as rendered text: each scan record,
with each factor's block rendered once per report, and the nine product
sets of a witness report, from their masks; both are tested against it.
``analyze -`` writes compact one-line records with ``json.dumps``.
``analyze`` reads its report off the walk that counts the set sizes, one
walk per component; every other report comes from ``is_well_covered``.

Exit codes: 0 success/consistent, 1 scan found a consistency violation or
a witness check failed, 2 input error, 3 resource cap exceeded, 4 witness
hypotheses not applicable, 141 the reader closed standard output early
(128 + SIGPIPE, what a shell reports for a tool killed by a closed pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from itertools import chain, combinations_with_replacement, product as iter_product
from operator import attrgetter
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .corpus import GENERATION_CAP, generate_all_graphs, generate_levels
from .graphs import (
    CapExceeded,
    Graph,
    Graph6Error,
    from_graph6,
    is_connected,
    iter_bits,
    to_graph6,
)
from .independence import (
    DEFAULT_ENUMERATION_CAP,
    IsolatableWitness,
    WellCoveredReport,
    _mis_profile,
    isolatable_vertices,
)
from .theorem import (
    PRODUCT_SETS,
    FactorAnalysis,
    PairVerdict,
    ProductWitness,
    WitnessCheckError,
    _check_pair_cap,
    _orient_witness,
    _pair_summary,
    _product_sizes,
    verify_pair,
    witness_invariants,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP = 3
EXIT_NOT_APPLICABLE = 4
EXIT_BROKEN_PIPE = 141

DEFAULT_SCAN_FACTOR_ORDER = 5
DEFAULT_SCAN_PRODUCT_ORDER = 30
DEFAULT_PRODUCT_CMD_CAP = 36
DEFAULT_WITNESS_CMD_CAP = 1024


# ---------------------------------------------------------------------------
# Scan machinery
# ---------------------------------------------------------------------------


class ScanConfig(NamedTuple):
    """Configuration of one pair scan; identical configs give byte-identical
    reports regardless of parallelism.  The parser checks every value."""

    max_factor_order: int = DEFAULT_SCAN_FACTOR_ORDER
    max_product_order: int = DEFAULT_SCAN_PRODUCT_ORDER
    corpus_paths: tuple[str, ...] = ()
    generate_up_to: int = 5
    parallelism: int = 1
    connected_only: bool = False
    enum_cap: int = DEFAULT_ENUMERATION_CAP


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


class ScanResult(NamedTuple):
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


def _read_graph6(lines: Iterable[str], where: str) -> list[Graph]:
    """The graphs of the non-blank graph6 lines.  A bad line raises
    ``Graph6Error`` located by ``where`` and its line number, counting blank
    lines."""
    graphs = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                graphs.append(from_graph6(line))
            except Graph6Error as exc:
                raise Graph6Error(f"{where}{number}: {exc}") from None
    return graphs


def load_corpus(config: ScanConfig) -> dict[str, Graph]:
    """Generated plus ingested graphs, filtered by the factor caps and
    deduplicated by graph6 line, keyed by that line in sorted order.  No
    order above the factor order cap is generated."""
    graphs: list[Graph] = []
    for level in generate_levels(min(config.generate_up_to, config.max_factor_order)):
        graphs.extend(level)
    for path in config.corpus_paths:
        # latin-1 decodes every byte, so from_graph6 rejects a non-ASCII one
        # on the line that holds it.
        with open(path, "r", encoding="latin-1") as handle:
            graphs.extend(_read_graph6(handle, f"{path}:"))
    selected: dict[str, Graph] = {}
    for graph in graphs:
        if not 1 <= graph.n <= config.max_factor_order:
            continue
        if config.connected_only and not is_connected(graph):
            continue
        selected.setdefault(to_graph6(graph), graph)
    return dict(sorted(selected.items()))


def _factor_fields(analysis: FactorAnalysis) -> tuple:
    """A factor's scan-record fields, in ``ScanRecord`` order: the verdict,
    alpha, the smallest maximal size and the isolatable vertices."""
    report, isolatable = analysis.report, tuple(w.vertex for w in analysis.isolatable)
    return report.verdict, report.alpha, report.min_maximal, isolatable


def _evaluate(
    pairs: list[tuple[str, str]], analyses: dict[str, FactorAnalysis]
) -> list[ScanRecord]:
    """Each pair's record.  A record reads the product's sizes from one dict
    for all pairs, searched once per unordered component pair, and each
    factor's fields once; ``scan`` has checked the caps."""
    sizes: dict = {}
    fields = {g6: _factor_fields(analyses[g6]) for g6 in dict.fromkeys(chain.from_iterable(pairs))}
    records = []
    for g6_g, g6_h in pairs:
        g, h = analyses[g6_g], analyses[g6_h]
        alpha, min_maximal = _product_sizes(g, h, sizes)
        product_wc = alpha == min_maximal
        order, size, consistent = _pair_summary(g, h, product_wc)
        witness, swapped = _orient_witness(g, h) or (None, False)
        records.append(ScanRecord(
            g6_g, g6_h, *fields[g6_g], *fields[g6_h], order, size, product_wc,
            alpha, min_maximal, consistent, witness is not None, swapped if witness else None,
            *((witness.big.bit_count(), witness.small.bit_count()) if witness else (None, None)),
        ))
    return records


def _worker_count(requested: int, tasks: int) -> int:
    """Pool size for a scan: never more workers than tasks or than the CPUs
    this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, tasks))


def scan(config: ScanConfig) -> ScanResult:
    """Evaluate every unordered corpus pair whose product fits the cap.
    Only the factors of those pairs are analysed, and every pair's largest
    component product is checked against the enumeration cap, in pair
    order, before any search.  Records come from the products' sizes,
    shared by unordered component pair (:func:`_evaluate`), in pair order,
    sorted since the corpus keys are.  With ``--jobs``, worker w evaluates
    the interleaved share ``pairs[w::workers]`` as one task, so it receives
    the analyses once and builds each orbit table at most once.  Only the
    records cross the pool: the pair of each inconsistent record then goes
    through ``verify_pair`` in this process, for the full reports its
    violation entry renders."""
    graphs = load_corpus(config)
    pairs = [
        (g, h)
        for g, h in combinations_with_replacement(graphs, 2)
        if graphs[g].n * graphs[h].n <= config.max_product_order
    ]
    used = dict.fromkeys(chain.from_iterable(pairs))
    analyses = {g6: FactorAnalysis(graphs[g6], config.enum_cap) for g6 in used}
    for g, h in pairs:
        _check_pair_cap(analyses[g], analyses[h])
    workers = _worker_count(config.parallelism, len(pairs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        records: list = [None] * len(pairs)
        shares = [pairs[w::workers] for w in range(workers)]
        with ProcessPoolExecutor(workers) as pool:
            for w, share in enumerate(pool.map(_evaluate, shares, [analyses] * workers)):
                records[w::workers] = share
    else:
        records = _evaluate(pairs, analyses)
    violations = tuple(
        (record, verify_pair(analyses[record.g6_g], analyses[record.g6_h]))
        for record in records
        if not record.theorem_consistent
    )
    return ScanResult(config=config, records=tuple(records), violations=violations)


# ---------------------------------------------------------------------------
# JSON / CSV rendering
# ---------------------------------------------------------------------------


class _Rendered(str):
    """JSON text of a top-level report value, already rendered for its place:
    ``json.dumps(value, indent=2, sort_keys=True)`` indented one level."""


_INDENT = "  "


def _render_json(document: dict) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)``, with each
    top-level ``_Rendered`` value written as it is.

    Each such value is dumped as ``null``, then its key's line,
    ``"\\n  " + key + ": null"``, is replaced once.  That line is the only
    match: only top-level keys start a line indented by exactly two spaces,
    and a JSON string never holds a raw line break."""
    spliced = {key: value for key, value in document.items() if type(value) is _Rendered}
    text = json.dumps({**document, **dict.fromkeys(spliced)}, indent=2, sort_keys=True)
    for key, value in spliced.items():
        line = "\n" + _INDENT + encode_basestring_ascii(key) + ": "
        text = text.replace(line + "null", line + value, 1)
    return text


def _report_dict(report: WellCoveredReport) -> dict:
    return {
        "well_covered": report.verdict,
        "alpha": report.alpha,
        "min_maximal": report.min_maximal,
        "witness_max": list(iter_bits(report.witness_max)),
        "witness_min": list(iter_bits(report.witness_min)),
    }


def _isolatable_list(witnesses: Iterable[IsolatableWitness]) -> list[dict]:
    return [
        {"vertex": w.vertex, "certificate": list(iter_bits(w.certificate))} for w in witnesses
    ]


CSV_COLUMNS = list(ScanRecord._fields)


# A record of the scan document's "records" list, fields three indents
# deep.  Sorted, they are g6_g, g6_h, the g_* block, the h_* block and the
# pair's fields; each block is a ``%`` template led by its separator.
_RECORD_BREAK = "\n" + 2 * _INDENT
_FIELD_BREAK = _RECORD_BREAK + _INDENT
_ITEM_SEP = "," + _FIELD_BREAK + _INDENT
_RECORD_HEAD = "{" + _FIELD_BREAK + '"g6_g": %s,' + _FIELD_BREAK + '"g6_h": '
_BLOCKS = [sorted(CSV_COLUMNS[first:last]) for first, last in ((2, 6), (6, 10), (10, 20))]
_G_TEMPLATE, _H_TEMPLATE, _PAIR_TEMPLATE = (
    "".join("," + _FIELD_BREAK + encode_basestring_ascii(name) + ": %s" for name in names)
    for names in _BLOCKS
)
_g_values, _h_values, _pair_values = (attrgetter(*names) for names in _BLOCKS)
_INT_LIST_TEMPLATE = "[" + _FIELD_BREAK + _INDENT + "%s" + _FIELD_BREAK + "]"
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _render_fields(template: str, values: tuple) -> str:
    """``json.dumps`` of each value, put into ``template``.  The two
    isolatable vertex tuples are the only fields that are not scalars."""
    return template % tuple([
        _SCALARS[type(value)](value) if type(value) is not tuple
        else _INT_LIST_TEMPLATE % _ITEM_SEP.join(map(str, value)) if value
        else "[]"
        for value in values
    ])


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
    # Each head and factor block is rendered once per content in one call.
    head = functools.cache(lambda g6: _RECORD_HEAD % encode_basestring_ascii(g6))
    g_block = functools.cache(functools.partial(_render_fields, _G_TEMPLATE))
    h_block = functools.cache(functools.partial(_render_fields, _H_TEMPLATE))
    records = [
        head(rec.g6_g) + encode_basestring_ascii(rec.g6_h) + g_block(_g_values(rec))
        + h_block(_h_values(rec)) + _render_fields(_PAIR_TEMPLATE, _pair_values(rec))
        + _RECORD_BREAK + "}"
        for rec in result.records
    ]
    # Execution details (parallelism) are deliberately not
    # echoed: identical scan inputs give byte-identical reports.
    config = result.config._asdict()
    del config["parallelism"]
    document = {
        "config": config,
        "records": _Rendered(
            "[" + _RECORD_BREAK + ("," + _RECORD_BREAK).join(records) + "\n" + _INDENT + "]"
            if records else "[]"
        ),
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


# Line breaks of the witness report's "sets" value, one per depth: the set
# names, their fields, the list items and the pair members.
_SET_BREAKS = ["\n" + depth * _INDENT for depth in range(1, 6)]


def _render_sets(masks: dict[str, int], n_right: int) -> _Rendered:
    """``json.dumps`` text of the witness report's ``"sets"`` dict, which maps
    each name to ``{"size", "indices", "pairs"}`` of the product vertices in
    its mask, ``pairs`` holding each vertex p as ``divmod(p, n_right)`` (see
    cartesian_product).  The text is joined row by row: a product row g
    gives each member h a head of g and a tail of h, and the text of each
    ``(g, row mask)`` is shared by the sets, which overlap heavily."""
    top, name_break, field_break, item_break, member_break = _SET_BREAKS
    item_sep = "," + item_break
    width = (1 << n_right) - 1
    tails = [f"{h}{item_break}]" for h in range(n_right)]
    rows: dict[tuple[int, int], tuple[str, str]] = {}
    entries = []
    for name in sorted(masks):
        indices, pairs = [], []
        rest = mask = masks[name]
        while rest:
            g = ((rest & -rest).bit_length() - 1) // n_right
            bits = rest >> g * n_right & width
            rest ^= bits << g * n_right
            text = rows.get((g, bits))
            if text is None:
                base, head = g * n_right, f"[{member_break}{g},{member_break}"
                members = list(iter_bits(bits))
                text = rows[g, bits] = (
                    item_sep.join([str(base + h) for h in members]),
                    item_sep.join([head + tails[h] for h in members]),
                )
            indices.append(text[0])
            pairs.append(text[1])
        lists = [
            "[" + item_break + item_sep.join(texts) + field_break + "]" if texts else "[]"
            for texts in (indices, pairs)
        ]
        entries.append(
            f'{encode_basestring_ascii(name)}: {{{field_break}"indices": {lists[0]},'
            f'{field_break}"pairs": {lists[1]},{field_break}"size": {mask.bit_count()}'
            f"{name_break}}}"
        )
    return _Rendered("{" + name_break + ("," + name_break).join(entries) + top + "}")


def _witness_dict(
    g6_g: str, g6_h: str, swapped: bool, witness: ProductWitness, checks: dict[str, bool]
) -> dict:
    return {
        "g6_g": g6_g,
        "g6_h": g6_h,
        "swapped": swapped,
        "isolatable_vertex": witness.isolatable_vertex,
        "isolating_set": list(iter_bits(witness.isolating_set)),
        "column_big": list(iter_bits(witness.column_big)),
        "column_small": list(iter_bits(witness.column_small)),
        "sets": _render_sets(
            {name: getattr(witness, name) for name in PRODUCT_SETS}, witness.right.n
        ),
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


def _print_json(obj: dict) -> None:
    print(_render_json(obj))


def _factor_dict(analysis: FactorAnalysis) -> dict:
    return {**_report_dict(analysis.report), "isolatable": _isolatable_list(analysis.isolatable)}


def _analysis_dict(graph: Graph, cap: int) -> dict:
    histogram, report = _mis_profile(graph, cap)
    return {
        "graph6": to_graph6(graph),
        "n": graph.n,
        "m": graph.edge_count,
        **_report_dict(report),
        "isolatable": _isolatable_list(isolatable_vertices(graph, cap)),
        "mis_size_histogram": {str(size): count for size, count in histogram.items()},
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.graph == "-":
        # All or nothing: parse every line, then analyse them, then write.
        graphs = _read_graph6(sys.stdin, "line ")
        records = [json.dumps(_analysis_dict(g, args.enum_cap), sort_keys=True) for g in graphs]
        sys.stdout.writelines(record + "\n" for record in records)
    else:
        _print_json(_analysis_dict(from_graph6(args.graph), args.enum_cap))
    return EXIT_OK


def _factor_pair(args: argparse.Namespace, enum_cap: int) -> tuple[FactorAnalysis, FactorAnalysis]:
    """The analyses of ``product`` and ``witness``'s two graphs.  Both are
    parsed first, then every limit is checked before any search: the
    enumeration cap of G, then of H, then the product cap."""
    graph_g, graph_h = from_graph6(args.g6_g), from_graph6(args.g6_h)
    g, h = FactorAnalysis(graph_g, enum_cap), FactorAnalysis(graph_h, enum_cap)
    order = graph_g.n * graph_h.n
    if order > args.product_cap:
        raise CapExceeded(f"product order {order} exceeds cap {args.product_cap}")
    return g, h


def _cmd_product(args: argparse.Namespace) -> int:
    enum_cap = args.enum_cap or max(DEFAULT_ENUMERATION_CAP, args.product_cap)
    # verify_pair checks one more limit, the largest component product.
    g, h = _factor_pair(args, enum_cap)
    verdict = verify_pair(g, h)
    witness_summary: dict = {"applicable": verdict.witness is not None}
    if verdict.witness is not None:
        witness_summary.update(
            swapped=verdict.witness_swapped,
            big_size=verdict.witness.big.bit_count(),
            small_size=verdict.witness.small.bit_count(),
        )
    _print_json(
        {
            "g6_g": to_graph6(g.graph),
            "g6_h": to_graph6(h.graph),
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
    g, h = _factor_pair(args, args.enum_cap)
    oriented = _orient_witness(g, h)
    if oriented is None:
        _print_json(_not_applicable_dict(g, h))
        return EXIT_NOT_APPLICABLE
    witness, swapped = oriented
    checks = witness_invariants(witness)
    _print_json(
        _witness_dict(to_graph6(g.graph), to_graph6(h.graph), swapped, witness, checks)
    )
    return EXIT_OK if all(checks.values()) else EXIT_VIOLATION


def _cmd_scan(args: argparse.Namespace) -> int:
    gen_up_to = args.gen_up_to
    if gen_up_to is None:
        gen_up_to = 0 if args.corpus else 5
    config = ScanConfig(
        max_factor_order=args.max_n,
        max_product_order=args.product_cap,
        corpus_paths=tuple(args.corpus),
        generate_up_to=gen_up_to,
        parallelism=args.jobs,
        connected_only=args.connected_only,
        enum_cap=args.enum_cap or max(DEFAULT_ENUMERATION_CAP, args.product_cap),
    )
    if args.out:
        with _report_file(args.out) as handle:
            result = scan(config)
            handle.truncate(0)
            _write_scan(result, args.format, handle)
    else:
        result = scan(config)
        _write_scan(result, args.format, sys.stdout)
        sys.stdout.flush()  # a closed stdout ends the run before the summary
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


def _int_flag(low: int, high: float, expected: str) -> Callable[[str], int]:
    """The argparse ``type`` of an int flag from ``low`` to ``high``: a bad
    value exits 2 with a message that names the flag and ``expected``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return convert


_positive = _int_flag(1, math.inf, "a positive integer")
_generation_order = _int_flag(0, GENERATION_CAP, f"an integer between 0 and {GENERATION_CAP}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and reused by every later ``main``
    call in the process; ``parse_args`` gives each call a fresh namespace.
    It converts and checks every numeric flag, so the subcommands and the
    scan never see a bad value."""
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
    product_cap_help = "product order cap (default %(default)s)"

    p_analyze = sub.add_parser("analyze", help="analyze one graph (or stdin lines)")
    p_analyze.add_argument("graph", help="graph6 line, or - to read lines from stdin")
    p_analyze.add_argument("--enum-cap", type=_positive, default=DEFAULT_ENUMERATION_CAP,
                           help=enum_cap_help)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_product = sub.add_parser("product", help="verify one factor pair")
    p_product.add_argument("g6_g")
    p_product.add_argument("g6_h")
    p_product.add_argument("--enum-cap", type=_positive, default=None, help=product_enum_cap_help)
    p_product.add_argument("--product-cap", type=_positive, default=DEFAULT_PRODUCT_CMD_CAP,
                           help=product_cap_help)
    p_product.set_defaults(func=_cmd_product)

    p_witness = sub.add_parser(
        "witness", help="construct the distinct-cardinality product witness"
    )
    p_witness.add_argument("g6_g")
    p_witness.add_argument("g6_h")
    p_witness.add_argument("--enum-cap", type=_positive, default=DEFAULT_ENUMERATION_CAP,
                           help=enum_cap_help)
    p_witness.add_argument("--product-cap", type=_positive, default=DEFAULT_WITNESS_CMD_CAP,
                           help=product_cap_help)
    p_witness.set_defaults(func=_cmd_witness)

    p_scan = sub.add_parser("scan", help="scan all unordered corpus pairs")
    p_scan.add_argument("--max-n", type=_positive, default=DEFAULT_SCAN_FACTOR_ORDER,
                        help="max factor order (default %(default)s)")
    p_scan.add_argument("--product-cap", type=_positive, default=DEFAULT_SCAN_PRODUCT_ORDER,
                        help="max product order (default %(default)s)")
    p_scan.add_argument("--corpus", action="append", default=[], metavar="FILE",
                        help="graph6 file, one line per graph (repeatable)")
    p_scan.add_argument("--gen-up-to", type=_generation_order, default=None,
                        help="generate all graphs up to this order "
                             "(default 5, or 0 when --corpus is given)")
    p_scan.add_argument("--jobs", type=_positive, default=1, help="parallel workers")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.add_argument("--out", default=None, help="write the report to this path")
    p_scan.add_argument("--connected-only", action="store_true",
                        help="keep only connected corpus graphs")
    p_scan.add_argument("--enum-cap", type=_positive, default=None, help=product_enum_cap_help)
    p_scan.set_defaults(func=_cmd_scan)

    p_gen = sub.add_parser("gen", help="emit canonical graph6 lines for one order")
    p_gen.add_argument("n", type=_int_flag(1, GENERATION_CAP,
                                           f"an integer between 1 and {GENERATION_CAP}"))
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or error: 2 for a bad flag, 0 for --help.
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except WitnessCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (Graph6Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    code = main()
    if code == EXIT_BROKEN_PIPE:
        # Unflushed output would fail again in the interpreter's final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
