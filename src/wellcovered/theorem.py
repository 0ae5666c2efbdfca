"""Constructive and verification layer for well-coveredness of Cartesian
products.

Two routes certify that a product is or is not well-covered:

* a constructive witness: when one factor has an isolatable vertex and the
  other factor has maximal independent sets of two different sizes, the
  product provably carries maximal independent sets of distinct
  cardinalities, and :func:`build_product_witness` produces them explicitly
  (checked by direct independence and domination tests, never by
  enumeration);
* the product's well-covered report from a branch-and-bound search of its
  maximal independent sets (:func:`is_well_covered`), wrapped by
  :func:`verify_pair`, which also cross-checks the main consistency claim:
  a well-covered product forces at least one well-covered factor.

Both routes start from :func:`analyze_factor`, which enumerates no graph:
a factor's report comes from the same searches as a product's, and its
isolatable vertices from :func:`isolatable_vertices`.

:func:`check_disjoint_mis` verifies the structural conclusions that hold for
factor pairs without isolatable vertices whose product is well-covered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    ProductIndexMap,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    delete_closed_neighborhood,
    iter_bits,
)
from .independence import (
    DEFAULT_ENUMERATION_CAP,
    IsolatableWitness,
    WellCoveredReport,
    _check_cap,
    _maximal_independent_within,
    _walk,
    is_maximal_independent,
    is_well_covered,
    isolatable_vertices,
)


@dataclass(frozen=True)
class ProductWitness:
    """Two explicitly constructed maximal independent sets of a product with
    different cardinalities.

    The construction isolates vertex x of the left factor via
    ``isolating_set``, fills column x with either of two maximal independent
    sets of the right factor (``column_big`` larger than ``column_small``),
    and patches the leftover undominated vertices of the neighboring columns.
    ``big`` and ``small`` are the finished sets, with
    ``len(big) - len(small) >= len(column_big) - len(column_small)``.
    """

    isolatable_vertex: int
    isolating_set: VertexSet        # in the left factor
    column_big: VertexSet           # in the right factor
    column_small: VertexSet         # in the right factor
    core: VertexSet                 # product coordinates, avoids N[x] columns
    core_big: VertexSet             # core | {x} x column_big
    core_small: VertexSet           # core | {x} x column_small
    gaps_big: VertexSet             # N(x) columns not dominated by core_big
    gaps_small: VertexSet           # N(x) columns not dominated by core_small
    patch_small: VertexSet          # maximal independent inside gaps_small
    patch_big: VertexSet            # extends patch_small inside gaps_big
    big: VertexSet
    small: VertexSet
    index_map: ProductIndexMap


@dataclass(frozen=True)
class WitnessInputs:
    """Inputs that make the constructive witness applicable to (G, H)."""

    iso: IsolatableWitness
    column_big: VertexSet
    column_small: VertexSet


@dataclass(frozen=True)
class FactorDisjointMis:
    """Disjoint maximal-independent-set structure of one factor."""

    all_have_disjoint: bool
    counterexample: VertexSet | None
    disjoint_equal_size: bool
    unequal_pair: tuple[VertexSet, VertexSet] | None


@dataclass(frozen=True)
class DisjointMisReport:
    """Outcome of the disjoint-MIS check on a factor pair.

    The hypotheses are: neither factor has an isolatable vertex and the
    product is well-covered.  When they fail no judgment is made and the
    factor fields are None.
    """

    hypotheses_met: bool
    g_isolatable_free: bool
    h_isolatable_free: bool
    product_well_covered: bool
    g_result: FactorDisjointMis | None
    h_result: FactorDisjointMis | None
    passed: bool | None


@dataclass(frozen=True)
class ViolationCertificate:
    """All three reports of a pair contradicting the product consistency
    claim (expected never to occur)."""

    g_report: WellCoveredReport
    h_report: WellCoveredReport
    product_report: WellCoveredReport


@dataclass(frozen=True)
class FactorAnalysis:
    """Per-factor analysis reused across many pairs, built by
    :func:`analyze_factor` without enumerating the factor."""

    graph: Graph
    cap: int
    report: WellCoveredReport
    isolatable: tuple[IsolatableWitness, ...]


@dataclass(frozen=True)
class PairVerdict:
    """Complete verification record for one factor pair."""

    g_report: WellCoveredReport
    h_report: WellCoveredReport
    product_report: WellCoveredReport
    g_isolatable: tuple[IsolatableWitness, ...]
    h_isolatable: tuple[IsolatableWitness, ...]
    product_order: int
    product_size: int
    theorem_consistent: bool
    violation: ViolationCertificate | None
    witness: ProductWitness | None
    witness_swapped: bool


def analyze_factor(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> FactorAnalysis:
    """The well-covered report of one factor, from the branch-and-bound
    searches of :func:`is_well_covered`, and its isolatable vertices, from
    one targeted search per vertex; no maximal independent set of the factor
    is enumerated."""
    return FactorAnalysis(
        graph, cap, is_well_covered(graph, cap), tuple(isolatable_vertices(graph, cap))
    )


def _greedy_extend(graph: Graph, allowed_mask: int, seed_mask: int) -> int:
    """Extend an independent seed to a maximal independent set of the
    subgraph induced by ``allowed_mask``, scanning ascending vertex index."""
    chosen = seed_mask
    for v in iter_bits(allowed_mask & ~seed_mask):
        if not graph.adj[v] & chosen:
            chosen |= 1 << v
    return chosen


def _validate_isolatable(graph: Graph, iso: IsolatableWitness) -> None:
    if not 0 <= iso.vertex < graph.n:
        raise ValueError(f"vertex {iso.vertex} out of range")
    remainder, back = delete_closed_neighborhood(graph, iso.certificate)
    if back.kept != (iso.vertex,):
        raise ValueError(
            "certificate does not isolate the claimed vertex: deletion leaves "
            f"{back.kept}"
        )


def build_product_witness(
    graph_left: Graph,
    iso: IsolatableWitness,
    graph_right: Graph,
    column_big: VertexSet,
    column_small: VertexSet,
    product_cap: int | None = None,
) -> ProductWitness:
    """Construct maximal independent sets of distinct sizes in the product.

    Requires an isolatable vertex of the left factor (with its certificate)
    and two maximal independent sets of the right factor with
    ``len(column_big) > len(column_small)``.  Every extension step scans
    candidates in ascending product index, so the witness is deterministic.
    The returned sets are rechecked by direct independence and domination
    tests; no enumeration of the product takes place.
    """
    _validate_isolatable(graph_left, iso)
    for column in (column_big, column_small):
        if not is_maximal_independent(graph_right, column):
            raise ValueError("column set is not maximal independent in the right factor")
    if len(column_big) <= len(column_small):
        raise ValueError("column sets must have strictly decreasing sizes")

    product, index_map = cartesian_product(graph_left, graph_right, cap=product_cap)
    x = iso.vertex
    all_right = VertexSet.full(graph_right.n)

    open_cols = VertexSet(graph_left.adj[x], graph_left.n)
    closed_cols = VertexSet(graph_left.closed_adj[x], graph_left.n)
    outside = index_map.rectangle(closed_cols.complement(), all_right)
    neighbor_block = index_map.rectangle(open_cols, all_right)

    seed = index_map.rectangle(iso.certificate, column_big)
    core = VertexSet(_greedy_extend(product, outside.mask, seed.mask), product.n)

    core_big = core | index_map.rectangle(VertexSet.of(graph_left.n, [x]), column_big)
    core_small = core | index_map.rectangle(VertexSet.of(graph_left.n, [x]), column_small)

    gaps_big = neighbor_block - closed_neighborhood(product, core_big)
    gaps_small = neighbor_block - closed_neighborhood(product, core_small)

    patch_small = VertexSet(_greedy_extend(product, gaps_small.mask, 0), product.n)
    patch_big = VertexSet(
        _greedy_extend(product, gaps_big.mask, patch_small.mask), product.n
    )

    big = core_big | patch_big
    small = core_small | patch_small

    if not is_maximal_independent(product, big) or not is_maximal_independent(product, small):
        raise RuntimeError("constructed witness sets are not maximal independent")
    if len(big) - len(small) < len(column_big) - len(column_small):
        raise RuntimeError("constructed witness sets do not realize the size gap")

    return ProductWitness(
        isolatable_vertex=x,
        isolating_set=iso.certificate,
        column_big=column_big,
        column_small=column_small,
        core=core,
        core_big=core_big,
        core_small=core_small,
        gaps_big=gaps_big,
        gaps_small=gaps_small,
        patch_small=patch_small,
        patch_big=patch_big,
        big=big,
        small=small,
        index_map=index_map,
    )


def witness_inputs(
    graph_left: Graph, graph_right: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> WitnessInputs | None:
    """Inputs for the constructive witness, if it applies to this orientation.

    Applicable when the left factor has an isolatable vertex and the right
    factor is not well-covered; the earliest isolatable witness and the first
    extreme sets of the right factor are chosen.
    """
    left, right = analyze_factor(graph_left, cap), analyze_factor(graph_right, cap)
    return _applicable_inputs(left, right)


def _applicable_inputs(left: FactorAnalysis, right: FactorAnalysis) -> WitnessInputs | None:
    if not left.isolatable or right.report.verdict:
        return None
    return WitnessInputs(
        iso=left.isolatable[0],
        column_big=right.report.witness_max,
        column_small=right.report.witness_min,
    )


def _orient_witness(
    g: FactorAnalysis, h: FactorAnalysis
) -> tuple[WitnessInputs, bool] | None:
    """The witness orientation rule: (G, H) when G has an isolatable vertex
    and H is not well-covered, else (H, G) when that applies.  Returns the
    inputs and whether the factors were swapped."""
    inputs = _applicable_inputs(g, h)
    if inputs is not None:
        return inputs, False
    inputs = _applicable_inputs(h, g)
    return None if inputs is None else (inputs, True)


def witness_invariants(
    graph_left: Graph, graph_right: Graph, witness: ProductWitness
) -> dict[str, bool]:
    """Recheck every structural claim of a witness against the product."""
    product, index_map = cartesian_product(graph_left, graph_right)
    all_right = VertexSet.full(graph_right.n)
    x = witness.isolatable_vertex
    closed_block = index_map.rectangle(
        VertexSet(graph_left.closed_adj[x], graph_left.n), all_right
    )
    neighbor_block = index_map.rectangle(
        VertexSet(graph_left.adj[x], graph_left.n), all_right
    )
    outside = closed_block.complement()
    seed = index_map.rectangle(witness.isolating_set, witness.column_big)

    return {
        "core_contains_seed": seed <= witness.core,
        "core_avoids_closed_columns": witness.core.isdisjoint(closed_block),
        "core_maximal_in_residual": _maximal_independent_within(
            product, outside.mask, witness.core.mask
        ),
        "gaps_inside_neighbor_columns": witness.gaps_big <= neighbor_block,
        "gaps_small_subset_of_gaps_big": witness.gaps_small <= witness.gaps_big,
        "gaps_big_undominated_by_core_big": witness.gaps_big.isdisjoint(
            closed_neighborhood(product, witness.core_big)
        ),
        "gaps_small_undominated_by_core_small": witness.gaps_small.isdisjoint(
            closed_neighborhood(product, witness.core_small)
        ),
        "gaps_big_avoid_column_big": all(
            index_map.decode(p)[1] not in witness.column_big for p in witness.gaps_big
        ),
        "big_maximal_independent": is_maximal_independent(product, witness.big),
        "small_maximal_independent": is_maximal_independent(product, witness.small),
        "big_strictly_larger": len(witness.big) > len(witness.small),
        "size_gap_at_least_column_gap": (
            len(witness.big) - len(witness.small)
            >= len(witness.column_big) - len(witness.column_small)
        ),
    }


def check_disjoint_mis(
    graph_left: Graph,
    graph_right: Graph,
    cap: int = DEFAULT_ENUMERATION_CAP,
    product_cap: int | None = None,
) -> DisjointMisReport:
    """Verify the disjoint-MIS conclusions for an isolatable-free pair with a
    well-covered product.

    When the hypotheses hold, every maximal independent set of each factor
    must admit a disjoint maximal independent set, and at least one factor
    must have all its disjoint maximal-independent-set pairs equal in size.
    """
    g_free = not isolatable_vertices(graph_left, cap)
    h_free = not isolatable_vertices(graph_right, cap)
    product, _ = cartesian_product(graph_left, graph_right, cap=product_cap)
    product_wc = is_well_covered(product, cap).verdict
    if not (g_free and h_free and product_wc):
        return DisjointMisReport(
            hypotheses_met=False,
            g_isolatable_free=g_free,
            h_isolatable_free=h_free,
            product_well_covered=product_wc,
            g_result=None,
            h_result=None,
            passed=None,
        )
    g_result = _factor_disjoint_mis(graph_left, cap)
    h_result = _factor_disjoint_mis(graph_right, cap)
    passed = (
        g_result.all_have_disjoint
        and h_result.all_have_disjoint
        and (g_result.disjoint_equal_size or h_result.disjoint_equal_size)
    )
    return DisjointMisReport(
        hypotheses_met=True,
        g_isolatable_free=True,
        h_isolatable_free=True,
        product_well_covered=True,
        g_result=g_result,
        h_result=h_result,
        passed=passed,
    )


def _factor_disjoint_mis(graph: Graph, cap: int) -> FactorDisjointMis:
    n = graph.n
    _check_cap(n, cap)
    sets: list[int] = []
    _walk(graph, sets.append)
    counterexample = next(
        (VertexSet(s, n) for s in sets if not any(s & t == 0 for t in sets if t != s)), None
    )
    unequal = next(
        (
            (VertexSet(s, n), VertexSet(t, n))
            for i, s in enumerate(sets)
            for t in sets[i + 1:]
            if s & t == 0 and s.bit_count() != t.bit_count()
        ),
        None,
    )
    return FactorDisjointMis(
        all_have_disjoint=counterexample is None,
        counterexample=counterexample,
        disjoint_equal_size=unequal is None,
        unequal_pair=unequal,
    )


def verify_pair(
    graph_left: Graph,
    graph_right: Graph,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
    product_cap: int | None = None,
    g_analysis: FactorAnalysis | None = None,
    h_analysis: FactorAnalysis | None = None,
) -> PairVerdict:
    """Full verification of one pair: all three well-covered reports, the
    isolatable lists, the consistency flag, and the constructive witness
    whenever it applies (in either orientation)."""
    g_analysis = g_analysis or analyze_factor(graph_left, enum_cap)
    h_analysis = h_analysis or analyze_factor(graph_right, enum_cap)
    product, _ = cartesian_product(graph_left, graph_right, cap=product_cap)
    product_report = is_well_covered(product, enum_cap)

    consistent = not (
        product_report.verdict
        and not g_analysis.report.verdict
        and not h_analysis.report.verdict
    )
    violation = None
    if not consistent:
        violation = ViolationCertificate(
            g_report=g_analysis.report,
            h_report=h_analysis.report,
            product_report=product_report,
        )

    witness = None
    swapped = False
    oriented = _orient_witness(g_analysis, h_analysis)
    if oriented is not None:
        inputs, swapped = oriented
        left, right = (graph_right, graph_left) if swapped else (graph_left, graph_right)
        witness = build_product_witness(
            left, inputs.iso, right, inputs.column_big, inputs.column_small,
            product_cap=product_cap,
        )

    return PairVerdict(
        g_report=g_analysis.report,
        h_report=h_analysis.report,
        product_report=product_report,
        g_isolatable=g_analysis.isolatable,
        h_isolatable=h_analysis.isolatable,
        product_order=product.n,
        product_size=product.edge_count,
        theorem_consistent=consistent,
        violation=violation,
        witness=witness,
        witness_swapped=swapped,
    )
