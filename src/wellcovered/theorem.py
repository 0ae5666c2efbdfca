"""Constructive and verification layer for well-coveredness of Cartesian
products.

Two routes certify that a product is or is not well-covered:

* a constructive witness: when one factor has an isolatable vertex and the
  other factor has maximal independent sets of two different sizes, the
  product provably carries maximal independent sets of distinct
  cardinalities, and :func:`build_product_witness` produces them explicitly
  (checked by direct independence and domination tests, never by
  enumeration);
* the product's well-covered report from branch-and-bound searches of its
  maximal independent sets (:func:`is_well_covered`), wrapped by
  :func:`verify_pair`, which also cross-checks the main consistency claim:
  a well-covered product forces at least one well-covered factor.

:func:`verify_pair` searches the product one component at a time, and
never builds the whole product for that.  The components of G □ H are the
products Gi □ Hj of the factors' components.  In the product's row-major
labels the vertices of Gi □ Hj come in lexicographic order of (rank in Gi,
rank in Hj), so the component relabelled in that order is exactly the
product of the compacted components (:func:`compact_components`), and the
first extreme sets of the two correspond through that order-preserving
map.  The product's report joins the component reports: it is well-covered
iff every component is, its sizes are the sums, and its first sets are the
unions of the lifted component sets (see :func:`is_well_covered` for why
the union of first sets is the first set).  A scan passes one dict of
component reports to all its pairs, so each distinct pair of compacted
components is searched once per scan.  Each search prunes by the orbits of
Aut(Gi) × Aut(Hj) (:func:`product_orbits`), from one table per compacted
component (:func:`stabilizer_orbits`, cached on the :class:`FactorAnalysis`).

No factor is enumerated.  :func:`analyze_factor` gives a factor's report
from the same searches as a product's, and its isolatable vertices from
:func:`isolatable_vertices`; its :class:`FactorAnalysis` is the record of a
factor that :func:`verify_pair` and the scan read, and a
:class:`PairVerdict` holds the two analyses beside the product's report.
:func:`_orient_witness` is the one place that picks the witness's
orientation and builds it.  It reads only the lemma's hypotheses: the left
factor's first isolatable vertex and the right factor's report.  So
:func:`witness_inputs` and the ``witness`` command search just those
(:class:`_LemmaFacts`), and the command runs both full analyses only to
report a pair to which neither orientation applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graphs import (
    Graph,
    ProductIndexMap,
    VertexSet,
    _check_product_cap,
    cartesian_product,
    closed_neighborhood,
    compact_components,
    iter_bits,
    product_orbits,
    stabilizer_orbits,
)
from .independence import (
    DEFAULT_ENUMERATION_CAP,
    IsolatableWitness,
    WellCoveredReport,
    _check_cap,
    _isolatable,
    _maximal_independent_within,
    is_independent,
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
    product: Graph = field(repr=False)  # the product the sets were built in


@dataclass(frozen=True)
class WitnessInputs:
    """Inputs that make the constructive witness applicable to (G, H)."""

    iso: IsolatableWitness
    column_big: VertexSet
    column_small: VertexSet


@dataclass(frozen=True)
class FactorAnalysis:
    """Per-factor analysis reused across many pairs, built by
    :func:`analyze_factor` without enumerating the factor."""

    graph: Graph
    cap: int
    report: WellCoveredReport
    isolatable: tuple[IsolatableWitness, ...]

    @property
    def first_isolatable(self) -> IsolatableWitness | None:
        return self.isolatable[0] if self.isolatable else None

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], Graph], ...]:
        """The factor's compacted components, computed once per analysis
        and read by every pair it is in."""
        return compact_components(self.graph)

    @cached_property
    def component_orbits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The :func:`stabilizer_orbits` rows of each compacted component,
        computed on the first component product searched."""
        return tuple(stabilizer_orbits(part) for _, part in self.components)


class _LemmaFacts:
    """The two facts of one factor that the witness orientation rule reads,
    each searched on first read: the well-covered report, and the first
    isolatable vertex with its certificate, whose search over x = 0, 1, ...
    stops at the first hit.  The enumeration cap is checked on construction,
    before any search."""

    def __init__(self, graph: Graph, cap: int) -> None:
        _check_cap(graph.n, cap)
        self.graph, self.cap = graph, cap

    @cached_property
    def report(self) -> WellCoveredReport:
        return is_well_covered(self.graph, self.cap)

    @cached_property
    def first_isolatable(self) -> IsolatableWitness | None:
        return next(_isolatable(self.graph), None)


@dataclass(frozen=True)
class PairVerdict:
    """Complete verification record for one factor pair: the two factor
    analyses, the product's report, order and edge count, the consistency
    flag, and the witness with its orientation.  A pair is inconsistent
    when its product is well-covered and neither factor is; the three
    reports are then the certificate."""

    g_analysis: FactorAnalysis
    h_analysis: FactorAnalysis
    product_report: WellCoveredReport
    product_order: int
    product_size: int
    theorem_consistent: bool
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
    if not is_independent(graph, iso.certificate):
        raise ValueError("set is not independent")
    kept = graph.full_mask & ~closed_neighborhood(graph, iso.certificate).mask
    if kept != 1 << iso.vertex:
        raise ValueError(
            "certificate does not isolate the claimed vertex: deletion leaves "
            f"{tuple(iter_bits(kept))}"
        )


def build_product_witness(
    graph_left: Graph,
    iso: IsolatableWitness,
    graph_right: Graph,
    column_big: VertexSet,
    column_small: VertexSet,
    product_cap: int | None = None,
    product: Graph | None = None,
) -> ProductWitness:
    """Construct maximal independent sets of distinct sizes in the product.

    Requires an isolatable vertex of the left factor (with its certificate)
    and two maximal independent sets of the right factor with
    ``len(column_big) > len(column_small)``.  Every extension step scans
    candidates in ascending product index, so the witness is deterministic.
    The returned sets are rechecked by direct independence and domination
    tests; no enumeration of the product takes place.  The product is built
    here unless the caller already holds it (``verify_pair`` passes a
    connected pair's product from its search); only its order is checked.
    """
    _validate_isolatable(graph_left, iso)
    for column in (column_big, column_small):
        if not is_maximal_independent(graph_right, column):
            raise ValueError("column set is not maximal independent in the right factor")
    if len(column_big) <= len(column_small):
        raise ValueError("column sets must have strictly decreasing sizes")

    if product is None:
        product, index_map = cartesian_product(graph_left, graph_right, cap=product_cap)
    else:
        index_map = ProductIndexMap(graph_left.n, graph_right.n)
        if product.n != index_map.size:
            raise ValueError(f"product of order {product.n} is not of order {index_map.size}")
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
        product=product,
    )


def witness_inputs(
    graph_left: Graph, graph_right: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> WitnessInputs | None:
    """Inputs for the constructive witness, if it applies to this orientation.

    Applicable when the left factor has an isolatable vertex and the right
    factor is not well-covered; the earliest isolatable witness and the first
    extreme sets of the right factor are chosen.  Both enumeration caps are
    checked first; then only the left factor's first isolatable vertex is
    searched and, when it exists, the right factor's report.
    """
    return _applicable_inputs(_LemmaFacts(graph_left, cap), _LemmaFacts(graph_right, cap))


def _applicable_inputs(
    left: FactorAnalysis | _LemmaFacts, right: FactorAnalysis | _LemmaFacts
) -> WitnessInputs | None:
    iso = left.first_isolatable
    if iso is None or right.report.verdict:
        return None
    return WitnessInputs(
        iso=iso,
        column_big=right.report.witness_max,
        column_small=right.report.witness_min,
    )


def _orient_witness(
    g: FactorAnalysis | _LemmaFacts,
    h: FactorAnalysis | _LemmaFacts,
    product_cap: int | None,
    product: Graph | None = None,
) -> tuple[ProductWitness, bool] | None:
    """The witness orientation rule: (G, H) when G has an isolatable vertex
    and H is not well-covered, else (H, G) when that applies.  Returns the
    witness built in that orientation and whether the factors were swapped,
    or None when neither applies.  ``product``, when given, is G □ H; a
    swapped witness builds H □ G."""
    for left, right, swapped in ((g, h, False), (h, g, True)):
        inputs = _applicable_inputs(left, right)
        if inputs is not None:
            witness = build_product_witness(
                left.graph, inputs.iso, right.graph, inputs.column_big,
                inputs.column_small, product_cap=product_cap,
                product=None if swapped else product,
            )
            return witness, swapped
    return None


def witness_invariants(
    graph_left: Graph, graph_right: Graph, witness: ProductWitness,
    product: Graph | None = None,
) -> dict[str, bool]:
    """Recheck every structural claim of a witness against the product of
    the factors, built here unless the caller already holds it (the
    ``witness`` command passes the one the witness was built in)."""
    if product is None:
        product, _ = cartesian_product(graph_left, graph_right)
    index_map = ProductIndexMap(graph_left.n, graph_right.n)
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


def _product_report(
    g: FactorAnalysis, h: FactorAnalysis, cap: int, reports: dict
) -> tuple[WellCoveredReport, Graph | None]:
    """The report of G □ H joined from the reports of its components
    Gi □ Hj, each taken from ``reports`` (keyed by the two compacted
    components' adjacency) or searched and stored there.  Each search is
    pruned by the orbits of Aut(Gi) × Aut(Hj) (:func:`product_orbits`).

    The graph returned beside the report is G □ H itself when the product
    is its own only component and was searched in this call, else None."""
    parts, product = [], None
    for i, (g_vertices, g_part) in enumerate(g.components):
        for j, (h_vertices, h_part) in enumerate(h.components):
            key = g_part.adj, h_part.adj
            report = reports.get(key)
            if report is None:
                product, _ = cartesian_product(g_part, h_part)
                orbits = product_orbits(g.component_orbits[i], h.component_orbits[j])
                report = reports[key] = is_well_covered(product, cap, orbits)
            parts.append((g_vertices, h_vertices, report))
    if len(parts) == 1:
        return report, product  # a connected product is its own component, same labels
    n_right = h.graph.n
    verdict, alpha, min_maximal, big, small = True, 0, 0, 0, 0
    for g_vertices, h_vertices, report in parts:
        # Component vertex a * |Hj| + b is (g_vertices[a], h_vertices[b]).
        lifted = [x * n_right + y for x in g_vertices for y in h_vertices]
        for p in iter_bits(report.witness_max.mask):
            big |= 1 << lifted[p]
        for p in iter_bits(report.witness_min.mask):
            small |= 1 << lifted[p]
        verdict = verdict and report.verdict
        alpha += report.alpha
        min_maximal += report.min_maximal
    order = g.graph.n * n_right
    return WellCoveredReport(
        verdict, alpha, min_maximal, VertexSet(big, order), VertexSet(small, order)
    ), None


def _largest_component(graph: Graph, analysis: FactorAnalysis | None) -> int:
    """Order of the graph's largest component, from the analysis's cached
    components when there is one; searches nothing."""
    parts = compact_components(graph) if analysis is None else analysis.components
    return max((len(vertices) for vertices, _ in parts), default=0)


def verify_pair(
    graph_left: Graph,
    graph_right: Graph,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
    product_cap: int | None = None,
    g_analysis: FactorAnalysis | None = None,
    h_analysis: FactorAnalysis | None = None,
    component_reports: dict | None = None,
) -> PairVerdict:
    """Full verification of one pair: the two factor analyses (computed
    here unless given), the product's well-covered report, the consistency
    flag, and the constructive witness whenever it applies (in either
    orientation).

    The product's report is joined from one search per component product
    (see the module docstring).  ``component_reports`` holds those
    searches' reports; a caller that verifies many pairs passes the same
    dict to each, and by default every call starts an empty one.  The whole
    product is built only for the witness, and only when the search did not
    just build it: a connected product searched in this call is the
    product itself, under the same labels, and an unswapped witness is
    built in it.

    Every limit is checked before any search: the enumeration cap of G,
    then of H, then the product cap, then the enumeration cap of the
    largest component product Gi □ Hj, the largest graph searched."""
    product_order = graph_left.n * graph_right.n
    _check_cap(graph_left.n, enum_cap)
    _check_cap(graph_right.n, enum_cap)
    _check_product_cap(product_order, product_cap)
    _check_cap(
        _largest_component(graph_left, g_analysis)
        * _largest_component(graph_right, h_analysis),
        enum_cap,
    )
    g_analysis = g_analysis or analyze_factor(graph_left, enum_cap)
    h_analysis = h_analysis or analyze_factor(graph_right, enum_cap)
    product_report, product = _product_report(
        g_analysis, h_analysis, enum_cap,
        {} if component_reports is None else component_reports,
    )

    consistent = not (
        product_report.verdict
        and not g_analysis.report.verdict
        and not h_analysis.report.verdict
    )
    oriented = _orient_witness(g_analysis, h_analysis, product_cap, product)
    witness, swapped = oriented or (None, False)
    return PairVerdict(
        g_analysis=g_analysis,
        h_analysis=h_analysis,
        product_report=product_report,
        product_order=product_order,
        product_size=graph_left.n * graph_right.edge_count
        + graph_right.n * graph_left.edge_count,
        theorem_consistent=consistent,
        witness=witness,
        witness_swapped=swapped,
    )
