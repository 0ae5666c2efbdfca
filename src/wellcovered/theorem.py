"""Constructive and verification layer for well-coveredness of Cartesian
products.

Two routes certify that a product is or is not well-covered:

* a constructive witness: when one factor has an isolatable vertex and the
  other has maximal independent sets of two different sizes, the product
  has maximal independent sets of distinct cardinalities, and
  :func:`build_product_witness` builds them from the factors' sets as the
  int masks a :class:`ProductWitness` holds (every vertex set of the
  package is an int mask), checked by direct independence and domination
  tests, never by enumeration, as :func:`witness_invariants` rechecks them
  from the witness alone; every such check is a primitive of ``graphs``,
  and none reads ``independence``;
* the product's report from branch-and-bound searches of its maximal
  independent sets (:func:`is_well_covered`), wrapped by :func:`verify_pair`,
  which also cross-checks the main claim: a well-covered product forces a
  well-covered factor.

:func:`verify_pair` searches the product one component at a time and never
builds the whole product for that.  The components of G □ H are the
products Gi □ Hj of the factors' components.  In the product's row-major
labels the vertices of Gi □ Hj come in lexicographic order of (rank in Gi,
rank in Hj), so each is the product of the compacted components
(:func:`compact_components`) under an order-preserving map, which keeps the
first extreme sets.  The product is well-covered iff every component is,
its sizes are the sums, and its first sets are the unions of the lifted
component sets (see :func:`is_well_covered`).  A scan passes one dict of
component reports to all its pairs, so each distinct pair of compacted
components is searched once per scan, pruned by the orbit rows of
Aut(Gi) × Aut(Hj), which ``independence`` describes and builds from one
table per compacted component, cached on the :class:`FactorAnalysis`.

A factor is a :class:`FactorAnalysis` and a product is a :class:`Graph`.
:func:`verify_pair` takes two analyses.  A :class:`FactorAnalysis` checks
the enumeration cap on construction and searches each fact on first read:
the report from the same searches, the isolatable vertices from
:func:`isolatable_vertices`, and the first one alone by a search that stops
at it.  No factor is enumerated.  :func:`_orient_witness`, the one place
that picks the witness's orientation and builds it, reads only the lemma's
hypotheses off the analyses: the left factor's first isolatable vertex and
the right factor's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graphs import (
    Graph,
    _closed_mask,
    _maximal_independent_within,
    _rectangle_mask,
    cartesian_product,
    compact_components,
    is_independent,
    is_maximal_independent,
    iter_bits,
)
from .independence import (
    DEFAULT_ENUMERATION_CAP,
    IsolatableWitness,
    WellCoveredReport,
    _check_cap,
    _greedy_within,
    _isolatable,
    is_well_covered,
    isolatable_vertices,
    product_orbits,
    stabilizer_orbits,
)


class WitnessCheckError(RuntimeError):
    """The builder's final check rejected the sets it constructed from
    checked inputs: a fault of the construction, not of its input."""


@dataclass(frozen=True)
class ProductWitness:
    """Two maximal independent sets of different sizes in the product of the
    two factors it carries, a certificate :func:`witness_invariants` checks.
    Every set is an int mask, bit v for vertex v: ``isolating_set`` of the
    left factor, the two columns of the right factor, and the nine
    ``PRODUCT_SETS`` of the product.

    The construction isolates vertex x of the left factor via
    ``isolating_set``, fills column x with either of two maximal independent
    sets of the right factor (``column_big`` larger than ``column_small``),
    and patches the leftover undominated vertices of the neighboring columns.
    ``big`` and ``small`` are the finished sets, whose sizes differ by at
    least as much as those of the two columns.
    """

    isolatable_vertex: int
    isolating_set: int        # in the left factor
    column_big: int           # in the right factor
    column_small: int         # in the right factor
    core: int                 # product coordinates, avoids N[x] columns
    core_big: int             # core | {x} x column_big
    core_small: int           # core | {x} x column_small
    gaps_big: int             # N(x) columns not dominated by core_big
    gaps_small: int           # N(x) columns not dominated by core_small
    patch_small: int          # maximal independent inside gaps_small
    patch_big: int            # extends patch_small inside gaps_big
    big: int
    small: int
    left: Graph = field(repr=False)     # the left factor
    right: Graph = field(repr=False)    # the right factor
    product: Graph = field(repr=False)  # left □ right, the sets' host


# The ProductWitness fields that are sets of product vertices, in the order
# of the construction.
PRODUCT_SETS = (
    "core", "core_big", "core_small", "gaps_big", "gaps_small",
    "patch_small", "patch_big", "big", "small",
)


@dataclass(frozen=True)
class FactorAnalysis:
    """Per-factor analysis reused across many pairs.  The enumeration cap is
    checked on construction, before any search; every other part is
    searched or built on first read and kept, and no maximal independent set
    of the factor is enumerated."""

    graph: Graph
    cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self) -> None:
        _check_cap(self.graph.n, self.cap)

    @cached_property
    def report(self) -> WellCoveredReport:
        """The well-covered report, from the searches of :func:`is_well_covered`."""
        return is_well_covered(self.graph, self.cap)

    @cached_property
    def isolatable(self) -> tuple[IsolatableWitness, ...]:
        """Every isolatable vertex with its certificate (:func:`isolatable_vertices`)."""
        return tuple(isolatable_vertices(self.graph, self.cap))

    @cached_property
    def first_isolatable(self) -> IsolatableWitness | None:
        """The first isolatable vertex, whose search over x = 0, 1, ... stops
        at the first hit."""
        return next(_isolatable(self.graph), None)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], Graph], ...]:
        """The factor's compacted components, read by every pair it is in."""
        return compact_components(self.graph)

    @cached_property
    def largest_component(self) -> int:
        """The order of the largest component; its product with the other
        factor's is the largest graph a pair searches."""
        return max((len(vertices) for vertices, _ in self.components), default=0)

    @cached_property
    def component_orbits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The :func:`stabilizer_orbits` rows of each compacted component,
        computed on the first component product searched."""
        return tuple(stabilizer_orbits(part) for _, part in self.components)


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


def _validate_isolatable(graph: Graph, iso: IsolatableWitness) -> None:
    if not 0 <= iso.vertex < graph.n:
        raise ValueError(f"vertex {iso.vertex} out of range")
    if not is_independent(graph, iso.certificate):
        raise ValueError("set is not independent")
    kept = graph.full_mask & ~_closed_mask(graph, iso.certificate)
    if kept != 1 << iso.vertex:
        raise ValueError(
            "certificate does not isolate the claimed vertex: deletion leaves "
            f"{tuple(iter_bits(kept))}"
        )


def build_product_witness(
    graph_left: Graph,
    iso: IsolatableWitness,
    graph_right: Graph,
    column_big: int,
    column_small: int,
) -> ProductWitness:
    """Construct maximal independent sets of distinct sizes in the product
    ``graph_left`` □ ``graph_right``, which is built here.

    Requires an isolatable vertex of the left factor (with its certificate)
    and the masks of two maximal independent sets of the right factor,
    ``column_big`` the larger.  Once these are checked, every greedy step
    scans candidates in ascending product index, and the finished sets are
    rechecked by direct independence and domination tests, never by
    enumeration.  A failed recheck raises :class:`WitnessCheckError`.  The
    witness keeps the inputs' masks and the nine masks built."""
    _validate_isolatable(graph_left, iso)
    for column in (column_big, column_small):
        if not is_maximal_independent(graph_right, column):
            raise ValueError("column set is not maximal independent in the right factor")
    gap = column_big.bit_count() - column_small.bit_count()
    if gap <= 0:
        raise ValueError("column sets must have strictly decreasing sizes")

    product = cartesian_product(graph_left, graph_right)
    x, n_right = iso.vertex, graph_right.n
    outside = _rectangle_mask(
        graph_left.full_mask & ~graph_left.closed_adj[x], graph_right.full_mask, n_right
    )
    neighbor_block = _rectangle_mask(graph_left.adj[x], graph_right.full_mask, n_right)
    core = _greedy_within(
        product, outside, _rectangle_mask(iso.certificate, column_big, n_right)
    )
    core_big = core | column_big << x * n_right
    core_small = core | column_small << x * n_right
    gaps_big = neighbor_block & ~_closed_mask(product, core_big)
    gaps_small = neighbor_block & ~_closed_mask(product, core_small)
    patch_small = _greedy_within(product, gaps_small, 0)
    patch_big = _greedy_within(product, gaps_big, patch_small)
    big, small = core_big | patch_big, core_small | patch_small

    everything = product.full_mask
    if not (
        _maximal_independent_within(product, everything, big)
        and _maximal_independent_within(product, everything, small)
    ):
        raise WitnessCheckError("constructed witness sets are not maximal independent")
    if big.bit_count() - small.bit_count() < gap:
        raise WitnessCheckError("constructed witness sets do not realize the size gap")

    sets = core, core_big, core_small, gaps_big, gaps_small, patch_small, patch_big, big, small
    return ProductWitness(
        isolatable_vertex=x, isolating_set=iso.certificate, column_big=column_big,
        column_small=column_small, left=graph_left, right=graph_right, product=product,
        **dict(zip(PRODUCT_SETS, sets)),
    )


def _orient_witness(g: FactorAnalysis, h: FactorAnalysis) -> tuple[ProductWitness, bool] | None:
    """The witness orientation rule: (G, H) when G has an isolatable vertex
    and H is not well-covered, else (H, G) when that applies.  The witness
    isolates the left factor's first isolatable vertex and fills its column
    with the right factor's first extreme sets; the right factor's report is
    searched only once the left factor has an isolatable vertex.  Returns
    the witness, built in G □ H or, when swapped, in H □ G by
    :func:`build_product_witness`, and whether the factors were swapped, or
    None when neither applies.  Callers check the product cap first."""
    for left, right, swapped in ((g, h, False), (h, g, True)):
        iso = left.first_isolatable
        if iso is not None and not right.report.verdict:
            witness = build_product_witness(
                left.graph, iso, right.graph, right.report.witness_max, right.report.witness_min
            )
            return witness, swapped
    return None


def witness_invariants(witness: ProductWitness) -> dict[str, bool]:
    """Recheck every structural claim of a witness against the factors and
    the product it carries, by independence and domination tests on masks
    alone: no constructor or search runs here, and every global name read
    is a builtin, ``PRODUCT_SETS`` or a primitive of ``graphs``.  A product
    whose order is not that of the factors, or a mask with a bit at or
    above the order of its host, raises ``ValueError`` before any test."""
    graph_left, graph_right, product = witness.left, witness.right, witness.product
    n_left, n_right, x = graph_left.n, graph_right.n, witness.isolatable_vertex
    sets = [getattr(witness, name) for name in PRODUCT_SETS]
    bounds = [(witness.isolating_set, n_left), (witness.column_big, n_right),
              (witness.column_small, n_right), *((mask, product.n) for mask in sets)]
    if product.n != n_left * n_right or any(mask >> order for mask, order in bounds):
        raise ValueError("witness sets do not match the factors and their product")
    if not 0 <= x < n_left:
        raise ValueError(f"vertex {x} out of range")
    everything, column_big = product.full_mask, witness.column_big
    core, core_big, core_small, gaps_big, gaps_small, _, _, big, small = sets
    gap = column_big.bit_count() - witness.column_small.bit_count()
    closed_block = _rectangle_mask(graph_left.closed_adj[x], graph_right.full_mask, n_right)
    neighbor_block = _rectangle_mask(graph_left.adj[x], graph_right.full_mask, n_right)
    seed = _rectangle_mask(witness.isolating_set, column_big, n_right)

    return {
        "core_contains_seed": seed & ~core == 0,
        "core_avoids_closed_columns": core & closed_block == 0,
        "core_maximal_in_residual": _maximal_independent_within(
            product, everything & ~closed_block, core
        ),
        "gaps_inside_neighbor_columns": gaps_big & ~neighbor_block == 0,
        "gaps_small_subset_of_gaps_big": gaps_small & ~gaps_big == 0,
        "gaps_big_undominated_by_core_big": gaps_big & _closed_mask(product, core_big) == 0,
        "gaps_small_undominated_by_core_small": (
            gaps_small & _closed_mask(product, core_small) == 0
        ),
        "gaps_big_avoid_column_big": (
            gaps_big & _rectangle_mask(graph_left.full_mask, column_big, n_right) == 0
        ),
        "big_maximal_independent": _maximal_independent_within(product, everything, big),
        "small_maximal_independent": _maximal_independent_within(product, everything, small),
        "big_strictly_larger": big.bit_count() > small.bit_count(),
        "size_gap_at_least_column_gap": big.bit_count() - small.bit_count() >= gap,
    }


def _product_report(g: FactorAnalysis, h: FactorAnalysis, reports: dict) -> WellCoveredReport:
    """The report of G □ H joined from the reports of its components
    Gi □ Hj, each taken from ``reports`` (keyed by the two compacted
    components' adjacency) or searched and stored there under the smaller
    of the two analyses' enumeration caps.  Each search builds its component
    product Gi □ Hj and is pruned by the orbits of Aut(Gi) × Aut(Hj)
    (:func:`product_orbits`)."""
    parts, cap = [], min(g.cap, h.cap)
    for i, (g_vertices, g_part) in enumerate(g.components):
        for j, (h_vertices, h_part) in enumerate(h.components):
            key = g_part.adj, h_part.adj
            report = reports.get(key)
            if report is None:
                product = cartesian_product(g_part, h_part)
                orbits = product_orbits(g.component_orbits[i], h.component_orbits[j])
                report = reports[key] = is_well_covered(product, cap, orbits)
            parts.append((g_vertices, h_vertices, report))
    if len(parts) == 1:
        return report  # a connected product is its own component, same labels
    n_right, big, small = h.graph.n, 0, 0
    for g_vertices, h_vertices, report in parts:
        # label[a * |Hj| + b] is the product vertex (g_vertices[a], h_vertices[b]).
        label = [g * n_right + h for g in g_vertices for h in h_vertices]
        big |= sum(1 << label[p] for p in iter_bits(report.witness_max))
        small |= sum(1 << label[p] for p in iter_bits(report.witness_min))
    return WellCoveredReport(big, small)


def _check_pair_cap(g: FactorAnalysis, h: FactorAnalysis) -> None:
    """Check the largest component product Gi □ Hj, the largest graph the
    pair's search builds, against the smaller of the two enumeration caps."""
    _check_cap(g.largest_component * h.largest_component, min(g.cap, h.cap))


def verify_pair(
    g: FactorAnalysis, h: FactorAnalysis, component_reports: dict | None = None
) -> PairVerdict:
    """Full verification of one pair from its two factor analyses: the
    product's well-covered report, the consistency flag, and the
    constructive witness whenever it applies (in either orientation).

    :func:`_product_report` builds and searches the component products,
    keeping their reports in ``component_reports``; a caller that verifies
    many pairs passes the same dict to each, and by default every call
    starts an empty one.  :func:`_orient_witness` builds the whole product,
    and only for the witness.

    Building the analyses checks the enumeration caps of G and H, and the
    caller checks any product cap; :func:`_check_pair_cap` checks the
    largest component product before any search."""
    _check_pair_cap(g, h)
    product_report = _product_report(g, h, {} if component_reports is None else component_reports)
    consistent = not (
        product_report.verdict and not g.report.verdict and not h.report.verdict
    )
    witness, swapped = _orient_witness(g, h) or (None, False)
    return PairVerdict(
        g_analysis=g,
        h_analysis=h,
        product_report=product_report,
        product_order=g.graph.n * h.graph.n,
        product_size=g.graph.n * h.graph.edge_count + h.graph.n * g.graph.edge_count,
        theorem_consistent=consistent,
        witness=witness,
        witness_swapped=swapped,
    )
