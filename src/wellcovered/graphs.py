"""Immutable simple-graph core: bitmask adjacency, graph6 codec, the
independence checks, the Cartesian product and connected components.

Every vertex set is a plain int mask, bit v for vertex v, so the
independence machinery in the rest of the package runs on word-parallel
integer operations.  A mask does not record its host: the public checks
reject a negative mask or one with a bit at or above the graph's order,
and nothing else.  The checks of independence and maximal independence
live here, beside the sets they test: every certificate check of the
package rests on them.  Nothing here searches; every search lives in
``independence``, so a checker needs this module alone.  All values are
immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

GRAPH6_MAX_ORDER = 62
GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 input/output."""


class CapExceeded(RuntimeError):
    """An operation would exceed a configured resource cap."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the bitmask of the open neighborhood N(v).  Construction
    checks symmetry, irreflexivity, and vertex range, so a Graph instance is
    always a valid simple graph; only the products, components and
    generated classes the package builds from valid graphs, and the graphs
    that ``from_graph6`` decodes, which are valid by construction, skip the
    check.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("graph order must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for order {self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row < 0 or row & ~full:
                raise ValueError(f"neighborhood of {v} mentions out-of-range vertices")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in iter_bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _derived(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A product, a component, a generated class or a decoded graph6
        line, valid by construction, so the checks of ``__post_init__`` are
        skipped; every other graph from outside the package goes through
        them."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "adj", adj)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def closed_adj(self) -> tuple[int, ...]:
        """Closed neighborhood masks N[v] = N(v) | {v}."""
        return tuple(row | (1 << v) for v, row in enumerate(self.adj))

    @cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in iter_bits(self.adj[v] >> (v + 1)):
                yield (v, v + 1 + u)


def _rectangle_mask(left_mask: int, right_mask: int, n_right: int) -> int:
    """The product mask of left x right in row-major labels: the right mask
    shifted once to the row of each left vertex."""
    mask = 0
    for g in iter_bits(left_mask):
        mask |= right_mask << g * n_right
    return mask


# ---------------------------------------------------------------------------
# graph6 codec (single-byte size form only, n <= 62)
# ---------------------------------------------------------------------------
# The bit string lists x(i, j), i < j, column by column: x(0, 1); x(0, 2),
# x(1, 2); x(0, 3), ...  Column j starts at bit j(j-1)/2.


def from_graph6(text: str) -> Graph:
    """Parse one graph6 line.

    Accepts an optional leading ">>graph6<<" header.  Only the single-byte
    size form is supported: the order byte is n+63 with n <= 62; the
    multi-byte forms (first byte 126) are rejected.
    """
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise Graph6Error("empty graph6 line")
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ascii character in graph6 line: {line!r}") from exc
    for byte in data:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside the graph6 range 63..126")
    if data[0] == 126:
        raise Graph6Error("multi-byte size form (order > 62) is not supported")
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(data) - 1 != expected:
        raise Graph6Error(
            f"order {n} needs {expected} data bytes, got {len(data) - 1}"
        )
    acc = 0
    for byte in data[1:]:
        acc = (acc << 6) | (byte - 63)
    total = 6 * expected
    padding = total - nbits
    if padding and acc & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits")
    # Reversed, the bit string holds column j as x(j-1, j), ..., x(0, j), so
    # its slice read in base 2 is the mask of j's neighbours below j.
    bits = format(acc, f"0{total}b")[::-1]
    rows = [0] * n
    for j in range(1, n):
        end = total - j * (j - 1) // 2
        below = int(bits[end - j:end], 2)
        rows[j] |= below
        for i in iter_bits(below):
            rows[i] |= 1 << j
    return Graph._derived(n, tuple(rows))


def to_graph6(graph: Graph) -> str:
    """Encode a graph as a canonical graph6 line (no header, zero padding)."""
    n = graph.n
    if n > GRAPH6_MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the graph6 single-byte cap {GRAPH6_MAX_ORDER}")
    # Column j holds x(0, j), ..., x(j-1, j): the low j bits of adj[j] as a
    # j-digit binary string, reversed.
    bits = "".join([format(graph.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)])
    padding = (-len(bits)) % 6
    acc = int(bits + "0" * padding, 2) if bits else 0
    out = [chr(63 + n)]
    for shift in range(len(bits) + padding - 6, -1, -6):
        out.append(chr(63 + ((acc >> shift) & 63)))
    return "".join(out)


# ---------------------------------------------------------------------------
# Neighborhoods, independence checks, products and components
# ---------------------------------------------------------------------------


def _check_mask(graph: Graph, mask: int) -> None:
    if mask < 0 or mask >> graph.n:
        raise ValueError(f"vertex set {bin(mask)} out of range for graph of order {graph.n}")


def _closed_mask(graph: Graph, mask: int) -> int:
    """The mask of N[S] for the vertex mask of S, unchecked."""
    closed, adj = mask, graph.adj
    while mask:
        low = mask & -mask
        closed |= adj[low.bit_length() - 1]
        mask ^= low
    return closed


def is_independent(graph: Graph, mask: int) -> bool:
    """True iff no edge joins two members of the vertex mask, by the
    maximality test of the set within itself."""
    _check_mask(graph, mask)
    return _maximal_independent_within(graph, mask, mask)


def is_maximal_independent(graph: Graph, mask: int) -> bool:
    """True iff the vertex mask is independent and dominating (no vertex
    can be added)."""
    _check_mask(graph, mask)
    return _maximal_independent_within(graph, graph.full_mask, mask)


def _maximal_independent_within(graph: Graph, allowed_mask: int, chosen_mask: int) -> bool:
    """Maximal independence of ``chosen_mask`` inside the subgraph induced by
    ``allowed_mask``, checked without building the subgraph."""
    if chosen_mask & ~allowed_mask:
        return False
    adj, dominated, rest = graph.adj, chosen_mask, chosen_mask
    while rest:
        low = rest & -rest
        row = adj[low.bit_length() - 1]
        if row & chosen_mask:
            return False
        dominated |= row
        rest ^= low
    return allowed_mask & ~dominated == 0


def cartesian_product(graph_left: Graph, graph_right: Graph) -> Graph:
    """Cartesian product G □ H: (g, h) ~ (g', h') iff g = g' and hh' is an
    edge, or gg' is an edge and h = h'.  Vertices are numbered row-major:
    (g, h) is g·|H| + h."""
    if graph_left.n < 1 or graph_right.n < 1:
        raise ValueError("product factors must have at least one vertex")
    size = graph_left.n * graph_right.n
    n_right = graph_right.n
    # Template of {(g', 0) : g' ~ g}; shift by h to get the column part.
    column = [_rectangle_mask(row, 1, n_right) for row in graph_left.adj]
    rows = []
    for g in range(graph_left.n):
        base = g * n_right
        for h in range(n_right):
            rows.append((graph_right.adj[h] << base) | (column[g] << h))
    return Graph._derived(size, tuple(rows))


def component_masks(graph: Graph) -> Iterator[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    rest = graph.full_mask
    while rest:
        reached = frontier = rest & -rest
        while frontier:
            for v in iter_bits(frontier):
                frontier |= graph.adj[v]
            frontier &= ~reached
            reached |= frontier
        yield reached
        rest &= ~reached


def compact_components(graph: Graph) -> tuple[tuple[tuple[int, ...], Graph], ...]:
    """Each connected component, ordered by least vertex, as its vertices
    ascending and the subgraph they induce, relabelled 0, 1, ... in that
    order."""
    parts = []
    for mask in component_masks(graph):
        vertices = tuple(iter_bits(mask))
        rank = {v: i for i, v in enumerate(vertices)}
        rows = tuple(sum(1 << rank[u] for u in iter_bits(graph.adj[v])) for v in vertices)
        parts.append((vertices, Graph._derived(len(vertices), rows)))
    return tuple(parts)


def is_connected(graph: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    return next(component_masks(graph), 0) == graph.full_mask
