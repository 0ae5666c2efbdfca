"""Immutable simple-graph core: bitmask adjacency, graph6 codec, induced
subgraphs, and the Cartesian product.

Every vertex set is a fixed-width bitmask tied to its host graph, so the
independence machinery in the rest of the package runs on word-parallel
integer operations.  All values are immutable after construction; every
function here is pure.
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


def triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in column-major upper-triangle order.

    This is the bit order of the graph6 format: x(0,1); x(0,2), x(1,2);
    x(0,3), ... and also the order used for canonical adjacency bit-strings.
    """
    return [(i, j) for j in range(1, n) for i in range(j)]


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices 0..n-1 of one host graph, stored as a bitmask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("host order must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(
                f"vertex set {bin(self.mask)} out of range for host of order {self.n}"
            )

    @classmethod
    def of(cls, n: int, vertices: Iterable[int] = ()) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for host of order {n}")
            mask |= 1 << v
        return cls(mask, n)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls((1 << n) - 1, n)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def _check_host(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(
                f"vertex sets belong to different hosts (orders {self.n} and {other.n})"
            )

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.mask | other.mask, self.n)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.mask & other.mask, self.n)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.mask & ~other.mask, self.n)

    def __le__(self, other: "VertexSet") -> bool:
        self._check_host(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check_host(other)
        return self.mask & other.mask == 0

    def complement(self) -> "VertexSet":
        return VertexSet(((1 << self.n) - 1) & ~self.mask, self.n)

    def with_vertex(self, v: int) -> "VertexSet":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for host of order {self.n}")
        return VertexSet(self.mask | (1 << v), self.n)

    def without_vertex(self, v: int) -> "VertexSet":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for host of order {self.n}")
        return VertexSet(self.mask & ~(1 << v), self.n)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}}, n={self.n})"


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the bitmask of the open neighborhood N(v).  Construction
    checks symmetry, irreflexivity, and vertex range, so a Graph instance is
    always a valid simple graph; only the products and induced subgraphs
    built here from valid graphs skip the check.
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
        """A graph this module built from valid graphs (a product or an
        induced subgraph), valid by construction, so the checks of
        ``__post_init__`` are skipped; every graph from outside the package
        goes through them."""
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

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range")
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))


@dataclass(frozen=True)
class SubgraphMap:
    """Vertex correspondence created by taking an induced subgraph.

    New vertex i corresponds to original vertex ``kept[i]``; ``kept`` is
    strictly increasing, so induced subgraphs preserve relative vertex order.
    """

    kept: tuple[int, ...]
    host_size: int

    @cached_property
    def forward(self) -> dict[int, int]:
        """Original vertex -> new vertex, defined exactly on ``kept``."""
        return {orig: new for new, orig in enumerate(self.kept)}

    def __len__(self) -> int:
        return len(self.kept)

    def to_original(self, s: VertexSet) -> VertexSet:
        if s.n != len(self.kept):
            raise ValueError("vertex set does not belong to the subgraph")
        mask = 0
        for v in s:
            mask |= 1 << self.kept[v]
        return VertexSet(mask, self.host_size)

    def to_sub(self, s: VertexSet) -> VertexSet:
        if s.n != self.host_size:
            raise ValueError("vertex set does not belong to the host graph")
        mask = 0
        for v in s:
            if v not in self.forward:
                raise ValueError(f"vertex {v} was not kept by the subgraph")
            mask |= 1 << self.forward[v]
        return VertexSet(mask, len(self.kept))


@dataclass(frozen=True)
class ProductIndexMap:
    """Row-major bijection (g, h) <-> g * n_right + h for a Cartesian product."""

    n_left: int
    n_right: int

    @property
    def size(self) -> int:
        return self.n_left * self.n_right

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_left and 0 <= h < self.n_right):
            raise ValueError(f"pair ({g}, {h}) out of range")
        return g * self.n_right + h

    def decode(self, p: int) -> tuple[int, int]:
        if not 0 <= p < self.size:
            raise ValueError(f"product vertex {p} out of range")
        return divmod(p, self.n_right)

    def rectangle(self, left: VertexSet, right: VertexSet) -> VertexSet:
        """Image of left x right as a vertex set of the product."""
        if left.n != self.n_left or right.n != self.n_right:
            raise ValueError("factor vertex sets do not match the index map")
        mask = 0
        if right.mask:
            for g in left:
                mask |= right.mask << (g * self.n_right)
        return VertexSet(mask, self.size)


# ---------------------------------------------------------------------------
# graph6 codec (single-byte size form only, n <= 62)
# ---------------------------------------------------------------------------


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
    rows = [0] * n
    for k, (i, j) in enumerate(triangle_pairs(n)):
        if (acc >> (total - 1 - k)) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def to_graph6(graph: Graph) -> str:
    """Encode a graph as a canonical graph6 line (no header, zero padding)."""
    n = graph.n
    if n > GRAPH6_MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the graph6 single-byte cap {GRAPH6_MAX_ORDER}")
    acc = 0
    nbits = 0
    for i, j in triangle_pairs(n):
        acc = (acc << 1) | ((graph.adj[i] >> j) & 1)
        nbits += 1
    padding = (-nbits) % 6
    acc <<= padding
    out = [chr(63 + n)]
    for shift in range(nbits + padding - 6, -1, -6):
        out.append(chr(63 + ((acc >> shift) & 63)))
    return "".join(out)


# ---------------------------------------------------------------------------
# Neighborhood and subgraph operations
# ---------------------------------------------------------------------------


def _check_set(graph: Graph, s: VertexSet) -> None:
    if s.n != graph.n:
        raise ValueError(
            f"vertex set of host order {s.n} does not match graph of order {graph.n}"
        )


def closed_neighborhood(graph: Graph, s: VertexSet) -> VertexSet:
    """N[S]: S together with every vertex adjacent to S."""
    _check_set(graph, s)
    mask = s.mask
    for v in s:
        mask |= graph.adj[v]
    return VertexSet(mask, graph.n)


def induced_subgraph(graph: Graph, s: VertexSet) -> tuple[Graph, SubgraphMap]:
    """Subgraph induced by S, with the vertex correspondence."""
    _check_set(graph, s)
    kept = s.members
    index = {orig: new for new, orig in enumerate(kept)}
    rows = []
    for orig in kept:
        row = 0
        for u in iter_bits(graph.adj[orig] & s.mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph._derived(len(kept), tuple(rows)), SubgraphMap(kept, graph.n)


def delete_closed_neighborhood(graph: Graph, s: VertexSet) -> tuple[Graph, SubgraphMap]:
    """G - N[S] for an independent set S."""
    _check_set(graph, s)
    for v in s:
        if graph.adj[v] & s.mask:
            raise ValueError("set is not independent")
    remainder = closed_neighborhood(graph, s).complement()
    return induced_subgraph(graph, remainder)


def cartesian_product(
    graph_left: Graph, graph_right: Graph, cap: int | None = None
) -> tuple[Graph, ProductIndexMap]:
    """Cartesian product: (g, h) ~ (g', h') iff g = g' and hh' is an edge,
    or gg' is an edge and h = h'.  Vertices are numbered row-major."""
    if graph_left.n < 1 or graph_right.n < 1:
        raise ValueError("product factors must have at least one vertex")
    size = graph_left.n * graph_right.n
    if cap is not None and size > cap:
        raise CapExceeded(f"product order {size} exceeds cap {cap}")
    n_right = graph_right.n
    # Template of {(g', 0) : g' ~ g}; shift by h to get the column part.
    column = [
        sum(1 << (gp * n_right) for gp in iter_bits(graph_left.adj[g]))
        for g in range(graph_left.n)
    ]
    rows = []
    for g in range(graph_left.n):
        base = g * n_right
        for h in range(n_right):
            rows.append((graph_right.adj[h] << base) | (column[g] << h))
    return Graph._derived(size, tuple(rows)), ProductIndexMap(graph_left.n, n_right)


def is_clique(graph: Graph, s: VertexSet) -> bool:
    """True iff every pair of distinct members of S is adjacent."""
    _check_set(graph, s)
    for v in s:
        if (s.mask & ~(1 << v)) & ~graph.adj[v]:
            return False
    return True


def is_connected(graph: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    if graph.n <= 1:
        return True
    reached = 1
    frontier = 1
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= graph.adj[v]
        frontier = grow & ~reached
        reached |= frontier
    return reached == graph.full_mask
