"""Immutable simple-graph core: bitmask adjacency, graph6 codec, closed
neighborhoods, connected components, the Cartesian product, and the
automorphism orbits that prune the product searches.

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

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}}, n={self.n})"


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
# Neighborhoods, products and components
# ---------------------------------------------------------------------------


def _check_set(graph: Graph, s: VertexSet) -> None:
    if s.n != graph.n:
        raise ValueError(
            f"vertex set of host order {s.n} does not match graph of order {graph.n}"
        )


def closed_neighborhood(graph: Graph, s: VertexSet) -> VertexSet:
    """N[S]: S together with every vertex adjacent to S."""
    _check_set(graph, s)
    return VertexSet(_closed_mask(graph, s.mask), graph.n)


def _closed_mask(graph: Graph, mask: int) -> int:
    """The mask of N[S] for the vertex mask of S, unchecked."""
    closed, adj = mask, graph.adj
    while mask:
        low = mask & -mask
        closed |= adj[low.bit_length() - 1]
        mask ^= low
    return closed


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


def stabilizer_orbits(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Row k, for k = 0, ..., n, maps each vertex to the mask of its orbit
    under the automorphisms that fix each of 0, ..., k-1.

    The rows are built from k = n down.  The automorphisms fixing 0..k-1
    are generated by those fixing 0..k together with one that maps k to w
    for each w in the orbit of k.  So row k is row k+1 joined, by
    union-find, along the cycles of the automorphisms found, each by one
    backtracking search.  A vertex w is tried only when its class so far is
    neither the class of k nor one a failed search has ruled out.  The
    group is never listed: K_n and the empty graph have n! automorphisms
    and take one search per row."""
    n, adj = graph.n, graph.adj
    degree = [row.bit_count() for row in adj]
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rows = [tuple(1 << v for v in range(n))] * (n + 1)
    for k in range(n - 2, -1, -1):
        missed = []
        for w in range(k + 1, n):
            root = find(w)
            if (
                root == find(k)
                or degree[w] != degree[k]
                or any(find(m) == root for m in missed)
            ):
                continue
            image = _automorphism(adj, degree, k, w)
            if image is None:
                missed.append(w)
                continue
            for v in range(k, n):
                parent[find(v)] = find(image[v])
        orbit: dict[int, int] = {}
        for v in range(n):
            orbit[find(v)] = orbit.get(find(v), 0) | 1 << v
        rows[k] = tuple(orbit[find(v)] for v in range(n))
    return tuple(rows)


def _automorphism(
    adj: tuple[int, ...], degree: list[int], k: int, w: int
) -> list[int] | None:
    """The images of an automorphism that fixes 0, ..., k-1 and maps k to
    w, or None when there is none.  Vertices are mapped in breadth-first
    order from k, each to an unused vertex of its degree whose neighbours
    among the images so far are the images of its own mapped neighbours."""
    n, fixed = len(adj), (1 << k) - 1
    order, seen = [], fixed
    for root in range(k, n):
        if not seen >> root & 1:
            seen |= 1 << root
            reached = len(order)
            order.append(root)
            while reached < len(order):
                fresh = adj[order[reached]] & ~seen
                seen |= fresh
                order.extend(iter_bits(fresh))
                reached += 1
    image = list(range(n))
    full = (1 << n) - 1

    def extend(i: int, domain: int, used: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        target = 0
        for u in iter_bits(adj[x] & domain):
            target |= 1 << image[u]
        for y in iter_bits(1 << w if i == 0 else full & ~used):
            if degree[y] == degree[x] and adj[y] & used == target:
                image[x] = y
                if extend(i + 1, domain | 1 << x, used | 1 << y):
                    return True
        return False

    return image if extend(0, fixed, fixed) else None


def product_orbits(
    left: tuple[tuple[int, ...], ...], right: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...] | None, ...]:
    """Orbit rows of G □ H in its row-major labels, from the factors' rows
    of :func:`stabilizer_orbits`: entry s maps each vertex p >= s to its
    orbit under the automorphisms of Aut(G) × Aut(H) that fix every vertex
    below s, or is None when all those orbits are single vertices.

    With s = r·|H| + c, an automorphism (α, β) fixes (0, 0), ..., (0, c-1)
    iff α fixes 0 (when c > 0) and β fixes 0, ..., c-1.  Fixing all of row
    0 forces β to be the identity; α then fixes 0, ..., r-1, and r when
    c > 0.  So the orbit of (g, h) is orbG_k(g) × orbH_j(h), with
    (k, j) = ([c > 0], c) for r = 0 and (r + [c > 0], |H|) for r >= 1,
    where row |H| of H is all single vertices.  An orbit of G spread to one
    bit per row, times a mask of H, is their rectangle: no terms overlap."""
    n_g, n_h = len(left) - 1, len(right) - 1
    # Rows from the first one equal to the last hold single vertices only.
    plain_g = next(k for k, row in enumerate(left) if row == left[n_g])
    plain_h = next(j for j, row in enumerate(right) if row == right[n_h])

    spreads: dict[int, list[int]] = {}

    def rectangles(k: int, j: int) -> tuple[int, ...] | None:
        if k >= plain_g and j >= plain_h:
            return None
        if k not in spreads:
            unit = {m: _rectangle_mask(m, 1, n_h) for m in set(left[k])}
            spreads[k] = [unit[mask] for mask in left[k]]
        return tuple([a * b for a in spreads[k] for b in right[j]])

    by_row = [None] + [rectangles(k, n_h) for k in range(1, n_g + 1)]
    rows = [rectangles(0, 0)] + [rectangles(1, c) for c in range(1, n_h)]
    for r in range(1, n_g):
        rows += [by_row[r]] + [by_row[r + 1]] * (n_h - 1)
    rows.append(None)
    return tuple(rows)
