"""Independent checks with networkx, run after the timed passes.

Maximal independent sets of a graph are the maximal cliques of its
complement, so networkx's clique enumeration gives α, the smallest maximal
independent set size and the size histogram without any code from the
package under test.  Each check returns a list of problems (empty when the
output agrees).
"""

from __future__ import annotations

from collections import Counter

import networkx as nx


def _graph(g6: str) -> nx.Graph:
    return nx.from_graph6_bytes(g6.encode("ascii"))


def _mis_sizes(graph: nx.Graph) -> Counter:
    return Counter(len(clique) for clique in nx.find_cliques(nx.complement(graph)))


def check_scan_record(rec: dict) -> list[str]:
    product = nx.cartesian_product(_graph(rec["g6_g"]), _graph(rec["g6_h"]))
    sizes = _mis_sizes(product)
    expected = {
        "product_n": product.number_of_nodes(),
        "product_m": product.number_of_edges(),
        "product_alpha": max(sizes),
        "product_min_maximal": min(sizes),
        "product_well_covered": len(sizes) == 1,
    }
    return [
        f"scan {rec['g6_g']} x {rec['g6_h']}: {key} = {rec[key]}, networkx says {value}"
        for key, value in expected.items()
        if rec[key] != value
    ]


def check_witness(doc: dict) -> list[str]:
    left, right = _graph(doc["g6_g"]), _graph(doc["g6_h"])
    if doc["swapped"]:
        left, right = right, left
    product = nx.cartesian_product(left, right)
    problems = []
    sizes = {}
    for name in ("big", "small"):
        chosen = {tuple(pair) for pair in doc["sets"][name]["pairs"]}
        sizes[name] = len(chosen)
        label = f"witness {doc['g6_g']} x {doc['g6_h']} {name}"
        if len(chosen) != doc["sets"][name]["size"]:
            problems.append(f"{label}: size field disagrees with the set")
        if product.subgraph(chosen).number_of_edges():
            problems.append(f"{label}: not independent")
        if not nx.is_dominating_set(product, chosen):
            problems.append(f"{label}: not maximal")
    if sizes["big"] <= sizes["small"]:
        problems.append(f"witness {doc['g6_g']} x {doc['g6_h']}: big is not larger")
    return problems


def check_analysis(record: dict) -> list[str]:
    sizes = _mis_sizes(_graph(record["graph6"]))
    expected = {
        "alpha": max(sizes),
        "min_maximal": min(sizes),
        "well_covered": len(sizes) == 1,
        "mis_size_histogram": {str(size): count for size, count in sorted(sizes.items())},
    }
    return [
        f"analyze {record['graph6']}: {key} = {record[key]}, networkx says {value}"
        for key, value in expected.items()
        if record[key] != value
    ]
