"""Record the output digests the benchmark gate compares against.

    python3 perfbench/make_golden.py        # from the root of a checkout

Writes ``perfbench/golden.json``:

* ``scan-small``: the SHA-256 of the JSON report.  The report is made
  with ``--jobs 1`` and ``--jobs 2`` and the two must be byte-identical.
* ``corpus-analyze``: one digest per ``gen n`` output and one per
  ``analyze -`` line.
* ``witness-large``: the pair pool.  Each entry is ``[g6_g, g6_h,
  milliseconds, digest]``; only pairs whose witness exits 0 with every
  check passing, and whose sets networkx confirms, are kept.  The
  milliseconds are the median reference-speed time (see ``calibrate.py``)
  of ``COST_REPEATS`` calls; the workload stratifies the pool by them.

Run it only when a change is meant to alter output bytes, and say why.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import calibrate
import oracle
import run
from workloads import CLASS_COUNTS, GOLDEN_PATH, sha256

POOL_SEED = 20121204
POOL_SIZE = 400
ORDERS = (20, 32)
EDGE_DENSITY = 0.15
COST_REPEATS = 7


def random_tree(rng: random.Random, n: int, graph_cls):
    return graph_cls.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def sparse_graph(rng: random.Random, n: int, graph_cls):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < EDGE_DENSITY]
    return graph_cls.from_edges(n, edges)


def reference_ms(client, argv: list[str], ticker: calibrate.Ticker) -> float:
    ticker.probe()
    outcome = client(argv)
    ticker.probe()
    return 1e3 * ticker.reference_seconds(outcome.start, outcome.end)


def witness_pool(cli, client) -> list:
    from wellcovered.graphs import Graph

    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        left = cli.to_graph6(random_tree(rng, rng.randint(*ORDERS), Graph))
        right = cli.to_graph6(sparse_graph(rng, rng.randint(*ORDERS), Graph))
        outcome = client(["witness", left, right], keep=True)
        if outcome.code != 0:
            continue
        document = json.loads(outcome.out)
        if not document["all_checks_pass"] or oracle.check_witness(document):
            continue
        pool.append([left, right, 0.0, outcome.digest])
    # Each round times every pair once, so the repeats of one pair fall at
    # different moments of the host's speed drift.
    rounds = []
    with calibrate.Ticker() as ticker:
        for _ in range(COST_REPEATS):
            rounds.append([reference_ms(client, ["witness", g, h], ticker) for g, h, _, _ in pool])
    for entry, costs in zip(pool, zip(*rounds)):
        entry[2] = round(statistics.median(costs), 3)
    return pool


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = run.import_package()
    client = run.Client(cli.main)
    golden = {}

    serial = client(["scan", "--jobs", "1"])
    parallel = client(["scan", "--jobs", "2"])
    if serial.digest != parallel.digest:
        raise SystemExit("scan-small report differs between --jobs 1 and --jobs 2")
    golden["scan-small"] = {"sha256": serial.digest}

    gens = [client(["gen", str(n)], keep=True) for n in range(1, len(CLASS_COUNTS) + 1)]
    analyzed = client(["analyze", "-"], stdin="".join(g.out for g in gens), keep=True)
    golden["corpus-analyze"] = {
        "gen": [g.digest for g in gens],
        "analyze": [sha256(line) for line in analyzed.out.splitlines(keepends=True)],
    }

    golden["witness-large"] = {"pool": witness_pool(cli, client)}

    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
