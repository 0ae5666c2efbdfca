"""The three benchmark workloads, their output gate and their oracle checks.

Each workload is a closed loop with one client: the next CLI request is sent
only when the previous one has returned.  Requests go in-process through
``wellcovered.cli.main``, so every layer from argument parsing to report
rendering is on the measured path.

The gate compares the SHA-256 of every output with the digests in
``golden.json``, recorded at the commit that introduced this benchmark by
``make_golden.py``.  A mismatch, or an exit code other than 0, counts the
items the output covers as failed.  Structural checks and the networkx
oracle run once per run, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

CLASS_COUNTS = (1, 2, 4, 11, 34, 156)  # OEIS A000088, orders 1..6
WITNESS_CALLS = 40
WITNESS_HEAVIEST = 2
ORACLE_SAMPLE = 8


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """One request's exit code, output digest, start and end on the
    ``perf_counter`` clock, and latency.  ``seconds`` is wall time until a
    timed pass replaces it with reference-speed seconds.  ``out`` holds the
    output only when the request asked to keep it, so that retained outputs
    do not count towards the program's peak memory."""

    argv: list[str]
    code: int
    digest: str
    size: int
    out: str | None
    start: float
    end: float
    seconds: float


class Workload:
    """Shared shape: ``build`` makes the inputs from the seed, ``run_pass``
    sends one pass of requests, ``gate`` counts failed items in one pass and
    ``verify`` lists problems found by structural and oracle checks.  A
    workload with ``parallel_jobs`` also runs one pass with that many
    workers in the traced run, for the parallel efficiency."""

    name = ""
    why = ""
    jobs = 1
    parallel_jobs = 0
    per_request_latency = False

    def build(self, seed: int, golden: dict) -> None:
        """Make this run's inputs and expected digests."""

    def items(self) -> int:
        raise NotImplementedError

    def pairs(self) -> int:
        """Factor pairs evaluated per pass (0 when the workload has none)."""
        return 0

    def run_pass(self, client, jobs: int | None = None) -> list[Outcome]:
        raise NotImplementedError

    def gate(self, outcomes: list[Outcome]) -> int:
        raise NotImplementedError

    def verify(self, outcomes: list[Outcome], rng: random.Random) -> list[str]:
        return []


class Scan(Workload):
    """One ``wellcovered scan`` request per pass; the item is a pair.  The
    report must not depend on the number of workers, so every pass is gated
    against the same digest whatever ``--jobs`` it ran with."""

    def __init__(self, name: str, why: str, flags: list[str], jobs: int, pairs: int,
                 parallel_jobs: int = 0) -> None:
        self.name, self.why, self.flags, self.jobs = name, why, flags, jobs
        self.parallel_jobs = parallel_jobs
        self.expected_pairs = pairs
        self.expected: str | None = None

    def argv(self, jobs: int) -> list[str]:
        return ["scan", *self.flags, "--jobs", str(jobs)]

    def build(self, seed: int, golden: dict) -> None:
        if self.expected is None:
            self.expected = golden[self.name]["sha256"]

    def items(self) -> int:
        return self.expected_pairs

    def pairs(self) -> int:
        return self.expected_pairs

    def run_pass(self, client, jobs: int | None = None) -> list[Outcome]:
        return [client(self.argv(jobs or self.jobs), keep=True)]

    def gate(self, outcomes: list[Outcome]) -> int:
        (outcome,) = outcomes
        if outcome.code != 0 or outcome.digest != self.expected:
            return self.expected_pairs
        return 0

    def verify(self, outcomes: list[Outcome], rng: random.Random) -> list[str]:
        import oracle  # networkx loads only after the timed passes

        (outcome,) = outcomes
        try:
            report = json.loads(outcome.out)
        except ValueError as exc:
            return [f"{self.name}: report is not JSON ({exc})"]
        problems = []
        records = report["records"]
        summary = report["summary"]
        if summary["pairs"] != self.expected_pairs or len(records) != self.expected_pairs:
            problems.append(
                f"{self.name}: {summary['pairs']} pairs, expected {self.expected_pairs}"
            )
        if summary["violations"]:
            problems.append(f"{self.name}: {len(summary['violations'])} violations")
        if not all(rec["theorem_consistent"] for rec in records):
            problems.append(f"{self.name}: a record is not theorem-consistent")
        for rec in rng.sample(records, min(ORACLE_SAMPLE, len(records))):
            problems.extend(oracle.check_scan_record(rec))
        return problems


class WitnessLarge(Workload):
    """``WITNESS_CALLS`` ``wellcovered witness G H`` requests per pass.

    The pairs come from a fixed pool in ``golden.json`` (a random tree of
    order 20-32 against a sparse random graph of order 20-32), each with its
    output digest and its cost: the median reference-speed time of
    seven calls, in separate rounds over the pool, when the pool was made.  The ``WITNESS_HEAVIEST`` costliest pairs
    always run: they cost far more than the rest, and drawing them by seed
    made the cost of a pass vary from seed to seed.  The seed draws one pair
    from each of the remaining calls' strata of cost, so every seed gets a
    sample with the same spread of costs.
    """

    name = "witness-large"
    why = ("factor analysis and product construction on products of up to 1024 "
           "vertices; no product enumeration, so scan-loop changes should not move it")
    per_request_latency = True

    def __init__(self, pool: list | None = None, calls: int = WITNESS_CALLS,
                 heaviest: int = WITNESS_HEAVIEST) -> None:
        self.pool = pool
        self.calls = calls
        self.heaviest = heaviest

    def build(self, seed: int, golden: dict) -> None:
        pool = self.pool if self.pool is not None else golden[self.name]["pool"]
        ranked = sorted(pool, key=lambda entry: entry[2])
        rest = ranked[:len(ranked) - self.heaviest]
        chosen = ranked[len(rest):]
        strata = self.calls - self.heaviest
        rng = random.Random(seed)
        for k in range(strata):
            low, high = k * len(rest) // strata, (k + 1) * len(rest) // strata
            chosen.append(rest[low + rng.randrange(high - low)])
        rng.shuffle(chosen)
        self.requests = [["witness", g, h] for g, h, _, _ in chosen]
        self.expected = [digest for _, _, _, digest in chosen]
        self.keep = set(rng.sample(range(self.calls), min(ORACLE_SAMPLE, self.calls)))

    def items(self) -> int:
        return len(self.requests)

    def pairs(self) -> int:
        return len(self.requests)

    def run_pass(self, client, jobs: int | None = None) -> list[Outcome]:
        return [client(argv, keep=k in self.keep) for k, argv in enumerate(self.requests)]

    def gate(self, outcomes: list[Outcome]) -> int:
        return sum(
            outcome.code != 0 or outcome.digest != digest
            for outcome, digest in zip(outcomes, self.expected)
        ) + abs(len(outcomes) - len(self.expected))

    def verify(self, outcomes: list[Outcome], rng: random.Random) -> list[str]:
        import oracle

        # The gate already matched every output with a golden one, all of
        # which pass their checks; the kept sample is parsed and rechecked.
        problems = []
        for outcome in outcomes:
            if outcome.code != 0:
                problems.append(f"witness {outcome.argv[1:]}: exit {outcome.code}")
            if outcome.out is None:
                continue
            try:
                document = json.loads(outcome.out)
            except ValueError:
                problems.append(f"witness {outcome.argv[1:]}: output is not JSON")
                continue
            if not document.get("all_checks_pass"):
                problems.append(f"witness {outcome.argv[1:]}: witness checks fail")
            problems.extend(oracle.check_witness(document))
        return problems


class CorpusAnalyze(Workload):
    """``wellcovered gen n`` for n = 1..top, then ``analyze -`` on the lines
    they printed; the item is one classified graph."""

    name = "corpus-analyze"
    why = ("corpus generation and the per-graph analyze triple; the only workload "
           "where the corpus layer carries weight")

    def __init__(self, top: int = 6) -> None:
        self.top = top
        self.expected: dict | None = None

    def build(self, seed: int, golden: dict) -> None:
        if self.expected is None:
            self.expected = golden[self.name]

    def items(self) -> int:
        return sum(CLASS_COUNTS[: self.top])

    def run_pass(self, client, jobs: int | None = None) -> list[Outcome]:
        outcomes = [client(["gen", str(n)], keep=True) for n in range(1, self.top + 1)]
        lines = "".join(outcome.out for outcome in outcomes)
        outcomes.append(client(["analyze", "-"], stdin=lines, keep=True))
        return outcomes

    def gate(self, outcomes: list[Outcome]) -> int:
        *gens, analyzed = outcomes
        failed = sum(
            CLASS_COUNTS[n]
            for n, (outcome, digest) in enumerate(zip(gens, self.expected["gen"]))
            if outcome.code != 0 or outcome.digest != digest
        )
        lines = analyzed.out.splitlines(keepends=True)
        expected = self.expected["analyze"]
        if analyzed.code != 0:
            return failed + len(expected)
        failed += sum(sha256(line) != digest for line, digest in zip(lines, expected))
        return failed + abs(len(lines) - len(expected))

    def verify(self, outcomes: list[Outcome], rng: random.Random) -> list[str]:
        import oracle

        *gens, analyzed = outcomes
        problems = []
        counts = tuple(len(outcome.out.splitlines()) for outcome in gens)
        if counts != CLASS_COUNTS[: self.top]:
            problems.append(f"corpus: class counts {counts}, expected {CLASS_COUNTS}")
        try:
            records = [json.loads(line) for line in analyzed.out.splitlines()]
        except ValueError:
            return problems + ["analyze: a line is not JSON"]
        if len(records) != sum(counts):
            problems.append(f"analyze: {len(records)} records for {sum(counts)} graphs")
        for record in rng.sample(records, min(ORACLE_SAMPLE, len(records))):
            problems.extend(oracle.check_analysis(record))
        return problems


def all_workloads() -> dict[str, Workload]:
    workloads = [
        Scan("scan-small",
             "scan with its defaults: many tiny products, where product MIS enumeration "
             "and per-pair overhead dominate; its traced run also covers the 2-worker "
             "pool path",
             [], jobs=1, pairs=1378, parallel_jobs=2),
        WitnessLarge(),
        CorpusAnalyze(),
    ]
    return {workload.name: workload for workload in workloads}
