"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py          # from the root of a checkout

Checks that every metric in BENCHMARK.json is printed with its unit, that
the tracer puts every wrapped function back, that a corrupted output is
counted as failed, and that the host-speed calibration scales and cleans up
as documented.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

import calibrate
import run
import spans
from workloads import CorpusAnalyze, Scan, WitnessLarge, load_golden, sha256

sys.path.insert(0, str(run.ROOT / "src"))

TINY_SCAN = ["--gen-up-to", "3", "--max-n", "3", "--product-cap", "9"]


def tiny_workloads(golden: dict) -> list:
    """Small versions of each workload kind with golden digests taken from
    a clean pass of the current program."""
    pool = golden["witness-large"]["pool"][:4]
    workloads = [
        Scan("tiny-scan", "", TINY_SCAN, jobs=1, pairs=28),
        Scan("tiny-scan-j2", "", TINY_SCAN, jobs=2, pairs=28),
        WitnessLarge(pool=pool, calls=2, heaviest=1),
        CorpusAnalyze(top=3),
    ]
    cli = run.import_package()
    client = run.Client(cli.main)
    scan_digest = client(["scan", *TINY_SCAN, "--jobs", "1"]).digest
    gens = [client(["gen", str(n)], keep=True) for n in (1, 2, 3)]
    analyzed = client(["analyze", "-"], stdin="".join(g.out for g in gens), keep=True)
    corpus = {
        "gen": [g.digest for g in gens],
        "analyze": [sha256(line) for line in analyzed.out.splitlines(keepends=True)],
    }
    for workload in workloads:
        if isinstance(workload, Scan):
            workload.expected = scan_digest
        elif isinstance(workload, CorpusAnalyze):
            workload.expected = corpus
    return workloads


def quiet_run(workload, trace: bool, golden: dict, trace_dir: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(workload, 1, 0.0, trace, golden, trace_dir=trace_dir)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.golden = load_golden()
        cls.workloads = tiny_workloads(cls.golden)
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            cls.spec = json.load(handle)
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)
        cls.trace_dir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def test_every_metric_prints_with_its_unit(self) -> None:
        for trace, section, table in ((False, "end_to_end", run.END_TO_END),
                                      (True, "per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            self.assertEqual(declared, table)
            for workload in self.workloads:
                with self.subTest(workload=workload.name, trace=trace):
                    result = quiet_run(workload, trace, self.golden, self.trace_dir)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_wrappers_restore_the_originals(self) -> None:
        cli = run.import_package()
        targets = run.trace_targets(cli)
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        tracer = spans.Tracer()
        tracer.install(targets)
        try:
            for module, attr, original in originals:
                self.assertIsNot(getattr(module, attr), original, f"{module.__name__}.{attr}")
        finally:
            tracer.restore()
        for module, attr, original in originals:
            self.assertIs(getattr(module, attr), original, f"{module.__name__}.{attr}")

    def test_corrupted_output_counts_as_failed(self) -> None:
        for workload in self.workloads:
            with self.subTest(workload=workload.name):
                cli = run.import_package()
                workload.build(1, self.golden)
                outcomes = workload.run_pass(run.Client(cli.main))
                self.assertEqual(workload.gate(outcomes), 0)
                victim = outcomes[-1]
                victim.digest = "0" * 64
                if victim.out is not None:
                    victim.out = victim.out.replace("1", "2", 1)
                self.assertGreater(workload.gate(outcomes), 0)

    def test_corrupting_the_program_fails_the_run(self) -> None:
        cli = run.import_package()
        original = cli.render_scan_json
        cli.render_scan_json = lambda result: original(result).replace('"pairs": 28', '"pairs": 27')
        try:
            workload = self.workloads[0]
            with unittest.mock.patch.object(run, "import_package", lambda: cli):
                result = quiet_run(workload, False, self.golden, self.trace_dir)
        finally:
            cli.render_scan_json = original
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class CalibrationTest(unittest.TestCase):
    @staticmethod
    def ticker_with(kernel_times: list[float]) -> calibrate.Ticker:
        """A ticker whose k-th probe started at k seconds."""
        ticker = calibrate.Ticker()
        ticker.probes = [(float(k), k + t) for k, t in enumerate(kernel_times)]
        return ticker

    def test_reference_seconds_follow_a_lasting_slowdown(self) -> None:
        ref = calibrate.REFERENCE_S
        ticker = self.ticker_with([ref] * 6 + [2 * ref] * 6)
        self.assertAlmostEqual(ticker.reference_seconds(1.5, 1.75), 0.25)
        self.assertAlmostEqual(ticker.reference_seconds(9.5, 9.75), 0.125)
        with self.assertRaises(ValueError):
            ticker.reference_seconds(10.5, 11.5)

    def test_reference_seconds_use_the_two_probes_around_each_piece(self) -> None:
        ref = calibrate.REFERENCE_S
        ticker = self.ticker_with([ref] * 5 + [3 * ref] + [ref] * 5)
        self.assertAlmostEqual(ticker.reference_seconds(3.5, 3.75), 0.25)
        self.assertAlmostEqual(ticker.reference_seconds(4.5, 4.75), 0.125)
        self.assertAlmostEqual(ticker.reference_seconds(5.5, 5.75), 0.125)
        self.assertAlmostEqual(ticker.reference_seconds(6.5, 6.75), 0.25)

    def test_reference_seconds_cut_out_the_probes(self) -> None:
        ref = calibrate.REFERENCE_S
        ticker = self.ticker_with([ref] * 11)
        self.assertAlmostEqual(ticker.reference_seconds(3.5, 4.5), 1.0 - ref)
        self.assertAlmostEqual(ticker.reference_seconds(4.5, 6.5), 2.0 - 2 * ref)

    def test_ticker_probes_and_restores_the_signal_handler(self) -> None:
        before = signal.getsignal(signal.SIGALRM)
        with calibrate.Ticker(interval=0.01) as ticker:
            ticker.probe()
            start = calibrate.perf_counter()
            while calibrate.perf_counter() - start < 0.1:
                pass
            ticker.probe()
        self.assertGreater(len(ticker.probes), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(ticker.reference_seconds(start, start + 0.1), 0.0)


if __name__ == "__main__":
    unittest.main()
