"""Checks of the benchmark itself: failures are counted, tracing is exact.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

posmap = run.import_posmap()
TMP = os.path.join(run.OUT, "selftest")


def classify_transposition() -> tuple:
    """A genuine classify op on transposition of M_2 and its checked result."""
    os.makedirs(TMP, exist_ok=True)
    doc = wl.map_doc(wl.transposition_choi(2), 2, 2, "transposition")
    path = wl.write_doc(doc, os.path.join(TMP, "t.json"))
    op = wl.Op(kind="classify", seed=7,
               argv=["classify", path, "--k-max", "2", "--seed", "{seed}", "--out", "{out}"],
               label={"family": "transposition", "k_max": 2, "lam": None})
    out = os.path.join(TMP, "t-report.json")
    result = run.run_op(posmap, op, out, 0)
    run.load_report(result, out)
    return op, result, out


class FailureCounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.op, cls.result, cls.out = classify_transposition()

    def test_genuine_report_passes(self):
        self.assertEqual(wl.findings(self.op, self.result), [])

    def test_tampered_witness_is_a_failure(self):
        report = copy.deepcopy(self.result.report)
        rec = next(r for r in report["records"] if r["id"] == "k_positive_2")
        rec["witness"]["vector"]["data"][0][0] += 0.25
        path = os.path.join(TMP, "tampered.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        with run.contextlib.redirect_stdout(run.SINK), run.contextlib.redirect_stderr(run.SINK):
            vcode = posmap.cli.main(["verify", path])
        tampered = wl.OpResult(0.0, code=0, verify_code=vcode, report=report)
        self.assertIn("verify exit code 1", wl.findings(self.op, tampered))

    def test_mislabelled_verdicts_are_failures(self):
        for rid, kind in (("k_positive_2", "evidence"), ("block_positivity", "violation")):
            report = copy.deepcopy(self.result.report)
            next(r for r in report["records"] if r["id"] == rid)["kind"] = kind
            bad = wl.OpResult(0.0, code=0, verify_code=0, report=report)
            self.assertTrue(any(rid in f for f in wl.findings(self.op, bad)), rid)

    def test_wrong_threshold_and_exception_are_failures(self):
        op = wl.Op(kind="threshold", seed=0, params={"n": 3, "k": 2}, label={"k": 2})
        self.assertEqual(wl.findings(op, wl.OpResult(0.0, value=2.0004)), [])
        self.assertTrue(wl.findings(op, wl.OpResult(0.0, value=2.002)))
        self.assertTrue(wl.findings(op, wl.OpResult(0.0, error="ValueError: x")))

    def test_nonzero_exit_is_a_failure(self):
        op = wl.Op(kind="cone-pq", seed=0, argv=["cone", "pq", os.path.join(TMP, "missing.json"),
                                                   "--seed", "{seed}", "--out", "{out}"])
        result = run.run_op(posmap, op, os.path.join(TMP, "never.json"), 0)
        self.assertEqual(result.code, 2)
        self.assertTrue(wl.findings(op, result))


class Documents(unittest.TestCase):
    def test_choi_matrices_match_the_named_maps(self):
        from posmap import maps

        for ours, theirs in (
            (wl.choi_qutrit_choi(), maps.choi_qutrit_map()),
            (wl.reduction_choi(1.5, 3), maps.reduction_family(1.5, 3)),
            (wl.transposition_choi(3), maps.transposition_map(3)),
        ):
            self.assertTrue((ours == theirs.choi()).all())


class Tracing(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        tracer = Tracer()
        tracer.names = ["a", "b", "c"]
        # a [0, 10] holds b [1, 4] and c [5, 6]; b holds c [2, 3]
        for sid, parent, start, end in ((0, -1, 0, 10), (1, 0, 1, 4), (2, 1, 2, 3), (2, 0, 5, 6)):
            tracer.sid.append(sid)
            tracer.parent.append(parent)
            tracer.start.append(start)
            tracer.end.append(end)
        table = tracer.layer_table()
        self.assertEqual({k: (v["calls"], v["self_s"], v["incl_s"]) for k, v in table.items()},
                         {"a": (1, 6.0, 10.0), "b": (1, 2.0, 3.0), "c": (2, 2.0, 2.0)})

    def test_install_wraps_every_namespace_and_uninstall_restores(self):
        import posmap.kpositivity as kpos
        import posmap.linalg as linalg

        original = linalg.herm_eig
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(linalg.herm_eig, original)
            self.assertIs(posmap.herm_eig, linalg.herm_eig)
            self.assertIs(kpos.herm_eig, linalg.herm_eig)
            run.np.linalg.eigh(run.np.stack([run.np.eye(3)] * 4))
            linalg.herm_eig(run.np.eye(4))
        finally:
            tracer.uninstall()
        self.assertIs(linalg.herm_eig, original)
        self.assertIs(kpos.herm_eig, original)
        table = tracer.layer_table()
        self.assertEqual(tracer.counts["numpy.eigh.matrices"], 5)
        self.assertEqual(table["numpy.eigh"]["calls"], 2)
        self.assertEqual(table["linalg.herm_eig"]["calls"], 1)

    def test_same_seed_gives_equal_counts_and_reports(self):
        passes = wl.build_corpus("cone-modular", 3, os.path.join(TMP, "corpus"))
        ops = [op for op in passes[0] if op.kind in ("cone-pq", "cone-flags", "cone-polar", "modular-verify")][:4]
        outs = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                results = [run.run_op(posmap, op, os.path.join(TMP, f"r{i}.json"), 0) for i, op in enumerate(ops)]
            finally:
                tracer.uninstall()
            for i, r in enumerate(results):
                run.load_report(r, os.path.join(TMP, f"r{i}.json"))
            calls = {k: v["calls"] for k, v in tracer.layer_table().items()}
            outs.append((run.body_digest(results), calls, tracer.counts))
        self.assertEqual(outs[0], outs[1])


class Harness(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90.0, 10))
        self.assertEqual(run.tail(list(range(1, 11))), (6, 60.0, 4))  # too few ops: above the median

    def test_fails_without_the_program(self):
        bare = os.path.join(TMP, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "threshold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
