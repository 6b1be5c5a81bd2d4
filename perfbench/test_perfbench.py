"""Self-tests of the benchmark's own checks and tracer.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import math
import random
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np

import unruh_teleport
import unruh_teleport.cli as cli
from unruh_teleport import InputState, UnruhParams

import check
from jobs import WEIGHTS, Job, Sweep
from tracing import Tracer, layer_table, self_times, traced
from worker import tail

FISHER_MODULE = sys.modules["unruh_teleport.fisher"]
SWEEP_MODULE = sys.modules["unruh_teleport.sweep"]
VERIFY_MODULE = sys.modules["unruh_teleport.verify"]


def _small_sweep(method: str = "fd") -> Sweep:
    return Sweep(
        estimand="r",
        norm="normalized",
        method=method,
        dyadic=(1.0, -1.0, 1.0),
        qr=WEIGHTS["bsma"][0],
        ql=WEIGHTS["bsma"][1],
        axes=(("theta", 0.0, math.pi, 5), ("r", 0.0, math.pi / 4, 6)),
        fixed={"phi": math.pi / 4},
    )


class ReferenceCheckTest(unittest.TestCase):
    def _csv_output(self, sweep: Sweep) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            (theta, t0, t1, nt), (_, r0, r1, nr) = sweep.axes
            argv = [
                "sweep", "--param", sweep.estimand, "--norm", sweep.norm,
                "--method", sweep.method, "--preset", "bell-phi-plus", "--mode", "bsma",
                "--grid", f"theta={t0!r}:{t1!r}:{nt},r={r0!r}:{r1!r}:{nr}",
                "--phi", repr(sweep.fixed["phi"]), "--out", str(out),
            ]
            self.assertEqual(cli.main(argv), 0)
            return out.read_bytes()

    def test_unchanged_output_passes_every_row(self) -> None:
        for method in ("fd", "analytic"):
            sweep = _small_sweep(method)
            job = Job("small", (), "csv", 30, sweep)
            data = self._csv_output(sweep)
            self.assertEqual(check.check_sweep(job, data, random.Random(0), sample=30), [])

    def test_perturbed_fisher_value_is_flagged(self) -> None:
        sweep = _small_sweep()
        job = Job("small", (), "csv", 30, sweep)
        lines = self._csv_output(sweep).decode().split("\n")
        cells = lines[8].split(",")
        value = float(cells[2])
        cells[2] = repr(value + 2.0 * (check.ABS_TOL + check.REL_TOL * value))
        lines[8] = ",".join(cells)
        problems = check.check_sweep(job, "\n".join(lines).encode(), random.Random(0), sample=30)
        self.assertEqual(len(problems), 1)
        self.assertIn("row 7 ", problems[0])

    def test_pure_shell_cutoff_error_is_outside_tolerance(self) -> None:
        # Near the pure shell the exact F_theta is 0.500000000008; dropping
        # the mixed term gives 0.499975000833 (ROADMAP item 2).
        sweep = replace(_small_sweep("analytic"), estimand="theta")
        reference = check.reference_fisher(sweep, {"theta": 0.01, "phi": math.pi / 4, "r": 0.0})
        self.assertFalse(check.fisher_mismatch(0.500000000008, reference))
        self.assertTrue(check.fisher_mismatch(0.499975000833, reference))

    def test_pure_shell_cutoff_failure_names_the_defect(self) -> None:
        # bell-phi-plus, wsma, theta held near pi: the package flags the row
        # pure at 1-|s|^2 = 7.9e-10 and drops the mixed term (ROADMAP item 2).
        qr, ql = WEIGHTS["wsma"]
        sweep = replace(_small_sweep(), estimand="theta", qr=qr, ql=ql)
        point = {"theta": 3.1309809536598294, "phi": 0.0, "r": math.pi / 4}
        reference = check.reference_fisher(sweep, point)
        self.assertTrue(check.fisher_mismatch(0.4999718490027001, reference))
        self.assertIn("ROADMAP item 2", check.named_defect(sweep, point, 0.4999718490027001, "true"))
        self.assertIsNone(check.named_defect(sweep, point, 0.4999718490027001, "false"))
        self.assertIsNone(check.named_defect(sweep, point, 0.49, "true"))

    def test_wrong_row_count_and_axis_are_flagged(self) -> None:
        sweep = _small_sweep()
        job = Job("small", (), "csv", 30, sweep)
        lines = self._csv_output(sweep).decode().rstrip("\n").split("\n")
        short = "\n".join(lines[:-1]) + "\n"
        self.assertIn("rows, expected 30", check.check_sweep(job, short.encode(), random.Random(0))[0])
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[3] = ",".join(cells)
        problems = check.check_sweep(job, ("\n".join(lines) + "\n").encode(), random.Random(0))
        self.assertTrue(any("axis columns" in p for p in problems))

    def test_verify_report_needs_pass_and_gated_count(self) -> None:
        good = b"verification report: trials=1 seed=1\nresult: PASS (23 gated checks)\n"
        self.assertEqual(check.verify_gated_count(good, 0), (23, []))
        fewer = good.replace(b"23", b"22")
        self.assertTrue(check.verify_gated_count(fewer, 0)[1])
        failed = good.replace(b"PASS", b"FAIL")
        self.assertTrue(check.verify_gated_count(failed, 2)[1])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self) -> None:
        # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8].
        start = np.array([0.0, 1.0, 5.0, 6.0])
        end = np.array([10.0, 4.0, 9.0, 8.0])
        parent = np.array([-1, 0, 0, 2])
        np.testing.assert_allclose(self_times(end - start, parent), [3.0, 3.0, 2.0, 2.0])

    def test_layer_table_sums_per_name(self) -> None:
        tracer = Tracer()
        ids = [tracer._id(name) for name in ("a", "b", "b", "c")]
        for name_id, s, e, p in zip(ids, (0.0, 1.0, 5.0, 6.0), (10.0, 4.0, 9.0, 8.0), (-1, 0, 0, 2)):
            tracer.name_id.append(name_id)
            tracer.start.append(s)
            tracer.end.append(e)
            tracer.parent.append(p)
            tracer.job.append(0)
        table = layer_table(tracer)
        self.assertEqual(table["a"], {"calls": 1, "total_s": 10.0, "self_s": 3.0})
        self.assertEqual(table["b"], {"calls": 2, "total_s": 7.0, "self_s": 5.0})
        self.assertEqual(table["c"], {"calls": 1, "total_s": 2.0, "self_s": 2.0})


class TracedRunTest(unittest.TestCase):
    def _package_names(self) -> dict[tuple[str, str], object]:
        return {
            (module_name, key): value
            for module_name, module in list(sys.modules.items())
            if module_name == "unruh_teleport" or module_name.startswith("unruh_teleport.")
            for key, value in vars(module).items()
        }

    def test_traced_run_records_caller_names_and_restores_them(self) -> None:
        before = self._package_names()
        inits = (InputState.__init__, UnruhParams.__init__)
        original_fisher = FISHER_MODULE.fisher
        tracer = Tracer()
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["figures", "--id", "1a", "--grid", "4", "--out", str(Path(tmp) / "o.csv")]
            with traced(tracer) as missing:
                self.assertIsNot(SWEEP_MODULE.fisher, original_fisher)
                self.assertEqual(cli.main(argv), 0)
        self.assertEqual(missing, [])
        table = layer_table(tracer)
        self.assertEqual(table["cli.main"]["calls"], 1)
        self.assertEqual(table["fisher.fisher"]["calls"], 16)
        self.assertEqual(table["teleport.InputState"]["calls"], 16)
        self.assertEqual(table["sweep.emit"]["bytes"], table["sweep.render_rows"]["bytes"])

        after = self._package_names()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[key] is value for key, value in before.items()))
        self.assertIs(SWEEP_MODULE.fisher, FISHER_MODULE.fisher)
        self.assertIs(unruh_teleport.verify, VERIFY_MODULE.verify)
        self.assertIs(InputState.__init__, inits[0])
        self.assertIs(UnruhParams.__init__, inits[1])

    def test_names_are_restored_when_the_run_raises(self) -> None:
        before = self._package_names()
        with self.assertRaises(RuntimeError):
            with traced(Tracer()):
                raise RuntimeError("job crashed")
        after = self._package_names()
        self.assertTrue(all(after[key] is value for key, value in before.items()))


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_jobs_beyond_it(self) -> None:
        self.assertEqual(tail([float(i) for i in range(100, 0, -1)]), (90.0, 90.0))
        self.assertEqual(tail([float(i) for i in range(1, 41)]), (75.0, 30.0))
        self.assertEqual(tail([float(i) for i in range(1, 16)]), (100.0 * 8 / 15, 8.0))


if __name__ == "__main__":
    unittest.main()
