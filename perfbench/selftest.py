"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They cover the cli-mix generator's determinism, the tail-percentile rule,
self-time arithmetic on nested spans, the failure accounting, and the
reference-speed timings of forked passes.  The file name keeps them out of
the repository's pytest collection.
"""
from __future__ import annotations

import importlib.util
import json
import time
import unittest
from fractions import Fraction

import measure
import run
import tracer
import workloads


class Fixture:
    prog = None

    @classmethod
    def program(cls):
        if cls.prog is None:
            cls.prog = run.load_program(run.ROOT)
        return cls.prog


class GeneratorTest(unittest.TestCase):
    def argvs(self, seed: int, pass_index: int = 0) -> list[tuple]:
        mix = workloads.CliMix(Fixture.program(), seed, {})
        return [job.argv for job in mix.jobs(pass_index)]

    def test_same_seed_same_jobs(self):
        self.assertEqual(self.argvs(7), self.argvs(7))
        self.assertEqual(self.argvs(7, 2), self.argvs(7, 2))

    def test_other_seed_or_pass_other_jobs(self):
        self.assertNotEqual(self.argvs(7), self.argvs(8))
        self.assertNotEqual(self.argvs(7, 0), self.argvs(7, 1))

    def test_pass_composition(self):
        jobs = workloads.CliMix(Fixture.program(), 3, {}).jobs(0)
        expected = (len(workloads.CLI_MIX) + workloads.INVALID_PER_PASS + 1
                    + len(workloads.KNOWN_DEFECTS))
        self.assertEqual(len(jobs), expected)
        self.assertEqual(sum(job.expect_exit == 1 for job in jobs), 1)
        self.assertEqual(sum(bool(job.known_defect) for job in jobs),
                         len(workloads.KNOWN_DEFECTS))

    def test_catalog_order_is_the_only_seeded_part(self):
        prog = Fixture.program()
        a = workloads.CatalogSweep(prog, 1, {}).jobs(0)
        b = workloads.CatalogSweep(prog, 2, {}).jobs(0)
        self.assertEqual(sorted(j.key for j in a), sorted(j.key for j in b))
        self.assertEqual(len({j.key for j in a}), 18)

    @unittest.skipUnless(importlib.util.find_spec("pytest"),
                         "tests/conftest.py needs pytest")
    def test_reference_configs_match_the_test_suite(self):
        spec = importlib.util.spec_from_file_location(
            "suite_conftest", run.ROOT / "tests" / "conftest.py")
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)

        def plain(configs):
            return [(n, sorted(vars(p).items()), k, m)
                    for n, p, k, m in configs]

        self.assertEqual(plain(workloads.reference_configs(Fixture.program())),
                         plain(conftest.reference_configs()))


class PercentileTest(unittest.TestCase):
    def test_rule_and_sample_count(self):
        self.assertEqual(measure.tail(list(range(1, 101))), (90.0, 90, 10))
        self.assertEqual(measure.tail(list(range(1, 201))), (95.0, 190, 10))
        self.assertEqual(measure.tail(list(range(1, 1001))), (99.0, 990, 10))
        self.assertEqual(measure.tail(list(range(1, 21))), (50.0, 10, 10))

    def test_too_few_samples(self):
        self.assertIsNone(measure.tail(list(range(18))))
        self.assertIsNone(measure.tail([1.0] * 500))

    def test_ties_do_not_count_as_beyond(self):
        samples = [1.0] * 95 + [2.0] * 5
        self.assertIsNone(measure.tail(samples))


def self_times_of(spans):
    """tracer.self_times over (name, start, end, parent index) tuples."""
    names = sorted({span[0] for span in spans})
    columns = list(zip(*spans))
    return tracer.self_times(names, [names.index(n) for n in columns[0]],
                             *columns[1:])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [("a", 0.0, 10.0, -1),   # children b, c cover 3 + 4
                 ("b", 1.0, 4.0, 0),
                 ("c", 5.0, 9.0, 0),     # child d covers 1
                 ("d", 6.0, 7.0, 2),
                 ("b", 11.0, 12.5, -1)]
        own = self_times_of(spans)
        self.assertEqual(own["a"], (1, 3.0))
        self.assertEqual(own["b"], (2, 4.5))
        self.assertEqual(own["c"], (1, 3.0))
        self.assertEqual(own["d"], (1, 1.0))

    def test_overlapping_children_count_once(self):
        spans = [("root", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0),
                 ("y", 3.0, 6.0, 0), ("z", 9.0, 12.0, 0)]
        self.assertEqual(self_times_of(spans)["root"], (1, 4.0))

    def test_recorded_spans_add_up(self):
        t = tracer.Tracer()
        outer = t.enter("outer")
        for _ in range(3):
            inner = t.enter("inner")
            sum(range(1000))
            t.exit(inner)
        t.exit(outer)
        own = t.self_times()
        self.assertEqual(own["inner"][0], 3)
        self.assertEqual(list(t.parent), [-1, 0, 0, 0])
        total = own["outer"][1] + own["inner"][1]
        self.assertAlmostEqual(total, t.end[0] - t.start[0], places=9)


class FakeWorkload:
    """Jobs "fine" pass, "bad" fails its digest, "raises" crashes."""

    def run(self, prog, job, ctx):
        if job.key == "raises":
            raise ArithmeticError("boom")
        v = workloads.Verdict()
        v.check(True, "ok")
        if job.key == "bad":
            workloads.check_digest(v, {"bad": "0" * 64}, "bad",
                                   str(Fraction(1, 2)))
        return v


FAKE_JOBS = [workloads.Job("fine", expected_checks=1),
             workloads.Job("bad", expected_checks=1),
             workloads.Job("raises", expected_checks=0,
                           known_defect="crashes on purpose")]


class FailureAccountingTest(unittest.TestCase):
    def test_wrong_exit_code_fails(self):
        job = workloads.Job("j", argv=("build-krall",), expected_checks=1)
        payload = {"command": "build-krall", "operator_order": 4,
                   "expected_order": 4}
        self.assertFalse(workloads.judge_cli(job, 0, payload).failed)
        self.assertTrue(workloads.judge_cli(job, 1, payload).failed)

    def test_digest_mismatch_fails(self):
        output = {"lambda": ["1/2"]}
        good = {"k": workloads.digest(output)}
        v = workloads.Verdict()
        workloads.check_digest(v, good, "k", output)
        self.assertFalse(v.failed)
        v = workloads.Verdict()
        workloads.check_digest(v, good, "k", {"lambda": ["1/3"]})
        self.assertTrue(v.failed)

    def test_check_count_mismatch_fails(self):
        v = workloads.Verdict()
        v.check(True, "one")
        v.finish(2)
        self.assertTrue(v.failed)

    def test_pass_counts_failed_jobs(self):
        result = run.run_pass(None, FakeWorkload(), FAKE_JOBS,
                              run.Context(None))
        self.assertEqual([r.verdict.failed for r in result.results],
                         [False, True, True])
        self.assertEqual(run.tally([result]), (False, 3, 2))
        self.assertEqual(run.tally([run.PassResult(0.0, [result.results[2]])]),
                         (True, 1, 1))


class ReferenceSpeedTest(unittest.TestCase):
    @staticmethod
    def result(key: str, seconds: float, ref: float) -> run.JobResult:
        verdict = workloads.Verdict()
        verdict.check(True, "ok")
        return run.JobResult(workloads.Job(key), seconds, verdict, ref)

    def test_job_times_are_medians_at_reference_speed(self):
        r = measure.REFERENCE_S
        passes = [run.PassResult(5.0, [self.result("a", 2.0, r),
                                       self.result("b", 3.0, 2 * r)]),
                  run.PassResult(9.0, [self.result("b", 5.0, 2 * r),
                                       self.result("a", 8.0, 2 * r)]),
                  run.PassResult(4.0, [self.result("a", 1.0, r / 2),
                                       self.result("b", 1.0, r)])]
        self.assertEqual(run.job_seconds(passes), {"a": 2.0, "b": 1.5})
        values = run.end_to_end([(0.3, r), (0.2, r / 2), (0.4, 4 * r)],
                                passes)
        self.assertEqual(values["setup_s"], 0.3)
        self.assertEqual(values["wall_s"], 3.5)
        self.assertEqual(values["job_s.p50"], 1.75)
        self.assertEqual(values["checks_per_s"], 2 / 3.5)

    def test_reference_work_is_fixed(self):
        self.assertEqual(measure.reference_work(), measure.reference_work())

    def test_gauge_probes_during_a_long_call(self):
        gauge = measure.SpeedGauge(period=0.05)

        def busy():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
            return "done"

        result, seconds, ref = gauge.time(busy)
        self.assertEqual(result, "done")
        self.assertGreaterEqual(len(gauge.samples), 4)
        self.assertFalse(gauge.active)
        self.assertAlmostEqual(seconds + gauge.spent, 0.3, delta=0.05)
        self.assertGreater(ref, 0)

    def test_forked_pass_hands_back_verdicts(self):
        ctx = run.Context(None)
        result = run.forked_pass(None, FakeWorkload(), FAKE_JOBS, ctx)
        self.assertEqual(ctx.passes, 1)
        self.assertEqual([r.job.key for r in result.results],
                         ["fine", "bad", "raises"])
        self.assertEqual([r.verdict.failed for r in result.results],
                         [False, True, True])
        self.assertTrue(all(r.seconds >= 0 and r.ref_seconds > 0
                            for r in result.results))
        self.assertEqual(run.tally([result]), (False, 3, 2))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], tracer.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         workloads.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
