"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The fast tests check metric naming and that BENCHMARK.json matches what
run.py reports. With PERFBENCH_SLOW=1 the slow tests also build the CLI and
run, at the default seed: every workload against its pinned work counts,
the 6 h metro-sleep run against the ROADMAP re-anchor event counts, and
the full paper-zoo run against tests/golden/paper-default.jsonl.
"""

import json
import os
import re
import subprocess
import time
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SLOW = os.environ.get("PERFBENCH_SLOW") == "1"


class MetricNames(unittest.TestCase):
    def test_scheme_names_are_legal_and_distinct(self):
        names = [run.metric_scheme(k) for k in run.SCHEMES]
        self.assertEqual(len(set(names)), len(run.SCHEMES))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(run.metric_scheme("soi+k"), "soi-k")
        self.assertEqual(run.metric_scheme("soi+full"), "soi-full")
        self.assertEqual(run.metric_scheme("bh2+full"), "bh2-full")
        self.assertIn("bh2-nb", names)

    def test_per_layer_names_are_legal_and_distinct(self):
        units = run.per_layer_units()
        per_scheme = 3 * len(run.SCHEMES)
        probes = len(run.FABRICS) * len(run.PROBE_LINES)
        # No name may overwrite another while the dict is built.
        self.assertEqual(len(units), 23 + per_scheme + probes + len(run.EVENT_KINDS))
        for name in units:
            self.assertRegex(name, NAME)

    def test_benchmark_json_matches_the_script(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.per_layer_units())
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS["workloads"]))


class OutputChecks(unittest.TestCase):
    def test_energy_order(self):
        ok = [{"seed_index": 0, "scheme": s, "energy_kwh": e}
              for s, e in [("no-sleep", 9.0), ("soi", 4.0), ("bh2", 2.5), ("optimal", 1.5)]]
        self.assertEqual(run.energy_order_errors(ok), [])
        bad = [dict(r, energy_kwh=5.0) if r["scheme"] == "bh2" else r for r in ok]
        self.assertEqual(len(run.energy_order_errors(bad)), 1)


@unittest.skipUnless(SLOW, "set PERFBENCH_SLOW=1 to build and run the CLI")
class DefaultSeedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.build()
        cls.workdir = run.STATE / "work" / "reference"
        cls.workdir.mkdir(parents=True, exist_ok=True)

    def reference(self, name):
        ref = run.WORKLOADS["reference_runs"][name]
        tel = self.workdir / f"{name}.telemetry.jsonl"
        done = subprocess.run([str(self.binary), "run", *ref["args"], "--quiet",
                               "--telemetry", str(tel)], cwd=run.ROOT, capture_output=True)
        self.assertEqual(done.returncode, 0, done.stderr)
        return ref, done.stdout, run.sidecar_records(tel.read_text())

    def test_workloads_match_their_pins(self):
        seed = run.WORKLOADS["default_seed"]
        for name, w in run.WORKLOADS["workloads"].items():
            with self.subTest(workload=name):
                runs = run.Runs(name, w, seed, self.binary, time.perf_counter() + 600)
                runs.once(0)
                self.assertEqual(runs.errors, [])
                self.assertEqual(runs.failed, 0)

    def test_metro_sleep_reproduces_the_reanchor_event_counts(self):
        ref, _, records = self.reference("metro-sleep-6h")
        events = {}
        for r in records:
            if r["type"] == "task":
                c = r["counters"]
                events[r["scheme"]] = events.get(r["scheme"], 0) + sum(
                    c.get(k, 0) for k in run.DELIVERED_KINDS)
        self.assertEqual(events, ref["events_per_scheme"])

    def test_paper_zoo_matches_the_golden(self):
        ref, jsonl, _ = self.reference("paper-zoo-golden")
        got = [line for line in jsonl.splitlines()
               if json.loads(line)["scheme"] in ref["golden_schemes"]]
        # The golden is read, never written.
        want = (run.ROOT / ref["golden"]).read_bytes().splitlines()
        self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
