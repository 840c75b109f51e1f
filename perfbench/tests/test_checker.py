#!/usr/bin/env python3
"""Checks that the benchmark's correctness checks can fail.

    python3 perfbench/tests/test_checker.py

Runs the harness selftest (oracle against a brute-force scorer, checker
against wrong results), then a short megabase run against an expected
file whose score is off by one, which must report "correct": false.
Run from the repository root; builds the harness if needed.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
EXPECTED = ROOT / "perfbench" / "expected" / "megabase.json"
SCRATCH = ROOT / ".perfbench" / "test"


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class CheckerTest(unittest.TestCase):
    def test_selftest_passes(self):
        done = subprocess.run(RUN + ["selftest"], cwd=ROOT,
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("selftest: PASS", done.stdout)

    def test_wrong_expected_score_fails_the_run(self):
        expected = json.loads(EXPECTED.read_text())
        entry = dict(expected["entries"][0])
        entry["score"] += 1
        SCRATCH.mkdir(parents=True, exist_ok=True)
        wrong = SCRATCH / "megabase-wrong-score.json"
        wrong.write_text(json.dumps(dict(expected, entries=[entry])))
        done = subprocess.run(
            RUN + ["--workload", "megabase", "--seed", str(entry["seed"]),
                   "--seconds", "1", "--trace", "0", "--expected", str(wrong),
                   "--out-dir", str(SCRATCH)],
            cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = last_json_line(done.stdout)
        self.assertFalse(result["correct"])
        self.assertIn("!= oracle", done.stderr)


if __name__ == "__main__":
    unittest.main()
