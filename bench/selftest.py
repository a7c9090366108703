"""Self-test of the benchmark: its checker, its failure accounting, and the
repeatability of its cost-model counts.

    python3 bench/selftest.py          # about three minutes

Not collected by the repository's pytest run (the file name does not match
test_*.py): two of the tests run the whole benchmark twice per workload.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402

# counts that are outputs of the cost model, not times: they must repeat
EXACT_PREFIXES = ("core.ledger.", "commlab.protocol.bits", "commlab.reduction_mismatches.",
                  "solver.breakpoints", "solver.fptas.query_constant", "serialize.bytes",
                  "sparse.candidates_", "items_per_pass")


def brute_breakpoints(ftab, ctab):
    """Distinct best responses just above every candidate slope in [0, 1),
    by full scans at exact midpoints: O(4^n), independent of any hull."""
    size = len(ftab)
    slopes = {Fraction(0)}
    for a, b in itertools.product(range(size), repeat=2):
        if ftab[b] > ftab[a]:
            s = (ctab[b] - ctab[a]) / (ftab[b] - ftab[a])
            if 0 <= s < 1:
                slopes.add(s)
    probes = sorted(slopes) + [Fraction(1)]
    out = []
    for lo, hi in zip(probes, probes[1:]):
        mid = (lo + hi) / 2
        m = ref.argmax([mid * f - c for f, c in zip(ftab, ctab)], ftab)
        if not out or out[-1][1] != m:
            out.append((lo, m))
    return out


class ReferenceTest(unittest.TestCase):
    def test_hull_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 5)
            f, c = W.monotone_tables(rng, n, granularity=rng.choice((2, 4, 64)))
            got = [(a, m) for a, m, _ in ref.breakpoints(ref.Table(f), ref.Table(c))]
            self.assertEqual(got, brute_breakpoints(f, c))

    def test_exact_conversion(self):
        import mpmath

        with mpmath.workprec(200):
            x = mpmath.mpf(1) / 3
        self.assertEqual(ref.exact(x), Fraction(x.man, 1) * Fraction(2) ** x.exp)
        self.assertEqual(ref.exact(0.1), Fraction(0.1))
        self.assertEqual(ref.parse_number((0.1).hex()), Fraction(0.1))
        self.assertEqual(ref.parse_number("-3p-2"), Fraction(-3, 4))
        self.assertEqual(ref.parse_number("7/3"), Fraction(7, 3))


class FailureAccountingTest(unittest.TestCase):
    """A tampered answer and a raising item both count as failed."""

    def _records(self, workload, state, limit):
        p = W.Pass()
        workload.run_pass(state, p)
        self.assertTrue(all(workload.verdict(r, state) for r in p.records[:limit]))
        return p.records[:limit]

    def test_raising_item_fails(self):
        p = W.Pass()
        p.run("boom", 53, lambda: 1 / 0)
        workload = W.QuerySim(0, None)
        self.assertIsInstance(p.records[0].error, ZeroDivisionError)
        self.assertFalse(workload.verdict(p.records[0], workload.setup()))

    def test_tampered_cc_answer_fails(self):
        workload = W.CCReduction(1, None)
        state = workload.setup()
        for record in self._records(workload, state, 3):
            # the complement set: far from optimal, unlike a neighbour that
            # ties at a critical value
            everything = (1 << record.output.aug.instance.n) - 1
            record.output.protocol_mask ^= everything
            record.output.br_mask ^= everything
            self.assertFalse(workload.verdict(record, state))

    def test_tampered_query_answers_fail(self):
        workload = W.QuerySim(1, None)
        state = workload.setup()
        records = self._records(workload, state, 10**6)
        kinds = set()
        for record in records:
            kind = record.item.split("/")[0]
            if kind in kinds:
                continue
            kinds.add(kind)
            out = record.output
            if kind == "value_query8":
                out.mean_queries += 1
            elif kind == "census8":
                record.output = (out[0][:-1] if len(out[0]) > 1 else out[0] + [0], out[1])
            else:
                wrong = out[0] ^ ((1 << out[3].n) - 1)
                record.output = (wrong, out[1], wrong, out[3])
            self.assertFalse(workload.verdict(record, state), record.item)
        self.assertEqual(kinds, {"demand6", "demand8", "supply6", "census8", "value_query8"})

    def test_tampered_solve_answer_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = W.Solve(1, Path(tmp))
            items = [it for it in workload.setup() if not it.name.startswith("submod_f1")]
            records = self._records(workload, items, 10**6)
        for record in records:
            report = json.loads(record.output)
            everything = (1 << report["n"]) - 1
            if "fptas" in report:
                report["fptas"]["set_mask"] ^= everything
            else:
                report["set_star_mask"] ^= everything
            record.output = json.dumps(report)
            self.assertFalse(workload.verdict(record, items), record.item)


class RepeatabilityTest(unittest.TestCase):
    """Cost-model counts of the traced run repeat exactly for one seed."""

    def test_counts_repeat(self):
        for name in W.WORKLOADS:
            runs = []
            for _ in range(2):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                     "--seconds", "0.1", "--trace", "1"],
                    capture_output=True, text=True, check=True, timeout=300,
                )
                result = json.loads(done.stdout.splitlines()[-1])
                self.assertTrue(result["correct"], name)
                runs.append({k: v["value"] for k, v in result["metrics"].items()
                             if k.startswith(EXACT_PREFIXES) or k.endswith(".calls")})
            self.assertEqual(runs[0], runs[1], name)


if __name__ == "__main__":
    unittest.main()
