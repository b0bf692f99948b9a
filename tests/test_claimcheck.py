#!/usr/bin/env python3
"""Unit tests for the reproduction pipeline's data layer
(tools/nadmm_results.py): CSV series extraction and the claim
evaluator. Registered with CTest (see tests/CMakeLists.txt); runs with
the stock unittest module, no third-party deps.

The non-negotiable behavior under test: a selector that matches no row,
an unknown column, or an lhs/rhs group mismatch is a hard ClaimError —
a harness that silently passes when its data vanishes gates nothing.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))

from nadmm_results import (  # noqa: E402
    ClaimError,
    bench_entries,
    evaluate_claim,
    extract_series,
    load_bench_pairs,
    load_claims,
    load_csv,
)

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools")


def bench_json(path, isa, rows):
    """Write a Google-Benchmark JSON with `rows` = [(name, items/s)]."""
    with open(path, "w") as f:
        json.dump({"context": {"nadmm_isa": isa} if isa else {},
                   "benchmarks": [{"name": n, "run_type": "iteration",
                                   "items_per_second": ips}
                                  for n, ips in rows]}, f)

ROWS = [
    {"solver": "newton-admm", "dataset": "mnist", "workers": "1",
     "epoch": "4.0", "acc": "0.97"},
    {"solver": "newton-admm", "dataset": "mnist", "workers": "8",
     "epoch": "1.0", "acc": "0.97"},
    {"solver": "giant", "dataset": "mnist", "workers": "1",
     "epoch": "6.0", "acc": "0.96"},
    {"solver": "giant", "dataset": "mnist", "workers": "8",
     "epoch": "2.0", "acc": "0.96"},
    {"solver": "newton-admm", "dataset": "higgs", "workers": "1",
     "epoch": "0.4", "acc": "0.74"},
    {"solver": "newton-admm", "dataset": "higgs", "workers": "8",
     "epoch": "0.1", "acc": "0.74"},
    {"solver": "giant", "dataset": "higgs", "workers": "1",
     "epoch": "0.9", "acc": "0.73"},
    {"solver": "giant", "dataset": "higgs", "workers": "8",
     "epoch": "0.3", "acc": "0.73"},
]


class ExtractSeriesTest(unittest.TestCase):
    def test_selector_and_grouping(self):
        series = extract_series(ROWS, "epoch", {"workers": "8"},
                                group_by=("solver", "dataset"))
        self.assertEqual(series[("newton-admm", "mnist")], 1.0)
        self.assertEqual(series[("giant", "higgs")], 0.3)
        self.assertEqual(len(series), 4)

    def test_empty_selection_is_an_error_not_a_pass(self):
        with self.assertRaises(ClaimError):
            extract_series(ROWS, "epoch", {"workers": "16"})

    def test_unknown_column_is_an_error(self):
        with self.assertRaises(ClaimError):
            extract_series(ROWS, "epoch", {"solvr": "giant"})
        with self.assertRaises(ClaimError):
            extract_series(ROWS, "wall_seconds", {"workers": "8"})

    def test_ambiguous_selection_is_an_error(self):
        # workers=8 matches one row per (solver, dataset); without the
        # dataset in the key two rows collide.
        with self.assertRaises(ClaimError):
            extract_series(ROWS, "epoch", {"workers": "8"},
                           group_by=("solver",))

    def test_non_numeric_metric_is_an_error(self):
        with self.assertRaises(ClaimError):
            extract_series(ROWS, "solver", {"workers": "8", "solver": "giant",
                                            "dataset": "mnist"})


class EvaluateClaimTest(unittest.TestCase):
    def ordering(self, relation="<", metric="epoch"):
        return {
            "id": "c", "title": "t", "figure": "f", "kind": "ordering",
            "metric": metric, "group_by": ["solver", "dataset"],
            "lhs": {"workers": "8"}, "rhs": {"workers": "1"},
            "relation": relation,
        }

    def test_ordering_pass_and_fail(self):
        result = evaluate_claim(self.ordering("<"), ROWS)
        self.assertTrue(result["passed"])
        self.assertEqual(len(result["groups"]), 4)
        result = evaluate_claim(self.ordering(">"), ROWS)
        self.assertFalse(result["passed"])
        self.assertTrue(all(not g["passed"] for g in result["groups"]))

    def test_ordering_group_mismatch_is_an_error(self):
        claim = self.ordering()
        claim["lhs"] = {"workers": "8", "solver": "giant"}
        claim["group_by"] = ["dataset"]
        # rhs still covers both solvers per dataset -> ambiguous rows.
        with self.assertRaises(ClaimError):
            evaluate_claim(claim, ROWS)

    def test_ratio_bounds(self):
        claim = {
            "id": "r", "title": "t", "figure": "f", "kind": "ratio",
            "metric": "epoch", "group_by": ["solver", "dataset"],
            "num": {"workers": "1"}, "den": {"workers": "8"}, "min": 3.0,
        }
        result = evaluate_claim(claim, ROWS)  # ratios 4, 3, 4, 3
        self.assertTrue(result["passed"])
        claim["min"] = 3.5
        result = evaluate_claim(claim, ROWS)
        self.assertFalse(result["passed"])
        failed = [g for g in result["groups"] if not g["passed"]]
        self.assertEqual(len(failed), 2)  # both giant ratios are 3.0

    def test_ratio_missing_bounds_is_an_error(self):
        claim = {
            "id": "r", "title": "t", "figure": "f", "kind": "ratio",
            "metric": "epoch", "group_by": ["solver", "dataset"],
            "num": {"workers": "1"}, "den": {"workers": "8"},
        }
        with self.assertRaises(ClaimError):
            evaluate_claim(claim, ROWS)

    def test_threshold(self):
        claim = {
            "id": "t", "title": "t", "figure": "f", "kind": "threshold",
            "metric": "acc", "group_by": ["solver", "dataset"],
            "select": {"workers": "8"}, "min": 0.7,
        }
        self.assertTrue(evaluate_claim(claim, ROWS)["passed"])
        claim["min"] = 0.95
        result = evaluate_claim(claim, ROWS)
        self.assertFalse(result["passed"])  # higgs accuracies are ~0.74

    def test_missing_selector_field_is_an_error(self):
        claim = self.ordering()
        del claim["rhs"]
        with self.assertRaises(ClaimError):
            evaluate_claim(claim, ROWS)


class LoadersTest(unittest.TestCase):
    def test_load_csv_round_trip_and_empty_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w") as f:
                f.write("a,b\n1,x\n2,y\n")
            rows = load_csv(path)
            self.assertEqual(rows, [{"a": "1", "b": "x"},
                                    {"a": "2", "b": "y"}])
            with open(path, "w") as f:
                f.write("a,b\n")
            with self.assertRaises(ClaimError):
                load_csv(path)

    def test_load_claims_validates_structure(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "claims.toml")
            with open(path, "w") as f:
                f.write('[[claim]]\nid = "a"\ntitle = "t"\n'
                        'figure = "f"\nkind = "ratio"\nmetric = "m"\n')
            self.assertEqual(len(load_claims(path)), 1)
            with open(path, "a") as f:  # duplicate id
                f.write('[[claim]]\nid = "a"\ntitle = "t"\n'
                        'figure = "f"\nkind = "threshold"\nmetric = "m"\n')
            with self.assertRaises(ClaimError):
                load_claims(path)
            with open(path, "w") as f:  # bad kind
                f.write('[[claim]]\nid = "a"\ntitle = "t"\n'
                        'figure = "f"\nkind = "sideways"\nmetric = "m"\n')
            with self.assertRaises(ClaimError):
                load_claims(path)

    def test_bench_entries_requires_both_sides(self):
        pairs = {("BM_Gemv", 2, None): {"engine": 200.0, "seed": 100.0},
                 ("BM_Axpy", 2, None): {"engine": 50.0}}
        entries = bench_entries(pairs)
        self.assertEqual(len(entries), 1)
        self.assertEqual(entries[0]["speedup"], 2.0)
        self.assertNotIn("param", entries[0])
        self.assertNotIn("isa", entries[0])

    def test_named_bench_args_are_params_not_threads(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "b.json")
            bench_json(path, None, [
                ("BM_Gemv_Engine/4", 4.0), ("BM_Gemv_Seed/4", 2.0),
                ("BM_Loss_Engine/loss_pct:5", 1.0),
                ("BM_Loss_Seed/loss_pct:5", 4.0),
                ("BM_Loss_Engine/loss_pct:0", 3.0),
                ("BM_Loss_Seed/loss_pct:0", 4.0)])
            pairs = load_bench_pairs(path)
        self.assertEqual(sorted(pairs, key=str),
                         [("BM_Gemv", 4, None), ("BM_Loss", 1, 0),
                          ("BM_Loss", 1, 5)])
        entries = bench_entries(pairs, "avx2")
        self.assertEqual([(e["kernel"], e["threads"], e.get("param"))
                          for e in entries],
                         [("BM_Gemv", 4, None), ("BM_Loss", 1, 0),
                          ("BM_Loss", 1, 5)])
        self.assertEqual({e["isa"] for e in entries}, {"avx2"})
        self.assertEqual(entries[2]["speedup"], 0.25)


class PerfSmokeTest(unittest.TestCase):
    """tools/perf_smoke.py gates only the baseline entries recorded on
    the rung the bench ran on, and names every entry it skips."""

    def run_smoke(self, tmp, isa, engine_ips):
        run = os.path.join(tmp, "run.json")
        bench_json(run, isa, [("BM_Gemm_Engine/1", engine_ips),
                              ("BM_Gemm_Seed/1", 1.0)])
        return subprocess.run(
            [sys.executable, os.path.join(TOOLS, "perf_smoke.py"), run,
             "--baseline", os.path.join(tmp, "base.json")],
            capture_output=True, text=True)

    def test_only_entries_of_the_running_rung_are_gated(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "base.json"), "w") as f:
                json.dump({"entries": [
                    {"kernel": "BM_Gemm", "threads": 1, "isa": "avx512",
                     "speedup": 4.0},
                    {"kernel": "BM_Gemm", "threads": 1, "isa": "scalar",
                     "speedup": 1.5}]}, f)
            ok = self.run_smoke(tmp, "scalar", 1.4)
            self.assertEqual(ok.returncode, 0, ok.stderr)
            self.assertIn("skip BM_Gemm (threads=1): recorded on avx512 "
                          "rung, this run is on scalar", ok.stdout)
            slow = self.run_smoke(tmp, "avx512", 2.0)
            self.assertEqual(slow.returncode, 1)
            self.assertIn("recorded on scalar rung", slow.stdout)
            self.assertIn("BM_Gemm (threads=1): current 2.000 below floor "
                          "3.000", slow.stderr)

    def test_rerecording_one_rung_keeps_the_others(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.json")
            with open(base, "w") as f:
                json.dump({"entries": [
                    {"kernel": "BM_Gemm", "threads": 1, "isa": "avx2",
                     "speedup": 3.0},
                    {"kernel": "BM_Gemm", "threads": 1, "isa": "scalar",
                     "speedup": 1.5}]}, f)
            run = os.path.join(tmp, "run.json")
            bench_json(run, "scalar", [("BM_Gemm_Engine/1", 2.0),
                                     ("BM_Gemm_Seed/1", 1.0)])
            subprocess.run(
                [sys.executable, os.path.join(TOOLS, "perf_smoke.py"), run,
                 "--baseline", base, "--write-baseline"],
                check=True, capture_output=True)
            with open(base) as f:
                entries = json.load(f)["entries"]
        self.assertEqual([(e["isa"], e["speedup"]) for e in entries],
                         [("avx2", 3.0), ("scalar", 2.0)])


class CommittedArtifactsTest(unittest.TestCase):
    """The committed claims file and figure CSVs must stay structurally
    sound; thresholds/values are gated by reproduce.py --smoke in CI."""

    REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

    def test_committed_claims_parse_and_cover_eight_plus(self):
        claims = load_claims(os.path.join(self.REPO, "docs", "claims.toml"))
        self.assertGreaterEqual(len(claims), 8)

    def test_async_claims_hold_against_committed_grid(self):
        claims = load_claims(os.path.join(self.REPO, "docs", "claims.toml"))
        figure = os.path.join(self.REPO, "docs", "figures",
                              "async_time_to_target.csv")
        rows = load_csv(figure)
        checked = 0
        for claim in claims:
            if claim["figure"] != "async_time_to_target":
                continue
            result = evaluate_claim(claim, rows)
            self.assertTrue(result["passed"], result)
            checked += 1
        self.assertGreaterEqual(checked, 2)


if __name__ == "__main__":
    unittest.main()
