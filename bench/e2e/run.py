#!/usr/bin/env python3
"""End-to-end benchmark: build bench_e2e, run it, report and compare sets.

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is the JSON result
      carrying exactly the metrics BENCHMARK.json lists for the mode:
      end_to_end with --trace 0, per_layer with --trace 1.
  python3 bench/e2e/run.py [--runs K] [--seed N] [--seconds S] [--out F]
      Build, then run every workload one process at a time, untraced and
      traced, with seeds N..N+K-1. Prints every metric with its unit and
      sample count; --out saves the set for --compare. Exits 1 if any
      check failed.
  python3 bench/e2e/run.py --compare A.json B.json
      Judge set B against set A with BENCHMARK.json's bounds. Exits 1 if
      any (metric, workload) got worse.
  python3 bench/e2e/run.py --self-test
      Check the --compare rules on synthetic sets.

The build goes to build-e2e/ at the repository root (bench/e2e/CMakeLists.txt
is a superproject over the root CMakeLists). Standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 170

# A change smaller than this never counts: timer and allocator noise on
# values this small.
FLOORS = {"setup_s": 0.020}
# Deterministic for a given seed: between sets run on the same seeds, any
# change at all counts.
EXACT = {"test_accuracy", "solver.epochs_to_target", "sim.time_to_target_s",
         "serve.sim_p50_latency_ms", "serve.sim_p99_latency_ms",
         "serve.sim_throughput_rps"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT} (bench/e2e builds the root CMakeLists)")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler scratch in the checkout
    steps = [["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", "4"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    """One bench_e2e process; returns (table lines, parsed result)."""
    # Two OpenMP threads for set-up (data generation, CSC build); every
    # solve pins its rank threads to one.
    env = dict(os.environ, OMP_NUM_THREADS="2")
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def spec_result(result, trace):
    """The result restricted to BENCHMARK.json's metrics for this mode."""
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    missing = {m["name"] for m in spec} - set(got)
    if missing:
        fail("bench_e2e did not report " + " ".join(sorted(missing)))
    metrics = {}
    for m in spec:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got[m['name']]['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got[m["name"]]["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def one_run(args):
    build()
    table, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(table))
    print(json.dumps(spec_result(result, args.trace)))


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def report(args):
    build()
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    sets = {"seeds": [args.seed + i for i in range(args.runs)], "workloads": {}}
    ok = True
    for w in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in sets["seeds"]:
            run = {"seed": seed, "correct": True, "attempted": 0, "failed": 0,
                   "metrics": {}}
            for trace in (0, 1):
                _, result = run_binary(w, seed, args.seconds, trace)
                spec_result(result, trace)  # same names and units as the spec
                run["correct"] &= result["correct"]
                run["attempted"] += result["attempted"]
                run["failed"] += result["failed"]
                run["metrics"].update(result["metrics"])
            runs.append(run)
            ok &= run["correct"]
        sets["workloads"][w] = runs
        print(f"\n== {w}: ops={sum(r['attempted'] for r in runs)} "
              f"failed={sum(r['failed'] for r in runs)} "
              f"correct={all(r['correct'] for r in runs)}")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            extra = ""
            if name in bounds and len(values) > 1:
                extra = f"  spread={spread(values):.3f} bound={bounds[name]['bound']}"
            print(f"  {name:36s} {statistics.median(values):14.6g} {m['unit']:10s}"
                  f" n={m['samples']}{extra}")
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1) + "\n")
    sys.exit(0 if ok else 1)


def verdict(name, better, bound, a, b, same_seeds):
    """better | same | worse | unresolved for set B against set A."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) if better == "lower" else (ma - mb)
    if name in EXACT and same_seeds:
        return "same" if a == b else ("worse" if worse_by > 0 else "better")
    if abs(mb - ma) <= FLOORS.get(name, 0.0):
        return "same"
    if spread(a) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if all_better else "unresolved"
    rel = worse_by / abs(ma) if ma else 0.0
    if rel > bound:
        return "worse"
    return "better" if rel < -bound else "same"


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same_seeds = a["seeds"] == b["seeds"]
    checks = [(m["name"], m["better"], m["bound"]) for m in SPEC["end_to_end"]]
    if same_seeds:  # otherwise the inputs differ and so may these
        checks += [(m["name"], m["better"], 0.0) for m in SPEC["per_layer"]
                   if m["name"] in EXACT]
    worse = 0
    print(f"{'workload':16s} {'metric':28s} {'A':>12s} {'B':>12s} {'change':>8s}  verdict")
    for w, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(w)
        if not runs_b:
            print(f"{w:16s} missing from {path_b}")
            worse += 1
            continue
        for name, better, bound in checks:
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            v = verdict(name, better, bound, va, vb, same_seeds)
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / abs(ma):+.1%}" if ma else "-"
            print(f"{w:16s} {name:28s} {ma:12.6g} {mb:12.6g} {change:>8s}  {v}")
            worse += v == "worse"
    sys.exit(1 if worse else 0)


def self_test():
    cases = [
        # name, better, bound, A, B, same seeds, expected
        ("time_to_target_s", "lower", 0.10, [1.0, 1.01, 0.99], [1.2, 1.21, 1.19], False, "worse"),
        ("time_to_target_s", "lower", 0.10, [1.0, 1.01, 0.99], [0.8, 0.81, 0.79], False, "better"),
        ("time_to_target_s", "lower", 0.10, [1.0, 1.01, 0.99], [1.05, 1.06, 1.04], False, "same"),
        ("test_accuracy", "higher", 0.02, [0.90, 0.91, 0.90], [0.85, 0.86, 0.85], False, "worse"),
        ("test_accuracy", "higher", 0.02, [0.90, 0.91, 0.90], [0.95, 0.96, 0.95], False, "better"),
        ("setup_s", "lower", 0.25, [0.010, 0.011, 0.010], [0.025, 0.026, 0.025], False, "same"),
        ("setup_s", "lower", 0.25, [0.100, 0.101, 0.100], [0.150, 0.151, 0.150], False, "worse"),
        ("step_wall_ms_p90", "lower", 0.10, [100, 150, 70, 120], [130, 131, 129, 132], False, "unresolved"),
        ("step_wall_ms_p90", "lower", 0.10, [100, 150, 70, 120], [60, 61, 59, 62], False, "better"),
        ("solver.epochs_to_target", "lower", 0.0, [18, 17], [19, 17], True, "worse"),
        ("solver.epochs_to_target", "lower", 0.0, [18, 17], [18, 17], True, "same"),
        ("serve.sim_throughput_rps", "higher", 0.0, [2e4], [2.1e4], True, "better"),
    ]
    bad = 0
    for name, better, bound, a, b, same, expected in cases:
        got = verdict(name, better, bound, a, b, same)
        if got != expected:
            print(f"self-test: {name} {a} -> {b}: {got}, expected {expected}")
            bad += 1
    print("self-test ok" if not bad else f"self-test FAILED ({bad})")
    sys.exit(1 if bad else 0)


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names, help="run one workload, print its JSON result")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1, help="report mode: runs per workload")
    p.add_argument("--out", help="report mode: save the set here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.compare:
        compare(*args.compare)
    elif args.workload:
        one_run(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
