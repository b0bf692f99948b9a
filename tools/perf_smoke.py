#!/usr/bin/env python3
"""Perf-smoke gate for the kernel engine.

Consumes the JSON emitted by `bench_kernels --benchmark_format=json`.
Every kernel is benchmarked twice in the same run — the engine version and
the seed (pre-engine, critical-section) version preserved under
la::kernels::reference — so the engine-vs-seed *speedup* per
(kernel, threads) is a same-machine ratio that transfers across runner
hardware far better than absolute timings.

A ratio only transfers between machines running the same engine rung
(la/kernels.hpp: scalar, avx2, avx512 — the widest the CPU has).
Runs that record one (bench_kernels' `nadmm_isa` context) tag every
baseline entry with it, and the check compares only the entries recorded
on the running rung; each entry it skips is printed. Benches without a
rung (async, wire, ...) record none and always compare.

Entries are keyed on (kernel, threads, param): `param` is the argument
of a bench that names it (BM_LatencySketch_Engine/batch:65536,
BM_ChannelLoss_Engine/loss_pct:5), which ran on one thread.

Alongside the ratio gate there is a *fraction-of-peak* gate: bench runs
that carry the BM_HostPeak_* probes (STREAM-style triad GB/s, fused
multiply-add GFLOP/s) record each single-thread kernel's throughput as a
fraction of whichever host resource binds it tighter — a roofline-style
max(gflops/fma_peak, gb_per_s/triad_peak). Both sides of that gate are
normalized by the *same run's* probes, so it transfers across machines
like the speedup ratio does. Entries or runs without the data skip the
gate silently (older bench binaries, non-kernel benches).

Modes:
  check (default)   compare measured speedups (and peak fractions, when
                    available) against the committed baseline
                    (BENCH_kernels.json); exit 1 if any entry regresses
                    more than `tolerance` (default 25%) below baseline.
  --write-baseline  regenerate the baseline from a bench run (entries
                    recorded on other rungs are kept).

Usage:
  bench_kernels --benchmark_format=json > bench.json
  tools/perf_smoke.py bench.json                     # gate against baseline
  tools/perf_smoke.py bench.json --write-baseline    # refresh baseline
"""

import argparse
import json
import os
import sys

from nadmm_results import (bench_entries, bench_isa, entry_key, host_peak,
                           key_order, load_bench_pairs)

BASELINE_DEFAULT = "BENCH_kernels.json"


def label(key):
    """`BM_X` or, for a named-argument bench, `BM_X/<param>`."""
    kernel, _, param = key
    return kernel if param is None else f"{kernel}/{param}"


def peak_fraction(entry, host):
    """Roofline-style fraction of host peak for one single-thread entry.

    Returns max(compute fraction, bandwidth fraction) over whichever of
    the two the entry + host data support, or None when neither does.
    The max is deliberate: a memory-bound kernel sits far from the FMA
    roof forever, so gating its *closest* roof is the meaningful check.
    Fractions cap at 1.0 — a cache-resident kernel can stream far above
    the DRAM triad roof, and *how far* above depends on the runner's
    cache size, which is exactly the machine lottery this gate avoids.
    """
    if entry.get("threads") != 1 or not host:
        return None
    fractions = []
    if entry.get("engine_gops") and host.get("fma_gflops"):
        fractions.append(entry["engine_gops"] / host["fma_gflops"])
    if entry.get("engine_gb_per_s") and host.get("triad_gb_per_s"):
        fractions.append(entry["engine_gb_per_s"] / host["triad_gb_per_s"])
    return min(max(fractions), 1.0) if fractions else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json", help="output of bench_kernels --benchmark_format=json")
    ap.add_argument("--baseline", default=BASELINE_DEFAULT)
    ap.add_argument("--bench-name", default="kernels",
                    help="label written into the baseline with "
                         "--write-baseline (e.g. 'async')")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative speedup regression (default 0.25)")
    ap.add_argument("--max-threads", type=int, default=None,
                    help="ignore entries above this thread count (set to the "
                         "runner's core count: an 8-thread ratio measured on "
                         "a 4-core machine gates nothing meaningful)")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    isa = bench_isa(args.bench_json)
    entries = bench_entries(load_bench_pairs(args.bench_json), isa)
    if args.max_threads is not None and not args.write_baseline:
        entries = [e for e in entries if e["threads"] <= args.max_threads]
    if not entries:
        print("perf_smoke: no engine/seed benchmark pairs found", file=sys.stderr)
        return 1
    host = host_peak(args.bench_json)

    if args.write_baseline:
        for e in entries:
            frac = peak_fraction(e, host)
            if frac is not None:
                e["peak_fraction"] = round(frac, 4)
        # One baseline holds one set of entries per rung: re-recording on
        # this rung keeps the entries recorded on the others.
        if isa is not None and os.path.exists(args.baseline):
            with open(args.baseline) as f:
                kept = [e for e in json.load(f)["entries"]
                        if e.get("isa") not in (None, isa)]
            entries = sorted(kept + entries, key=lambda e: (
                key_order(entry_key(e)), e.get("isa")))
        baseline = {
            "bench": args.bench_name,
            "gate": "engine-vs-seed speedup per (kernel, threads, param) "
                    "on the recorded rung (isa); "
                    "fails when measured < baseline * (1 - tolerance); "
                    "single-thread entries additionally gate roofline "
                    "fraction-of-host-peak, normalized per run by the "
                    "BM_HostPeak_* probes",
            "tolerance": args.tolerance,
            "entries": entries,
        }
        if host:
            baseline["host"] = host
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"perf_smoke: wrote {len(entries)} entries to {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    gated = []
    for e in baseline["entries"]:
        if args.max_threads is not None and e["threads"] > args.max_threads:
            continue
        if e.get("isa") != isa:
            print(f"perf_smoke: skip {label(entry_key(e))} "
                  f"(threads={e['threads']}): recorded on "
                  f"{e.get('isa') or 'an unrecorded'} rung, this run is on "
                  f"{isa or 'none'}")
            continue
        gated.append(e)
    base = {entry_key(e): e["speedup"] for e in gated}
    tolerance = args.tolerance

    failures, missing = [], []
    width = max(len(label(entry_key(e))) for e in entries)
    print(f"{'kernel':<{width}}  thr  speedup  baseline  floor")
    for e in entries:
        key = entry_key(e)
        if key not in base:
            missing.append(key)
            continue
        floor = base[key] * (1.0 - tolerance)
        status = "ok" if e["speedup"] >= floor else "REGRESSION"
        print(f"{label(key):<{width}}  {e['threads']:>3}  "
              f"{e['speedup']:>7.3f}  {base[key]:>8.3f}  {floor:>5.3f}  {status}")
        if e["speedup"] < floor:
            failures.append((key, e["speedup"], floor))

    for key in sorted(set(base) - {entry_key(e) for e in entries},
                      key=key_order):
        print(f"perf_smoke: baseline entry {label(key)} (threads={key[1]}) "
              "missing from bench run", file=sys.stderr)
        failures.append((key, 0.0, base[key]))

    # Fraction-of-peak gate: only for single-thread entries where both the
    # baseline (recorded fraction) and this run (host probes + absolute
    # columns) carry the data. Normalizing each side by its own machine's
    # probes is what makes the fraction portable.
    base_frac = {entry_key(e): e["peak_fraction"]
                 for e in gated if "peak_fraction" in e}
    frac_rows = []
    for e in entries:
        key = entry_key(e)
        measured = peak_fraction(e, host)
        if key not in base_frac or measured is None:
            continue
        floor = base_frac[key] * (1.0 - tolerance)
        frac_rows.append((key, measured, base_frac[key], floor))
    if frac_rows:
        print(f"\n{'kernel':<{width}}  thr  peak-frac  baseline  floor")
        for key, measured, base_val, floor in frac_rows:
            status = "ok" if measured >= floor else "REGRESSION"
            print(f"{label(key):<{width}}  {key[1]:>3}  {measured:>9.3f}  "
                  f"{base_val:>8.3f}  {floor:>5.3f}  {status}")
            if measured < floor:
                failures.append((key, measured, floor))
    elif base_frac and not host:
        print("perf_smoke: note: baseline has peak fractions but this run "
              "lacks BM_HostPeak_* probes; fraction gate skipped")

    if missing:
        print(f"perf_smoke: note: {len(missing)} measured pairs have no "
              f"baseline entry on this rung (new benchmarks?): "
              f"{[label(k) + f'@{k[1]}' for k in missing]}")
    if failures:
        print(f"perf_smoke: {len(failures)} kernel(s) regressed >"
              f"{tolerance:.0%} against {args.baseline}", file=sys.stderr)
        for key, measured, floor in failures:
            print(f"perf_smoke:   {label(key)} (threads={key[1]}): current "
                  f"{measured:.3f} below floor {floor:.3f}", file=sys.stderr)
        return 1
    n_gated = len(entries) - len(missing) + len(frac_rows)
    print(f"perf_smoke: all {n_gated} gated values within "
          f"{tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
