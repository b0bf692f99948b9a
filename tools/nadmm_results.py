#!/usr/bin/env python3
"""Shared result-loading layer for the nadmm tooling.

Three consumers sit on top of this module:

  * tools/perf_smoke.py   — engine-vs-seed speedup gating against the
                            committed BENCH_*.json baselines,
  * tools/reproduce.py    — the paper-reproduction pipeline (figure
                            distillation + claim checking),
  * tests/test_claimcheck.py — unit tests for the extractor/evaluator.

It has no third-party dependencies (stdlib only) and never imports
matplotlib; rendering lives with the consumers.

Contents:
  Google-Benchmark JSON     load_bench_pairs(), bench_entries(), bench_isa(),
                            host_peak(), entry_key(), key_order()
  sweep report CSVs         load_csv(), distinct(), extract_series()
  claim checking            load_claims(), evaluate_claim(), ClaimError

Claim semantics (docs/claims.toml) — every claim names a `figure`
(a CSV under docs/figures/) and one of three kinds:

  ordering   value(lhs-selector)  <relation>  value(rhs-selector)
  ratio      value(num) / value(den)  within [min, max]
  threshold  value(select)            within [min, max]

With `group_by = ["solver", "dataset"]` the claim is evaluated once per
distinct combination found in the figure CSV and passes only when every
group passes. A selector that matches no row — or several — is a hard
ClaimError, never a silent pass: a renamed column or a dropped series
must fail the harness loudly.
"""

from __future__ import annotations

import csv
import json
import re

try:  # Python ≥ 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback, unused in CI
    tomllib = None

# --------------------------------------------------------------------------
# Google-Benchmark JSON (bench_kernels / bench_async / ... --benchmark_format=json)
# --------------------------------------------------------------------------

# BM_<kernel>_<Engine|Seed>/<arg>. The arg is a thread count unless the
# bench names it (`->ArgName("batch")` prints `/batch:65536`): then it is
# the entry's `param` and the pair ran on one thread.
BENCH_NAME_RE = re.compile(r"^(BM_\w+?)_(Engine|Seed)/(?:(\w+):)?(\d+)$")


def entry_key(entry):
    """(kernel, threads, param) — what a baseline entry is matched on;
    param is None for thread-count benches."""
    return (entry["kernel"], entry["threads"], entry.get("param"))


def key_order(key):
    """Sort order of entry keys: by kernel, then threads, then param."""
    kernel, threads, param = key
    return (kernel, threads, -1 if param is None else param)


def load_bench_pairs(bench_json_path):
    """Return {(kernel, threads, param): {"engine": ips, "seed": ips}}.

    Every kernel is benchmarked twice in the same run — the engine
    version and the preserved seed version — so the engine-vs-seed
    speedup per (kernel, threads, param) is a same-machine ratio that
    transfers across runner hardware far better than absolute timings.
    When the run used --benchmark_repetitions, median aggregates are
    preferred over per-iteration entries for noise robustness.
    """
    with open(bench_json_path) as f:
        data = json.load(f)
    has_aggregates = any(
        b.get("run_type") == "aggregate" for b in data.get("benchmarks", []))
    pairs = {}
    for b in data.get("benchmarks", []):
        name = b["name"]
        if has_aggregates:
            if b.get("aggregate_name") != "median":
                continue
            name = name.removesuffix("_median")
        elif b.get("run_type") == "aggregate":
            continue
        m = BENCH_NAME_RE.match(name)
        if not m:
            continue
        kernel, side, arg_name, arg = m.groups()
        if arg_name in (None, "threads"):
            key = (kernel, int(arg), None)
        else:
            key = (kernel, 1, int(arg))
        ips = b.get("items_per_second")
        if ips is None:
            # Fall back to inverse real time when items were not set.
            ips = 1.0 / b["real_time"] if b.get("real_time") else None
        if ips is None:
            continue
        sides = pairs.setdefault(key, {})
        sides[side.lower()] = ips
        # Absolute memory traffic, when the bench set bytes (optional —
        # older bench binaries and the unit-test fixtures omit it).
        bps = b.get("bytes_per_second")
        if bps is not None:
            sides[side.lower() + "_bytes"] = bps
    return pairs


def bench_entries(pairs, isa=None):
    """Flatten load_bench_pairs() output into sorted baseline entries.

    Alongside the machine-portable engine-vs-seed speedup, entries carry
    absolute engine throughput when the bench recorded it:
    `engine_gops` is giga work-items/s (flops for the gemm/spmm
    kernels, elements for softmax, nnz for the CSC build) and
    `engine_gb_per_s` is memory traffic. Absolute numbers only mean
    something next to the same run's host-peak probes — see host_peak().
    `isa`, the engine rung the run used (bench_isa()), is recorded on
    every entry when given: a ratio measured on one rung says nothing
    about another.
    """
    entries = []
    for (kernel, threads, param), sides in sorted(
            pairs.items(), key=lambda kv: key_order(kv[0])):
        if "engine" not in sides or "seed" not in sides:
            continue
        entry = {"kernel": kernel, "threads": threads}
        if param is not None:
            entry["param"] = param
        if isa is not None:
            entry["isa"] = isa
        entry.update({
            "engine_items_per_s": round(sides["engine"], 1),
            "seed_items_per_s": round(sides["seed"], 1),
            "speedup": round(sides["engine"] / sides["seed"], 3),
        })
        entry["engine_gops"] = round(sides["engine"] / 1e9, 3)
        if "engine_bytes" in sides:
            entry["engine_gb_per_s"] = round(sides["engine_bytes"] / 1e9, 3)
        entries.append(entry)
    return entries


def bench_isa(bench_json_path):
    """The engine rung a bench run used (its `nadmm_isa` context), or
    None for benches that do not record one."""
    with open(bench_json_path) as f:
        return json.load(f).get("context", {}).get("nadmm_isa")


HOST_PEAK_BENCHES = {
    "BM_HostPeak_Triad": ("triad_gb_per_s", "bytes_per_second"),
    "BM_HostPeak_Fma": ("fma_gflops", "items_per_second"),
}


def host_peak(bench_json_path):
    """Extract the host-peak probes from a bench_kernels JSON run.

    Returns {"triad_gb_per_s": ..., "fma_gflops": ..., "isa": ...} with
    only the keys the run actually contains — {} for bench binaries that
    predate the probes. The triad probe is STREAM-style sustainable
    bandwidth; the FMA probe is fused multiply-add peak on the active
    SIMD backend, i.e. the ceiling of the instruction every engine
    product chain runs on.
    """
    with open(bench_json_path) as f:
        data = json.load(f)
    out = {}
    isa = data.get("context", {}).get("nadmm_isa")
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        name = b.get("name", "").removesuffix("_median")
        if name in HOST_PEAK_BENCHES:
            key, field = HOST_PEAK_BENCHES[name]
            if b.get(field) is not None:
                out[key] = round(b[field] / 1e9, 3)
    if out and isa:
        out["isa"] = isa
    return out


# --------------------------------------------------------------------------
# Sweep-report / figure CSVs
# --------------------------------------------------------------------------


def load_csv(path):
    """Read a CSV into a list of {column: str} dicts (header row keys).

    Values stay strings; numeric interpretation happens at the point of
    use (extract_series) so selector matching can compare exact text.
    """
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ClaimError(f"{path}: no data rows")
    return rows


def distinct(rows, column):
    """Ordered distinct values of one column (first-seen order)."""
    seen = []
    for row in rows:
        if column not in row:
            raise ClaimError(f"unknown column '{column}'")
        if row[column] not in seen:
            seen.append(row[column])
    return seen


def _matches(row, selector):
    return all(str(row.get(col)) == str(val) for col, val in selector.items())


def extract_series(rows, metric, selector=None, group_by=()):
    """Return {group_key_tuple: float(metric)} for matching rows.

    `selector` filters rows by exact string equality per column;
    `group_by` columns form the key. Exactly one row must survive per
    group — zero or several raise ClaimError (a vanished series must
    never read as an empty-but-passing result).
    """
    selector = selector or {}
    for col in list(selector) + list(group_by) + [metric]:
        if rows and col not in rows[0]:
            raise ClaimError(
                f"unknown column '{col}' (have: {', '.join(rows[0])})")
    out = {}
    for row in rows:
        if not _matches(row, selector):
            continue
        key = tuple(row[c] for c in group_by)
        if key in out:
            raise ClaimError(
                f"selector {selector} matches multiple rows for group "
                f"{dict(zip(group_by, key)) or '<all>'}; add group_by or "
                "selector columns until each series point is unique")
        try:
            out[key] = float(row[metric])
        except ValueError as exc:
            raise ClaimError(f"column '{metric}' is not numeric: {exc}")
    if not out:
        raise ClaimError(f"selector {selector} matched no rows")
    return out


# --------------------------------------------------------------------------
# Claim checking
# --------------------------------------------------------------------------


class ClaimError(RuntimeError):
    """Malformed claim or missing/ambiguous data. Distinct from a claim
    FAILING: a failed claim is a result, a ClaimError is a broken
    harness and always exits non-zero."""


_RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_KINDS = ("ordering", "ratio", "threshold")


def load_claims(path):
    """Parse docs/claims.toml; returns the list of claim dicts."""
    if tomllib is None:  # pragma: no cover
        raise ClaimError("tomllib unavailable (needs Python >= 3.11)")
    with open(path, "rb") as f:
        doc = tomllib.load(f)
    claims = doc.get("claim")
    if not claims:
        raise ClaimError(f"{path}: no [[claim]] entries")
    ids = set()
    for c in claims:
        for field in ("id", "title", "figure", "kind", "metric"):
            if field not in c:
                raise ClaimError(f"claim {c.get('id', '?')}: missing '{field}'")
        if c["kind"] not in _KINDS:
            raise ClaimError(
                f"claim {c['id']}: kind must be one of {_KINDS}")
        if c["id"] in ids:
            raise ClaimError(f"duplicate claim id '{c['id']}'")
        ids.add(c["id"])
    return claims


def _bounds_ok(value, claim):
    lo, hi = claim.get("min"), claim.get("max")
    if lo is None and hi is None:
        raise ClaimError(f"claim {claim['id']}: needs 'min' and/or 'max'")
    return (lo is None or value >= lo) and (hi is None or value <= hi)


def evaluate_claim(claim, rows):
    """Evaluate one claim against a figure CSV's rows.

    Returns {"id", "passed": bool, "groups": [per-group detail dicts]}.
    Each group dict has "group" (column→value), "passed", and the
    measured "value" (ordering claims report lhs/rhs instead).
    Raises ClaimError on structural problems (see extract_series).
    """
    kind = claim["kind"]
    metric = claim["metric"]
    group_by = tuple(claim.get("group_by", ()))

    def series(selector_field):
        sel = claim.get(selector_field)
        if sel is None:
            raise ClaimError(
                f"claim {claim['id']}: kind '{kind}' needs '{selector_field}'")
        return extract_series(rows, metric, sel, group_by)

    groups = []
    if kind == "ordering":
        relation = claim.get("relation")
        if relation not in _RELATIONS:
            raise ClaimError(
                f"claim {claim['id']}: relation must be one of "
                f"{sorted(_RELATIONS)}")
        lhs, rhs = series("lhs"), series("rhs")
        if set(lhs) != set(rhs):
            raise ClaimError(
                f"claim {claim['id']}: lhs and rhs cover different groups "
                f"({sorted(set(lhs) ^ set(rhs))})")
        for key in sorted(lhs):
            ok = _RELATIONS[relation](lhs[key], rhs[key])
            groups.append({"group": dict(zip(group_by, key)), "passed": ok,
                           "lhs": lhs[key], "rhs": rhs[key]})
    elif kind == "ratio":
        num, den = series("num"), series("den")
        if set(num) != set(den):
            raise ClaimError(
                f"claim {claim['id']}: num and den cover different groups "
                f"({sorted(set(num) ^ set(den))})")
        for key in sorted(num):
            if den[key] == 0.0:
                raise ClaimError(f"claim {claim['id']}: zero denominator "
                                 f"for group {key}")
            value = num[key] / den[key]
            groups.append({"group": dict(zip(group_by, key)),
                           "passed": _bounds_ok(value, claim),
                           "value": value})
    else:  # threshold
        sel = claim.get("select", {})
        values = extract_series(rows, metric, sel, group_by)
        for key in sorted(values):
            groups.append({"group": dict(zip(group_by, key)),
                           "passed": _bounds_ok(values[key], claim),
                           "value": values[key]})

    return {"id": claim["id"], "passed": all(g["passed"] for g in groups),
            "groups": groups}
