#!/usr/bin/env python3
"""Paper-reproduction pipeline: figures, claim checks, report.

Drives the five per-figure sweep specs (sweeps/fig1_solvers.sweep …
fig5_weak_scaling.sweep) through `nadmm sweep --resume`, distills each
figure's data series into docs/figures/<figure>.csv, renders
matplotlib-free SVG + ASCII charts, evaluates every claim in
docs/claims.toml against the distilled series, and writes the generated
docs/REPRODUCTION.md. The async time-to-target figure distills from the
committed sweeps/async_grid.csv (its objective_target is calibrated for
the committed problem size, and CI already regenerates that file
byte-for-byte), so it is never re-run here.

Everything emitted is a pure function of the sweep reports: no
timestamps, hostnames, or git state. Re-running against the same
journals reproduces docs/ byte-for-byte, which is what the CI jobs
check.

Usage:
  tools/reproduce.py                 # full scale-1 run (needs build/nadmm)
  tools/reproduce.py --scale=4 --out-dir=/tmp/repro4   # paper-scale
  tools/reproduce.py --figures=fig2_epoch_time         # subset
  tools/reproduce.py --skip-sweeps   # re-distill from existing raw CSVs
  tools/reproduce.py --smoke         # no binary: re-derive everything
                                     # from committed artifacts and fail
                                     # on any byte drift or claim
                                     # regression

Exit codes: 0 all claims pass (and, with --smoke, no drift);
1 claim failure, drift, or broken harness (ClaimError).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from nadmm_results import (  # noqa: E402
    ClaimError,
    evaluate_claim,
    load_claims,
    load_csv,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def fmt_g(value, digits=6):
    return format(float(value), f".{digits}g")


# --------------------------------------------------------------------------
# Figure distillers: raw sweep report rows -> (header, rows) of the
# committed docs/figures/<key>.csv. Raw metric strings are copied
# verbatim where possible so reruns stay byte-identical; computed
# columns (fig3 speedup) use fmt_g.
# --------------------------------------------------------------------------


def _ok(rows):
    bad = [r for r in rows if r["status"] != "ok"]
    if bad:
        raise ClaimError(
            "sweep report has failed scenarios: "
            + ", ".join(r["scenario"] for r in bad))
    return rows


def distill_fig1(raw):
    header = ["solver", "iterations", "avg_epoch_sim_seconds",
              "total_sim_seconds", "final_objective", "final_test_accuracy"]
    return header, [[r[c] for c in header] for r in _ok(raw)]


def distill_fig2(raw):
    header = ["solver", "dataset", "workers", "avg_epoch_sim_seconds"]
    return header, [[r[c] for c in header] for r in _ok(raw)]


def distill_fig3(raw):
    epochs = {}
    for r in _ok(raw):
        epochs[(r["dataset"], r["workers"], r["solver"])] = \
            r["avg_epoch_sim_seconds"]
    header = ["dataset", "workers", "newton_admm_epoch_s", "giant_epoch_s",
              "speedup"]
    rows, seen = [], set()
    for r in raw:
        key = (r["dataset"], r["workers"])
        if key in seen:
            continue
        seen.add(key)
        admm = epochs[(key[0], key[1], "newton-admm")]
        giant = epochs[(key[0], key[1], "giant")]
        rows.append([key[0], key[1], admm, giant,
                     fmt_g(float(giant) / float(admm))])
    return header, rows


def distill_fig4(raw):
    header = ["solver", "dataset", "total_sim_seconds", "final_objective",
              "final_test_accuracy"]
    return header, [[r[c] for c in header] for r in _ok(raw)]


def distill_fig5(raw):
    header = ["solver", "lambda", "workers", "n_train",
              "avg_epoch_sim_seconds"]
    rows = []
    for r in _ok(raw):
        rows.append([r["solver"], fmt_g(r["lambda"]), r["workers"],
                     r["n_train"], r["avg_epoch_sim_seconds"]])
    return header, rows


def distill_async(raw):
    header = ["solver", "network", "straggler", "iterations",
              "total_sim_seconds"]
    return header, [[r[c] for c in header] for r in _ok(raw)]


def distill_wait(raw):
    """Per-rank telemetry from the committed async grid: explode the
    ';'-joined rank_wait_seconds column into one row per rank for the
    async runtimes on wan, carrying the sparse staleness histogram
    alongside. The wait strings are copied verbatim so reruns stay
    byte-identical."""
    header = ["solver", "straggler", "rank", "wait_seconds",
              "staleness_hist"]
    rows = []
    for r in _ok(raw):
        if r["network"] != "wan" or r["solver"] == "newton-admm":
            continue
        for rank, wait in enumerate(r["rank_wait_seconds"].split(";")):
            rows.append([r["solver"], r["straggler"], str(rank), wait,
                         r["staleness_hist"]])
    return header, rows


def distill_fault(raw):
    header = ["solver", "network", "fault", "iterations", "final_objective",
              "total_sim_seconds", "retransmits", "messages_dropped"]
    return header, [[r[c] for c in header] for r in _ok(raw)]


# Chart config: how to read the distilled rows for rendering.
#   type: line (numeric x) | bar (categorical x)
#   x / series: column names; series labels join with " ".
FIGURES = [
    {
        "key": "fig1_solvers",
        "spec": "sweeps/fig1_solvers.sweep",
        "title": "Figure 1 — per-epoch solver cost, MNIST stand-in",
        "caption": (
            "Average simulated epoch cost per solver (MNIST stand-in, "
            "8 workers, eth10, λ=1e-5). Newton-ADMM's single CG+allreduce "
            "epoch is an order of magnitude cheaper than the "
            "SVRG-inner-loop epochs of InexactDANE/AIDE — the paper's "
            "Fig. 1 gap — while every solver reaches the same test "
            "accuracy."),
        "distill": distill_fig1,
        "chart": {"type": "bar", "x": ["solver"], "series": [],
                  "y": "avg_epoch_sim_seconds",
                  "ylabel": "avg epoch (sim s)"},
    },
    {
        "key": "fig2_epoch_time",
        "spec": "sweeps/fig2_epoch_time.sweep",
        "title": "Figure 2 — strong scaling: epoch time vs workers",
        "caption": (
            "Average simulated epoch time against worker count on ib100 "
            "(log y). Epoch time falls from 1 to 8 ranks for both solvers "
            "on all four dataset stand-ins; Newton-ADMM stays below GIANT "
            "throughout."),
        "distill": distill_fig2,
        "chart": {"type": "line", "x": "workers",
                  "series": ["solver", "dataset"],
                  "y": "avg_epoch_sim_seconds", "logy": True,
                  "xlabel": "workers", "ylabel": "avg epoch (sim s)"},
    },
    {
        "key": "fig3_speedup",
        "spec": "sweeps/fig3_speedup.sweep",
        "title": "Figure 3 — Newton-ADMM speedup over GIANT",
        "caption": (
            "Per-epoch cost ratio epoch_GIANT / epoch_NADMM on eth10 "
            "under a fixed 8-epoch budget (the fixed-budget proxy for the "
            "paper's time-to-θ speedup — see Deviations). Ratio > 1 "
            "everywhere: one allreduce per epoch instead of two."),
        "distill": distill_fig3,
        "chart": {"type": "line", "x": "workers", "series": ["dataset"],
                  "y": "speedup", "xlabel": "workers",
                  "ylabel": "speedup (×)"},
    },
    {
        "key": "fig4_sgd",
        "spec": "sweeps/fig4_sgd.sweep",
        "title": "Figure 4 — Newton-ADMM vs synchronous SGD",
        "caption": (
            "Total simulated time for a 20-epoch budget on eth10. "
            "Sync-SGD pays an allreduce per minibatch, so Newton-ADMM "
            "finishes faster and lands on a better objective and test "
            "accuracy on every dataset stand-in."),
        "distill": distill_fig4,
        "chart": {"type": "bar", "x": ["dataset"], "series": ["solver"],
                  "y": "total_sim_seconds",
                  "ylabel": "total sim time (s)"},
    },
    {
        "key": "fig5_weak_scaling",
        "spec": "sweeps/fig5_weak_scaling.sweep",
        "title": "Figure 5 — weak scaling on E18",
        "caption": (
            "Epoch time with a fixed per-worker shard (E18 stand-in, "
            "ib100, λ ∈ {1e-3, 1e-5}). Per-rank load is constant along "
            "the x-axis, so growth is pure communication; 8-rank "
            "weak-scaling efficiency stays above 0.6 and Newton-ADMM's "
            "epochs stay cheaper than GIANT's at both λ."),
        "distill": distill_fig5,
        "chart": {"type": "line", "x": "workers",
                  "series": ["solver", "lambda"],
                  "y": "avg_epoch_sim_seconds", "xlabel": "workers",
                  "ylabel": "avg epoch (sim s)"},
    },
    {
        "key": "async_time_to_target",
        "spec": None,  # distilled from the committed async-grid report
        "raw": "sweeps/async_grid.csv",
        "title": "Async consensus — time to objective target",
        "caption": (
            "Simulated time for each ADMM runtime to reach the shared "
            "objective target across interconnects and straggler "
            "injection (from the committed sweeps/async_grid.csv). "
            "Synchronous Newton-ADMM wins on a clean ib100 cluster; "
            "stale-consensus async-admm wins under wan latency plus a "
            "4× straggler."),
        "distill": distill_async,
        "chart": {"type": "bar", "x": ["network", "straggler"],
                  "series": ["solver"], "y": "total_sim_seconds",
                  "ylabel": "time to target (sim s)"},
    },
    {
        "key": "rank_wait_breakdown",
        "spec": None,  # distilled from the committed async-grid report
        "raw": "sweeps/async_grid.csv",
        "title": "Rank wait-time breakdown — async runtimes on wan",
        "caption": (
            "Cumulative per-rank wait time from the telemetry metrics "
            "(rank_wait_seconds in the committed sweeps/async_grid.csv), "
            "async runtimes on wan. With rank 1 injected as a 4× "
            "straggler, the straggler itself waits the *least*: it is "
            "always the last to arrive, so its fast peers absorb the "
            "idle time — bounded by the staleness window rather than a "
            "full barrier. The staleness_hist column records how stale "
            "the consensus inputs actually were."),
        "distill": distill_wait,
        "chart": {"type": "bar", "x": ["solver", "straggler"],
                  "series": ["rank"], "y": "wait_seconds",
                  "ylabel": "cumulative wait (sim s)"},
    },
    {
        "key": "fault_tolerance",
        "spec": None,  # distilled from the committed fault-grid report
        "raw": "sweeps/fault_grid.csv",
        "title": "Fault tolerance — time to target under link faults",
        "caption": (
            "Simulated time for the async runtimes to reach the shared "
            "objective target while the reliable channel injects frame "
            "loss, duplication, and reordering (from the committed "
            "sweeps/fault_grid.csv). Every faulty scenario still reaches "
            "the target with retransmits > 0 — recovery, not luck — and "
            "the extra time over the fault-free bar is the latency cost "
            "of ack/timeout retransmission, largest on the "
            "high-latency wan."),
        "distill": distill_fault,
        "chart": {"type": "bar", "x": ["network", "fault"],
                  "series": ["solver"], "y": "total_sim_seconds",
                  "ylabel": "time to target (sim s)"},
    },
]


# --------------------------------------------------------------------------
# Matplotlib-free renderers
# --------------------------------------------------------------------------


def _svg_header(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]


def _y_axis(parts, lo, hi, ticks, plot, ylabel, fmt=fmt_g):
    left, top, right, bottom = plot
    for value, y in ticks:
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{right}" '
                     f'y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{fmt(value, 3)}</text>')
    parts.append(f'<text x="14" y="{(top + bottom) / 2:.1f}" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{(top + bottom) / 2:.1f})">{ylabel}</text>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" '
                 f'y2="{bottom}" stroke="black"/>')


def _legend(parts, labels, x, top):
    for i, label in enumerate(labels):
        y = top + 18 * i
        parts.append(f'<rect x="{x}" y="{y}" width="12" height="12" '
                     f'fill="{PALETTE[i % len(PALETTE)]}"/>')
        parts.append(f'<text x="{x + 18}" y="{y + 10}">{label}</text>')


def svg_line_chart(series, title, xlabel, ylabel, logy=False):
    """series: ordered {label: [(x, y), ...]} with numeric x, y > 0."""
    import math
    width, height = 880, 420
    left, top, right, bottom = 70, 40, 600, height - 50
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    if logy:
        lo = math.floor(math.log10(min(ys)))
        hi = math.ceil(math.log10(max(ys)))
        if lo == hi:
            hi += 1
        to_frac = lambda v: (math.log10(v) - lo) / (hi - lo)
        tick_values = [10.0 ** p for p in range(lo, hi + 1)]
    else:
        lo, hi = 0.0, max(ys) * 1.05
        to_frac = lambda v: (v - lo) / (hi - lo)
        tick_values = [lo + (hi - lo) * i / 5 for i in range(6)]
    y_px = lambda v: bottom - to_frac(v) * (bottom - top)
    x_px = lambda v: left + (right - left) * (
        0.5 if len(xs) == 1 else (xs.index(v) / (len(xs) - 1)))

    parts = _svg_header(width, height, title)
    _y_axis(parts, lo, hi, [(v, y_px(v)) for v in tick_values],
            (left, top, right, bottom), ylabel)
    for x in xs:
        parts.append(f'<text x="{x_px(x):.1f}" y="{bottom + 18}" '
                     f'text-anchor="middle">{fmt_g(x)}</text>')
    parts.append(f'<text x="{(left + right) / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle">{xlabel}</text>')
    for i, (label, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{x_px(x):.1f},{y_px(y):.1f}"
                          for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{x_px(x):.1f}" cy="{y_px(y):.1f}" '
                         f'r="3" fill="{color}"/>')
    _legend(parts, list(series), right + 20, top)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_bar_chart(categories, series, title, ylabel):
    """categories: [label, ...]; series: ordered {label: [value per cat]}."""
    width, height = 880, 420
    left, top, right, bottom = 70, 40, 600, height - 50
    ys = [v for vals in series.values() for v in vals]
    hi = max(ys) * 1.05
    y_px = lambda v: bottom - (v / hi) * (bottom - top)
    ncat, nser = len(categories), len(series)
    slot = (right - left) / ncat
    bar = slot / (nser + 1)

    parts = _svg_header(width, height, title)
    _y_axis(parts, 0.0, hi,
            [(hi * i / 5, y_px(hi * i / 5)) for i in range(6)],
            (left, top, right, bottom), ylabel)
    for c, cat in enumerate(categories):
        parts.append(f'<text x="{left + slot * (c + 0.5):.1f}" '
                     f'y="{bottom + 18}" text-anchor="middle">{cat}</text>')
        for s, vals in enumerate(series.values()):
            x = left + slot * c + bar * (s + 0.5)
            y = y_px(vals[c])
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar:.1f}" '
                f'height="{bottom - y:.1f}" '
                f'fill="{PALETTE[s % len(PALETTE)]}"/>')
    _legend(parts, list(series), right + 20, top)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(fig, rows):
    chart = fig["chart"]
    y = chart["y"]
    if chart["type"] == "line":
        series = {}
        for r in rows:
            label = " ".join(r[c] for c in chart["series"]) or y
            series.setdefault(label, []).append(
                (float(r[chart["x"]]), float(r[y])))
        return svg_line_chart(series, fig["title"], chart["xlabel"],
                              chart["ylabel"], logy=chart.get("logy", False))
    categories, series = [], {}
    for r in rows:
        cat = " ".join(r[c] for c in chart["x"])
        if cat not in categories:
            categories.append(cat)
        label = " ".join(r[c] for c in chart["series"]) or y
        series.setdefault(label, {})[cat] = float(r[y])
    table = {label: [vals[c] for c in categories]
             for label, vals in series.items()}
    return svg_bar_chart(categories, table, fig["title"], chart["ylabel"])


def render_ascii(fig, rows, width=40):
    chart = fig["chart"]
    y = chart["y"]
    labelled = []
    for r in rows:
        cols = (chart["series"] if chart["type"] == "line"
                else chart["x"] + chart["series"])
        label_bits = [r[c] for c in cols]
        if chart["type"] == "line":
            label_bits.append(f"{chart['x']}={r[chart['x']]}")
        labelled.append(("  ".join(label_bits), float(r[y])))
    peak = max(v for _, v in labelled)
    pad = max(len(l) for l, _ in labelled)
    lines = [f"{label:<{pad}} | "
             f"{'#' * max(1, round(v / peak * width)):<{width}} {fmt_g(v)}"
             for label, v in labelled]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------


def run_sweep(fig, args, raw_csv):
    cmd = [args.binary, "sweep", f"--spec={os.path.join(REPO, fig['spec'])}",
           f"--jobs={args.jobs}", f"--out={raw_csv}", "--resume", "--quiet"]
    if args.scale != 1.0:
        cmd.append(f"--scale={fmt_g(args.scale)}")
    print(f"reproduce: {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True)


def journal_meta(raw_csv):
    journal = raw_csv + ".journal.jsonl"
    with open(journal) as f:
        head = json.loads(f.readline())
    return {"fingerprint": head["fingerprint"],
            "scenarios": head["scenarios"]}


def spec_seed(spec_path):
    with open(spec_path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line.startswith("seed"):
                return int(line.split("=", 1)[1])
    return 42  # ExperimentConfig default


def write_csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def md_table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(out)


def claim_describe(claim):
    kind, metric = claim["kind"], claim["metric"]
    group = ", ".join(claim.get("group_by", ())) or "all rows"
    if kind == "ordering":
        return (f"{metric}({_sel(claim['lhs'])}) {claim['relation']} "
                f"{metric}({_sel(claim['rhs'])}) per ({group})")
    if kind == "ratio":
        return (f"{metric}({_sel(claim['num'])}) / "
                f"{metric}({_sel(claim['den'])}) {_bounds(claim)} "
                f"per ({group})")
    return f"{metric} {_bounds(claim)} per ({group})"


def _sel(selector):
    return ", ".join(f"{k}={v}" for k, v in selector.items()) or "*"


def _bounds(claim):
    lo, hi = claim.get("min"), claim.get("max")
    if lo is not None and hi is not None:
        return f"in [{lo}, {hi}]"
    return f">= {lo}" if lo is not None else f"<= {hi}"


def build_report(figures, metadata, claims, results, artifacts):
    """Assemble REPRODUCTION.md from distilled figures + claim results."""
    md = []
    md.append("# Reproduction report")
    md.append("")
    md.append("> Generated by `tools/reproduce.py` — do not edit by hand. "
              "Regenerate with `python3 tools/reproduce.py` (full run, "
              "needs `build/nadmm`) or validate the committed artifacts "
              "with `python3 tools/reproduce.py --smoke`.")
    md.append("")
    md.append("Simulated reproduction of the paper's figures: every metric "
              "is deterministic simulated time (device roofline + α–β "
              "network model), not wall time, so the numbers are "
              "machine-independent and byte-stable across reruns. Dataset "
              "stand-ins are generated synthetically at the committed "
              "sizes; `--scale` grows them toward paper scale.")
    md.append("")

    md.append("## Provenance")
    md.append("")
    rows = []
    for fig in figures:
        meta = metadata[fig["key"]]
        rows.append([fig["key"], meta["source"], str(meta["seed"]),
                     str(meta["scenarios"]), meta["fingerprint"]])
    md.append(md_table(
        ["figure", "source", "seed", "scenarios", "journal fingerprint"],
        rows))
    md.append("")
    md.append(f"Scale: **{fmt_g(metadata['scale'])}** "
              "(sample-count multiplier over the committed spec sizes; "
              "each scale keeps its own resume journal).")
    md.append("")

    md.append("## Claim check")
    md.append("")
    claim_rows = []
    for claim, result in zip(claims, results):
        n = len(result["groups"])
        status = "PASS" if result["passed"] else "**FAIL**"
        claim_rows.append([claim["id"], claim["figure"], claim["title"],
                           claim_describe(claim),
                           f"{status} ({n} group{'s' if n != 1 else ''})"])
    md.append(md_table(
        ["id", "figure", "claim", "assertion", "result"], claim_rows))
    md.append("")
    passed = sum(1 for r in results if r["passed"])
    md.append(f"**{passed}/{len(results)} claims pass.** A FAIL here is a "
              "regression against the paper's qualitative results; the "
              "thresholds are calibrated with margin at scale 1 (see "
              "docs/claims.toml).")
    md.append("")

    md.append("## Figures")
    for fig in figures:
        header, rows = artifacts[fig["key"]]
        md.append("")
        md.append(f"### {fig['title']}")
        md.append("")
        md.append(f"![{fig['key']}](figures/{fig['key']}.svg)")
        md.append("")
        md.append(fig["caption"])
        md.append("")
        md.append("```text")
        md.append(render_ascii(fig, [dict(zip(header, r)) for r in rows]))
        md.append("```")
        md.append("")
        md.append(f"Data: [figures/{fig['key']}.csv]"
                  f"(figures/{fig['key']}.csv)")
        md.append("")
        md.append("<details><summary>data table</summary>")
        md.append("")
        md.append(md_table(header, rows))
        md.append("")
        md.append("</details>")

    md.append("")
    md.append("## Deviations from the paper")
    md.append("")
    md.append(
        "- **Synthetic stand-ins.** HIGGS / MNIST / CIFAR-10 / E18 are "
        "generated surrogates matching the paper's shapes "
        "(dimensionality, conditioning), not the real datasets; absolute "
        "objectives differ, orderings are what the claims assert.")
    md.append(
        "- **Simulated time.** All timings are simulated seconds from the "
        "device roofline + α–β network model, not wall-clock GPU time.")
    md.append(
        "- **Figure 3 proxy.** The paper reports t_GIANT/t_NADMM to reach "
        "a relative-error threshold from solver traces; the sweep report "
        "carries final metrics only, so Figure 3 plots the per-epoch cost "
        "ratio under a fixed 8-epoch budget instead.")
    md.append(
        "- **Figure 2 network.** Strong scaling runs on ib100: at the "
        "committed sample counts the eth10/wan problems are latency-bound "
        "and epoch time *grows* with worker count (see "
        "sweeps/fig2_epoch_time.sweep), which would invert the paper's "
        "figure. "
        "Raising --scale moves the crossover back toward slower networks.")
    md.append(
        "- **Figure 1 budget.** InexactDANE/AIDE epochs are ~16× costlier "
        "in *simulated* time and dominate *host* time too, so Figure 1 "
        "trains a reduced split for 5 epochs; the epoch-cost ratios the "
        "claims assert are budget-independent.")
    md.append(
        "- **Async grid.** The async time-to-target and rank-wait "
        "figures read the committed sweeps/async_grid.csv (its "
        "objective target is calibrated to the committed problem size) "
        "and do not scale with --scale.")
    md.append("")
    return "\n".join(md)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="sample-count multiplier passed to nadmm sweep")
    ap.add_argument("--jobs", type=int, default=8)
    ap.add_argument("--binary", default=os.path.join(REPO, "build", "nadmm"))
    ap.add_argument("--out-dir", default=os.path.join(REPO, "docs"),
                    help="report root (default: docs/; point elsewhere for "
                         "scale != 1 so committed scale-1 artifacts stay "
                         "untouched)")
    ap.add_argument("--figures", default="",
                    help="comma-separated figure keys to (re)run; empty = all")
    ap.add_argument("--skip-sweeps", action="store_true",
                    help="distill/render/check from existing raw CSVs")
    ap.add_argument("--smoke", action="store_true",
                    help="no binary: regenerate figures/report from "
                         "committed artifacts, byte-compare, check claims")
    args = ap.parse_args()

    docs = args.out_dir
    fig_dir = os.path.join(docs, "figures")
    raw_dir = os.path.join(fig_dir, "raw")
    os.makedirs(raw_dir, exist_ok=True)

    wanted = [f.strip() for f in args.figures.split(",") if f.strip()]
    figures = [f for f in FIGURES if not wanted or f["key"] in wanted]
    if wanted and len(figures) != len(wanted):
        known = {f["key"] for f in FIGURES}
        sys.exit(f"reproduce: unknown figure(s): "
                 f"{sorted(set(wanted) - known)}")

    drift = []

    def emit(path, text):
        """Write text, or byte-compare against the committed file in
        smoke mode (recording drift instead of writing)."""
        if args.smoke:
            try:
                with open(path, newline="") as f:
                    committed = f.read()
            except FileNotFoundError:
                drift.append(f"{os.path.relpath(path, REPO)}: missing")
                return
            if committed != text:
                drift.append(f"{os.path.relpath(path, REPO)}: differs from "
                             "regenerated content")
            return
        with open(path, "w", newline="") as f:
            f.write(text)

    # 1. run sweeps + distill + render
    if args.smoke:
        metadata = json.load(open(os.path.join(fig_dir, "metadata.json")))
    else:
        metadata = {"scale": args.scale}
    artifacts = {}
    for fig in figures:
        if fig["spec"] is None:
            raw_csv = os.path.join(REPO, fig["raw"])
        else:
            raw_csv = os.path.join(
                raw_dir, f"{fig['key']}@s{fmt_g(args.scale)}.csv")
            if not args.smoke and not args.skip_sweeps:
                run_sweep(fig, args, raw_csv)
        if args.smoke and fig["spec"] is not None:
            # Smoke re-derives only figures whose raw input is committed;
            # the sweep-backed ones are validated claim-side below.
            artifacts[fig["key"]] = load_committed(fig_dir, fig["key"])
            continue
        header, rows = fig["distill"](load_csv(raw_csv))
        artifacts[fig["key"]] = (header, rows)
        emit(os.path.join(fig_dir, f"{fig['key']}.csv"),
             write_csv_text(header, rows))
        if not args.smoke:
            meta = ({"source": fig["spec"], **journal_meta(raw_csv),
                     "seed": spec_seed(os.path.join(REPO, fig["spec"]))}
                    if fig["spec"] is not None else
                    {"source": fig["raw"] + " (committed report)",
                     "fingerprint": "-", "scenarios": len(rows),
                     "seed": 42})
            metadata[fig["key"]] = meta

    for fig in figures:
        header, rows = artifacts[fig["key"]]
        emit(os.path.join(fig_dir, f"{fig['key']}.svg"),
             render_svg(fig, [dict(zip(header, r)) for r in rows]))

    if not args.smoke and not wanted:
        emit(os.path.join(fig_dir, "metadata.json"),
             json.dumps(metadata, indent=2, sort_keys=True) + "\n")

    # 2. claims (always the committed file — claims are an input, the
    # out-dir holds outputs; subset runs check only the figures in play
    # and the full report below is skipped then, so the table never lies)
    claims = load_claims(os.path.join(REPO, "docs", "claims.toml"))
    if wanted:
        claims = [c for c in claims if c["figure"] in artifacts]
    results = []
    for claim in claims:
        header, rows = artifacts.get(claim["figure"]) or load_committed(
            fig_dir, claim["figure"])
        results.append(evaluate_claim(
            claim, [dict(zip(header, r)) for r in rows]))

    failures = [r for r in results if not r["passed"]]
    for result in results:
        mark = "PASS" if result["passed"] else "FAIL"
        print(f"reproduce: [{mark}] {result['id']} "
              f"({len(result['groups'])} groups)")
        if not result["passed"]:
            for g in result["groups"]:
                if not g["passed"]:
                    print(f"reproduce:        failed group: {g}")

    # 3. report (only when every figure is in play, else the table lies)
    if not wanted:
        emit(os.path.join(docs, "REPRODUCTION.md"),
             build_report(FIGURES, metadata, claims, results, artifacts))

    if drift:
        print("reproduce: committed artifacts drifted:", file=sys.stderr)
        for d in drift:
            print(f"reproduce:   {d}", file=sys.stderr)
    if failures:
        print(f"reproduce: {len(failures)} claim(s) FAILED", file=sys.stderr)
    if drift or failures:
        return 1
    print(f"reproduce: all {len(results)} claims pass"
          + (" and committed artifacts are byte-identical" if args.smoke
             else ""))
    return 0


def load_committed(fig_dir, key):
    rows = load_csv(os.path.join(fig_dir, f"{key}.csv"))
    header = list(rows[0].keys())
    return header, [[r[c] for c in header] for r in rows]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ClaimError as exc:
        print(f"reproduce: harness error: {exc}", file=sys.stderr)
        sys.exit(1)
