#!/usr/bin/env python3
"""Regression gate over st-bench JSON reports.

Compares a current BENCH_results.json against a checked-in baseline
(tools/ci/baseline.json) and fails on:

  * a report that is not schema st-bench/v2 (exit 2);
  * coverage regression: a (workload, analysis) cell present in the
    baseline is missing from the current run;
  * correctness regression: race counts differ while the workload config
    (events, seed) is unchanged — workloads are seeded and deterministic,
    so any difference is an analysis behavior change, not noise;
  * performance regression: a cell's cost relative to the in-run FT2
    reference grew by more than --max-regress (default 35%). The gate
    compares *relative* costs, not absolute ns/event, because the
    baseline is recorded on a different machine than CI; the ratio
    between two analyses measured in the same run is portable, raw
    nanoseconds are not. Same-machine absolute comparison is available
    with --absolute.

A cell is keyed by (workload, analysis, kind). A report cell that carries
a "shards" field comes from a removed executor and is refused (exit 2),
so it can never be compared as if it were the plain cell of the same
(workload, analysis).

Schema v2 carries "kind": "latency" cells — st-loadgen tail-latency
reports against a live st-serve. Latency cells are exempt from the
relative-cost gate (open-loop wall-clock percentiles do not
form machine-portable ratios); they are validated structurally with
--validate-latency:

  bench_compare.py --validate-latency LOADGEN_results.json

which fails unless every latency cell has finite, ordered percentiles
(p50 <= p99 <= p999), closed accounting (completed + errors == requests
and histogram count == completed), and host provenance
(hardware_concurrency, offered vs achieved rate). Load-health checks —
late_sends bounded and a nonzero achieved rate — self-skip with an
explicit message on starved hosts (hardware_concurrency < 2): a 1-core
runner cannot run the
generator and the server honestly at rate, and that is the host's
ceiling, not a regression. Absolute latency is never gated: CI boxes
are shared, and a noisy neighbor must not fail the build.

With --require-main-table the gate additionally fails loudly when the
CURRENT report is missing any (baseline workload, main-table analysis)
cell — a bench run that silently skipped part of the Table 4-6 grid must
not pass just because the baseline happened to lack the cell too.

Usage: bench_compare.py BASELINE CURRENT [--max-regress=F] [--absolute]
                        [--require-main-table]
       bench_compare.py --validate-latency CURRENT

Exit status: 0 when every check passes, 1 on regression, 2 on usage or
malformed input.
"""

import json
import math
import sys

SCHEMA = "st-bench/v2"

# The eleven analyses of the paper's Tables 4-6 (mainTableAnalysisKinds()
# in src/analysis/AnalysisRegistry.cpp), in registry order.
MAIN_TABLE_ANALYSES = [
    "Unopt-HB", "FTO-HB",
    "Unopt-WCP", "FTO-WCP", "ST-WCP",
    "Unopt-DC", "FTO-DC", "ST-DC",
    "Unopt-WDC", "FTO-WDC", "ST-WDC",
]


def usage_error(message):
    """Exit 2: the invocation or its inputs are broken (not a regression)."""
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        usage_error(f"cannot read {path}: {err}")
    if report.get("schema") != SCHEMA:
        usage_error(
            f"{path} has schema {report.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    for r in report.get("results", []):
        if "shards" in r:
            usage_error(
                f"{path}: cell {r.get('workload')}/{r.get('analysis')} "
                f"carries \"shards\"; shard-scaling cells are no longer "
                f"produced or compared"
            )
    return report


def cells(report):
    # Plain cells carry no "kind"; latency cells key on their kind, so
    # they never collide with the plain cell of the same (workload,
    # analysis).
    return {
        (r["workload"], r["analysis"], r.get("kind", "")): r
        for r in report["results"]
    }


def finite_nonneg(value):
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value >= 0


def validate_latency(path):
    """Structural gate over an st-loadgen report: percentiles finite and
    ordered, accounting closed, provenance present. Never gates absolute
    latency. Returns an exit status."""
    report = load(path)
    latency_cells = [r for r in report.get("results", [])
                     if r.get("kind", "") == "latency"]
    if not latency_cells:
        usage_error(f"{path}: no latency cells to validate")

    failures = []
    for r in latency_cells:
        label = f"{r.get('workload', '?')}/{r.get('analysis', '?')}"

        # Host provenance must be recorded: without it no one can judge
        # the numbers later (the stale-ROADMAP-meter lesson).
        for field in ("hardware_concurrency", "offered_events_per_sec",
                      "achieved_events_per_sec", "late_sends"):
            if field not in r:
                failures.append(f"{label}: missing {field}")

        requests = r.get("requests", 0)
        completed = r.get("completed", 0)
        errors = r.get("errors", 0)
        if completed + errors != requests:
            failures.append(
                f"{label}: accounting does not close: "
                f"{completed} completed + {errors} errors != "
                f"{requests} requests")
        if completed == 0:
            failures.append(f"{label}: no completed requests — nothing "
                            f"was measured")

        hist = r.get("latency_ns")
        if not isinstance(hist, dict):
            failures.append(f"{label}: missing latency_ns histogram")
            continue
        if hist.get("count") != completed:
            failures.append(
                f"{label}: histogram count {hist.get('count')} != "
                f"completed {completed}")
        quantiles = ["min", "p50", "p90", "p99", "p999", "max"]
        values = [hist.get(q) for q in quantiles]
        bad = [q for q, v in zip(quantiles, values)
               if not finite_nonneg(v)]
        if bad:
            failures.append(f"{label}: non-finite latency field(s): "
                            f"{', '.join(bad)}")
            continue
        if not all(a <= b for a, b in zip(values, values[1:])):
            failures.append(
                f"{label}: percentiles out of order: " + ", ".join(
                    f"{q}={v}" for q, v in zip(quantiles, values)))
        print(f"latency: {label} p50={hist['p50']}ns p99={hist['p99']}ns "
              f"p999={hist['p999']}ns over {completed} requests")

        # Load-health checks self-skip on starved hosts, with an explicit
        # message: on <2 cores
        # the generator and server time-share one CPU, so missed send
        # deadlines and a collapsed achieved rate are the host's ceiling,
        # not a serving regression.
        hw = r.get("hardware_concurrency", 0)
        if hw < 2:
            print("latency load gate self-skipped: host has <2 cores")
            print(f"note: hardware_concurrency={hw} < 2; late_sends and "
                  f"achieved-rate checks skipped for {label}")
            continue
        late = r.get("late_sends", 0)
        if requests and late > requests / 2:
            failures.append(
                f"{label}: generator missed {late}/{requests} send "
                f"deadlines — the run degraded to closed-loop and its "
                f"percentiles are not trustworthy")
        if completed and r.get("achieved_events_per_sec", 0) <= 0:
            failures.append(f"{label}: achieved rate is zero with "
                            f"completed requests")

    if failures:
        print(f"\nbench_compare: {len(failures)} latency validation "
              f"failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nbench_compare: OK ({len(latency_cells)} latency cell(s) "
          f"valid)")
    return 0


def main(argv):
    max_regress = 0.35
    absolute = False
    require_main_table = False
    validate_latency_mode = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--max-regress="):
            try:
                max_regress = float(arg.split("=", 1)[1])
            except ValueError:
                usage_error(f"bad --max-regress in {arg!r}")
        elif arg == "--absolute":
            absolute = True
        elif arg == "--require-main-table":
            require_main_table = True
        elif arg == "--validate-latency":
            validate_latency_mode = True
        elif arg.startswith("-"):
            usage_error(__doc__)
        else:
            paths.append(arg)
    if validate_latency_mode:
        if len(paths) != 1:
            usage_error(__doc__)
        return validate_latency(paths[0])
    if len(paths) != 2:
        usage_error(__doc__)

    base = load(paths[0])
    cur = load(paths[1])
    base_cells, cur_cells = cells(base), cells(cur)
    same_config = base.get("config", {}).get("events") == cur.get(
        "config", {}
    ).get("events") and base.get("config", {}).get("seed") == cur.get(
        "config", {}
    ).get("seed")

    metric = "ns_per_event" if absolute else "relative_cost"
    failures = []
    if require_main_table:
        for workload in [w["name"] for w in base.get("workloads", [])]:
            for analysis in MAIN_TABLE_ANALYSES:
                if (workload, analysis, "") not in cur_cells:
                    failures.append(
                        f"main-table: {workload}/{analysis} missing from "
                        f"current run (cell skipped?)"
                    )
    print(f"{'workload':<10} {'analysis':<12} {'base':>9} {'cur':>9} "
          f"{'delta':>8}  ({metric}, limit +{max_regress:.0%})")
    for key in sorted(base_cells):
        workload, analysis, kind = key
        label = f"{analysis}[{kind}]" if kind else analysis
        b = base_cells[key]
        c = cur_cells.get(key)
        if c is None:
            failures.append(f"coverage: {workload}/{label} missing from "
                            f"current run")
            continue
        if same_config and kind != "latency" and (
            b["dynamic_races"] != c["dynamic_races"]
            or b["static_races"] != c["static_races"]
        ):
            failures.append(
                f"races: {workload}/{label} changed "
                f"{b['static_races']} ({b['dynamic_races']}) -> "
                f"{c['static_races']} ({c['dynamic_races']}) "
                f"with identical workload config"
            )
        if kind == "latency":
            # Open-loop latency depends on wall-clock contention, so no
            # cost-ratio gate; --validate-latency covers it.
            continue
        bv, cv = b.get(metric), c.get(metric)
        if bv is None or cv is None or bv <= 0:
            continue  # reference analysis itself, or metric absent
        delta = cv / bv - 1.0
        flag = ""
        if delta > max_regress:
            failures.append(
                f"perf: {workload}/{analysis} {metric} regressed "
                f"{bv:.3g} -> {cv:.3g} (+{delta:.0%}, limit "
                f"+{max_regress:.0%})"
            )
            flag = "  <-- FAIL"
        print(f"{workload:<10} {analysis:<12} {bv:>9.3g} {cv:>9.3g} "
              f"{delta:>+7.1%}{flag}")

    if not same_config:
        print("note: workload config differs from baseline; race-count "
              "checks skipped")
    if failures:
        print(f"\nbench_compare: {len(failures)} regression(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nbench_compare: OK ({len(base_cells)} cells within "
          f"+{max_regress:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
