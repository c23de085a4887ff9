#!/usr/bin/env python3
"""Counter-based perf-regression gate.

Compares the DETERMINISTIC exploration counters of a Google-Benchmark
JSON run against a committed baseline and fails on unexplained growth.
The gated counters (coverability nodes/edges, product states, interned
types, recorded cover-edges) are pure work counts: they are schedule-
and host-independent, so exceeding the baseline means the change
genuinely made the verifier explore more — unlike wall-clock, which
stays informational (the committed baselines come from a 1-vCPU
container; see ROADMAP.md).

Usage:
  check_bench_counters.py BASELINE.json RUN.json [--tolerance PCT]

Exit code 1 iff a gated counter grew beyond the tolerance (default 0%),
a baselined benchmark is missing from the run, or the run has a
benchmark the baseline lacks (an ungated row must not pass silently;
add it to the baseline).
"""

import argparse
import json
import sys

# Counters that measure work: growth is a regression. Counters absent
# from a benchmark's baseline row are skipped, so per-family counters
# (e.g. bench_marking's kernel-semantics counts) live here too.
GATED = [
    "cov_nodes",
    "cov_edges",
    "product_states",
    "pooled_types",
    "cover_edges",
    "counter_dims",
    # Marking payloads touched by domination probes (DominanceLeq
    # calls made by the bucketed dominance index): the dominance
    # kernel's work count. Deterministic (probes follow the explorer's
    # sequential decision order), so the --exact differential gates
    # double as the probe-determinism check. NOTE: until the bucketed
    # index landed this counted entries EXAMINED (payload compares +
    # summary skips); the semantics change shipped with a baseline
    # re-record.
    "antichain_probes",
    # Summary buckets examined by the bucketed dominance index — the
    # sublinear-probe work count. Deterministic like antichain_probes
    # (the bucket layout follows the sequential insertion/removal
    # history).
    "antichain_bucket_probes",
    # bench_marking kernel-semantics counts: the number of ≤ pairs and
    # of summary-filter survivors over a fixed-seed random corpus.
    # Gated with --exact in CI, so the kernel must reproduce them
    # bit-for-bit.
    "leq_true",
    "summary_pass",
    # Successors the ample-prefix partial-order reduction never
    # generated. Deterministic (the reduction decides in the explorer's
    # sequential order), so any unexplained drift is a bug: growth
    # fails outright, shrink
    # fails under --exact and otherwise surfaces as a note next to the
    # cov_nodes growth it usually causes. Absent from pre-POR baseline
    # rows (the *_por_off.json differential baselines), which the
    # counter-skip rule below handles.
    "ample_reduced_successors",
    # Property-directed slicing (VerifierOptions::slice): services and
    # dimensions (relations + variables) dropped before the product
    # VASS is built, plus the static analyzer's finding count. All
    # three are pure functions of the input spec — any drift means the
    # analyzer's liveness facts or the slicer's cone changed, which
    # must come with a deliberate baseline re-record. Absent from the
    # pre-slicer differential baselines (*_slice_off.json), which the
    # counter-skip rule below handles; sliced_* are zero by
    # construction in rows recorded with slicing off.
    "sliced_services",
    "sliced_dims",
    "diagnostics_emitted",
]
# Deterministic but directionless: a drift is worth a look, not a fail
# (e.g. pruning MORE successors is usually good news).
INFORMATIONAL = [
    "pruned_successors",
    "deactivated_nodes",
    "antichain_peak",
    # Largest per-state bucket count of the bucketed dominance index:
    # tracks antichain shape, not work done (mirrors antichain_peak).
    "antichain_buckets_peak",
    # Probes resolved by the summary prefilter alone: more
    # skips is good news, so drift is surfaced, not gated.
    "antichain_skipped_by_summary",
    # Ample attempts that reverted to full expansion because a prefix
    # successor folded into an existing/dominated node (C3). The revert
    # is part of the deterministic replay, but the count tracks fold
    # timing rather than work done, so it is surfaced, not gated.
    "ample_full_expansions",
]


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b
        for b in data.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="allowed growth in percent (counters are deterministic, "
        "so the default is exact)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="fail on ANY drift of a gated counter, shrinks included "
        "(for differential gates: the rows must EQUAL the frozen "
        "baseline, so a change that explores fewer nodes fails instead "
        "of reading as an improvement)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    run = load(args.run)
    if not baseline:
        # A format drift (e.g. aggregates-only output) must not turn
        # the gate into a silent no-op.
        print(f"FAIL: no iteration benchmarks in {args.baseline}",
              file=sys.stderr)
        return 1
    failures = []
    notes = []

    compared = 0
    for name, base in sorted(baseline.items()):
        cur = run.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not in run")
            continue
        compared += 1
        for counter in GATED:
            if counter not in base:
                continue
            if counter not in cur:
                failures.append(f"{name}: counter {counter} disappeared")
                continue
            b, c = float(base[counter]), float(cur[counter])
            limit = b * (1.0 + args.tolerance / 100.0)
            if c > limit:
                failures.append(
                    f"{name}: {counter} grew {b:.0f} -> {c:.0f} "
                    f"(+{(c - b) / b * 100.0 if b else float('inf'):.1f}%)"
                )
            elif c < b:
                if args.exact:
                    failures.append(
                        f"{name}: {counter} drifted {b:.0f} -> {c:.0f} "
                        "(--exact: determinism gate, shrink is a "
                        "regression too)"
                    )
                else:
                    notes.append(
                        f"{name}: {counter} improved {b:.0f} -> {c:.0f} "
                        "(update the baseline to lock it in)"
                    )
        for counter in INFORMATIONAL:
            if counter in base and counter in cur:
                b, c = float(base[counter]), float(cur[counter])
                if b != c:
                    notes.append(
                        f"{name}: {counter} drifted {b:.0f} -> {c:.0f} "
                        "(informational)"
                    )
        # Wall clock: never gated, just surfaced.
        if "real_time" in base and "real_time" in cur:
            b, c = float(base["real_time"]), float(cur["real_time"])
            if b > 0:
                notes.append(
                    f"{name}: wall-clock {(c - b) / b:+.1%} vs baseline "
                    "(informational; hosts differ)"
                )

    for name in sorted(set(run) - set(baseline)):
        failures.append(f"{name}: no baseline row (add it to the JSON)")

    if compared == 0:
        # A filter typo must not turn the gate into a silent no-op.
        failures.append("no baselined benchmark matched the run")

    for n in notes:
        print(f"note: {n}")
    if failures:
        print(f"\n{len(failures)} counter regression(s):", file=sys.stderr)
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {compared} benchmarks within counter baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
