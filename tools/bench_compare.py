#!/usr/bin/env python3
"""Compare and gate BENCH_*.json perf artifacts.

Two modes:

  diff BASELINE.json CURRENT.json [--threshold 0.10]
      Walks both JSON trees and flags numeric leaves that regressed by more
      than the threshold (default 10%). Direction is inferred from the key
      name: *_per_sec / speedup / stall_reduction are higher-is-better;
      *_ns* / *_ms* / *_us* / *_bytes / alloc* / ratio are lower-is-better;
      everything else is informational. Exits 1 on any regression.

  gate FILE.json [FILE.json ...]
      Checks the intra-file scaling gates this repo commits to:
        overhead:          steady-state batched ingest allocs/ref == 0
                           (any host); slab ns/obs <= legacy ns/obs
        service_scale:     wire refs/s at 4 I/O threads >= 2x single-thread;
                           arena decode allocs/frame <= legacy (any host)
        hoard_fill:        selection identical across modes (any host);
                           incremental fill <= 0.25x scratch at 1% touch
                           (any host); fill allocs <= legacy (any host)
      Multi-core gates apply ONLY when the producing host had >= 4 CPUs and
      the bench recorded "scaling_valid": true — a 1-CPU runner measures
      oversubscription, not speedup, and must not fail the build for it.
      Skipped gates are reported loudly and exit 0.

Counting-scale fields (counts, capacities, thread lists) and machine
metadata are never treated as regressions.
"""

import argparse
import json
import sys

# Keys whose values are configuration/metadata, never perf: comparing them
# across runs is meaningless or misleading.
META_KEYS = {
    "host_cpus", "seer_threads", "scaling_valid", "bench", "transport",
    "threads", "files", "references", "refs", "streams", "tenants",
    "refs_per_tenant", "total_refs", "queue_capacity",
    "clusters", "touched", "batches", "barriers",
    "frames_received", "events_ingested", "dirty_files", "files_rescored",
    "budget_bytes",
    "dirty_clusters", "reused_aggregates", "touched_files",
}

HIGHER_IS_BETTER = ("_per_sec", "speedup", "stall_reduction")
LOWER_IS_BETTER = ("_ns", "ns_", "_ms", "ms_", "_us", "us_", "_bytes",
                   "alloc", "ratio", "_sec", "high_water")


def direction(key):
    k = key.lower()
    for hint in HIGHER_IS_BETTER:
        if hint in k:
            return +1
    for hint in LOWER_IS_BETTER:
        if hint in k:
            return -1
    return 0


def walk(node, path=""):
    """Yields (path, key, numeric value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            # Sweep rows are keyed by their thread count when present, so
            # baseline/current rows pair up even if row order changes.
            tag = None
            if isinstance(value, dict) and "threads" in value:
                tag = f"threads={value['threads']}"
            elif isinstance(value, dict) and "files" in value:
                tag = f"files={value['files']}"
            yield from walk(value, f"{path}[{tag if tag else i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        key = path.rsplit(".", 1)[-1].split("[")[0]
        yield path, key, float(node)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")


def cmd_diff(args):
    base = load(args.baseline)
    cur = load(args.current)

    if base.get("host_cpus") != cur.get("host_cpus"):
        print(f"WARNING: host_cpus differ (baseline {base.get('host_cpus')}, "
              f"current {cur.get('host_cpus')}) — absolute numbers are not "
              "comparable across machines; treating the diff as informational.")
        args.threshold = float("inf")
    scaling_ok = bool(base.get("scaling_valid", True)) and bool(
        cur.get("scaling_valid", True))

    base_leaves = {p: v for p, _, v in walk(base)}
    regressions = []
    compared = 0
    for path, key, cur_val in walk(cur):
        if key in META_KEYS or path not in base_leaves:
            continue
        sign = direction(key)
        if sign == 0:
            continue
        if not scaling_ok and ("speedup" in key or
                               ("[threads=" in path and
                                "[threads=1]" not in path)):
            continue  # invalid sweep: multi-thread rows are noise; the
            # serial (threads=1) row is still a real measurement
        base_val = base_leaves[path]
        if base_val == 0:
            continue
        compared += 1
        # change > 0 means "got worse" in the metric's own direction.
        change = (base_val - cur_val) / base_val if sign > 0 \
            else (cur_val - base_val) / base_val
        marker = " " if change <= args.threshold else "R"
        if args.verbose or marker == "R":
            print(f"{marker} {path}: {base_val:.2f} -> {cur_val:.2f} "
                  f"({change * 100.0:+.1f}% worse)" if change > 0 else
                  f"{marker} {path}: {base_val:.2f} -> {cur_val:.2f} "
                  f"({-change * 100.0:+.1f}% better)")
        if change > args.threshold:
            regressions.append((path, base_val, cur_val, change))

    print(f"\ncompared {compared} metrics, {len(regressions)} regression(s) "
          f"beyond {args.threshold * 100.0:.0f}%")
    for path, base_val, cur_val, change in regressions:
        print(f"  REGRESSION {path}: {base_val:.2f} -> {cur_val:.2f} "
              f"({change * 100.0:+.1f}%)")
    return 1 if regressions else 0


def sweep_rate(rows, threads, key):
    for row in rows:
        if row.get("threads") == threads:
            return row.get(key, 0.0)
    return 0.0


def gate_overhead(doc, failures):
    host_cpus = doc.get("host_cpus", 1)
    ingest = doc.get("ingest", {})
    # Allocation counts do not depend on core count, so this gate holds on
    # any host.
    allocs = ingest.get("allocs_per_ref")
    if allocs is None:
        failures.append("overhead: ingest.allocs_per_ref missing from the JSON")
    elif allocs != 0:
        failures.append(
            f"overhead: steady-state batched ingest allocates {allocs:.4f}/ref, "
            "gate requires 0")
    else:
        print("  PASS ingest allocations: 0 allocs/ref in steady state")
    if host_cpus >= 4 and doc.get("scaling_valid", False):
        layout = ingest.get("neighbor_layout", {})
        legacy = layout.get("legacy_ns_per_obs", 0.0)
        slab = layout.get("slab_ns_per_obs", 0.0)
        if legacy > 0 and slab > legacy:
            failures.append(
                f"overhead: slab hot loop {slab:.1f} ns/obs is slower than "
                f"legacy {legacy:.1f} ns/obs")
        elif legacy > 0:
            print(f"  PASS slab layout: {slab:.1f} ns/obs <= legacy {legacy:.1f}")
    else:
        print(f"  SKIPPED overhead slab-layout gate: host_cpus={host_cpus} "
              f"(< 4) or scaling_valid={doc.get('scaling_valid')}")


def gate_service(doc, failures):
    host_cpus = doc.get("host_cpus", 1)
    if host_cpus >= 4 and doc.get("scaling_valid", False):
        rows = doc.get("io_sweep", [])
        serial = sweep_rate(rows, 1, "refs_per_sec")
        wide = sweep_rate(rows, 4, "refs_per_sec")
        if serial > 0 and wide < 2.0 * serial:
            failures.append(
                f"service_scale: wire ingest at 4 I/O threads is "
                f"{wide / serial:.2f}x single-thread ({wide:.0f} vs "
                f"{serial:.0f} refs/s), gate requires >= 2.0x")
        elif serial > 0:
            print(f"  PASS service 4 I/O-thread scaling: {wide / serial:.2f}x "
                  "single-thread")
        else:
            print("  SKIP service scaling gate: no single-thread row")
    else:
        print(f"  SKIPPED service scaling gate: host_cpus={host_cpus} "
              f"(< 4) or scaling_valid={doc.get('scaling_valid')} — "
              "multi-thread numbers measure oversubscription on this host")
    # The decode comparison is single-threaded and holds on any host.
    decode = doc.get("decode", {})
    legacy = decode.get("legacy_allocs_per_frame", 0.0)
    arena = decode.get("arena_allocs_per_frame", 0.0)
    if legacy > 0 and arena > legacy:
        failures.append(
            f"service_scale: arena decode allocates {arena:.1f}/frame, more "
            f"than the legacy path's {legacy:.1f}/frame")
    elif legacy > 0:
        print(f"  PASS arena decode allocs: {arena:.1f}/frame <= legacy "
              f"{legacy:.1f}/frame")


def gate_hoard_fill(doc, failures):
    # Every gate here is host-independent: ratios and identity within one
    # process.
    if not doc.get("selection_identical", False):
        failures.append(
            "hoard_fill: selections diverged across legacy/scratch/"
            "incremental fills — the fill plane must be bit-deterministic")
    else:
        print("  PASS selection identical across all modes")
    ratio = doc.get("incremental_vs_scratch", 1.0)
    if ratio > 0.25:
        failures.append(
            f"hoard_fill: incremental fill after a 1% touch is {ratio:.3f}x "
            "the scratch fill — gate requires <= 0.25x")
    elif ratio > 0:
        print(f"  PASS incremental fill: {ratio:.3f}x scratch at 1% touch")
    legacy = doc.get("legacy", {}).get("allocs_per_fill", 0.0)
    current = doc.get("scratch", {}).get("allocs_per_fill", 0.0)
    if legacy > 0 and current > legacy:
        failures.append(
            f"hoard_fill: scratch fill allocates {current:.1f}/fill, more "
            f"than the legacy path's {legacy:.1f}/fill")
    elif legacy > 0:
        print(f"  PASS fill allocations: {current:.1f}/fill <= legacy "
              f"{legacy:.1f}/fill")


GATES = {
    "overhead": gate_overhead,
    "service_scale": gate_service,
    "hoard_fill": gate_hoard_fill,
}


def cmd_gate(args):
    failures = []
    for path in args.files:
        doc = load(path)
        bench = doc.get("bench", "")
        gate = GATES.get(bench)
        print(f"{path} (bench={bench or '?'}):")
        if gate is None:
            print("  no gates defined for this bench — skipping")
            continue
        gate(doc, failures)
    if failures:
        print(f"\n{len(failures)} gate failure(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("\nall applicable gates passed (or were skipped on this host)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    diff = sub.add_parser("diff", help="compare two BENCH_*.json runs")
    diff.add_argument("baseline")
    diff.add_argument("current")
    diff.add_argument("--threshold", type=float, default=0.10,
                      help="fractional regression to fail on (default 0.10)")
    diff.add_argument("--verbose", action="store_true",
                      help="print every compared metric, not just regressions")
    diff.set_defaults(func=cmd_diff)

    gate = sub.add_parser("gate", help="check intra-file scaling gates")
    gate.add_argument("files", nargs="+")
    gate.set_defaults(func=cmd_gate)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
