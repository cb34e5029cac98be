#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Checks (beyond `python3 -m json.tool` well-formedness):
  * top level is an object with a "traceEvents" list;
  * every event carries name/cat/ph/ts/pid/tid with sane types;
  * phases are restricted to the set the tracer emits (B E i s t f);
  * per-thread B/E nesting balances — an 'E' without a matching 'B' is an
    error; trailing unclosed 'B's are allowed because stopping a session
    mid-span legitimately leaves open spans in the ring;
  * flow events pair up: every flow id has exactly one 's' (start), the 's'
    is not later than any 't'/'f' with the same id, and every 't'/'f' has a
    matching 's'.

Prefix-cache telemetry checks on the same trace file:
  * every 'i' instant named "prefix_cache" carries args with an outcome of
    "hit" or "miss" plus a non-empty reason string;
  * the number of those instants equals the number of 'B' events for the
    "prefix_cache_lookup" span — every lookup explains itself exactly once.

Result- and candidate-cache telemetry checks on the same trace file, for
the "result_cache" and "group_cache" instants alike:
  * every such 'i' instant carries args with an outcome of "hit",
    "revalidated", "invalidated" or "miss" plus a non-empty reason;
  * the number of terminal instants (hit/revalidated/miss) equals the number
    of 'B' events for the tier's lookup span ("result_cache_lookup",
    "group_cache_lookup") — every lookup resolves exactly once.
    "invalidated" instants are extra (a lookup that drops a stale entry then
    misses emits both), so they may not exceed lookups.

Cross-plane check (--run-metrics, a metrics JSON export written by the same
run as the trace): every stage span in the trace ('B' events of category
"stage", all emitted by CSI_SPAN) must appear as a csi_stage_duration_seconds
histogram with that stage label, and its 'B' count must not exceed the
histogram's count — both planes come from the same span sites, and the trace
may only hold fewer (ring overwrites, session start after the first stages).

Optionally validates an --audit JSONL file: one JSON object per line, each
with the per-trace audit fields the inference engine records.

Optionally validates one or more --metrics JSON exports (csi_batch
--metrics-out --metrics-format json). Per file, the counters of each cache
tier (prefix, result, candidate) must be internally consistent (lookups ==
hits + misses, inserts + refused <= misses, evictions <= inserts,
invalidations <= misses), and the csi_capture_columns_bytes gauge (the
bytes the tool's held capture columns take) and the
csi_capture_records_peak_bytes gauge (the largest packet-record block it
read) must be present and non-negative. Across files given in order, every
csi_{prefix,result,candidate}_cache_*_total counter must be monotonically
non-decreasing — the order should match the order the exports were produced
in.

Usage: check_trace.py TRACE_JSON [--run-metrics JSON] [--audit AUDIT_JSONL]
                      [--metrics JSON ...]
Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys

ALLOWED_PHASES = {"B", "E", "i", "s", "t", "f"}
# Trace instant -> lookup span of the tiers whose entries revalidate.
REVALIDATING_TIERS = {"result_cache": "result_cache_lookup", "group_cache": "group_cache_lookup"}
REQUIRED_AUDIT_KEYS = (
    "trace",
    "media_flows",
    "groups",
    "candidates",
    "dfs_nodes_expanded",
    "sequences",
    "truncated",
)


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty list")

    depth = {}  # tid -> open 'B' count
    flow_starts = {}  # flow id -> ts of 's'
    flow_steps = []  # (id, ts, phase) for 't'/'f'
    prefix_lookups = 0  # 'B' events of the prefix_cache_lookup span
    prefix_instants = 0  # 'i' events named prefix_cache
    # Per revalidating tier: 'B' events of its lookup span, instants that
    # resolve a lookup, and extra instants for dropped stale entries.
    lookups = {tier: 0 for tier in REVALIDATING_TIERS}
    terminal = {tier: 0 for tier in REVALIDATING_TIERS}
    invalidated = {tier: 0 for tier in REVALIDATING_TIERS}
    tier_of_span = {span: tier for tier, span in REVALIDATING_TIERS.items()}
    stage_begins = {}  # stage name -> 'B' count
    for i, ev in enumerate(events):
        where = f"{path}: event {i}"
        for key, types in (
            ("name", str),
            ("cat", str),
            ("ph", str),
            ("ts", (int, float)),
            ("pid", int),
            ("tid", int),
        ):
            if key not in ev:
                fail(f"{where}: missing required field {key!r}")
            if not isinstance(ev[key], types):
                fail(f"{where}: field {key!r} has type {type(ev[key]).__name__}")
        ph = ev["ph"]
        if ph not in ALLOWED_PHASES:
            fail(f"{where}: unexpected phase {ph!r}")
        if ev["ts"] < 0:
            fail(f"{where}: negative timestamp")
        if ph == "B":
            depth[ev["tid"]] = depth.get(ev["tid"], 0) + 1
            if ev["cat"] == "stage":
                stage_begins[ev["name"]] = stage_begins.get(ev["name"], 0) + 1
        elif ph == "E":
            d = depth.get(ev["tid"], 0)
            if d == 0:
                fail(f"{where}: 'E' on tid {ev['tid']} without a matching 'B'")
            depth[ev["tid"]] = d - 1
        elif ph in ("s", "t", "f"):
            if "id" not in ev:
                fail(f"{where}: flow event without an 'id'")
            if ph == "s":
                if ev["id"] in flow_starts:
                    fail(f"{where}: duplicate flow start for id {ev['id']}")
                flow_starts[ev["id"]] = ev["ts"]
            else:
                flow_steps.append((ev["id"], ev["ts"], ph, i))
        if "args" in ev and not isinstance(ev["args"], dict):
            fail(f"{where}: args must be an object")
        if ph == "B" and ev["name"] == "prefix_cache_lookup":
            prefix_lookups += 1
        if ph == "i" and ev["name"] == "prefix_cache":
            prefix_instants += 1
            args = ev.get("args")
            if not isinstance(args, dict):
                fail(f"{where}: prefix_cache instant without args")
            if args.get("outcome") not in ("hit", "miss"):
                fail(
                    f"{where}: prefix_cache outcome must be 'hit' or 'miss', "
                    f"got {args.get('outcome')!r}"
                )
            reason = args.get("reason")
            if not isinstance(reason, str) or not reason:
                fail(f"{where}: prefix_cache instant missing a reason string")
        if ph == "B" and ev["name"] in tier_of_span:
            lookups[tier_of_span[ev["name"]]] += 1
        if ph == "i" and ev["name"] in REVALIDATING_TIERS:
            tier = ev["name"]
            args = ev.get("args")
            if not isinstance(args, dict):
                fail(f"{where}: {tier} instant without args")
            outcome = args.get("outcome")
            if outcome in ("hit", "revalidated", "miss"):
                terminal[tier] += 1
            elif outcome == "invalidated":
                invalidated[tier] += 1
            else:
                fail(
                    f"{where}: {tier} outcome must be one of "
                    f"hit/revalidated/invalidated/miss, got {outcome!r}"
                )
            reason = args.get("reason")
            if not isinstance(reason, str) or not reason:
                fail(f"{where}: {tier} instant missing a reason string")

    for fid, ts, ph, i in flow_steps:
        if fid not in flow_starts:
            fail(f"{path}: event {i}: flow '{ph}' id {fid} has no 's' start")
        if ts < flow_starts[fid]:
            fail(f"{path}: event {i}: flow '{ph}' id {fid} precedes its 's'")

    if prefix_instants != prefix_lookups:
        fail(
            f"{path}: {prefix_lookups} prefix_cache_lookup span(s) but "
            f"{prefix_instants} prefix_cache instant(s) — every lookup must "
            f"explain its outcome exactly once"
        )
    for tier, span in REVALIDATING_TIERS.items():
        if terminal[tier] != lookups[tier]:
            fail(
                f"{path}: {lookups[tier]} {span} span(s) but "
                f"{terminal[tier]} terminal {tier} instant(s) — every "
                f"lookup must resolve (hit/revalidated/miss) exactly once"
            )
        if invalidated[tier] > lookups[tier]:
            fail(
                f"{path}: {invalidated[tier]} {tier} 'invalidated' "
                f"instant(s) exceed {lookups[tier]} lookup span(s)"
            )

    open_spans = sum(depth.values())
    n_flows = len(flow_starts)
    print(
        f"check_trace: OK: {len(events)} events, {n_flows} flow(s), "
        f"{open_spans} trailing open span(s), "
        f"{prefix_lookups} prefix-cache lookup(s), "
        f"{lookups['result_cache']} result-cache lookup(s), "
        f"{lookups['group_cache']} candidate-cache lookup(s)"
    )
    return stage_begins


def check_stage_planes(trace_path, stage_begins, metrics_path):
    """Every traced stage is a stage histogram with at least as many samples."""
    with open(metrics_path, encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or not isinstance(doc.get("histograms"), list):
        fail(f"{metrics_path}: metrics export must be an object with a histograms list")
    counts = {}
    for h in doc["histograms"]:
        if not isinstance(h, dict) or h.get("name") != "csi_stage_duration_seconds":
            continue
        stage = h.get("labels", {}).get("stage")
        if not isinstance(stage, str) or not isinstance(h.get("count"), int):
            fail(f"{metrics_path}: malformed stage histogram {h!r}")
        counts[stage] = h["count"]
    if not stage_begins:
        fail(f"{trace_path}: no stage spans to compare against {metrics_path}")
    for stage, begins in sorted(stage_begins.items()):
        if stage not in counts:
            fail(
                f"{trace_path}: stage span {stage!r} has no "
                f"csi_stage_duration_seconds histogram in {metrics_path}"
            )
        if begins > counts[stage]:
            fail(
                f"{trace_path}: stage {stage!r} has {begins} 'B' event(s) but "
                f"its histogram in {metrics_path} counts only {counts[stage]}"
            )
    print(
        f"check_trace: OK: {len(stage_begins)} traced stage(s) present in the "
        f"metrics plane"
    )


def check_audit(path):
    n = 0
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
            if not isinstance(rec, dict):
                fail(f"{path}:{lineno}: audit record must be an object")
            for key in REQUIRED_AUDIT_KEYS:
                if key not in rec:
                    fail(f"{path}:{lineno}: missing audit field {key!r}")
            n += 1
    if n == 0:
        fail(f"{path}: no audit records")
    print(f"check_trace: OK: {n} audit record(s)")


MONOTONIC_COUNTERS = (
    "csi_prefix_cache_lookups_total",
    "csi_prefix_cache_hits_total",
    "csi_prefix_cache_misses_total",
    "csi_prefix_cache_inserts_total",
    "csi_prefix_cache_evictions_total",
    "csi_prefix_cache_refused_total",
    "csi_result_cache_lookups_total",
    "csi_result_cache_hits_total",
    "csi_result_cache_misses_total",
    "csi_result_cache_inserts_total",
    "csi_result_cache_evictions_total",
    "csi_result_cache_refused_total",
    "csi_result_cache_invalidations_total",
    "csi_candidate_cache_lookups_total",
    "csi_candidate_cache_hits_total",
    "csi_candidate_cache_misses_total",
    "csi_candidate_cache_inserts_total",
    "csi_candidate_cache_evictions_total",
    "csi_candidate_cache_refused_total",
    "csi_candidate_cache_invalidations_total",
)


def check_cache_counters(path, counters, tier):
    """lookups == hits + misses; inserts + refused <= misses; evictions <= inserts;
    invalidations <= misses.

    Absent counters read as 0: a cache-off run legitimately exports none.
    """
    lookups = counters.get(f"csi_{tier}_cache_lookups_total", 0)
    hits = counters.get(f"csi_{tier}_cache_hits_total", 0)
    misses = counters.get(f"csi_{tier}_cache_misses_total", 0)
    inserts = counters.get(f"csi_{tier}_cache_inserts_total", 0)
    evictions = counters.get(f"csi_{tier}_cache_evictions_total", 0)
    refused = counters.get(f"csi_{tier}_cache_refused_total", 0)
    if hits + misses != lookups:
        fail(f"{path}: {tier}-cache lookups ({lookups}) != hits ({hits}) + misses ({misses})")
    if inserts + refused > misses:
        fail(f"{path}: {tier}-cache inserts ({inserts}) + refused ({refused}) > misses ({misses})")
    if evictions > inserts:
        fail(f"{path}: {tier}-cache evictions ({evictions}) > inserts ({inserts})")
    # A dropped stale entry always resolves as a miss in the same lookup (the
    # prefix tier never invalidates, so it reads 0 there).
    invalidations = counters.get(f"csi_{tier}_cache_invalidations_total", 0)
    if invalidations > misses:
        fail(f"{path}: {tier}-cache invalidations ({invalidations}) > misses ({misses})")


def load_values(path, kind):
    """The {name: value} entries of the export's `kind` list (counters or gauges)."""
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or not isinstance(doc.get(kind), list):
        fail(f"{path}: metrics export must be an object with a {kind} list")
    values = {}
    for c in doc[kind]:
        if not isinstance(c, dict) or "name" not in c or "value" not in c:
            fail(f"{path}: malformed {kind} entry {c!r}")
        values[c["name"]] = c["value"]
    return values


CAPTURE_GAUGES = ("csi_capture_columns_bytes", "csi_capture_records_peak_bytes")


def check_capture_gauges(path):
    gauges = load_values(path, "gauges")
    for name in CAPTURE_GAUGES:
        if name not in gauges:
            fail(f"{path}: gauge {name} is missing")
        value = gauges[name]
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"{path}: gauge {name} is {value!r}, not a non-negative number")


def check_metrics(paths):
    previous = None
    prev_path = None
    for path in paths:
        counters = load_values(path, "counters")
        check_capture_gauges(path)
        check_cache_counters(path, counters, "prefix")
        check_cache_counters(path, counters, "result")
        check_cache_counters(path, counters, "candidate")
        if previous is not None:
            for name in MONOTONIC_COUNTERS:
                before = previous.get(name, 0)
                after = counters.get(name, 0)
                if after < before:
                    fail(
                        f"{path}: counter {name} went backwards "
                        f"({before} in {prev_path} -> {after})"
                    )
        previous = counters
        prev_path = path
    print(f"check_trace: OK: {len(paths)} metrics export(s) consistent")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--run-metrics",
        metavar="FILE",
        help="metrics JSON export of the same run, for the cross-plane stage check",
    )
    parser.add_argument("--audit", help="audit JSONL file to validate too")
    parser.add_argument(
        "--metrics",
        action="append",
        default=[],
        metavar="FILE",
        help="metrics JSON export(s), in production order; repeatable",
    )
    args = parser.parse_args()
    stage_begins = check_trace(args.trace)
    if args.run_metrics:
        check_stage_planes(args.trace, stage_begins, args.run_metrics)
    if args.audit:
        check_audit(args.audit)
    if args.metrics:
        check_metrics(args.metrics)


if __name__ == "__main__":
    main()
