#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Checks (beyond `python3 -m json.tool` well-formedness):
  * top level is an object with a "traceEvents" list and, if present, a
    non-negative integer "droppedEvents" (the events the per-thread rings
    overwrote);
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
  * every such 'i' instant carries args with an outcome and a reason that
    outcome allows: "hit" (same_state), "revalidated" (same_positions,
    position_insensitive, delta_proven_disjoint), "invalidated" (append,
    compaction_folded_delta, delta_in_window) or "miss" (absent,
    stale_snapshot, invalidated);
  * the number of terminal instants (hit/revalidated/miss) equals the number
    of 'B' events for the tier's lookup span ("result_cache_lookup",
    "group_cache_lookup") — every lookup resolves exactly once.
    "invalidated" instants are extra (a lookup that drops a stale entry then
    misses emits both), so they may not exceed lookups.

When "droppedEvents" is above 0, a ring wrapped and lost its oldest events,
which may include the 'B' of a span whose 'E' survived, the 's' of a flow
whose later steps survived on another thread, and the lookup span of a
surviving cache instant. Then, and only then, an 'E' without a matching 'B'
and a 't'/'f' without its 's' are forgiven (they began before the oldest
surviving event of their ring; both counts are reported), and the
lookup/outcome count comparisons above are skipped, with a note saying so.
Every other check holds as written.

Cross-plane check (--run-metrics, a metrics JSON export written by the same
run as the trace): every stage span in the trace ('B' events of category
"stage", all emitted by CSI_SPAN) must appear as a csi_stage_duration_seconds
histogram with that stage label, and its 'B' count must not exceed the
histogram's count — both planes come from the same span sites, and the trace
may only hold fewer (ring overwrites, session start after the first stages).

Optionally validates an --audit JSONL file: one JSON object per line, each
with every per-trace audit field the inference engine writes and the
"round" mark the tool writes (the pass over its captures that the line
belongs to, a non-negative integer that never decreases from line to line).
Counters are non-negative integers, "truncated" is a bool, and the costs are
a number or null; "best_cost" is null exactly when "sequences" is 0, and a
non-null "runner_up_cost" is >= "best_cost". Every candidate-cache lookup is
one enumeration (cache_hits + cache_revalidations + cache_misses <=
enumerations), and every invalidation resolves as a miss (cache_invalidations
<= cache_misses).

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
# Outcome -> the reasons a revalidating tier's instant may give for it.
REVALIDATING_REASONS = {
    "hit": {"same_state"},
    "revalidated": {"same_positions", "position_insensitive", "delta_proven_disjoint"},
    "invalidated": {"append", "compaction_folded_delta", "delta_in_window"},
    "miss": {"absent", "stale_snapshot", "invalidated"},
}
AUDIT_COUNTERS = (
    "media_flows",
    "groups",
    "enumerations",
    "candidates",
    "enum_truncations",
    "wildcards",
    "dfs_nodes_expanded",
    "dfs_nodes_pruned",
    "cache_hits",
    "cache_revalidations",
    "cache_invalidations",
    "cache_misses",
    "chain_nodes",
    "sequences",
)
AUDIT_COSTS = ("best_cost", "runner_up_cost")


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
    dropped = doc.get("droppedEvents", 0)
    if isinstance(dropped, bool) or not isinstance(dropped, int) or dropped < 0:
        fail(f"{path}: droppedEvents is {dropped!r}, not a non-negative integer")
    unmatched_ends = 0  # 'E's forgiven because the ring dropped their 'B'

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
            if d > 0:
                depth[ev["tid"]] = d - 1
            elif dropped > 0:
                unmatched_ends += 1
            else:
                fail(f"{where}: 'E' on tid {ev['tid']} without a matching 'B'")
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
            if outcome not in REVALIDATING_REASONS:
                fail(
                    f"{where}: {tier} outcome must be one of "
                    f"hit/revalidated/invalidated/miss, got {outcome!r}"
                )
            if outcome == "invalidated":
                invalidated[tier] += 1
            else:
                terminal[tier] += 1
            reason = args.get("reason")
            if reason not in REVALIDATING_REASONS[outcome]:
                fail(
                    f"{where}: {tier} {outcome!r} reason must be one of "
                    f"{'/'.join(sorted(REVALIDATING_REASONS[outcome]))}, got {reason!r}"
                )

    unstarted_steps = 0  # flow steps forgiven because the ring dropped their 's'
    for fid, ts, ph, i in flow_steps:
        if fid not in flow_starts:
            if dropped > 0:
                unstarted_steps += 1
                continue
            fail(f"{path}: event {i}: flow '{ph}' id {fid} has no 's' start")
        if ts < flow_starts[fid]:
            fail(f"{path}: event {i}: flow '{ph}' id {fid} precedes its 's'")

    if dropped > 0:
        # A lookup span's 'B' or its instant may be among the dropped events.
        print(
            f"check_trace: note: {dropped} dropped event(s); forgave {unmatched_ends} "
            f"'E'(s) and {unstarted_steps} flow step(s) whose 'B' or 's' was dropped, "
            f"and skipped the lookup/outcome count checks"
        )
    else:
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


def check_audit_record(where, rec):
    for key in ("trace", "round", *AUDIT_COUNTERS, "truncated", *AUDIT_COSTS):
        if key not in rec:
            fail(f"{where}: missing audit field {key!r}")
    if not isinstance(rec["trace"], str):
        fail(f"{where}: trace label must be a string")
    for key in ("round", *AUDIT_COUNTERS):
        value = rec[key]
        # bool is an int subclass in Python; a counter is never true/false.
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            fail(f"{where}: {key} is {value!r}, not a non-negative integer")
    if not isinstance(rec["truncated"], bool):
        fail(f"{where}: truncated is {rec['truncated']!r}, not a bool")
    for key in AUDIT_COSTS:
        value = rec[key]
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            fail(f"{where}: {key} is {value!r}, not a number or null")
    best, runner_up = rec["best_cost"], rec["runner_up_cost"]
    if (best is None) != (rec["sequences"] == 0):
        fail(f"{where}: best_cost {best!r} must be null exactly when sequences is 0")
    if runner_up is not None and (best is None or runner_up < best):
        fail(f"{where}: runner_up_cost {runner_up!r} below best_cost {best!r}")
    lookups = rec["cache_hits"] + rec["cache_revalidations"] + rec["cache_misses"]
    if lookups > rec["enumerations"]:
        fail(
            f"{where}: {lookups} candidate-cache lookup(s) exceed "
            f"{rec['enumerations']} enumeration(s)"
        )
    if rec["cache_invalidations"] > rec["cache_misses"]:
        fail(
            f"{where}: cache_invalidations ({rec['cache_invalidations']}) > "
            f"cache_misses ({rec['cache_misses']})"
        )


def check_audit(path):
    n = 0
    last_round = 0
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
            check_audit_record(f"{path}:{lineno}", rec)
            if rec["round"] < last_round:
                fail(f"{path}:{lineno}: round {rec['round']} after round {last_round}")
            last_round = rec["round"]
            n += 1
    if n == 0:
        fail(f"{path}: no audit records")
    print(f"check_trace: OK: {n} audit record(s) in {last_round + 1} round(s)")


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
