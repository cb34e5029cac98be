#!/usr/bin/env python3
"""Runs tools/check_trace.py on hand-built traces and audit lines.

A well-formed trace and audit line must pass; each hand-edited bad one must
fail: a cache instant whose reason its outcome does not allow, an audit
counter or round mark of the wrong type or sign, rounds out of order, a cost
that disagrees with the sequence count, and cache counts that exceed what the
enumerations allow. A trace whose ring wrapped ("droppedEvents" above 0) may
open with an 'E', a flow step and a cache instant whose 'B', 's' or lookup
span was dropped; the same events fail with "droppedEvents" 0 or absent.

Usage: check_trace_test.py CHECK_TRACE_PY
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = sys.argv[1]


def event(name, ph, ts, args=None, tid=1):
    ev = {"name": name, "cat": "cache", "ph": ph, "ts": ts, "pid": 1, "tid": tid}
    if args is not None:
        ev["args"] = args
    return ev


def lookup(tier, ts, outcome, reason):
    """One lookup span of a revalidating tier and its terminal instant."""
    return [
        event(tier + "_lookup", "B", ts),
        event(tier, "i", ts + 1, {"outcome": outcome, "reason": reason}),
        event(tier + "_lookup", "E", ts + 2),
    ]


def trace(result_reason="append", group_reason="position_insensitive"):
    events = lookup("result_cache", 0, "hit", "same_state")
    events += [
        event("result_cache_lookup", "B", 10),
        event("result_cache", "i", 11, {"outcome": "invalidated", "reason": result_reason}),
        event("result_cache", "i", 12, {"outcome": "miss", "reason": "invalidated"}),
        event("result_cache_lookup", "E", 13),
    ]
    events += lookup("group_cache", 20, "revalidated", group_reason)
    return {"traceEvents": events}


def wrapped(dropped):
    """A trace whose ring lost its oldest events: on tid 2 the 'B' of a
    lookup span (its instant and 'E' survive) and of the span around it, and
    the 's' of a flow whose 'f' survives on tid 1."""
    doc = trace()
    doc["traceEvents"] = [
        event("group_cache", "i", 1, {"outcome": "miss", "reason": "absent"}, tid=2),
        event("group_cache_lookup", "E", 2, tid=2),
        event("analyze", "E", 3, tid=2),
        dict(event("parallel_for", "f", 4), id=9),
    ] + [dict(ev, ts=ev["ts"] + 5) for ev in doc["traceEvents"]]
    if dropped is not None:
        doc["droppedEvents"] = dropped
    return doc


GOOD_AUDIT = {
    "trace": "s.pcap",
    "round": 0,
    "media_flows": 1,
    "groups": 3,
    "enumerations": 5,
    "candidates": 40,
    "enum_truncations": 0,
    "wildcards": 0,
    "dfs_nodes_expanded": 12,
    "dfs_nodes_pruned": 7,
    "cache_hits": 1,
    "cache_revalidations": 1,
    "cache_invalidations": 1,
    "cache_misses": 3,
    "chain_nodes": 20,
    "sequences": 2,
    "truncated": False,
    "best_cost": 0.01,
    "runner_up_cost": 0.02,
}


def check(work, doc, audit=None):
    """Runs the checker on `doc` and `audit`: one audit line or a list of them."""
    trace_path = os.path.join(work, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    args = [sys.executable, CHECKER, trace_path]
    if audit is not None:
        audit_path = os.path.join(work, "audit.jsonl")
        with open(audit_path, "w", encoding="utf-8") as fp:
            for line in audit if isinstance(audit, list) else [audit]:
                fp.write(json.dumps(line) + "\n")
        args += ["--audit", audit_path]
    return subprocess.run(args, capture_output=True, text=True, check=False)


def main():
    failures = []

    def expect(name, passes, doc, audit=None, says=None):
        result = check(work, doc, audit)
        if (result.returncode == 0) != passes:
            failures.append(f"{name}: exit {result.returncode}, {result.stderr.strip()!r}")
        elif says is not None and says not in result.stdout:
            failures.append(f"{name}: stdout lacks {says!r}: {result.stdout.strip()!r}")

    with tempfile.TemporaryDirectory() as work:
        expect("good trace and audit line", True, trace(), GOOD_AUDIT)
        expect("unique answer", True, trace(), dict(GOOD_AUDIT, runner_up_cost=None))
        expect("no sequence", True, trace(), dict(GOOD_AUDIT, sequences=0, best_cost=None,
                                                   runner_up_cost=None))
        expect("no dropped events", True, dict(trace(), droppedEvents=0), GOOD_AUDIT)
        expect("wrapped ring", True, wrapped(7),
               says="forgave 2 'E'(s) and 1 flow step(s) whose 'B' or 's' was dropped, "
               "and skipped the lookup/outcome count checks")
        expect("wrapped ring said to drop nothing", False, wrapped(0))
        expect("wrapped ring without the key", False, wrapped(None))
        for bad in (-1, "7", True, 1.5):
            expect(f"droppedEvents {bad!r}", False, wrapped(bad))
        rounds = [dict(GOOD_AUDIT, round=r) for r in (0, 0, 1, 1, 2)]
        expect("rounds in order", True, trace(), rounds)
        expect("round out of order", False, trace(), rounds[:3] + rounds[:1])
        expect("retired reason", False, trace(result_reason="delta_in_window_or_compaction"))
        expect("invalidation reason on a revalidation", False, trace(group_reason="append"))
        bad_lines = {
            "negative counter": {"candidates": -1},
            "negative round": {"round": -1},
            "round as a string": {"round": "0"},
            "bool round": {"round": False},
            "fractional counter": {"chain_nodes": 1.5},
            "bool counter": {"groups": True},
            "truncated as a number": {"truncated": 1},
            "cost as a string": {"best_cost": "0.01"},
            "best cost missing beside sequences": {"best_cost": None},
            "best cost without sequences": {"sequences": 0, "runner_up_cost": None},
            "runner-up below best": {"runner_up_cost": 0.001},
            "lookups exceed enumerations": {"cache_misses": 10},
            "invalidations exceed misses": {"cache_invalidations": 4},
        }
        for name, edit in bad_lines.items():
            expect(name, False, trace(), dict(GOOD_AUDIT, **edit))
        for key in ("runner_up_cost", "round"):
            missing = dict(GOOD_AUDIT)
            del missing[key]
            expect(f"missing {key}", False, trace(), missing)

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
