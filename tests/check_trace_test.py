#!/usr/bin/env python3
"""Runs tools/check_trace.py on hand-built traces and audit lines.

A well-formed trace and audit line must pass; each hand-edited bad one must
fail: a cache instant whose reason its outcome does not allow, an audit
counter of the wrong type or sign, a cost that disagrees with the sequence
count, and cache counts that exceed what the enumerations allow.

Usage: check_trace_test.py CHECK_TRACE_PY
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = sys.argv[1]


def event(name, ph, ts, args=None):
    ev = {"name": name, "cat": "cache", "ph": ph, "ts": ts, "pid": 1, "tid": 1}
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


GOOD_AUDIT = {
    "trace": "s.pcap",
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
    trace_path = os.path.join(work, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    args = [sys.executable, CHECKER, trace_path]
    if audit is not None:
        audit_path = os.path.join(work, "audit.jsonl")
        with open(audit_path, "w", encoding="utf-8") as fp:
            fp.write(json.dumps(audit) + "\n")
        args += ["--audit", audit_path]
    return subprocess.run(args, capture_output=True, text=True, check=False)


def main():
    failures = []

    def expect(name, passes, doc, audit=None):
        result = check(work, doc, audit)
        if (result.returncode == 0) != passes:
            failures.append(f"{name}: exit {result.returncode}, {result.stderr.strip()!r}")

    with tempfile.TemporaryDirectory() as work:
        expect("good trace and audit line", True, trace(), GOOD_AUDIT)
        expect("unique answer", True, trace(), dict(GOOD_AUDIT, runner_up_cost=None))
        expect("no sequence", True, trace(), dict(GOOD_AUDIT, sequences=0, best_cost=None,
                                                   runner_up_cost=None))
        expect("retired reason", False, trace(result_reason="delta_in_window_or_compaction"))
        expect("invalidation reason on a revalidation", False, trace(group_reason="append"))
        bad_lines = {
            "negative counter": {"candidates": -1},
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
        missing = dict(GOOD_AUDIT)
        del missing["runner_up_cost"]
        expect("missing cost", False, trace(), missing)

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
