#!/usr/bin/env python3
"""Runs csi_batch on a live replay and checks its --audit-out log.

Two 60-s CH captures are replayed with --follow-manifests 1 --repeat 3: the
one refresh lands before round 2, so round 1 analyzes against the same
database state as round 0 and every one of its analyses is a result-tier
hit. The log must hold rounds x captures lines, in round order, each marked
with its round and labeled with its capture. The hit lines, and only they,
have every work counter at 0, and they keep the shape (media flows, groups,
sequences, truncation, costs) of the round-0 line they repeat. Their number
equals the result-tier hits in the run's trace, and tools/check_trace.py
passes the trace, the metrics and the log.

Usage: audit_replay_test.py CSI_TESTGEN CSI_BATCH CHECK_TRACE_PY
"""

import json
import os
import subprocess
import sys
import tempfile

TESTGEN, BATCH, CHECKER = sys.argv[1:4]
ROUNDS = 3
HIT_ROUND = 1
WORK_COUNTERS = (
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
)
SHAPE = ("media_flows", "groups", "sequences", "truncated", "best_cost", "runner_up_cost")


def run(args):
    result = subprocess.run(args, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        print(f"FAIL: {' '.join(args)} exited {result.returncode}\n{result.stderr}")
        sys.exit(1)
    return result.stdout


def main():
    failures = []
    with tempfile.TemporaryDirectory() as work:
        captures = []
        for seed in (1, 2):
            out = os.path.join(work, f"s{seed}")
            run([TESTGEN, "--design", "CH", "--duration", "60", "--seed", str(seed),
                 "--out", out])
            captures.append(os.path.join(out, "session.pcap"))
        audit = os.path.join(work, "audit.jsonl")
        trace = os.path.join(work, "trace.json")
        metrics = os.path.join(work, "metrics.json")
        run([BATCH, "--manifest", os.path.join(work, "s1", "video.manifest"), "--design", "CH",
             "--quiet", "--threads", "2", "--follow-manifests", "1", "--repeat", str(ROUNDS),
             "--audit-out", audit, "--trace-out", trace, "--metrics-out", metrics] + captures)
        run([sys.executable, CHECKER, trace, "--run-metrics", metrics, "--audit", audit])

        with open(audit, encoding="utf-8") as fp:
            lines = [json.loads(line) for line in fp]
        if len(lines) != ROUNDS * len(captures):
            failures.append(f"{len(lines)} audit lines, want {ROUNDS} x {len(captures)}")
        else:
            for i, line in enumerate(lines):
                want = (i // len(captures), captures[i % len(captures)])
                if (line["round"], line["trace"]) != want:
                    failures.append(f"line {i}: (round, trace) {(line['round'], line['trace'])}, "
                                    f"want {want}")
                idle = all(line[key] == 0 for key in WORK_COUNTERS)
                if idle != (line["round"] == HIT_ROUND):
                    failures.append(f"line {i} (round {line['round']}): work counters "
                                    f"{'all' if idle else 'not all'} 0")
                if line["round"] == HIT_ROUND:
                    first = lines[i % len(captures)]
                    for key in SHAPE:
                        if line[key] != first[key]:
                            failures.append(f"line {i}: {key} {line[key]!r}, round 0 had "
                                            f"{first[key]!r}")

        with open(trace, encoding="utf-8") as fp:
            events = json.load(fp)["traceEvents"]
        hits = sum(1 for ev in events if ev["name"] == "result_cache" and
                   ev.get("args", {}).get("outcome") == "hit")
        if hits != len(captures):
            failures.append(f"{hits} result-tier hit(s) in the trace, want {len(captures)}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
