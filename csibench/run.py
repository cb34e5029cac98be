#!/usr/bin/env python3
"""End-to-end benchmark of the CSI pipeline: pcap bytes on disk to inferred
chunk sequences plus QoE.

    python3 csibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds csibench_runner and the CSI
libraries from source into .bench_build/, generates the seed's inputs there
(reused while the seed and sources stay the same), runs one measurement and
prints, as the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones (see README.md). The line before it carries the
run's labels; the full record goes to .bench_build/results/.

Correctness: the runner's own checks (cache class, stage replay, determinism
across passes) plus the results digest and top-1 accuracy, compared against
csibench/digests.json for recorded seeds and against the first run of the
seed in this checkout otherwise. --record-digest adds the seed's values to
csibench/digests.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RUNNER = os.path.join(CMAKE_DIR, "csibench_runner")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
LOCAL_DIGESTS = os.path.join(BUILD_ROOT, "digests.json")
WORKLOADS = ("ch_cold_10min", "sq_cold_10min", "ch_live_replay")
# Generation plus measurement stay below the 180 s a run may take; the
# first build in a checkout may take longer.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850


def die(message, code=2):
    print("csibench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(command, log_path, timeout):
    with open(log_path, "ab") as log:
        log.write(("$ " + " ".join(command) + "\n").encode())
        log.flush()
        try:
            status = subprocess.run(command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            status = -1
    if status != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        die("command failed (%s): %s\n%s" % (status, " ".join(command), tail))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no CSI sources at %s/src: run from a repository checkout" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged([cmake, "-S", BENCH_DIR, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"] +
                   generator, log, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged([cmake, "--build", CMAKE_DIR, "--target", "csibench_runner", "-j", jobs], log,
               BUILD_TIMEOUT_S)


def source_digest():
    """sha256 over the sources the runner is built from (the checkout the
    benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "csibench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        # Only the checkout itself, never a repository it happens to sit in.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def prepare_inputs(workload, seed, sources, deadline):
    data = os.path.join(BUILD_ROOT, "data", workload)
    stamp_path = os.path.join(data, "stamp.json")
    stamp = {"seed": seed, "sources": sources}
    try:
        with open(stamp_path) as f:
            if json.load(f) == stamp:
                return data
    except (OSError, ValueError):
        pass
    # Only the latest inputs are kept: one seed of 10-min captures takes up
    # to ~1.8 GB.
    shutil.rmtree(os.path.join(BUILD_ROOT, "data"), ignore_errors=True)
    os.makedirs(data)
    run_logged([RUNNER, "gen", "--workload", workload, "--seed", str(seed), "--data", data],
               os.path.join(BUILD_ROOT, "gen.log"), max(1, deadline - time.monotonic()))
    with open(stamp_path, "w") as f:
        json.dump(stamp, f)
    # Write the ~1.5 GB of fresh captures back now, not under the clocks.
    os.sync()
    return data


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check_digest(workload, seed, record, result, sources, reasons):
    """Compares the run's digest and accuracy with the reference for the seed;
    returns where the reference came from."""
    observed = {"digest": result["digest"], "top1_accuracy": result["top1_accuracy"]}
    key = str(seed)
    if record:
        digests = load_json(DIGESTS)
        digests.setdefault(workload, {})[key] = observed
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
        return "recorded_now"
    expected = load_json(DIGESTS).get(workload, {}).get(key)
    source = "digests.json"
    if expected is None:
        # Unrecorded seed: its first run in this checkout is the reference
        # for every later run, whatever the sources are by then, so a change
        # to src/ that alters the output fails here too. The sha256 of the
        # sources it came from is stored beside it.
        local = load_json(LOCAL_DIGESTS)
        expected = local.get(workload, {}).get(key)
        source = "first_run_in_checkout"
        if expected is None:
            local.setdefault(workload, {})[key] = dict(observed, source_sha256=sources)
            with open(LOCAL_DIGESTS, "w") as f:
                json.dump(local, f, indent=1, sort_keys=True)
            return source
    if expected["digest"] != observed["digest"]:
        reasons.append("results digest %s, expected %s" % (observed["digest"],
                                                          expected["digest"]))
    if abs(expected["top1_accuracy"] - observed["top1_accuracy"]) > 1e-12:
        reasons.append("top1 accuracy %r, expected %r" % (observed["top1_accuracy"],
                                                          expected["top1_accuracy"]))
    return source


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-digest", action="store_true",
                        help="store this seed's digest in csibench/digests.json")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    sources = source_digest()
    data = prepare_inputs(args.workload, args.seed, sources, deadline)
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [RUNNER, "run", "--workload", args.workload, "--seed", str(args.seed), "--data",
               data, "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(results_dir, tag + ".trace.json")]
    try:
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("generation and measurement exceeded %d s" % RUN_BUDGET_S, 3)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        die("runner failed with status %d" % out.returncode, 3)
    result = json.loads(lines[-1])

    reasons = list(result["check_failures"])
    labels = dict(result["labels"])
    labels["digest"] = result["digest"]
    labels["digest_reference"] = check_digest(args.workload, args.seed, args.record_digest,
                                              result, sources, reasons)
    labels["git_commit"] = git_commit()
    labels["source_sha256"] = sources
    labels["check_failures"] = reasons
    correct = result["correct"] and not reasons
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"labels": labels, "result": result, "correct": correct}, f, indent=1)
        f.write("\n")

    print("labels: " + json.dumps(labels, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
