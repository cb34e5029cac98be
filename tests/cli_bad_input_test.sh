#!/usr/bin/env bash
# Runs csi_analyze, csi_batch and csi_testgen on missing, truncated and junk
# inputs. Each run must exit non-zero without being killed by a signal (an
# exception escaping main aborts with SIGABRT, status 134) and must say why on
# an "error:" line.
#
# Usage: cli_bad_input_test.sh CSI_ANALYZE CSI_BATCH CSI_TESTGEN
set -u
analyze=$1
batch=$2
testgen=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/good"
"$testgen" --design CH --duration 20 --seed 1 --out "$work/good" > /dev/null || {
  echo "FAIL: csi_testgen could not write the reference session"
  exit 1
}
manifest=$work/good/video.manifest
head -c 1000 "$work/good/session.pcap" > "$work/truncated.pcap"
printf 'this is not a capture\n' > "$work/junk.pcap"
head -c 4096 /dev/urandom > "$work/junk.manifest"
# A manifest cut mid-line, as an interrupted copy leaves it.
head -c 200 "$manifest" > "$work/truncated.manifest"

failures=0
expect_error() {
  "$@" > /dev/null 2> "$work/stderr"
  local status=$?
  if [ "$status" -eq 0 ] || [ "$status" -ge 128 ]; then
    echo "FAIL (exit $status): $*"
    cat "$work/stderr"
    failures=$((failures + 1))
  elif ! grep -q '^error: ' "$work/stderr"; then
    echo "FAIL (no error line, exit $status): $*"
    cat "$work/stderr"
    failures=$((failures + 1))
  fi
}

for input in missing truncated junk; do
  pcap=$work/$input.pcap
  expect_error "$analyze" --pcap "$pcap" --manifest "$manifest" --design CH
  expect_error "$batch" --manifest "$manifest" --design CH --quiet "$pcap"
done
for input in missing truncated junk; do
  expect_error "$analyze" --pcap "$work/good/session.pcap" \
    --manifest "$work/$input.manifest" --design CH
  expect_error "$batch" --manifest "$work/$input.manifest" --design CH --quiet \
    "$work/good/session.pcap"
done
# A pcap path that names a directory.
expect_error "$analyze" --pcap "$work/good" --manifest "$manifest" --design CH
# csi_testgen's inputs are its flags and its output directory.
expect_error "$testgen" --design CH --out "$work/missing-dir"
expect_error "$testgen" --design CH --out "$work/good" --duration abc
expect_error "$testgen" --design CH --out "$work/good" --duration 60x
expect_error "$testgen" --design CH --out "$work/good" --seed -1
expect_error "$testgen" --design XX --out "$work/good"

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all bad inputs rejected cleanly"
