#!/usr/bin/env bash
# Runs csi_analyze, csi_batch and csi_testgen on missing, truncated and junk
# inputs. Each run must exit non-zero without being killed by a signal (an
# exception escaping main aborts with SIGABRT, status 134) and must say why on
# an "error:" line. Where $expected_error is set, stderr must also carry that
# message (csi_batch names each capture that failed to load on its own line);
# where $expected_status is set, the exit status must be exactly that.
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
# A 60-s capture spans several read windows, where the 20-s one fits in one.
# csi_testgen creates the missing output directory itself.
"$testgen" --design CH --duration 60 --seed 1 --out "$work/long" > /dev/null || {
  echo "FAIL: csi_testgen could not write the 60-s reference session"
  exit 1
}
manifest=$work/good/video.manifest
head -c 1000 "$work/good/session.pcap" > "$work/truncated.pcap"
# Cut mid-record about four windows in.
head -c 1000003 "$work/long/session.pcap" > "$work/cut-late.pcap"
printf 'this is not a capture\n' > "$work/junk.pcap"
head -c 4096 /dev/urandom > "$work/junk.manifest"
# A manifest cut mid-line, as an interrupted copy leaves it.
head -c 200 "$manifest" > "$work/truncated.manifest"
# An empty manifest has no video track to match against.
: > "$work/empty.manifest"
# Hand-edited ladders whose lines all parse but describe no real chunk: every
# chunk duration 0, one negative chunk size, and a video track that lost its
# last chunks.
sed 's/^chunk \([0-9]*\) [0-9]*$/chunk \1 0/' "$manifest" > "$work/zero-duration.manifest"
awk '/^chunk / && !done { $2 = -115528; done = 1 } { print }' "$manifest" \
  > "$work/negative-size.manifest"
awk '/^video-track/ { track++ } track == 2 && /^chunk / && ++cut <= 3 { next } { print }' \
  "$manifest" > "$work/short-track.manifest"

failures=0
expect_error() {
  "$@" > /dev/null 2> "$work/stderr"
  local status=$?
  if [ "$status" -eq 0 ] || [ "$status" -ge 128 ] ||
    [ "$status" -ne "${expected_status:-$status}" ]; then
    echo "FAIL (exit $status): $*"
    cat "$work/stderr"
    failures=$((failures + 1))
  elif ! grep -q '^error: ' "$work/stderr" ||
    ! grep -qF "${expected_error:-error: }" "$work/stderr"; then
    echo "FAIL (no error line or no '${expected_error:-}', exit $status): $*"
    cat "$work/stderr"
    failures=$((failures + 1))
  fi
}

for input in missing truncated junk; do
  pcap=$work/$input.pcap
  expect_error "$analyze" --pcap "$pcap" --manifest "$manifest" --design CH
  expect_error "$batch" --manifest "$manifest" --design CH --quiet "$pcap"
done
expected_error="pcap: truncated packet body"
expect_error "$analyze" --pcap "$work/cut-late.pcap" --manifest "$manifest" --design CH
expect_error "$batch" --manifest "$manifest" --design CH --quiet "$work/cut-late.pcap"
expected_error=
for input in missing truncated junk; do
  expect_error "$analyze" --pcap "$work/good/session.pcap" \
    --manifest "$work/$input.manifest" --design CH
  expect_error "$batch" --manifest "$work/$input.manifest" --design CH --quiet \
    "$work/good/session.pcap"
done
expected_error="manifest: no video track"
expect_error "$analyze" --pcap "$work/good/session.pcap" --manifest "$work/empty.manifest" \
  --design CH
expect_error "$batch" --manifest "$work/empty.manifest" --design CH --quiet \
  "$work/good/session.pcap"
for input in zero-duration negative-size short-track; do
  case $input in
    short-track) expected_error="manifest: video track '" ;;
    *) expected_error="manifest: value not positive on line" ;;
  esac
  expect_error "$analyze" --pcap "$work/good/session.pcap" \
    --manifest "$work/$input.manifest" --design CH
  expect_error "$batch" --manifest "$work/$input.manifest" --design CH --quiet \
    "$work/good/session.pcap"
done
expected_error=
# A pcap path and a manifest path that name a directory.
expect_error "$analyze" --pcap "$work/good" --manifest "$manifest" --design CH
expected_error="cannot read $work/good"
expect_error "$analyze" --pcap "$work/good/session.pcap" --manifest "$work/good" --design CH
expect_error "$batch" --manifest "$work/good" --design CH --quiet "$work/good/session.pcap"
expected_error=
# Usage errors exit before any worker pool starts: a thread count past the
# bound is refused before a single thread is asked for.
expected_error="error: --threads must be between 0 and 1024"
expected_status=2
for n in -3 1025; do
  expect_error "$batch" --manifest "$manifest" --design CH --quiet --threads "$n" \
    "$work/good/session.pcap"
done
expected_status=
# -1 is a value like any other, not a spelling of "the default".
expected_error="error: --db-compact-after must be >= 0"
expected_status=2
for n in -1 -7; do
  expect_error "$batch" --manifest "$manifest" --design CH --quiet --follow-manifests 2 \
    --db-compact-after "$n" "$work/good/session.pcap"
done
expected_status=
# The database build is serial; its thread-count flag is gone.
expected_error="unknown argument: --db-build-threads"
expect_error "$analyze" --pcap "$work/good/session.pcap" --manifest "$manifest" --design CH \
  --db-build-threads 2
expect_error "$batch" --manifest "$manifest" --design CH --quiet --db-build-threads 2 \
  "$work/good/session.pcap"
# A tier is turned off by a budget of 0; the on/off flag is gone.
expected_error="unknown argument: --cache"
expect_error "$analyze" --pcap "$work/good/session.pcap" --manifest "$manifest" --design CH \
  --cache prefix=off
expect_error "$batch" --manifest "$manifest" --design CH --quiet --cache prefix=off \
  "$work/good/session.pcap"
# A cap below one sequence is a usage error (exit 2), raised before the pcap
# is read: the missing capture would otherwise fail first.
expected_error="error: --max-sequences must be >= 1"
expected_status=2
for n in 0 -5; do
  expect_error "$analyze" --pcap "$work/missing.pcap" --manifest "$manifest" --design CH \
    --max-sequences "$n"
done
expected_status=
# A metrics or audit file that cannot take the bytes is a failed run.
if [ -e /dev/full ]; then
  expected_error="short write to /dev/full"
  for flag in --metrics-out --audit-out; do
    expect_error "$analyze" --pcap "$work/good/session.pcap" --manifest "$manifest" \
      --design CH "$flag" /dev/full
    expect_error "$batch" --manifest "$manifest" --design CH --quiet "$flag" /dev/full \
      "$work/good/session.pcap"
  done
fi
expected_error=
# csi_testgen's inputs are its flags and its output directory. A directory
# it cannot create (here, below a file) fails before the simulation runs.
expected_error="error: cannot create $work/junk.pcap/session"
expect_error "$testgen" --design CH --out "$work/junk.pcap/session"
expected_error=
expect_error "$testgen" --design CH --out "$work/good" --duration abc
expect_error "$testgen" --design CH --out "$work/good" --duration 60x
expect_error "$testgen" --design CH --out "$work/good" --seed -1
expect_error "$testgen" --design XX --out "$work/good"

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all bad inputs rejected cleanly"
