#!/usr/bin/env bash
# The analysis library (src/csi) takes a capture only as PacketColumns: a
# caller reads the pcap into a CaptureTrace and builds the columns once, and
# nothing under src/csi names the trace or its records, in code or comments.
# Fails listing every line that does.
#
# Usage: library_boundary_test.sh SRC_CSI_DIR
set -u
dir=$1
if [ ! -d "$dir" ]; then
  echo "FAIL: no directory $dir"
  exit 1
fi
if grep -rnE 'CaptureTrace|capture_trace\.h|PacketRecord|packet_record\.h' "$dir"; then
  echo "FAIL: the lines above name the capture trace or its records under $dir"
  exit 1
fi
echo "src/csi names neither CaptureTrace nor PacketRecord"
