// csi_analyze — offline CSI analysis of an encrypted capture.
//
// Usage:
//   csi_analyze --pcap session.pcap --manifest video.manifest --design SH
//               [--host suffix] [--max-sequences N] [--report sequence|qoe|both]
//               [--cache-mb NAME=N]
//               [--metrics-out FILE] [--metrics-format json|prom]
//               [--trace-out FILE] [--trace-mode full|flight] [--audit-out FILE]
//
// Inputs are exactly what a real deployment has (paper §4): a tcpdump pcap of
// the encrypted session and the chunk-size manifest collected ahead of time.
// Prints the inferred chunk sequence(s) and/or the derived QoE report.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/capture/pcap_io.h"
#include "src/common/table.h"
#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/inference.h"
#include "src/csi/qoe.h"
#include "tools/cli_options.h"

using namespace csi;

namespace {

[[noreturn]] void Usage(const char* error) {
  if (error != nullptr) {
    std::fprintf(stderr, "error: %s\n\n", error);
  }
  std::fprintf(stderr,
               "usage: csi_analyze --pcap FILE --manifest FILE --design CH|SH|CQ|SQ\n"
               "                   [--host SUFFIX] [--max-sequences N]\n"
               "                   [--report sequence|qoe|both]\n"
               "                   [--cache-mb NAME=N]  (NAME in {result, prefix,\n"
               "                   candidate}; N = 0 turns that cache off)\n"
               "                   [--metrics-out FILE] [--metrics-format json|prom]\n"
               "                   [--trace-out FILE] [--trace-mode full|flight]\n"
               "                   [--audit-out FILE]\n");
  std::exit(error == nullptr ? 0 : 2);
}

int Run(int argc, char** argv) {
  tools::CommonOptions common;
  std::string pcap_path;
  std::string report = "both";
  int max_sequences = 512;

  tools::FlagParser parser;
  common.Register(&parser);
  parser.AddString("--pcap", &pcap_path);
  parser.AddString("--report", &report);
  parser.AddInt("--max-sequences", &max_sequences);

  std::string error;
  if (!parser.Parse(argc, argv, nullptr, &error)) {
    Usage(error.c_str());
  }
  if (parser.help_requested()) {
    Usage(nullptr);
  }
  if (pcap_path.empty()) {
    Usage("--pcap, --manifest and --design are required");
  }
  if (!common.Validate(&error)) {
    Usage(error.c_str());
  }
  if (report != "sequence" && report != "qoe" && report != "both") {
    Usage("--report must be sequence, qoe or both");
  }
  if (max_sequences < 1) {
    Usage("--max-sequences must be >= 1");
  }

  std::string manifest_text;
  if (!tools::ReadFileToString(common.manifest_path, &manifest_text, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // Before the database build so the build spans land in the trace.
  tools::StartTraceSessionIfRequested(common);
  const media::Manifest manifest = media::Manifest::Parse(manifest_text);
  // Transpose to the columnar layout right after the pcap parse; the packet
  // records are dropped before the engine runs.
  const capture::PacketColumns columns = [&] {
    const capture::CaptureTrace trace = capture::ReadPcap(pcap_path);
    CSI_GAUGE_SET("csi_capture_records_peak_bytes",
                  trace.capacity() * sizeof(capture::PacketRecord));
    return capture::PacketColumns::Build(trace);
  }();
  CSI_GAUGE_SET("csi_capture_columns_bytes", columns.held_bytes());
  std::printf("loaded %zu packets, manifest %s: %d video tracks x %d chunks%s\n",
              columns.packet_count(), manifest.asset_id.c_str(),
              manifest.num_video_tracks(), manifest.num_positions(),
              manifest.has_separate_audio() ? " + audio" : "");

  infer::InferenceConfig config;
  config.design = common.design();
  config.max_sequences = max_sequences;
  if (!common.host_suffix.empty()) {
    config.host_suffix = common.host_suffix;
  }
  // Single-trace runs still profit within the trace (repeated group
  // signatures across SQ groups), and every attached tier keeps its lookup
  // metrics and trace instants exercised on the single-shot tool.
  infer::AttachCaches(common.caches, &config.caches);
  const infer::InferenceEngine engine(&manifest, config);
  infer::InferenceAudit audit;
  infer::InferenceResult result;
  try {
    result = engine.Analyze(columns, {}, &audit);
  } catch (const std::exception& e) {
    // Same post-mortem path as BatchAnalyzer: a flight-mode session dumps the
    // last events before the error surfaces.
    trace::TraceSession::Global().DumpFlightRecord(pcap_path, e.what());
    std::fprintf(stderr, "error: analysis failed: %s\n", e.what());
    return 1;
  }
  // Snapshot right after Analyze so the export happens even on the
  // no-sequence early exit below.
  if (!common.metrics_out.empty() &&
      !tools::WriteMetricsSnapshot(common.metrics_out, common.metrics_format, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!common.audit_out.empty() &&
      !tools::WriteAuditJsonl(common.audit_out, {pcap_path}, {audit}, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!tools::FinishTraceSession(common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::printf("inference: %zu candidate sequence(s)%s\n", result.sequences.size(),
              result.truncated ? " (truncated)" : "");
  {
    const std::string cache_block = tools::FormatCacheSummaryBlock(
        config.caches.result.get(), config.caches.prefix.get(), config.caches.candidate.get());
    if (!cache_block.empty()) {
      std::printf("%s\n", cache_block.c_str());
    }
  }
  std::printf("\n");
  if (result.sequences.empty()) {
    std::fprintf(stderr, "no matching chunk sequence found — wrong manifest or design?\n");
    return 1;
  }
  const infer::InferredSequence& best = result.sequences.front();

  if (report == "sequence" || report == "both") {
    TextTable table;
    table.SetHeader({"request (s)", "kind", "track", "index"});
    for (const auto& slot : best.slots) {
      const char* kind = slot.kind == infer::SlotKind::kVideo   ? "video"
                         : slot.kind == infer::SlotKind::kAudio ? "audio"
                                                                : "other";
      table.AddRow({FormatDouble(UsToSeconds(slot.request_time), 2), kind,
                    slot.kind == infer::SlotKind::kOther
                        ? "-"
                        : manifest.TrackOf(slot.chunk).name,
                    slot.kind == infer::SlotKind::kOther ? "-"
                                                         : std::to_string(slot.chunk.index)});
    }
    std::printf("%s\n", table.Render().c_str());
  }

  if (report == "qoe" || report == "both") {
    const infer::QoeReport qoe = infer::AnalyzeQoe(best, manifest);
    TextTable table;
    table.SetHeader({"metric", "value"});
    table.AddRow({"avg delivered bitrate",
                  FormatDouble(qoe.avg_bitrate / 1000.0, 0) + " kbps"});
    table.AddRow({"startup delay", FormatDouble(UsToSeconds(qoe.startup_delay), 2) + " s"});
    table.AddRow({"stalls", std::to_string(qoe.stall_count)});
    table.AddRow({"total stall time", FormatDouble(UsToSeconds(qoe.total_stall), 2) + " s"});
    table.AddRow({"track switches", std::to_string(qoe.track_switches)});
    table.AddRow({"data usage", FormatBytes(static_cast<double>(qoe.data_usage))});
    for (int t = 0; t < manifest.num_video_tracks(); ++t) {
      table.AddRow({"time on " + manifest.video_tracks[static_cast<size_t>(t)].name,
                    FormatDouble(100 * qoe.track_time_fraction[static_cast<size_t>(t)], 1) +
                        " %"});
    }
    std::printf("%s\n", table.Render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tools::GuardedMain(Run, argc, argv); }
