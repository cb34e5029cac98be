// csi_batch — parallel CSI analysis of many captures against one manifest.
//
// Usage:
//   csi_batch --manifest FILE --design CH|SH|CQ|SQ (--dir DIR | PCAP...)
//             [--threads N] [--repeat R]
//             [--host SUFFIX] [--quiet]
//             [--follow-manifests N] [--db-compact-after N]
//             [--cache-mb NAME=N]
//             [--metrics-out FILE] [--metrics-format json|prom]
//             [--trace-out FILE] [--trace-mode full|flight] [--audit-out FILE]
//
// The deployment workload (paper §6.2.3 scaled up): a directory of per-device
// captures of the same service, analyzed over one shared chunk database.
// Prints per-trace summaries, the bytes the held capture columns take, plus
// batch throughput in sessions/sec, both for analysis alone and end to end
// with the pcap ingest, and can dump a
// pipeline-telemetry snapshot (stage latencies, cache hit rates,
// thread-pool stats) next to the results.
//
// --follow-manifests N replays a live session: the batch starts from a
// prefix of the manifest (half the positions), and N metadata refreshes
// spread across the --repeat rounds append the remaining chunks through a
// LiveChunkDatabase — each round re-acquires the current snapshot, so the
// last round analyzes against the full database. Inference output at a given
// refresh point is byte-identical to a fresh full build there.
//
// Unreadable pcaps do not abort the batch: each failure is recorded and
// counted, the remaining traces are analyzed, and the exit status is
// non-zero only at the end (with a failure summary).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/capture/pcap_io.h"
#include "src/common/stats.h"
#include "src/common/telemetry.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/live_database.h"
#include "tools/cli_options.h"

using namespace csi;

namespace {

[[noreturn]] void Usage(const char* error) {
  if (error != nullptr) {
    std::fprintf(stderr, "error: %s\n\n", error);
  }
  std::fprintf(stderr,
               "usage: csi_batch --manifest FILE --design CH|SH|CQ|SQ (--dir DIR | PCAP...)\n"
               "                 [--threads N] [--repeat R]\n"
               "                 [--host SUFFIX] [--quiet]\n"
               "                 [--follow-manifests N] [--db-compact-after N]\n"
               "                 [--cache-mb NAME=N]\n"
               "                 [--metrics-out FILE] [--metrics-format json|prom]\n"
               "                 [--trace-out FILE] [--trace-mode full|flight]\n"
               "                 [--audit-out FILE]\n"
               "\n"
               "  --threads N            worker threads for the trace fan-out\n"
               "                         (0 to 1024; default 0 = hardware concurrency)\n"
               "  --follow-manifests N   replay a live manifest: start from a half-length\n"
               "                         prefix and apply N metadata refreshes spread across\n"
               "                         the --repeat rounds via a LiveChunkDatabase\n"
               "  --db-compact-after N   delta chunks that trigger a live-database\n"
               "                         compaction (default 4096; 0 = every refresh)\n"
               "  --cache-mb NAME=N      byte budget (MiB) for one shared cache tier, NAME\n"
               "                         in {result, prefix, candidate} (defaults: result 64,\n"
               "                         prefix 32, candidate 64; 0 turns the tier off).\n"
               "                         Results are byte-identical with any subset off\n"
               "  --trace-out FILE       record a structured event trace; full mode writes\n"
               "                         Chrome trace-event JSON (Perfetto-loadable) at exit\n"
               "  --trace-mode full|flight\n"
               "                         flight keeps a small per-thread ring and writes\n"
               "                         FILE only when a trace analysis throws (post-mortem)\n"
               "  --audit-out FILE       per-trace inference audit records as JSONL\n"
               "                         (candidate counts, DFS/prune totals, cache path,\n"
               "                         chosen-vs-runner-up costs), one per trace and\n"
               "                         --repeat round, marked with the round\n");
  std::exit(error == nullptr ? 0 : 2);
}

// The replay schedule for --follow-manifests: the prefix manifest the batch
// starts from plus the refreshes that grow it back to the full manifest.
struct FollowPlan {
  media::Manifest start;
  std::vector<infer::ManifestRefresh> refreshes;
};

FollowPlan BuildFollowPlan(const media::Manifest& full, int refreshes) {
  FollowPlan plan;
  const int positions = full.num_positions();
  const int start_positions = std::max(1, positions / 2);
  const int tail = positions - start_positions;
  const int steps = std::min(refreshes, tail);

  plan.start = full;
  for (auto& track : plan.start.video_tracks) {
    track.chunks.resize(static_cast<size_t>(start_positions));
  }
  for (auto& track : plan.start.audio_tracks) {
    track.chunks.resize(
        std::min(track.chunks.size(), static_cast<size_t>(start_positions)));
  }

  for (int r = 0; r < steps; ++r) {
    const int lo = start_positions + tail * r / steps;
    const int hi = start_positions + tail * (r + 1) / steps;
    infer::ManifestRefresh refresh;
    refresh.video_appends.resize(full.video_tracks.size());
    for (size_t t = 0; t < full.video_tracks.size(); ++t) {
      const auto& chunks = full.video_tracks[t].chunks;
      refresh.video_appends[t].assign(chunks.begin() + lo, chunks.begin() + hi);
    }
    plan.refreshes.push_back(std::move(refresh));
  }
  return plan;
}

int Run(int argc, char** argv) {
  tools::CommonOptions common;
  std::string dir;
  std::vector<std::string> pcap_paths;
  int threads = 0;
  int repeat = 1;
  int follow_refreshes = 0;
  // Starts at the library default, so a negative value can only come from the
  // command line.
  int db_compact_after =
      static_cast<int>(infer::LiveChunkDatabase::Options{}.compact_after_delta_chunks);
  bool quiet = false;

  tools::FlagParser parser;
  common.Register(&parser);
  parser.AddString("--dir", &dir);
  parser.AddInt("--threads", &threads);
  parser.AddInt("--repeat", &repeat);
  parser.AddInt("--follow-manifests", &follow_refreshes);
  parser.AddInt("--db-compact-after", &db_compact_after);
  parser.AddBool("--quiet", &quiet);

  std::string error;
  if (!parser.Parse(argc, argv, &pcap_paths, &error)) {
    Usage(error.c_str());
  }
  if (parser.help_requested()) {
    Usage(nullptr);
  }
  if (!common.Validate(&error)) {
    Usage(error.c_str());
  }
  if (!dir.empty()) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".pcap") {
        pcap_paths.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "error: cannot scan %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
    std::sort(pcap_paths.begin(), pcap_paths.end());
  }
  if (pcap_paths.empty()) {
    Usage("no pcap inputs (pass files or --dir)");
  }
  // A bound far above any core count, so that a typo cannot ask the pool for
  // more threads than the process may start.
  if (threads < 0 || threads > 1024) {
    Usage("--threads must be between 0 and 1024");
  }
  if (repeat < 1) {
    Usage("--repeat must be >= 1");
  }
  if (follow_refreshes < 0) {
    Usage("--follow-manifests must be >= 0");
  }
  if (db_compact_after < 0) {
    Usage("--db-compact-after must be >= 0");
  }

  std::string manifest_text;
  if (!tools::ReadFileToString(common.manifest_path, &manifest_text, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // Before the database build so the build spans land in the trace.
  tools::StartTraceSessionIfRequested(common);
  const media::Manifest manifest = media::Manifest::Parse(manifest_text);
  // Ingest: each capture's flow-major columns are built right after its read
  // and its capture-order trace is freed at once, so only one capture's trace
  // is ever held; the largest such trace's column bytes are reported beside
  // the columns. Every --repeat / --follow-manifests round then
  // analyzes the PacketColumns directly. A corrupt capture is an expected
  // condition at deployment scale (truncated tcpdump, mid-rotation file):
  // record it, keep going, fail at the end.
  std::vector<capture::PacketColumns> columns;
  std::vector<std::string> loaded_paths;
  std::vector<std::pair<std::string, std::string>> failures;
  columns.reserve(pcap_paths.size());
  size_t total_packets = 0;
  size_t held_packets = 0;
  size_t columns_bytes = 0;
  size_t records_peak_bytes = 0;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (const std::string& path : pcap_paths) {
    size_t packets = 0;
    try {
      const capture::CaptureTrace trace = capture::ReadPcap(path);
      records_peak_bytes = std::max(records_peak_bytes, trace.held_bytes());
      packets = trace.size();
      columns.push_back(capture::PacketColumns::Build(trace));
    } catch (const std::exception& e) {
      failures.emplace_back(path, e.what());
      CSI_COUNTER_INC("csi_batch_trace_load_failures_total");
      continue;
    }
    loaded_paths.push_back(path);
    total_packets += packets;
    held_packets += columns.back().packet_count();
    columns_bytes += columns.back().held_bytes();
  }
  CSI_GAUGE_SET("csi_capture_columns_bytes", columns_bytes);
  CSI_GAUGE_SET("csi_capture_records_peak_bytes", records_peak_bytes);
  const double ingest_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - ingest_start).count();
  std::printf("loaded %zu trace(s), %zu packets total in %.3f s; manifest %s: %d tracks x "
              "%d chunks\n",
              columns.size(), total_packets, ingest_s, manifest.asset_id.c_str(),
              manifest.num_video_tracks(), manifest.num_positions());
  std::printf("columns held: %.1f MiB (%zu of %zu packets, %.1f B/held packet); trace peak "
              "%.1f MiB\n",
              static_cast<double>(columns_bytes) / (1024.0 * 1024.0), held_packets,
              total_packets,
              held_packets > 0
                  ? static_cast<double>(columns_bytes) / static_cast<double>(held_packets)
                  : 0.0,
              static_cast<double>(records_peak_bytes) / (1024.0 * 1024.0));
  for (const auto& [path, what] : failures) {
    std::fprintf(stderr, "warning: skipped %s: %s\n", path.c_str(), what.c_str());
  }

  infer::InferenceConfig config;
  config.design = common.design();
  if (!common.host_suffix.empty()) {
    config.host_suffix = common.host_suffix;
  }
  infer::BatchConfig batch;
  batch.threads = threads;
  batch.caches = common.caches;
  if (!quiet) {
    batch.progress = [](size_t done, size_t total_traces) {
      std::fprintf(stderr, "  ...%zu/%zu traces\n", done, total_traces);
    };
  }

  // Live-replay mode: start from the prefix manifest and grow it back via a
  // LiveChunkDatabase. Static mode: one full build, as before.
  std::optional<FollowPlan> plan;
  std::optional<infer::LiveChunkDatabase> live;
  std::optional<infer::BatchAnalyzer> analyzer;
  if (follow_refreshes > 0) {
    plan = BuildFollowPlan(manifest, follow_refreshes);
    if (plan->refreshes.empty()) {
      std::fprintf(stderr,
                   "warning: manifest too short to follow (%d positions); "
                   "running a static batch\n",
                   manifest.num_positions());
      plan.reset();
    }
  }
  if (plan.has_value()) {
    infer::LiveChunkDatabase::Options live_options;
    live_options.compact_after_delta_chunks = static_cast<size_t>(db_compact_after);
    live.emplace(plan->start, live_options);
    // The engine must rank against the same non-media objects at every
    // refresh point; pin the full manifest's size up front (the default would
    // re-derive it from the prefix).
    config.other_object_sizes.push_back(manifest.SerializedSize() +
                                        config.expected_fixed_overhead);
    if (config.host_suffix.empty()) {
      config.host_suffix = manifest.host;
    }
    analyzer.emplace(live->Acquire(), config, batch);
    std::printf("following manifest: %d -> %d positions over %zu refresh(es)\n",
                plan->start.num_positions(), manifest.num_positions(),
                plan->refreshes.size());
  } else {
    analyzer.emplace(&manifest, config, batch);
  }

  std::vector<const capture::PacketColumns*> batch_columns;
  batch_columns.reserve(columns.size());
  for (const capture::PacketColumns& c : columns) {
    batch_columns.push_back(&c);
  }
  std::vector<infer::InferenceResult> results;
  std::vector<double> trace_seconds;
  std::vector<std::string> trace_errors;
  std::vector<infer::InferenceAudit> round_audits;
  std::vector<infer::InferenceAudit>* audits_out =
      common.audit_out.empty() ? nullptr : &round_audits;
  // With --audit-out, every round's audits and results, in round order.
  std::vector<infer::InferenceAudit> audits;
  std::vector<infer::InferenceResult> audited_results;
  size_t applied = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeat; ++r) {
    if (live.has_value()) {
      // Spread refreshes across rounds so the final round always sees the
      // fully grown database.
      const size_t target = plan->refreshes.size() * static_cast<size_t>(r + 1) /
                            static_cast<size_t>(repeat);
      for (; applied < target; ++applied) {
        live->ApplyRefresh(plan->refreshes[applied]);
      }
      const infer::DbSnapshot snapshot = live->Acquire();
      analyzer->UpdateSnapshot(snapshot);
      if (!quiet) {
        std::fprintf(stderr, "  round %d: epoch %llu, %d positions, %zu delta chunk(s)\n",
                     r, static_cast<unsigned long long>(snapshot.epoch()),
                     snapshot.num_positions(), snapshot.delta_chunks());
      }
    }
    results = analyzer->AnalyzeAll(batch_columns, &trace_seconds, &trace_errors, audits_out);
    if (audits_out != nullptr) {
      audits.insert(audits.end(), round_audits.begin(), round_audits.end());
      audited_results.insert(audited_results.end(), results.begin(), results.end());
    }
  }
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  if (live.has_value()) {
    live->WaitForCompaction();
  }

  if (!quiet) {
    for (size_t i = 0; i < results.size(); ++i) {
      std::printf("  %-40s %4zu sequence(s)%s  %.3f s\n", loaded_paths[i].c_str(),
                  results[i].sequences.size(), results[i].truncated ? " (truncated)" : "",
                  trace_seconds[i]);
    }
  }
  const double sessions = static_cast<double>(columns.size()) * repeat;
  // The calling thread analyzes alongside the pool's workers.
  std::printf("analyzed %.0f session(s) in %.3f s on %d worker(s) + the calling thread: "
              "%.2f sessions/sec\n",
              sessions, elapsed.count(), analyzer->threads(),
              sessions / std::max(elapsed.count(), 1e-9));
  // End to end: pcap bytes on disk to results, with the one-time ingest
  // (read + column build, on the calling thread) in the window.
  const double end_to_end_s = ingest_s + elapsed.count();
  std::printf("end to end (ingest %.3f s + analysis): %.3f s, %.2f sessions/sec\n", ingest_s,
              end_to_end_s, sessions / std::max(end_to_end_s, 1e-9));
  if (live.has_value()) {
    std::printf("live database: epoch %llu, %d positions, %zu residual delta chunk(s)\n",
                static_cast<unsigned long long>(live->epoch()), live->num_positions(),
                live->delta_chunks());
  }
  {
    const std::string cache_block = tools::FormatCacheSummaryBlock(
        analyzer->result_cache(), analyzer->prefix_cache(), analyzer->candidate_cache());
    if (!cache_block.empty()) {
      std::printf("%s\n", cache_block.c_str());
    }
  }
  {
    const std::string breakdown =
        tools::FormatStageBreakdown(telemetry::MetricsRegistry::Global().Snapshot());
    if (!breakdown.empty()) {
      std::printf("%s\n", breakdown.c_str());
    }
  }
  if (!trace_seconds.empty()) {
    RunningStats per_trace;
    for (double s : trace_seconds) {
      per_trace.Add(s);
    }
    std::printf("per-trace seconds (last repeat): min %.4f  mean %.4f  p95 %.4f  max %.4f\n",
                per_trace.min(), per_trace.mean(),
                Percentile(trace_seconds, 95.0), per_trace.max());
  }

  bool metrics_ok = true;
  if (!common.metrics_out.empty() &&
      !tools::WriteMetricsSnapshot(common.metrics_out, common.metrics_format, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    metrics_ok = false;
  }
  if (audits_out != nullptr &&
      !tools::WriteAuditJsonl(common.audit_out, loaded_paths, audits, audited_results,
                              &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    metrics_ok = false;
  }
  if (!tools::FinishTraceSession(common, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    metrics_ok = false;
  }
  // Analyze failures mirror load failures: every bad trace is reported by
  // name, the good results above still stand, and the exit status is the
  // only thing that turns red.
  size_t analyze_failures = 0;
  for (size_t i = 0; i < trace_errors.size(); ++i) {
    if (trace_errors[i].empty()) {
      continue;
    }
    if (analyze_failures == 0) {
      std::fprintf(stderr, "error: analysis failed for some trace(s):\n");
    }
    ++analyze_failures;
    std::fprintf(stderr, "  %s: %s\n", loaded_paths[i].c_str(), trace_errors[i].c_str());
  }
  if (!failures.empty()) {
    std::fprintf(stderr, "error: %zu of %zu pcap(s) failed to load:\n", failures.size(),
                 pcap_paths.size());
    for (const auto& [path, what] : failures) {
      std::fprintf(stderr, "  %s: %s\n", path.c_str(), what.c_str());
    }
    return 1;
  }
  if (analyze_failures > 0) {
    return 1;
  }
  return metrics_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return tools::GuardedMain(Run, argc, argv); }
