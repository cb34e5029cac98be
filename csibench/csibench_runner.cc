// csibench_runner — end-to-end benchmark of the CSI pipeline, from pcap bytes
// on disk to inferred chunk sequences plus QoE.
//
// Usage:
//   csibench_runner gen --workload NAME --seed N --data DIR
//   csibench_runner run --workload NAME --seed N --data DIR --seconds S
//                       --trace 0|1 [--trace-out FILE]
//
// `gen` writes one seed's inputs (manifest, captures, ground truth) into DIR.
// It runs as its own process so that generation never shows in the measuring
// process's clocks or peak RSS.
//
// `run` repeats passes for about S seconds (at least one pass; another only
// when it ends nearer to S than stopping does). A pass
// follows csi_batch's sequence of public calls: media::Manifest::Parse and
// BatchAnalyzer construction (the set-up), then capture::ReadPcap and
// capture::PacketColumns::Build per capture, one BatchAnalyzer::AnalyzeAll
// per round, and infer::AnalyzeQoe on every top-ranked sequence. Every pass
// builds a fresh analyzer, so a cold workload stays cold however many passes
// run. With --trace 1 the pass also replays the first
// round as its public stage calls under the runner's own spans (bench_lib.h)
// and checks the replay against AnalyzeAll session by session.
//
// The last stdout line is one JSON object: the metrics of the mode, the run's
// labels, the results digest and the outcome of every correctness check.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csibench/bench_lib.h"
#include "src/common/simd.h"
#include "src/common/thread_pool.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/live_database.h"
#include "src/csi/qoe.h"
#include "src/testbed/metrics.h"

#ifndef CSIBENCH_BUILD_TYPE
#define CSIBENCH_BUILD_TYPE "unknown"
#endif

using namespace csi;
using namespace csibench;

namespace {

// Worker threads of every analyzer. The calling thread also drains
// AnalyzeAll's loop, so up to kWorkers + 1 analyses run at once.
constexpr int kWorkers = 2;
// Untraced runs time extra set-ups before every measured batch window,
// besides each pass's own. A set-up takes about a millisecond, and a shared
// host's speed swings by tens of percent from one second to the next, so the
// samples are spread over the whole run and the median is reported.
constexpr int kSetupSamplesPerWindow = 40;
constexpr auto kSetupSampleGap = std::chrono::milliseconds(5);

struct Options {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  std::string data;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: csibench_runner gen --workload NAME --seed N --data DIR\n"
               "       csibench_runner run --workload NAME --seed N --data DIR --seconds S\n"
               "                           --trace 0|1 [--trace-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  if (argc < 2) {
    Usage("missing mode");
  }
  Options options;
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--data") {
        options.data = value;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value);
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.mode != "gen" && options.mode != "run") {
    Usage("mode must be gen or run");
  }
  if (options.workload.empty() || options.data.empty()) {
    Usage("--workload and --data are required");
  }
  if (options.seconds <= 0 || (options.trace != 0 && options.trace != 1)) {
    Usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return options;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Set-up

// The live replay's schedule, as csi_batch --follow-manifests builds it: the
// database starts from the first half of the positions and `refreshes`
// publishes append the rest in equal steps.
media::Manifest SplitLiveManifest(const media::Manifest& full, int refreshes,
                                  std::vector<infer::ManifestRefresh>* plan) {
  const int positions = full.num_positions();
  const int start_positions = std::max(1, positions / 2);
  const int tail = positions - start_positions;
  const int steps = std::min(refreshes, tail);
  media::Manifest start = full;
  for (auto& track : start.video_tracks) {
    track.chunks.resize(static_cast<size_t>(start_positions));
  }
  for (auto& track : start.audio_tracks) {
    track.chunks.resize(std::min(track.chunks.size(), static_cast<size_t>(start_positions)));
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
    plan->push_back(std::move(refresh));
  }
  return start;
}

// Everything a pass builds before its clock starts. Members are destroyed in
// reverse order: the analyzer before the live database it reads, the
// database before the pool its compaction runs on.
struct Setup {
  media::Manifest manifest;
  std::vector<infer::ManifestRefresh> refreshes;
  std::unique_ptr<ThreadPool> live_pool;
  std::unique_ptr<infer::LiveChunkDatabase> live;
  std::unique_ptr<infer::BatchAnalyzer> analyzer;
  double seconds = 0;
};

std::unique_ptr<Setup> MakeSetup(const WorkloadSpec& spec, const std::string& dir,
                                 SpanRecorder* spans) {
  auto setup = std::make_unique<Setup>();
  const Clock::time_point start = Clock::now();
  const SpanRecorder::Scope span(spans, "setup");
  {
    const SpanRecorder::Scope parse(spans, "media.manifest_parse");
    std::string text;
    if (!ReadFile(ManifestPath(dir), &text)) {
      throw std::runtime_error("cannot read " + ManifestPath(dir));
    }
    setup->manifest = media::Manifest::Parse(text);
  }
  // Default inference config and cache budgets, as the tools run them.
  infer::InferenceConfig config;
  config.design = spec.design;
  infer::BatchConfig batch;
  batch.threads = kWorkers;
  {
    const SpanRecorder::Scope build(spans, "csi.chunk_database.build");
    if (spec.live) {
      const media::Manifest start_manifest =
          SplitLiveManifest(setup->manifest, spec.refreshes, &setup->refreshes);
      setup->live_pool = std::make_unique<ThreadPool>(1);
      infer::LiveDbOptions options;
      options.pool = setup->live_pool.get();
      // The last refresh brings the delta to this size and starts a
      // background compaction, which then overlaps the next round's
      // analyses: writes beside reads.
      options.compact_after_delta_chunks =
          static_cast<size_t>(setup->manifest.num_positions() - start_manifest.num_positions()) *
          static_cast<size_t>(setup->manifest.num_video_tracks());
      setup->live = std::make_unique<infer::LiveChunkDatabase>(start_manifest, options);
      // As csi_batch --follow-manifests: rank against the full manifest's
      // non-media objects at every refresh point.
      config.other_object_sizes.push_back(setup->manifest.SerializedSize() +
                                          config.expected_fixed_overhead);
      config.host_suffix = setup->manifest.host;
      setup->analyzer =
          std::make_unique<infer::BatchAnalyzer>(setup->live->Acquire(), config, batch);
    } else {
      setup->analyzer = std::make_unique<infer::BatchAnalyzer>(&setup->manifest, config, batch);
    }
  }
  setup->seconds = Since(start);
  return setup;
}

void SampleSetups(const WorkloadSpec& spec, const std::string& dir,
                  std::vector<double>* seconds) {
  for (int i = 0; i < kSetupSamplesPerWindow; ++i) {
    seconds->push_back(MakeSetup(spec, dir, nullptr)->seconds);
    std::this_thread::sleep_for(kSetupSampleGap);
  }
}

// ---------------------------------------------------------------------------
// Passes

enum class RoundKind { kInitial, kPlain, kRefresh };

RoundKind KindOfRound(int round) {
  if (round == 0) {
    return RoundKind::kInitial;
  }
  return round % 2 == 1 ? RoundKind::kPlain : RoundKind::kRefresh;
}

struct TierStats {
  infer::CacheStats result;
  infer::CacheStats prefix;
  infer::CacheStats candidate;
};

TierStats ReadTiers(const infer::BatchAnalyzer& analyzer) {
  TierStats stats;
  if (analyzer.result_cache() != nullptr) {
    stats.result = analyzer.result_cache()->stats();
  }
  if (analyzer.prefix_cache() != nullptr) {
    stats.prefix = analyzer.prefix_cache()->stats();
  }
  if (analyzer.candidate_cache() != nullptr) {
    stats.candidate = analyzer.candidate_cache()->stats();
  }
  return stats;
}

// Result- plus prefix-tier hits between two reads: the tiers whose hits make
// a round warm.
uint64_t WarmHits(const TierStats& before, const TierStats& after) {
  return (after.result.hits - before.result.hits) + (after.prefix.hits - before.prefix.hits);
}

// Totals over every pass of a run.
struct RunTotals {
  FailureTally tally;
  std::vector<double> setup_s;
  std::vector<double> session_ms;
  // Batch windows, each from its first ReadPcap to its last AnalyzeQoe: how
  // many, their summed length, and the analyses and packets done in them.
  int windows = 0;
  double window_s = 0;
  uint64_t window_analyses = 0;
  uint64_t window_packets = 0;
  int passes = 0;
  // Per pass: its digest; of the first pass: accuracy per analysis.
  std::vector<std::string> digests;
  std::vector<double> accuracy;
  // Input shape of one pass (identical across passes).
  uint64_t packets_ingested = 0;
  uint64_t pcap_bytes = 0;
  // Correctness checks that failed, one message each.
  std::vector<std::string> check_failures;
  uint64_t plain_warm_hits = 0;
  uint64_t refresh_warm_hits = 0;
  // Traced runs only.
  StageCounts counts;
  uint64_t replayed_sessions = 0;
  uint64_t replay_mismatches = 0;
  // Round 0's replayed stages and QoE, timed under spans and, on the same
  // columns, with a null recorder.
  double traced_replay_s = 0;
  double untraced_replay_s = 0;
  double capture_rss_mb = 0;
  double batch_rss_mb = 0;
  double slot_s = 0;
  double busy_capacity_s = 0;  // AnalyzeAll wall x analyses in flight
  double slowest_slot_s = 0;
  uint64_t delta_chunks = 0;
  TierStats tiers;  // summed over passes
};

void AddStats(const infer::CacheStats& from, infer::CacheStats* to) {
  to->hits += from.hits;
  to->misses += from.misses;
  to->inserts += from.inserts;
  to->evictions += from.evictions;
  to->invalidations += from.invalidations;
  to->bytes += from.bytes;
  to->entries += from.entries;
}

// One pass: a fresh set-up, then every batch of the workload's sessions
// through ingest, its rounds of AnalyzeAll and QoE.
class Pass {
 public:
  Pass(const WorkloadSpec& spec, const std::string& dir,
       const std::vector<std::vector<player::DownloadRecord>>& truth, SpanRecorder* spans,
       RunTotals* totals)
      : spec_(spec), dir_(dir), truth_(truth), spans_(spans), totals_(totals) {}

  // The set-up, then the workload's sessions batch by batch. With
  // `sample_setups`, extra set-ups are timed before every batch window.
  void Run(bool sample_setups) {
    const int sessions = spec_.sessions;
    setup_ = MakeSetup(spec_, dir_, spans_);
    totals_->setup_s.push_back(setup_->seconds);
    // The traced replay and its untraced twin each get their own cold
    // candidate tier with the default budget, so both do the same enumeration
    // work a cold AnalyzeAll does.
    if (spans_ != nullptr && setup_->analyzer->candidate_cache() != nullptr) {
      const size_t budget =
          static_cast<size_t>(infer::BatchConfig{}.caches.candidate.budget_mb) * 1024 * 1024;
      replay_cache_ = std::make_unique<infer::GroupCandidateCache>(budget);
      untraced_replay_cache_ = std::make_unique<infer::GroupCandidateCache>(budget);
    }
    totals_->packets_ingested = 0;
    totals_->pcap_bytes = 0;

    for (int first = 0; first < sessions; first += spec_.batch) {
      const int last = std::min(first + spec_.batch, sessions);
      // Each batch's window runs from its first ReadPcap to its last
      // AnalyzeQoe (and, at the end of the pass, the wait for a pending
      // compaction); throughput is the work of all windows over their summed
      // length.
      if (sample_setups) {
        SampleSetups(spec_, dir_, &totals_->setup_s);
      }
      const Clock::time_point window_start = Clock::now();
      const uint64_t analyses_before = analyses_;
      const uint64_t packets_before = packets_analyzed_;
      RunBatch(first, last);
      if (last == sessions) {
        const SpanRecorder::Scope wait(spans_, "csi.live_database.compaction_wait");
        if (setup_->live != nullptr) {
          setup_->live->WaitForCompaction();
        }
      }
      ++totals_->windows;
      totals_->window_s += Since(window_start);
      totals_->window_analyses += analyses_ - analyses_before;
      totals_->window_packets += packets_analyzed_ - packets_before;
    }

    const TierStats tiers = ReadTiers(*setup_->analyzer);
    AddStats(tiers.result, &totals_->tiers.result);
    AddStats(tiers.prefix, &totals_->tiers.prefix);
    AddStats(tiers.candidate, &totals_->tiers.candidate);

    totals_->digests.push_back(DigestResults(results_));
    if (totals_->passes == 0) {
      for (size_t a = 0; a < results_.size(); ++a) {
        const infer::InferenceResult& result = results_[a];
        totals_->accuracy.push_back(
            result.sequences.empty()
                ? 0.0
                : testbed::SequenceAccuracy(result.sequences[0], truth_[result_session_[a]]));
      }
    }
    ++totals_->passes;
  }

 private:
  // Sessions [first, last): csi_batch's sequence over one directory of
  // captures, as many rounds as the workload has.
  void RunBatch(int first, int last) {
    const bool traced = spans_ != nullptr;
    const double rss_before_ingest = traced ? CurrentRssMb() : 0;
    std::vector<IngestedSession> ingested;
    for (int i = first; i < last; ++i) {
      const SpanRecorder::Scope session(spans_, "session", i);
      ingested.push_back(IngestSession(SessionPcapPath(dir_, i), spans_, i));
    }
    if (traced) {
      totals_->capture_rss_mb += CurrentRssMb() - rss_before_ingest;
    }
    std::vector<const capture::PacketColumns*> columns;
    std::vector<int> loaded;  // session index of each column set
    uint64_t packets = 0;
    for (int i = first; i < last; ++i) {
      const IngestedSession& session = ingested[static_cast<size_t>(i - first)];
      packets += session.packets;
      totals_->packets_ingested += session.packets;
      totals_->pcap_bytes += session.pcap_bytes;
      if (session.columns.has_value()) {
        columns.push_back(&*session.columns);
        loaded.push_back(i);
      }
    }

    for (int round = 0; round < spec_.rounds; ++round) {
      RunRound(round, ingested, first, columns, loaded);
      packets_analyzed_ += packets;
    }
  }

  void RunRound(int round, const std::vector<IngestedSession>& ingested, int first,
                const std::vector<const capture::PacketColumns*>& columns,
                const std::vector<int>& loaded) {
    const bool traced = spans_ != nullptr;
    const RoundKind kind = KindOfRound(round);
    infer::BatchAnalyzer& analyzer = *setup_->analyzer;
    const SpanRecorder::Scope round_span(spans_, "round");
    {
      const SpanRecorder::Scope refresh(spans_, "csi.live_database.refresh");
      if (kind == RoundKind::kRefresh) {
        setup_->live->ApplyRefresh(setup_->refreshes.at(next_refresh_++));
        totals_->delta_chunks = std::max<uint64_t>(totals_->delta_chunks,
                                                   setup_->live->Acquire().delta_chunks());
      }
    }

    // Traced first round: the stage replay, one session span each. Its
    // untraced twin runs the same stages and QoE on the same columns with a
    // null recorder, before the traced replay in even sessions and after it in
    // odd ones; the difference between the two is the tracing overhead.
    std::vector<infer::InferenceResult> replayed(columns.size());
    std::vector<double> replay_qoe_s(columns.size(), 0.0);
    if (traced && round == 0) {
      for (size_t j = 0; j < columns.size(); ++j) {
        StageCounts untraced_counts;
        const auto untraced = [&] {
          totals_->untraced_replay_s += Replay(*columns[j], loaded[j], nullptr,
                                               untraced_replay_cache_.get(), &untraced_counts)
                                            .seconds;
        };
        if (j % 2 == 0) {
          untraced();
        }
        ReplayOutcome outcome =
            Replay(*columns[j], loaded[j], spans_, replay_cache_.get(), &totals_->counts);
        if (j % 2 == 1) {
          untraced();
        }
        totals_->traced_replay_s += outcome.seconds;
        replay_qoe_s[j] = outcome.qoe_s;
        replayed[j] = std::move(outcome.result);
      }
    }

    const TierStats before = ReadTiers(analyzer);
    const double rss_before_analyze = traced ? CurrentRssMb() : 0;
    const double peak_before_analyze = traced ? PeakRssMb() : 0;
    std::vector<double> slot_s;
    std::vector<std::string> errors;
    std::vector<infer::InferenceResult> results;
    const Clock::time_point analyze_start = Clock::now();
    {
      const SpanRecorder::Scope batch(spans_, "csi.batch_analyzer");
      if (setup_->live != nullptr) {
        analyzer.UpdateSnapshot(setup_->live->Acquire());
      }
      results = analyzer.AnalyzeAll(columns, &slot_s, &errors);
    }
    const double analyze_wall = Since(analyze_start);
    const TierStats after = ReadTiers(analyzer);
    if (traced) {
      const double peak_after = PeakRssMb();
      const double high = peak_after > peak_before_analyze ? peak_after : CurrentRssMb();
      totals_->batch_rss_mb = std::max(totals_->batch_rss_mb, high - rss_before_analyze);
      const size_t in_flight = std::min<size_t>(kWorkers + 1, columns.size());
      totals_->busy_capacity_s += analyze_wall * static_cast<double>(in_flight);
      for (double s : slot_s) {
        totals_->slot_s += s;
        totals_->slowest_slot_s = std::max(totals_->slowest_slot_s, s);
      }
    }

    // The class of the round, from the caches' own counters.
    const uint64_t warm_hits = WarmHits(before, after);
    if (kind == RoundKind::kPlain) {
      totals_->plain_warm_hits += warm_hits;
    } else if (kind == RoundKind::kRefresh) {
      totals_->refresh_warm_hits += warm_hits;
    } else if (!spec_.live && warm_hits != 0) {
      totals_->check_failures.push_back("cold workload hit the result or prefix tier " +
                                        std::to_string(warm_hits) + " time(s)");
    }

    // QoE on every top-ranked sequence; failures counted per analysis.
    const media::Manifest& manifest = *analyzer.engine().snapshot().manifest();
    std::vector<infer::InferenceResult> round_results(ingested.size());
    for (const IngestedSession& session : ingested) {
      CountIngested(session, &totals_->tally);
    }
    for (size_t j = 0; j < columns.size(); ++j) {
      const IngestedSession& session = ingested[static_cast<size_t>(loaded[j] - first)];
      const bool ok = CountAnalyzed(results[j], errors[j], &totals_->tally);
      double qoe_s = replay_qoe_s[j];
      if (ok && !(traced && round == 0)) {
        const SpanRecorder::Scope qoe(spans_, "csi.qoe", loaded[j]);
        const Clock::time_point start = Clock::now();
        infer::AnalyzeQoe(results[j].sequences[0], manifest);
        qoe_s = Since(start);
      }
      const double ingest_s = round == 0 ? session.read_s + session.columns_s : 0.0;
      if (ok) {
        totals_->session_ms.push_back((ingest_s + slot_s[j] + qoe_s) * 1e3);
      }
      if (traced && round == 0) {
        ++totals_->replayed_sessions;
        if (!(replayed[j] == results[j])) {
          ++totals_->replay_mismatches;
          totals_->check_failures.push_back("stage replay differs from AnalyzeAll on session " +
                                            std::to_string(loaded[j]));
        }
      }
      round_results[static_cast<size_t>(loaded[j] - first)] = std::move(results[j]);
    }
    analyses_ += ingested.size();
    for (size_t k = 0; k < round_results.size(); ++k) {
      results_.push_back(std::move(round_results[k]));
      result_session_.push_back(first + static_cast<int>(k));
    }
  }

  struct ReplayOutcome {
    infer::InferenceResult result;
    double qoe_s = 0;
    double seconds = 0;  // stages plus QoE
  };

  // The replayed stages and QoE of one session, under a `session` span when
  // `spans` is non-null.
  ReplayOutcome Replay(const capture::PacketColumns& columns, int session, SpanRecorder* spans,
                       infer::GroupCandidateCache* cache, StageCounts* counts) {
    ReplayOutcome outcome;
    const Clock::time_point start = Clock::now();
    {
      const SpanRecorder::Scope span(spans, "session", session);
      outcome.result =
          ReplayStages(setup_->analyzer->engine(), columns, cache, spans, session, counts);
      const SpanRecorder::Scope qoe(spans, "csi.qoe");
      const Clock::time_point qoe_start = Clock::now();
      if (!outcome.result.sequences.empty()) {
        infer::AnalyzeQoe(outcome.result.sequences[0], setup_->manifest);
      }
      outcome.qoe_s = Since(qoe_start);
    }
    outcome.seconds = Since(start);
    return outcome;
  }

  const WorkloadSpec& spec_;
  const std::string& dir_;
  const std::vector<std::vector<player::DownloadRecord>>& truth_;
  SpanRecorder* const spans_;
  RunTotals* const totals_;
  std::unique_ptr<Setup> setup_;
  std::unique_ptr<infer::GroupCandidateCache> replay_cache_;
  std::unique_ptr<infer::GroupCandidateCache> untraced_replay_cache_;
  size_t next_refresh_ = 0;
  uint64_t analyses_ = 0;
  uint64_t packets_analyzed_ = 0;
  // Every analysis of the pass in order (batch, round, session), and the
  // session each one analyzed.
  std::vector<infer::InferenceResult> results_;
  std::vector<int> result_session_;
};

// ---------------------------------------------------------------------------
// Output

class JsonObject {
 public:
  void Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
  }
  void Number(const std::string& key, double value) { Add(key, Num(value)); }
  void String(const std::string& key, const std::string& value) { Add(key, Quote(value)); }
  void Metric(const std::string& key, double value, const std::string& unit) {
    Add(key, "{\"value\": " + Num(value) + ", \"unit\": " + Quote(unit) + "}");
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Num(double value) {
    if (!std::isfinite(value)) {
      return "null";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

constexpr double kMiB = 1024.0 * 1024.0;

void AddEndToEndMetrics(const RunTotals& totals, double peak_rss_mb, double accuracy,
                        JsonObject* metrics) {
  metrics->Metric("sessions_per_s",
                  Ratio(static_cast<double>(totals.window_analyses), totals.window_s), "1/s");
  metrics->Metric("packets_per_s",
                  Ratio(static_cast<double>(totals.window_packets), totals.window_s), "1/s");
  metrics->Metric("session_p50_ms", HarrellDavisMedian(totals.session_ms), "ms");
  metrics->Metric("peak_rss_mb", peak_rss_mb, "MB");
  metrics->Metric("setup_s", MedianOf(totals.setup_s), "s");
  metrics->Metric("top1_accuracy", accuracy, "ratio");
  metrics->Metric("completed_share", totals.tally.completed_share(), "ratio");
}

void AddPerLayerMetrics(const RunTotals& totals, const SpanRecorder& spans, JsonObject* metrics) {
  const std::map<std::string, double> self = spans.SelfSeconds();
  const double passes = std::max(1, totals.passes);
  const auto per_pass = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / passes;
  };
  const auto count = [&](uint64_t n) { return static_cast<double>(n) / passes; };
  const StageCounts& c = totals.counts;

  metrics->Metric("capture.read_s", per_pass("capture.read"), "s");
  metrics->Metric("capture.read_mb_per_s",
                  Ratio(static_cast<double>(totals.pcap_bytes) / kMiB, per_pass("capture.read")),
                  "MB/s");
  metrics->Metric("capture.columns_s", per_pass("capture.columns"), "s");
  metrics->Metric("capture.rss_mb", totals.capture_rss_mb / passes, "MB");
  metrics->Metric("media.manifest_parse_s", per_pass("media.manifest_parse"), "s");
  metrics->Metric("csi.chunk_database.build_s", per_pass("csi.chunk_database.build"), "s");
  metrics->Metric("csi.flow_classifier.s", per_pass("csi.flow_classifier"), "s");
  metrics->Metric("csi.flow_classifier.media_flows", count(c.media_flows), "count");
  metrics->Metric("csi.size_estimator.s", per_pass("csi.size_estimator"), "s");
  metrics->Metric("csi.size_estimator.ns_per_packet",
                  per_pass("csi.size_estimator") * 1e9 /
                      std::max(1.0, count(c.dominant_flow_packets)),
                  "ns");
  metrics->Metric("csi.size_estimator.exchanges", count(c.exchanges), "count");
  metrics->Metric("csi.splitter.s", per_pass("csi.splitter"), "s");
  metrics->Metric("csi.splitter.groups", count(c.groups), "count");
  metrics->Metric("csi.group_search.s", per_pass("csi.group_search"), "s");
  metrics->Metric("csi.group_search.sequences", count(c.sequences), "count");
  metrics->Metric("csi.group_search.truncated_share",
                  Ratio(static_cast<double>(c.truncated), static_cast<double>(totals.replayed_sessions)),
                  "ratio");
  metrics->Metric("csi.batch_analyzer.analyze_s", per_pass("csi.batch_analyzer"), "s");
  metrics->Metric("csi.batch_analyzer.slowest_trace_s", totals.slowest_slot_s, "s");
  metrics->Metric("csi.batch_analyzer.busy_share", Ratio(totals.slot_s, totals.busy_capacity_s),
                  "ratio");
  metrics->Metric("csi.batch_analyzer.rss_mb", totals.batch_rss_mb, "MB");
  const infer::CacheStats& result = totals.tiers.result;
  metrics->Metric("csi.result_cache.hit_ratio", result.hit_ratio(), "ratio");
  metrics->Metric("csi.result_cache.refused",
                  count(result.misses >= result.inserts ? result.misses - result.inserts : 0),
                  "count");
  metrics->Metric("csi.result_cache.invalidations", count(result.invalidations), "count");
  metrics->Metric("csi.result_cache.mb", static_cast<double>(result.bytes) / kMiB / passes, "MB");
  metrics->Metric("csi.prefix_cache.hit_ratio", totals.tiers.prefix.hit_ratio(), "ratio");
  metrics->Metric("csi.prefix_cache.mb",
                  static_cast<double>(totals.tiers.prefix.bytes) / kMiB / passes, "MB");
  metrics->Metric("csi.candidate_cache.hit_ratio", totals.tiers.candidate.hit_ratio(), "ratio");
  metrics->Metric("csi.candidate_cache.mb",
                  static_cast<double>(totals.tiers.candidate.bytes) / kMiB / passes, "MB");
  metrics->Metric("csi.live_database.refresh_s", per_pass("csi.live_database.refresh"), "s");
  metrics->Metric("csi.live_database.compaction_wait_s",
                  per_pass("csi.live_database.compaction_wait"), "s");
  metrics->Metric("csi.live_database.delta_chunks", static_cast<double>(totals.delta_chunks),
                  "count");
  metrics->Metric("csi.qoe.s", per_pass("csi.qoe"), "s");

  // Tracing overhead: round 0's replayed stages and QoE under spans minus the
  // same work on the same columns with a null recorder, per replayed session.
  const double sessions = std::max<double>(1, static_cast<double>(totals.replayed_sessions));
  metrics->Metric("trace.overhead_ms",
                  (totals.traced_replay_s - totals.untraced_replay_s) * 1e3 / sessions, "ms");
  const auto session_self = self.find("session");
  metrics->Metric("trace.unattributed_ms",
                  (session_self == self.end() ? 0 : session_self->second) * 1e3 / sessions, "ms");
}

int Generate(const Options& options, const WorkloadSpec& spec) {
  GenerateWorkload(spec, options.seed, options.data);
  std::printf("generated %d session(s) of %s for seed %llu in %s\n", spec.sessions,
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.data.c_str());
  return 0;
}

int Run(const Options& options, const WorkloadSpec& spec) {
  // Ground truth is read before any clock starts.
  std::vector<std::vector<player::DownloadRecord>> truth;
  for (int i = 0; i < spec.sessions; ++i) {
    std::string text;
    if (!ReadFile(SessionTruthPath(options.data, i), &text)) {
      throw std::runtime_error("cannot read " + SessionTruthPath(options.data, i));
    }
    truth.push_back(ParseTruth(text));
  }

  RunTotals totals;
  std::unique_ptr<SpanRecorder> spans;
  if (options.trace == 1) {
    spans = std::make_unique<SpanRecorder>();
  }
  double peak_rss_mb = 0;
  const Clock::time_point start = Clock::now();
  do {
    Pass(spec, options.data, truth, spans.get(), &totals).Run(!spans);
    // Peak RSS over one full pass: what one csi_batch run over the
    // workload's captures needs. Later passes only add the heap fragmentation
    // of repeating it.
    if (totals.passes == 1) {
      peak_rss_mb = PeakRssMb();
    }
    // Another pass only when it ends nearer to --seconds than stopping now.
  } while (Since(start) * (1 + 0.5 / totals.passes) < options.seconds);

  // Cross-pass and class checks.
  for (const std::string& digest : totals.digests) {
    if (digest != totals.digests.front()) {
      totals.check_failures.push_back("passes produced different results");
      break;
    }
  }
  if (spec.live && (totals.plain_warm_hits == 0 || totals.refresh_warm_hits == 0)) {
    totals.check_failures.push_back(
        "live replay lost its warm class: " + std::to_string(totals.plain_warm_hits) +
        " plain-round and " + std::to_string(totals.refresh_warm_hits) +
        " refresh-round result/prefix hits");
  }
  const double tail = HighestPercentileWithTenBeyond(totals.session_ms.size());
  if (options.trace == 0 && tail < 50) {
    totals.check_failures.push_back("fewer than 20 session samples for the median");
  }

  JsonObject labels;
  labels.String("workload", spec.name);
  labels.Number("seed", static_cast<double>(options.seed));
  labels.Number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  labels.Number("workers", kWorkers);
  labels.Number("analyses_in_flight", kWorkers + 1);
  labels.String("simd_backend", simd::BackendName(simd::ActiveBackend()));
  labels.String("build_type", CSIBENCH_BUILD_TYPE);
  labels.String("class", spec.live ? "warm" : "cold");
  labels.Number("sessions_per_pass", spec.sessions);
  labels.Number("sessions_per_batch", spec.batch);
  labels.Number("analyses_per_pass", static_cast<double>(spec.sessions * spec.rounds));
  labels.Number("packets_per_pass", static_cast<double>(totals.packets_ingested));
  labels.Number("pcap_bytes_per_pass", static_cast<double>(totals.pcap_bytes));
  labels.Number("passes", totals.passes);
  labels.Number("throughput_windows", totals.windows);
  labels.Number("throughput_window_s", totals.window_s);
  labels.Number("session_samples", static_cast<double>(totals.session_ms.size()));
  labels.Number("session_tail_percentile", tail);
  labels.Number("session_tail_ms", tail < 0 ? 0 : PercentileOf(totals.session_ms, tail));
  labels.Number("setup_samples", static_cast<double>(totals.setup_s.size()));
  labels.Number("failed_load", static_cast<double>(totals.tally.failed(FailureKind::kLoad)));
  labels.Number("failed_analyze",
                static_cast<double>(totals.tally.failed(FailureKind::kAnalyze)));
  labels.Number("failed_no_sequence",
                static_cast<double>(totals.tally.failed(FailureKind::kNoSequence)));
  labels.Number("plain_round_warm_hits", static_cast<double>(totals.plain_warm_hits));
  labels.Number("refresh_round_warm_hits", static_cast<double>(totals.refresh_warm_hits));
  if (options.trace == 1) {
    labels.Number("replayed_sessions", static_cast<double>(totals.replayed_sessions));
    labels.Number("replay_mismatches", static_cast<double>(totals.replay_mismatches));
  }

  double accuracy = 0;
  for (double a : totals.accuracy) {
    accuracy += a;
  }
  accuracy = Ratio(accuracy, static_cast<double>(totals.accuracy.size()));

  JsonObject metrics;
  if (options.trace == 1) {
    AddPerLayerMetrics(totals, *spans, &metrics);
    if (!options.trace_out.empty() && !WriteFile(options.trace_out, spans->ToChromeTrace())) {
      std::fprintf(stderr, "warning: cannot write %s\n", options.trace_out.c_str());
    }
  } else {
    AddEndToEndMetrics(totals, peak_rss_mb, accuracy, &metrics);
  }

  std::string checks = "[";
  for (size_t i = 0; i < totals.check_failures.size(); ++i) {
    checks += (i == 0 ? "" : ", ") + JsonObject::Quote(totals.check_failures[i]);
  }
  checks += "]";

  for (const auto& [kind, detail] : totals.tally.failures()) {
    std::fprintf(stderr, "session failed (%d): %s\n", static_cast<int>(kind), detail.c_str());
  }
  JsonObject out;
  out.Add("correct", totals.check_failures.empty() ? "true" : "false");
  out.Number("attempted", static_cast<double>(totals.tally.attempted()));
  out.Number("failed", static_cast<double>(totals.tally.failed()));
  out.Add("metrics", metrics.str());
  out.Add("labels", labels.str());
  out.String("digest", totals.digests.front());
  out.Number("top1_accuracy", accuracy);
  out.Add("check_failures", checks);
  std::string session_ms = "[";
  for (size_t i = 0; i < totals.session_ms.size(); ++i) {
    session_ms += (i == 0 ? "" : ", ") + JsonObject::Num(totals.session_ms[i]);
  }
  out.Add("session_ms", session_ms + "]");
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const std::optional<WorkloadSpec> spec = FindWorkload(options.workload);
  if (!spec.has_value()) {
    Usage("unknown workload " + options.workload);
  }
  try {
    return options.mode == "gen" ? Generate(options, *spec) : Run(options, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
