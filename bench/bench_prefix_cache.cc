// Analysis-prefix cache microbenchmarks (PR 8 tentpole).
//
// BM_SqBatchNoPrefixCache vs BM_SqBatchWarmPrefixCache is the headline
// number: the same SQ batch analyzed with the per-packet stages (flow
// classification, traffic splitting) recomputed per trace versus served from
// the shared prefix cache — the replay/steady-state regime where a gateway
// re-analyzes the same captures against every manifest refresh.
// BM_SqBatchColdPrefixCache isolates the fingerprint + insert overhead the
// first pass pays. BM_LiveReplayAcrossRefreshes is the end-to-end sweep: a
// growing LiveChunkDatabase publishing refreshes while the same capture set
// replays per snapshot — only the snapshot-dependent back half (merge repair,
// group search) reruns on warm rounds. The candidate cache is disabled
// throughout so every delta attributes to the prefix cache alone.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/live_database.h"
#include "src/csi/prefix_cache.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

// One SQ service plus captured sessions, generated once per process.
// Duplicated captures model the replay stream the cache banks on.
struct Workload {
  media::Manifest manifest;
  std::vector<capture::CaptureTrace> traces;
};

const Workload& SqWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    w->manifest = testbed::MakeAssetForDesign(infer::DesignType::kSQ, 1);
    std::vector<capture::CaptureTrace> unique;
    for (int i = 0; i < 2; ++i) {
      testbed::SessionConfig config;
      config.design = infer::DesignType::kSQ;
      config.manifest = &w->manifest;
      config.downlink = nettrace::StableTrace("s", (4 + 2 * i) * kMbps);
      config.duration = 60 * kUsPerSec;
      config.seed = 100 + static_cast<uint64_t>(i);
      unique.push_back(testbed::RunStreamingSession(config).capture);
    }
    for (int copy = 0; copy < 3; ++copy) {
      for (const capture::CaptureTrace& trace : unique) {
        w->traces.push_back(trace);
      }
    }
    return w;
  }();
  return *workload;
}

infer::DbSnapshot SqSnapshot() {
  static const infer::DbSnapshot* snap = new infer::DbSnapshot(
      std::make_shared<const infer::ChunkDatabase>(&SqWorkload().manifest));
  return *snap;
}

infer::InferenceConfig SqConfig() {
  infer::InferenceConfig config;
  config.design = infer::DesignType::kSQ;
  config.host_suffix = SqWorkload().manifest.host;
  config.other_object_sizes.push_back(SqWorkload().manifest.SerializedSize() +
                                      config.expected_fixed_overhead);
  return config;
}

void ReportPrefixCounters(benchmark::State& state, const infer::BatchAnalyzer& analyzer) {
  if (const infer::AnalysisPrefixCache* cache = analyzer.prefix_cache()) {
    const infer::AnalysisPrefixCache::Stats stats = cache->stats();
    state.counters["hit_ratio"] = stats.hit_ratio();
    state.counters["lookups/s"] = benchmark::Counter(
        static_cast<double>(stats.lookups()), benchmark::Counter::kIsRate);
  }
}

// The key itself: fingerprinting a full ~60 s capture. This is the fixed toll
// every cached lookup pays, so it has to stay a small fraction of the
// per-packet stages it replaces.
void BM_FingerprintColumns(benchmark::State& state) {
  const capture::PacketColumns columns =
      capture::PacketColumns::Build(SqWorkload().traces.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::FingerprintColumns(columns));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(columns.packet_count()));
}

// Baseline: per-packet stages recomputed for every trace, every batch.
void BM_SqBatchNoPrefixCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.caches.candidate.budget_mb = 0;
  batch.caches.prefix.budget_mb = 0;
  infer::BatchAnalyzer analyzer(SqSnapshot(), SqConfig(), batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// First pass against a fresh cache: pays fingerprints + inserts.
void BM_SqBatchColdPrefixCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  for (auto _ : state) {
    state.PauseTiming();
    infer::InferenceConfig config = SqConfig();
    config.caches.prefix = std::make_shared<infer::AnalysisPrefixCache>(32ull << 20);
    infer::BatchConfig batch;
    batch.threads = 2;
    batch.caches.candidate.budget_mb = 0;
    infer::BatchAnalyzer analyzer(SqSnapshot(), std::move(config), batch);
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// Steady state: every trace's prefix served from the shared cache; only the
// snapshot-dependent search half runs.
void BM_SqBatchWarmPrefixCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.caches.candidate.budget_mb = 0;
  batch.caches.prefix.budget_mb = 32;
  infer::BatchAnalyzer analyzer(SqSnapshot(), SqConfig(), batch);
  analyzer.AnalyzeAll(w.traces);  // warm pass, untimed
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
  ReportPrefixCounters(state, analyzer);
}

// --- Live replay across refreshes ------------------------------------------
//
// The deployment sweep the cache was built for: a live ladder grows by
// `refreshes` publishes and the same capture set is re-analyzed at every
// snapshot. Without the cache each round repeats the per-packet stages; with
// it every round after the first is fully warm (the prefix is
// snapshot-independent), so only group search tracks the growing database.

struct ReplayPlan {
  media::Manifest start;
  std::vector<infer::ManifestRefresh> refreshes;
};

const ReplayPlan& SqReplayPlan() {
  static const ReplayPlan* plan = [] {
    auto* p = new ReplayPlan;
    const media::Manifest& full = SqWorkload().manifest;
    const int positions = full.num_positions();
    const int start = positions / 2;
    p->start = full;
    for (auto& track : p->start.video_tracks) {
      track.chunks.resize(static_cast<size_t>(start));
    }
    constexpr int kRefreshes = 4;
    for (int r = 0; r < kRefreshes; ++r) {
      const int lo = start + (positions - start) * r / kRefreshes;
      const int hi = start + (positions - start) * (r + 1) / kRefreshes;
      infer::ManifestRefresh refresh;
      refresh.video_appends.resize(full.video_tracks.size());
      for (size_t t = 0; t < full.video_tracks.size(); ++t) {
        const auto& chunks = full.video_tracks[t].chunks;
        refresh.video_appends[t].assign(chunks.begin() + lo, chunks.begin() + hi);
      }
      p->refreshes.push_back(std::move(refresh));
    }
    return p;
  }();
  return *plan;
}

void RunLiveReplay(benchmark::State& state, int prefix_cache_mb) {
  const Workload& w = SqWorkload();
  const ReplayPlan& plan = SqReplayPlan();
  int64_t analyzed = 0;
  std::unique_ptr<infer::BatchAnalyzer> analyzer;
  for (auto _ : state) {
    state.PauseTiming();
    infer::LiveChunkDatabase live(plan.start, {});
    infer::BatchConfig batch;
    batch.threads = 2;
    batch.caches.candidate.budget_mb = 0;
    batch.caches.prefix.budget_mb = prefix_cache_mb;
    analyzer = std::make_unique<infer::BatchAnalyzer>(live.Acquire(), SqConfig(), batch);
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer->AnalyzeAll(w.traces));
    analyzed += static_cast<int64_t>(w.traces.size());
    for (const infer::ManifestRefresh& refresh : plan.refreshes) {
      state.PauseTiming();
      live.ApplyRefresh(refresh);
      analyzer->UpdateSnapshot(live.Acquire());
      state.ResumeTiming();
      benchmark::DoNotOptimize(analyzer->AnalyzeAll(w.traces));
      analyzed += static_cast<int64_t>(w.traces.size());
    }
    state.PauseTiming();
    live.WaitForCompaction();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(analyzed);
  if (analyzer != nullptr) {
    ReportPrefixCounters(state, *analyzer);
  }
}

void BM_LiveReplayNoPrefixCache(benchmark::State& state) { RunLiveReplay(state, 0); }
void BM_LiveReplayWarmPrefixCache(benchmark::State& state) { RunLiveReplay(state, 32); }

}  // namespace

BENCHMARK(BM_FingerprintColumns);
BENCHMARK(BM_SqBatchNoPrefixCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchColdPrefixCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchWarmPrefixCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_LiveReplayNoPrefixCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_LiveReplayWarmPrefixCache)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
