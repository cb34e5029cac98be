// Shared group-candidate cache microbenchmarks (PR 6 tentpole).
//
// BM_SqBatchNoCache vs BM_SqBatchWarmSharedCache is the headline number: the
// same SQ batch analyzed with enumeration from scratch per group versus
// warm-started from the batch-wide cache (the deployment steady state, where
// a gateway re-analyzes sessions of one service all day). BM_SqBatchColdCache
// isolates the insert/bookkeeping overhead the first batch pays to warm the
// cache. BM_GroupEnumCold vs BM_GroupEnumHit gives the per-group cost: the
// time/op of the hit benchmark IS the ns/group of the cached fast path.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/common/rng.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/chunk_database.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/group_search.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

// One SQ service plus captured sessions of it, generated once per process.
// Duplicated captures model the deployment stream: many devices replaying the
// same popular content, which is exactly the signature-reuse the cache banks.
struct Workload {
  media::Manifest manifest;
  std::vector<capture::CaptureTrace> traces;
};

const Workload& SqWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    // Full-length asset (the deployment regime: enumeration cost scales with
    // manifest positions), short captures of its start.
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

void ReportCacheCounters(benchmark::State& state, const infer::BatchAnalyzer& analyzer) {
  if (const infer::GroupCandidateCache* cache = analyzer.candidate_cache()) {
    const infer::GroupCandidateCache::Stats stats = cache->stats();
    state.counters["hit_ratio"] = stats.hit_ratio();
    state.counters["groups/s"] = benchmark::Counter(
        static_cast<double>(stats.hits + stats.misses), benchmark::Counter::kIsRate);
  }
}

// Baseline: every group enumerated from scratch, every batch.
void BM_SqBatchNoCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.caches.candidate.budget_mb = 0;
  infer::BatchAnalyzer analyzer(SqSnapshot(), SqConfig(), batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// First batch against a fresh cache: pays the inserts, banks the entries.
void BM_SqBatchColdCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  for (auto _ : state) {
    state.PauseTiming();
    infer::InferenceConfig config = SqConfig();
    config.caches.candidate = std::make_shared<infer::GroupCandidateCache>(64ull << 20);
    infer::BatchConfig batch;
    batch.threads = 2;
    infer::BatchAnalyzer analyzer(SqSnapshot(), std::move(config), batch);
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// Steady state: the cache already holds this service's group signatures.
void BM_SqBatchWarmSharedCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.caches.candidate.budget_mb = 64;
  infer::BatchAnalyzer analyzer(SqSnapshot(), SqConfig(), batch);
  analyzer.AnalyzeAll(w.traces);  // warm pass, untimed
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
  ReportCacheCounters(state, analyzer);
}

// --- The repeated-trace enumeration workload -------------------------------
//
// The layer the cache targets, isolated: every trace's split groups,
// enumerated over the full admissible start range (the sequence-root regime —
// chained groups collapse to single-start ranges the searcher's own
// per-(group, start range) memo already absorbs, so the shared cache earns its
// keep exactly here).

const std::vector<std::vector<infer::TrafficGroup>>& TraceGroups() {
  static const auto* groups = [] {
    auto* g = new std::vector<std::vector<infer::TrafficGroup>>;
    const Workload& w = SqWorkload();
    for (const capture::CaptureTrace& trace : w.traces) {
      const capture::PacketColumns columns = capture::PacketColumns::Build(trace);
      const std::vector<uint32_t> media = infer::ClassifyMediaFlowIds(columns, w.manifest.host);
      std::vector<infer::TrafficGroup> split;
      if (!media.empty()) {
        split = infer::SplitIntoGroups(columns.flow(media.front()), {});
      }
      g->push_back(std::move(split));
    }
    return g;
  }();
  return *groups;
}

infer::GroupSearchConfig EnumConfig() {
  infer::GroupSearchConfig config;
  config.k = 0.05;
  config.expected_overhead = 0.005;
  return config;
}

int64_t EnumerateAllTraceGroups(const infer::DbSnapshot& snap,
                                const infer::GroupSearchConfig& config) {
  int64_t enumerated = 0;
  for (const std::vector<infer::TrafficGroup>& trace : TraceGroups()) {
    for (const infer::TrafficGroup& group : trace) {
      benchmark::DoNotOptimize(infer::EnumerateGroupCandidateSet(
          group, snap, config, {}, 0, snap.num_positions()));
      ++enumerated;
    }
  }
  return enumerated;
}

// No cache: the full DFS for every group of every trace, every batch.
void BM_RepeatedTraceGroupsNoCache(benchmark::State& state) {
  const infer::DbSnapshot snap = SqSnapshot();
  const infer::GroupSearchConfig config = EnumConfig();
  int64_t groups = 0;
  for (auto _ : state) {
    groups += EnumerateAllTraceGroups(snap, config);
  }
  state.SetItemsProcessed(groups);
}

// Fresh cache per batch: the first-batch price (inserts included).
void BM_RepeatedTraceGroupsCold(benchmark::State& state) {
  const infer::DbSnapshot snap = SqSnapshot();
  int64_t groups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    infer::GroupCandidateCache cache(64ull << 20);
    infer::GroupSearchConfig config = EnumConfig();
    config.shared_cache = &cache;
    state.ResumeTiming();
    groups += EnumerateAllTraceGroups(snap, config);
  }
  state.SetItemsProcessed(groups);
}

// Shared warm cache across batches: the steady-state headline number.
void BM_RepeatedTraceGroupsWarm(benchmark::State& state) {
  const infer::DbSnapshot snap = SqSnapshot();
  infer::GroupCandidateCache cache(64ull << 20);
  infer::GroupSearchConfig config = EnumConfig();
  config.shared_cache = &cache;
  EnumerateAllTraceGroups(snap, config);  // warm pass, untimed
  int64_t groups = 0;
  for (auto _ : state) {
    groups += EnumerateAllTraceGroups(snap, config);
  }
  state.SetItemsProcessed(groups);
  state.counters["hit_ratio"] = cache.stats().hit_ratio();
}

// --- Per-group costs -------------------------------------------------------

media::Manifest DenseManifest(int positions) {
  media::Manifest m;
  m.asset_id = "bench-cache";
  m.host = "bench.cache.example";
  Rng rng(0x77);
  for (int t = 0; t < 6; ++t) {
    media::Track track;
    track.name = "v" + std::to_string(t);
    track.type = media::MediaType::kVideo;
    track.nominal_bitrate = (t + 1) * 1'000'000;
    const double mean = 250'000.0 * (t + 1);
    for (int i = 0; i < positions; ++i) {
      track.chunks.push_back(
          media::Chunk{static_cast<Bytes>(mean * rng.Uniform(0.5, 1.8)), 2'000'000});
    }
    m.video_tracks.push_back(std::move(track));
  }
  return m;
}

infer::TrafficGroup PlantedGroup(const media::Manifest& m, int start, int run) {
  infer::TrafficGroup g;
  Bytes total = 0;
  for (int j = 0; j < run; ++j) {
    g.requests.push_back(infer::DetectedRequest{});
    total += m.video_tracks[1].chunks[static_cast<size_t>(start + j)].size;
  }
  g.estimated_total = total + total / 300 + 1;
  return g;
}

// Full enumeration cost for one two-chunk group over the whole start range.
void BM_GroupEnumCold(benchmark::State& state) {
  const media::Manifest m = DenseManifest(512);
  const infer::ChunkDatabase db(&m);
  const infer::DbSnapshot snap(db);
  const infer::TrafficGroup group = PlantedGroup(m, 37, 2);
  infer::GroupSearchConfig config;
  config.k = 0.05;
  config.expected_overhead = 0.005;
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::EnumerateGroupCandidateSet(
        group, snap, config, {}, 0, snap.num_positions()));
  }
}

// The same call against a warm shared cache: time/op = ns per cached group.
void BM_GroupEnumHit(benchmark::State& state) {
  const media::Manifest m = DenseManifest(512);
  const infer::ChunkDatabase db(&m);
  const infer::DbSnapshot snap(db);
  const infer::TrafficGroup group = PlantedGroup(m, 37, 2);
  infer::GroupCandidateCache cache(64ull << 20);
  infer::GroupSearchConfig config;
  config.k = 0.05;
  config.expected_overhead = 0.005;
  config.shared_cache = &cache;
  benchmark::DoNotOptimize(infer::EnumerateGroupCandidateSet(
      group, snap, config, {}, 0, snap.num_positions()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::EnumerateGroupCandidateSet(
        group, snap, config, {}, 0, snap.num_positions()));
  }
  state.counters["hit_ratio"] = cache.stats().hit_ratio();
}

}  // namespace

BENCHMARK(BM_SqBatchNoCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchColdCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchWarmSharedCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_RepeatedTraceGroupsNoCache)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepeatedTraceGroupsCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepeatedTraceGroupsWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupEnumCold);
BENCHMARK(BM_GroupEnumHit);

BENCHMARK_MAIN();
