// Whole-result cache microbenchmarks (PR 9 tentpole).
//
// BM_SqBatchNoResultCache vs BM_SqBatchWarmResultCache is the headline
// number: the same SQ batch analyzed end-to-end per trace versus served
// whole from the result cache at the same snapshot state — the steady-state
// regime where a gateway re-analyzes the same captures between manifest
// refreshes. BM_SqBatchWarmRevalidation is the second headline: every timed
// round runs against a *new* snapshot state of the same lineage (the live
// ladder grew by chunks far outside every recorded hull), so each trace pays
// one DeltaHasSizeInWindow probe, revalidates, and re-anchors — still no
// pipeline run. BM_SqBatchColdResultCache isolates the fingerprint + insert
// overhead of the first pass. The prefix and candidate caches are disabled
// throughout so every delta attributes to the result cache alone.
//
// The sessions deliberately cover only the front half of the manifest: the
// live edge is far from every group's start window, which keeps the recorded
// hulls provable (no growth-range budget above the per-start floor) — the
// deployment shape where revalidation pays off.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "src/capture/packet_record.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/live_database.h"
#include "src/csi/result_cache.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

// One SQ service plus captured sessions, generated once per process. The
// manifest runs twice as long as any session so no analysis touches the live
// edge; duplicated captures model the replay stream the cache banks on.
struct Workload {
  media::Manifest manifest;
  std::vector<capture::CaptureTrace> traces;
};

const Workload& SqWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    w->manifest = testbed::MakeAssetForDesign(infer::DesignType::kSQ, 1, 120 * kUsPerSec);
    std::vector<capture::CaptureTrace> unique;
    for (int i = 0; i < 2; ++i) {
      testbed::SessionConfig config;
      config.design = infer::DesignType::kSQ;
      config.manifest = &w->manifest;
      config.downlink = nettrace::StableTrace("s", (4 + 2 * i) * kMbps);
      config.duration = 45 * kUsPerSec;
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

// Lower tiers off so the delta is the result cache's alone.
infer::BatchConfig LowerTiersOff() {
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.caches.prefix.budget_mb = 0;
  batch.caches.candidate.budget_mb = 0;
  return batch;
}

void ReportResultCounters(benchmark::State& state, const infer::BatchAnalyzer& analyzer) {
  if (const infer::ResultCache* cache = analyzer.result_cache()) {
    const infer::ResultCache::Stats stats = cache->stats();
    state.counters["hit_ratio"] = stats.hit_ratio();
    state.counters["invalidations"] = static_cast<double>(stats.invalidations);
    state.counters["lookups/s"] = benchmark::Counter(
        static_cast<double>(stats.lookups()), benchmark::Counter::kIsRate);
  }
}

// A refresh appending `chunks` positions to every video track with sizes far
// outside any admissible hull the sessions can record (multi-GB chunks vs.
// MB-scale probe windows), so revalidation stays provable round after round.
infer::ManifestRefresh HugeChunkRefresh(const media::Manifest& manifest, int chunks) {
  infer::ManifestRefresh refresh;
  refresh.video_appends.resize(manifest.video_tracks.size());
  for (size_t t = 0; t < manifest.video_tracks.size(); ++t) {
    for (int c = 0; c < chunks; ++c) {
      media::Chunk chunk;
      chunk.size = (static_cast<Bytes>(3) << 30) + static_cast<Bytes>(t) * 1024 + c;
      chunk.duration = 2 * kUsPerSec;
      refresh.video_appends[t].push_back(chunk);
    }
  }
  return refresh;
}

// Baseline: the full pipeline runs for every trace, every batch.
void BM_SqBatchNoResultCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::BatchConfig batch = LowerTiersOff();
  batch.caches.result.budget_mb = 0;
  infer::BatchAnalyzer analyzer(SqSnapshot(), SqConfig(), batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// First pass against a fresh cache: pays fingerprints + inserts on top of the
// full pipeline.
void BM_SqBatchColdResultCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  for (auto _ : state) {
    state.PauseTiming();
    infer::InferenceConfig config = SqConfig();
    config.caches.result = std::make_shared<infer::ResultCache>(64ull << 20);
    infer::BatchAnalyzer analyzer(SqSnapshot(), std::move(config), LowerTiersOff());
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// Steady state at one snapshot: every trace served whole from the cache
// (same_state hits), nothing downstream of the fingerprint runs.
void BM_SqBatchWarmResultCache(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::BatchAnalyzer analyzer(SqSnapshot(), SqConfig(), LowerTiersOff());
  analyzer.AnalyzeAll(w.traces);  // warm pass, untimed
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
  ReportResultCounters(state, analyzer);
}

// Steady state across snapshot publishes: every timed round first applies a
// refresh (new state, same lineage), so every lookup revalidates through one
// delta probe and re-anchors — the O(log delta) path, not the O(1) same-state
// path, and still no pipeline run.
void BM_SqBatchWarmRevalidation(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::LiveDbOptions options;
  options.compact_after_delta_chunks = SIZE_MAX;  // keep the delta probeable
  infer::LiveChunkDatabase live(SqWorkload().manifest, options);
  infer::BatchAnalyzer analyzer(live.Acquire(), SqConfig(), LowerTiersOff());
  analyzer.AnalyzeAll(w.traces);  // warm pass, untimed
  // Prime past the edge-sensitive phase, untimed: enumerations whose start
  // window touched the original live edge have a growth range too small to
  // keep the per-start budget at the floor, so their first hulls are unsafe.
  // One large append moves the edge far enough that the re-inserted hulls are
  // provable, and the timed rounds below measure pure revalidation.
  analyzer.UpdateSnapshot(live.ApplyRefresh(HugeChunkRefresh(w.manifest, 64)));
  analyzer.AnalyzeAll(w.traces);
  const infer::ResultCache::Stats primed = analyzer.result_cache()->stats();
  const infer::ManifestRefresh refresh = HugeChunkRefresh(w.manifest, 2);
  for (auto _ : state) {
    state.PauseTiming();
    analyzer.UpdateSnapshot(live.ApplyRefresh(refresh));
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
  const infer::ResultCache::Stats stats = analyzer.result_cache()->stats();
  state.counters["hit_ratio"] =
      static_cast<double>(stats.hits - primed.hits) /
      static_cast<double>(stats.lookups() - primed.lookups());
  state.counters["invalidations"] = static_cast<double>(stats.invalidations - primed.invalidations);
  state.counters["lookups/s"] = benchmark::Counter(
      static_cast<double>(stats.lookups() - primed.lookups()), benchmark::Counter::kIsRate);
  if (stats.invalidations > primed.invalidations) {
    std::fprintf(stderr,
                 "warning: %llu invalidation(s) during warm revalidation — "
                 "hulls were not provable, numbers include pipeline reruns\n",
                 static_cast<unsigned long long>(stats.invalidations - primed.invalidations));
  }
}

}  // namespace

BENCHMARK(BM_SqBatchNoResultCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchColdResultCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchWarmResultCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchWarmRevalidation)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
