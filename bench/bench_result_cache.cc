// Whole-result cache microbenchmarks (PR 9 tentpole).
//
// BM_SqBatchNoResultCache vs BM_SqBatchWarmResultCache is the headline
// number: the same SQ batch analyzed end-to-end per trace versus served
// whole from the result cache at the same snapshot state — the steady state
// where a gateway re-analyzes the same captures between manifest refreshes
// (any append invalidates a result, result_cache.h).
// BM_SqBatchColdResultCache isolates the fingerprint + insert overhead of the
// first pass. The prefix and candidate caches are disabled throughout so
// every delta attributes to the result cache alone.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/capture/capture_trace.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/result_cache.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

// One SQ service plus captured sessions, generated once per process;
// duplicated captures model the replay stream the cache banks on.
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

}  // namespace

BENCHMARK(BM_SqBatchNoResultCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchColdResultCache)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqBatchWarmResultCache)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
