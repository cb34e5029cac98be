// §6.2.3: CSI computation time. The paper reports a few seconds for a
// 10-minute trace on the non-MUX designs and up to ~1 minute for SQ.
// google-benchmark over the inference engine, excluding session simulation.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "src/csi/batch_analyzer.h"
#include "src/csi/inference.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

struct PreparedSession {
  media::Manifest manifest;
  testbed::SessionResult session;
};

const PreparedSession& Prepare(infer::DesignType design) {
  static std::map<infer::DesignType, std::unique_ptr<PreparedSession>> cache;
  auto it = cache.find(design);
  if (it == cache.end()) {
    auto prepared = std::make_unique<PreparedSession>();
    prepared->manifest = testbed::MakeAssetForDesign(design, 1, 10 * 60 * kUsPerSec);
    testbed::SessionConfig config;
    config.design = design;
    config.manifest = &prepared->manifest;
    Rng rng(0x623);
    config.downlink =
        nettrace::CellularTrace("bench", 6 * kMbps, 0.5, 10 * 60 * kUsPerSec, 2 * kUsPerSec, rng);
    config.duration = 10 * 60 * kUsPerSec;
    config.seed = 99;
    prepared->session = RunStreamingSession(config);
    it = cache.emplace(design, std::move(prepared)).first;
  }
  return *it->second;
}

void BM_Inference(benchmark::State& state, infer::DesignType design) {
  const PreparedSession& prepared = Prepare(design);
  infer::InferenceConfig config;
  config.design = design;
  const infer::InferenceEngine engine(&prepared.manifest, config);
  for (auto _ : state) {
    auto result = engine.Analyze(prepared.session.capture);
    benchmark::DoNotOptimize(result);
  }
  state.counters["packets"] = static_cast<double>(prepared.session.capture.size());
  state.counters["chunks"] = static_cast<double>(prepared.session.downloads.size());
}

void BM_DatabaseBuild(benchmark::State& state) {
  const PreparedSession& prepared = Prepare(infer::DesignType::kSH);
  for (auto _ : state) {
    infer::ChunkDatabase db(&prepared.manifest);
    benchmark::DoNotOptimize(db);
  }
}

// The deployment workload: a batch of concurrent sessions of one service,
// fanned out across a worker pool over one shared ChunkDatabase. Reported
// items/sec is sessions/sec. Cold: every cache tier is off, so each
// iteration re-runs the whole inference instead of replaying result-cache
// hits from the previous one.
struct PreparedBatch {
  media::Manifest manifest;
  std::vector<capture::CaptureTrace> traces;
};

const PreparedBatch& PrepareBatch() {
  static std::unique_ptr<PreparedBatch> cache;
  if (cache == nullptr) {
    cache = std::make_unique<PreparedBatch>();
    const TimeUs duration = 2 * 60 * kUsPerSec;
    cache->manifest = testbed::MakeAssetForDesign(infer::DesignType::kSH, 1, duration);
    for (int i = 0; i < 8; ++i) {
      testbed::SessionConfig config;
      config.design = infer::DesignType::kSH;
      config.manifest = &cache->manifest;
      Rng rng(0x800 + static_cast<uint64_t>(i));
      config.downlink = nettrace::CellularTrace("bench", (4 + i % 4) * kMbps, 0.4, duration,
                                                2 * kUsPerSec, rng);
      config.duration = duration;
      config.seed = 4000 + static_cast<uint64_t>(i);
      cache->traces.push_back(RunStreamingSession(config).capture);
    }
  }
  return *cache;
}

void BM_BatchInferenceCold(benchmark::State& state) {
  const PreparedBatch& prepared = PrepareBatch();
  infer::InferenceConfig config;
  config.design = infer::DesignType::kSH;
  infer::BatchConfig batch;
  batch.threads = static_cast<int>(state.range(0));
  batch.caches.result.enabled = false;
  batch.caches.prefix.enabled = false;
  batch.caches.candidate.enabled = false;
  infer::BatchAnalyzer analyzer(&prepared.manifest, config, batch);
  for (auto _ : state) {
    auto results = analyzer.AnalyzeAll(prepared.traces);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(prepared.traces.size()));
  state.counters["batch_size"] = static_cast<double>(prepared.traces.size());
}

}  // namespace

BENCHMARK_CAPTURE(BM_Inference, CH_10min_trace, infer::DesignType::kCH)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Inference, SH_10min_trace, infer::DesignType::kSH)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Inference, CQ_10min_trace, infer::DesignType::kCQ)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Inference, SQ_10min_trace, infer::DesignType::kSQ)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DatabaseBuild)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BatchInferenceCold)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
