// Cold-path microbenchmarks over the columnar capture layout.
//
// BM_ChColdBatch / BM_SqColdBatch are the headline numbers: a cache-disabled
// batch (every trace pays the full per-packet pipeline) over pre-built
// columns. The per-stage benches attribute it: flow classification,
// request/size estimation (CH), traffic splitting (SQ) and the prefix-cache
// fingerprint, each run over pre-built columns so the stage cost is isolated
// from the one-time transpose that BM_BuildColumns measures.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/size_estimator.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

// One service + captured sessions per design path we attribute: CH exercises
// the HTTPS estimator, SQ the QUIC splitter. Generated once per process;
// columns are pre-built so stage benches never time the transpose.
struct Workload {
  media::Manifest manifest;
  std::vector<capture::CaptureTrace> traces;
  std::vector<capture::PacketColumns> columns;
  size_t total_packets = 0;
  // Dominant media flow of the first trace, so the stage benches skip
  // classification.
  uint32_t dominant_flow = 0;
};

Workload MakeWorkload(infer::DesignType design) {
  Workload w;
  w.manifest = testbed::MakeAssetForDesign(design, 1);
  for (int i = 0; i < 4; ++i) {
    testbed::SessionConfig config;
    config.design = design;
    config.manifest = &w.manifest;
    config.downlink = nettrace::StableTrace("s", (3 + i) * kMbps);
    config.duration = 60 * kUsPerSec;
    config.seed = 200 + static_cast<uint64_t>(i);
    w.traces.push_back(testbed::RunStreamingSession(config).capture);
    w.columns.push_back(capture::PacketColumns::Build(w.traces.back()));
    w.total_packets += w.traces.back().size();
  }
  const auto media = infer::ClassifyMediaFlowIds(w.columns.front(), w.manifest.host);
  w.dominant_flow = media.front();
  for (const uint32_t f : media) {
    if (w.columns.front().flow_downlink_bytes(f) >
        w.columns.front().flow_downlink_bytes(w.dominant_flow)) {
      w.dominant_flow = f;
    }
  }
  return w;
}

const Workload& ChWorkload() {
  static const Workload* w = new Workload(MakeWorkload(infer::DesignType::kCH));
  return *w;
}

const Workload& SqWorkload() {
  static const Workload* w = new Workload(MakeWorkload(infer::DesignType::kSQ));
  return *w;
}

capture::FlowView DominantFlowView(const Workload& w) {
  return w.columns.front().flow(w.dominant_flow);
}

// --- Transpose --------------------------------------------------------------

void BM_BuildColumns(benchmark::State& state) {
  const Workload& w = ChWorkload();
  for (auto _ : state) {
    for (const capture::CaptureTrace& trace : w.traces) {
      benchmark::DoNotOptimize(capture::PacketColumns::Build(trace));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.total_packets));
}

// --- Per-stage ---------------------------------------------------------------

void BM_Classify(benchmark::State& state) {
  const Workload& w = ChWorkload();
  for (auto _ : state) {
    for (const capture::PacketColumns& columns : w.columns) {
      benchmark::DoNotOptimize(infer::ClassifyMediaFlowIds(columns, w.manifest.host));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.total_packets));
}

void BM_EstimateExchanges(benchmark::State& state) {
  const capture::FlowView view = DominantFlowView(ChWorkload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::EstimateExchanges(view, /*quic=*/false));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(view.size()));
}

void BM_SplitGroups(benchmark::State& state) {
  const capture::FlowView view = DominantFlowView(SqWorkload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::SplitIntoGroups(view));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(view.size()));
}

void BM_Fingerprint(benchmark::State& state) {
  const capture::PacketColumns& columns = ChWorkload().columns.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::FingerprintColumns(columns));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(columns.packet_count()));
}

// --- End-to-end cold batch ---------------------------------------------------

void RunColdBatch(benchmark::State& state, const Workload& w,
                  infer::DesignType design) {
  infer::InferenceConfig config;
  config.design = design;
  config.host_suffix = w.manifest.host;
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.caches.candidate.budget_mb = 0;
  batch.caches.prefix.budget_mb = 0;
  batch.caches.result.budget_mb = 0;
  infer::BatchAnalyzer analyzer(&w.manifest, config, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.columns));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

void BM_ChColdBatch(benchmark::State& state) {
  RunColdBatch(state, ChWorkload(), infer::DesignType::kCH);
}
void BM_SqColdBatch(benchmark::State& state) {
  RunColdBatch(state, SqWorkload(), infer::DesignType::kSQ);
}

}  // namespace

BENCHMARK(BM_BuildColumns);
BENCHMARK(BM_Classify);
BENCHMARK(BM_EstimateExchanges);
BENCHMARK(BM_SplitGroups);
BENCHMARK(BM_Fingerprint);
BENCHMARK(BM_ChColdBatch)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqColdBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
