// Tracing overhead benchmarks (PR 7 tentpole).
//
// BM_BatchInferenceTracingDisabled vs BM_BatchInferenceTracingFull vs
// BM_BatchInferenceTracingFlight is the headline comparison: the same SQ
// batch analyzed with no trace session (the production default), with a
// full-mode session recording every span, and with the small
// flight-recorder rings. BM_UntracedSpanCost and BM_EnabledInstantCost give
// the per-site price: an untraced stage span is two clock reads plus a
// histogram observe (its trace half is one relaxed load and branch); the
// enabled instant is a clock read plus a ring write under an uncontended
// lock.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/capture/capture_trace.h"
#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

// One SQ service plus captured sessions, generated once per process — the
// same shape as the candidate-cache bench so numbers are comparable across
// BENCH_* tags.
struct Workload {
  media::Manifest manifest;
  std::vector<capture::CaptureTrace> traces;
};

const Workload& SqWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    w->manifest = testbed::MakeAssetForDesign(infer::DesignType::kSQ, 1);
    for (int i = 0; i < 4; ++i) {
      testbed::SessionConfig config;
      config.design = infer::DesignType::kSQ;
      config.manifest = &w->manifest;
      config.downlink = nettrace::StableTrace("s", (3 + i) * kMbps);
      config.duration = 60 * kUsPerSec;
      config.seed = 200 + static_cast<uint64_t>(i);
      w->traces.push_back(testbed::RunStreamingSession(config).capture);
    }
    return w;
  }();
  return *workload;
}

void RunBatch(benchmark::State& state) {
  const Workload& w = SqWorkload();
  infer::InferenceConfig config;
  config.design = infer::DesignType::kSQ;
  config.host_suffix = w.manifest.host;
  infer::BatchConfig batch;
  batch.threads = 2;
  infer::BatchAnalyzer analyzer(&w.manifest, config, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.AnalyzeAll(w.traces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w.traces.size()));
}

// Production default: no session active. The trace half of every
// instrumentation site reduces to an atomic load + branch.
void BM_BatchInferenceTracingDisabled(benchmark::State& state) {
  trace::TraceSession::Global().Stop();
  RunBatch(state);
}

// Full-mode session: every span/instant/flow recorded into 32k-event rings
// (overwriting; export is not timed — deployments export once per run).
void BM_BatchInferenceTracingFull(benchmark::State& state) {
  trace::SessionOptions options;
  options.mode = trace::Mode::kFull;
  trace::TraceSession::Global().Start(options);
  RunBatch(state);
  trace::TraceSession::Global().Stop();
}

// Flight-recorder mode: same recording path, 4k-event rings. The always-on
// post-mortem configuration.
void BM_BatchInferenceTracingFlight(benchmark::State& state) {
  trace::SessionOptions options;
  options.mode = trace::Mode::kFlight;
  trace::TraceSession::Global().Start(options);
  RunBatch(state);
  trace::TraceSession::Global().Stop();
}

// Per-site cost of a stage span with no active session (ns/op).
void BM_UntracedSpanCost(benchmark::State& state) {
  trace::TraceSession::Global().Stop();
  for (auto _ : state) {
    CSI_SPAN("bench_untraced_span");
    benchmark::ClobberMemory();
  }
}

// Per-event cost of an instant with a full-mode session recording (ns/op).
void BM_EnabledInstantCost(benchmark::State& state) {
  trace::SessionOptions options;
  options.mode = trace::Mode::kFull;
  trace::TraceSession::Global().Start(options);
  int64_t i = 0;
  for (auto _ : state) {
    CSI_TRACE_INSTANT("bench_instant", "bench", {"i", i++});
    benchmark::ClobberMemory();
  }
  trace::TraceSession::Global().Stop();
}

}  // namespace

BENCHMARK(BM_BatchInferenceTracingDisabled)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_BatchInferenceTracingFull)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_BatchInferenceTracingFlight)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_UntracedSpanCost);
BENCHMARK(BM_EnabledInstantCost);

BENCHMARK_MAIN();
