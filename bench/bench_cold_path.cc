// Cold-path microbenchmarks over the columnar capture layout.
//
// BM_ReadPcap / BM_ColumnBuild time ingest the way csibench pays it, each
// with its minor page faults per iteration. A csibench batch holds every
// capture's columns until the batch ends, so both keep their last
// kHeldColumns builds alive. BM_ReadPcap reads a file in ReadPcap's one pass,
// builds its columns and drops the packet records, alternating two 10-min CH
// captures built as csibench builds its sessions, one of them 441,863 packets
// long. The reader reserves its record block from the first window's mean
// record length plus 1/64 slack: 441,863 x 72 B x ~1.017 = 32.4 MB, under
// glibc's 32 MiB (33.55 MB) mmap threshold, so the block reuses the heap
// pages the previous capture freed instead of faulting in fresh ones.
// BM_ColumnBuild transposes one 10-min CH capture's records over and over:
// each Build writes into pages no earlier build freed, and `minor_faults`
// counts the pages the columns take.
//
// BM_ChColdBatch / BM_SqColdBatch are the headline numbers: a cache-disabled
// batch (every trace pays the full per-packet pipeline) over pre-built
// columns. The per-stage benches attribute it: flow classification,
// request/size estimation (CH), traffic splitting (SQ) and the prefix-cache
// fingerprint, each run over pre-built columns so the stage cost is isolated
// from the one-time transpose that BM_BuildColumns measures. BM_SequenceChain
// times Step 2 alone: the layered chain search over one 10-min SQ session's
// split groups. BM_ChildSort times the beam cut inside it on one synthetic
// layer the size of that search's largest: a full std::sort of the children
// against SortPrefix of the kept beam.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/capture/pcap_io.h"
#include "src/common/rng.h"
#include "src/common/sort_prefix.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/chunk_database.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/group_search.h"
#include "src/csi/inference.h"
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

// --- Ingest -----------------------------------------------------------------

// A capture written to a temp file once per process and removed at exit.
struct TempPcap {
  TempPcap(const std::string& name, const capture::CaptureTrace& trace)
      : path(std::filesystem::temp_directory_path() / name) {
    capture::WritePcap(path, trace);
    bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  }
  TempPcap(const TempPcap&) = delete;
  TempPcap& operator=(const TempPcap&) = delete;
  ~TempPcap() { std::remove(path.c_str()); }

  std::string path;
  int64_t bytes = 0;
};

// A 10-min CH session (the length csibench reads) over `downlink`.
capture::CaptureTrace TenMinuteChSession(nettrace::BandwidthTrace downlink, uint64_t seed) {
  static const media::Manifest manifest =
      testbed::MakeAssetForDesign(infer::DesignType::kCH, 1, 600 * kUsPerSec);
  testbed::SessionConfig session;
  session.design = infer::DesignType::kCH;
  session.manifest = &manifest;
  session.downlink = std::move(downlink);
  session.duration = 600 * kUsPerSec;
  session.seed = seed;
  return testbed::RunStreamingSession(session).capture;
}

const TempPcap& TenMinuteChPcap() {
  static const TempPcap pcap("csi_bench_cold_path_ch_600s.pcap",
                             TenMinuteChSession(nettrace::StableTrace("s", 6 * kMbps), 1));
  return pcap;
}

// csibench's ch_cold_10min session `index` of seed 1: a 6 Mbps cellular
// downlink (cv 0.5, 2-s steps) and the session seed csibench derives.
capture::CaptureTrace CsibenchChSession(uint64_t index) {
  const uint64_t seed = 5 * (20 + index) + 1;
  Rng rng(seed ^ 0xBEEF);
  return TenMinuteChSession(
      nettrace::CellularTrace("gen", 6 * kMbps, 0.5, 600 * kUsPerSec, 2 * kUsPerSec, rng),
      seed);
}

// Sessions 1 (441,863 packets, the batch's largest) and 6 (386,245, near its
// 383k mean).
const std::array<TempPcap, 2>& CsibenchChPcaps() {
  static const std::array<TempPcap, 2> pcaps = {{
      {"csi_bench_cold_path_csibench_s01.pcap", CsibenchChSession(1)},
      {"csi_bench_cold_path_csibench_s06.pcap", CsibenchChSession(6)},
  }};
  return pcaps;
}

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// The captures of one ch_cold_10min batch.
constexpr size_t kHeldColumns = 20;

void BM_ReadPcap(benchmark::State& state) {
  const auto& pcaps = CsibenchChPcaps();
  std::vector<capture::PacketColumns> held;
  held.reserve(kHeldColumns);
  int64_t bytes = 0;
  int64_t packets = 0;
  size_t next = 0;
  const int64_t faults = MinorFaults();
  for (auto _ : state) {
    if (held.size() == kHeldColumns) {
      state.PauseTiming();
      held.clear();
      state.ResumeTiming();
    }
    const TempPcap& pcap = pcaps[next];
    next ^= 1;
    const capture::CaptureTrace trace = capture::ReadPcap(pcap.path);
    held.push_back(capture::PacketColumns::Build(trace));
    bytes += pcap.bytes;
    packets += static_cast<int64_t>(trace.size());
  }
  state.counters["minor_faults"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults), benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(packets);
}

void BM_ColumnBuild(benchmark::State& state) {
  static const capture::CaptureTrace* trace =
      new capture::CaptureTrace(capture::ReadPcap(TenMinuteChPcap().path));
  std::vector<capture::PacketColumns> held;
  held.reserve(kHeldColumns);
  const int64_t faults = MinorFaults();
  for (auto _ : state) {
    if (held.size() == kHeldColumns) {
      state.PauseTiming();
      held.clear();
      state.ResumeTiming();
    }
    held.push_back(capture::PacketColumns::Build(*trace));
    benchmark::DoNotOptimize(held.back());
  }
  state.counters["minor_faults"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace->size()));
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

// --- Step-2 chain -------------------------------------------------------------

// The split groups of one 10-min SQ session and the search config the engine
// builds for SQ from InferenceConfig defaults, with no candidate tier and no
// pool: every enumeration and the whole beam run inside the timed loop.
struct ChainInput {
  media::Manifest manifest;
  std::vector<infer::TrafficGroup> groups;
  infer::GroupSearchConfig config;
};

ChainInput MakeChainInput() {
  ChainInput in;
  in.manifest = testbed::MakeAssetForDesign(infer::DesignType::kSQ, 1);
  testbed::SessionConfig session;
  session.design = infer::DesignType::kSQ;
  session.manifest = &in.manifest;
  session.downlink = nettrace::StableTrace("s", 4 * kMbps);
  session.duration = 600 * kUsPerSec;
  session.seed = 200;
  const capture::PacketColumns columns =
      capture::PacketColumns::Build(testbed::RunStreamingSession(session).capture);
  uint32_t main_flow = 0;
  bool found = false;
  for (const uint32_t f : infer::ClassifyMediaFlowIds(columns, in.manifest.host)) {
    if (!found || columns.flow_downlink_bytes(f) > columns.flow_downlink_bytes(main_flow)) {
      main_flow = f;
      found = true;
    }
  }
  const infer::InferenceConfig defaults;
  in.groups = infer::SplitIntoGroups(columns.flow(main_flow), defaults.splitter);
  in.config.k = defaults.k_quic;
  in.config.expected_overhead = defaults.expected_overhead_quic;
  in.config.expected_fixed_overhead = defaults.expected_fixed_overhead;
  in.config.max_sequences = defaults.max_sequences;
  in.config.max_candidates_per_group = defaults.max_candidates_per_group;
  in.config.other_object_sizes = {in.manifest.SerializedSize() +
                                  defaults.expected_fixed_overhead};
  return in;
}

void BM_SequenceChain(benchmark::State& state) {
  static const ChainInput* in = new ChainInput(MakeChainInput());
  const infer::DbSnapshot db(std::make_shared<const infer::ChunkDatabase>(&in->manifest));
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::SearchGroupSequences(in->groups, db, in->config));
  }
  state.counters["groups"] = static_cast<double>(in->groups.size());
}

// One layer of the chain's beam cut, shaped like the largest layer of the
// BM_SequenceChain search: 2048 parents x 768 children = 1,572,864 sixteen-byte
// children in generation order (parents by ascending cost, each parent's
// children by ascending step cost), about 1% of them tied on cost with another
// child, cut to a 2048-wide beam.
struct BeamChild {
  double cost;
  int parent;
  uint32_t cand;
};
constexpr int kBeamWidth = 2048;
constexpr int kChildrenPerParent = 768;

const std::vector<BeamChild>& BeamLayer() {
  static const std::vector<BeamChild>* layer = [] {
    Rng rng(55);
    std::vector<double> parent_costs(kBeamWidth);
    for (double& c : parent_costs) {
      c = rng.Uniform(0.0, 0.004);
    }
    std::sort(parent_costs.begin(), parent_costs.end());
    auto* out = new std::vector<BeamChild>();
    out->reserve(static_cast<size_t>(kBeamWidth) * kChildrenPerParent);
    std::vector<double> steps(kChildrenPerParent);
    for (int p = 0; p < kBeamWidth; ++p) {
      for (double& s : steps) {
        s = rng.Uniform(0.0067, 0.033);
      }
      std::sort(steps.begin(), steps.end());
      for (int c = 0; c < kChildrenPerParent; ++c) {
        double cost = parent_costs[static_cast<size_t>(p)] + steps[static_cast<size_t>(c)];
        if (!out->empty() && rng.Chance(0.0057)) {
          const int64_t tie = rng.UniformInt(0, static_cast<int64_t>(out->size()) - 1);
          cost = (*out)[static_cast<size_t>(tie)].cost;
        }
        out->push_back(BeamChild{cost, p, static_cast<uint32_t>(c) << 1});
      }
    }
    return out;
  }();
  return *layer;
}

void BM_ChildSort(benchmark::State& state, bool prefix_only) {
  const std::vector<BeamChild>& layer = BeamLayer();
  const auto by_cost = [](const BeamChild& a, const BeamChild& b) { return a.cost < b.cost; };
  std::vector<BeamChild> next;
  for (auto _ : state) {
    state.PauseTiming();
    next = layer;
    state.ResumeTiming();
    if (prefix_only) {
      SortPrefix(next.begin(), next.end(), kBeamWidth, by_cost);
    } else {
      std::sort(next.begin(), next.end(), by_cost);
    }
    benchmark::DoNotOptimize(next.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(layer.size()));
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

BENCHMARK(BM_ReadPcap)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColumnBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildColumns);
BENCHMARK(BM_Classify);
BENCHMARK(BM_EstimateExchanges);
BENCHMARK(BM_SplitGroups);
BENCHMARK(BM_Fingerprint);
BENCHMARK(BM_SequenceChain)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChildSort, std_sort, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChildSort, sort_prefix, true)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChColdBatch)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SqColdBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
