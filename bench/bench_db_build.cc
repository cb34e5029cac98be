// ChunkDatabase build and size-window-scan microbenchmarks.
//
// BM_DbBuild times the serial index build on two synthetic ladders: 6 tracks
// x 120 positions, the size of the 10-min testbed assets the tools serve, and
// 12 x 4096, far past them. BM_SizeWindowScan compares the scalar and SIMD
// count kernels on the exact window the hybrid FlatRange query hands them,
// and BM_CandidateQuery measures the end-to-end lookup both ways.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/csi/chunk_database.h"
#include "src/media/manifest.h"

using namespace csi;

namespace {

// A synthetic VBR ladder of `tracks` x `positions` 2-s chunks.
media::Manifest Ladder(int tracks, int positions) {
  media::Manifest manifest;
  manifest.asset_id = "bench-db-build";
  manifest.host = "bench.example";
  Rng rng(0xdbb);
  for (int t = 0; t < tracks; ++t) {
    media::Track track;
    track.name = "v" + std::to_string(t);
    track.type = media::MediaType::kVideo;
    track.nominal_bitrate = (t + 1) * 1'000'000;
    const double mean = 250'000.0 * (t + 1);
    for (int i = 0; i < positions; ++i) {
      const Bytes size = static_cast<Bytes>(mean * rng.Uniform(0.5, 1.8));
      track.chunks.push_back(media::Chunk{size, 2'000'000});
    }
    manifest.video_tracks.push_back(std::move(track));
  }
  return manifest;
}

void BM_DbBuild(benchmark::State& state) {
  const media::Manifest manifest =
      Ladder(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    infer::ChunkDatabase db(&manifest);
    benchmark::DoNotOptimize(db);
  }
  state.counters["chunks"] =
      static_cast<double>(manifest.num_video_tracks()) * manifest.num_positions();
}

// Forces `backend` for the benchmark body, restoring the default after.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend backend)
      : saved_(simd::ActiveBackend()), ok_(simd::ForceBackend(backend)) {}
  ~ScopedBackend() { simd::ForceBackend(saved_); }
  bool ok() const { return ok_; }

 private:
  simd::Backend saved_;
  bool ok_;
};

void ScanBody(benchmark::State& state, simd::Backend backend) {
  ScopedBackend scoped(backend);
  if (!scoped.ok()) {
    state.SkipWithError("backend unavailable on this build/CPU");
    return;
  }
  // The exact shape FlatRange hands the kernel: a <=128-element sorted run.
  Rng rng(0x51);
  std::vector<int64_t> window(128);
  int64_t v = 1000;
  for (auto& x : window) {
    v += rng.UniformInt(0, 512);
    x = v;
  }
  std::vector<int64_t> bounds(1024);
  for (auto& b : bounds) {
    b = rng.UniformInt(window.front() - 100, window.back() + 100);
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t count = simd::CountBelow(window.data(), window.size(), bounds[i]);
    benchmark::DoNotOptimize(count);
    i = (i + 1) & (bounds.size() - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(window.size()));
  state.SetLabel(simd::BackendName(backend));
}

void BM_SizeWindowScan_Scalar(benchmark::State& state) {
  ScanBody(state, simd::Backend::kScalar);
}

void BM_SizeWindowScan_Simd(benchmark::State& state) {
  // Widest vector backend this build/CPU supports.
  simd::Backend best = simd::Backend::kScalar;
  for (simd::Backend b :
       {simd::Backend::kSse2, simd::Backend::kNeon, simd::Backend::kAvx2}) {
    if (simd::BackendSupported(b)) {
      best = b;
    }
  }
  if (best == simd::Backend::kScalar) {
    state.SkipWithError("no vector backend on this build/CPU");
    return;
  }
  ScanBody(state, best);
}

void QueryBody(benchmark::State& state, bool scalar) {
  ScopedBackend scoped(scalar ? simd::Backend::kScalar : simd::ActiveBackend());
  const media::Manifest manifest = Ladder(12, 4096);
  const infer::ChunkDatabase db(&manifest);
  Rng rng(0x63);
  std::vector<Bytes> estimates(1024);
  const Bytes max_size = db.flat_sizes().back();
  for (auto& e : estimates) {
    e = rng.UniformInt(1, max_size);
  }
  size_t i = 0;
  for (auto _ : state) {
    const bool hit = db.HasVideoCandidate(estimates[i], 0.05);
    benchmark::DoNotOptimize(hit);
    i = (i + 1) & (estimates.size() - 1);
  }
  state.SetLabel(simd::BackendName(simd::ActiveBackend()));
}

void BM_CandidateQuery_Scalar(benchmark::State& state) { QueryBody(state, true); }
void BM_CandidateQuery_Dispatched(benchmark::State& state) { QueryBody(state, false); }

}  // namespace

BENCHMARK(BM_DbBuild)
    ->ArgNames({"tracks", "positions"})
    ->Args({6, 120})
    ->Args({12, 4096})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SizeWindowScan_Scalar);
BENCHMARK(BM_SizeWindowScan_Simd);
BENCHMARK(BM_CandidateQuery_Scalar);
BENCHMARK(BM_CandidateQuery_Dispatched);

BENCHMARK_MAIN();
