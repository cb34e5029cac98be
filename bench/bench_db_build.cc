// ChunkDatabase build and size-window query microbenchmarks.
//
// BM_DbBuild times the serial index build on two synthetic ladders: 6 tracks
// x 120 positions, the size of the 10-min testbed assets the tools serve, and
// 12 x 4096, far past them. BM_CandidateQuery times one HasVideoCandidate
// probe (a lower_bound/upper_bound pair) on the larger ladder.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
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

void BM_CandidateQuery(benchmark::State& state) {
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
}

}  // namespace

BENCHMARK(BM_DbBuild)
    ->ArgNames({"tracks", "positions"})
    ->Args({6, 120})
    ->Args({12, 4096})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CandidateQuery);

BENCHMARK_MAIN();
