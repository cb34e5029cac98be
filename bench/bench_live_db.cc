// LiveChunkDatabase microbenchmarks (PR 4 tentpole).
//
// BM_LiveRefresh vs BM_FullRebuildPerRefresh quantifies why the live database
// exists: appending one refresh into the sorted delta buffer is O(appended ·
// log) work, while the stop-the-world alternative re-sorts the whole flat
// index every refresh. BM_SnapshotQuery sweeps the residual delta size to
// show what the merged (base + delta) query path costs relative to a fully
// compacted snapshot, and BM_Compaction measures the background rebuild a
// publish cadence has to absorb.

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/chunk_database.h"
#include "src/csi/group_search.h"
#include "src/csi/live_database.h"
#include "src/media/manifest.h"

using namespace csi;

namespace {

constexpr int kTracks = 8;

// A deployment-scale live ladder: 8 tracks x `positions` chunks each.
media::Manifest LiveManifest(int positions) {
  media::Manifest m;
  m.asset_id = "bench-live";
  m.host = "bench.live.example";
  Rng rng(0x11fe);
  for (int t = 0; t < kTracks; ++t) {
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

// One live-edge refresh: `appended` new chunks on every track.
infer::ManifestRefresh MakeRefresh(Rng* rng, int appended) {
  infer::ManifestRefresh refresh;
  refresh.video_appends.resize(kTracks);
  for (int t = 0; t < kTracks; ++t) {
    const double mean = 250'000.0 * (t + 1);
    for (int i = 0; i < appended; ++i) {
      refresh.video_appends[static_cast<size_t>(t)].push_back(
          media::Chunk{static_cast<Bytes>(mean * rng->Uniform(0.5, 1.8)), 2'000'000});
    }
  }
  return refresh;
}

// Appending refreshes into the delta buffer, compaction disabled: the
// incremental cost a live deployment pays per metadata poll.
void BM_LiveRefresh(benchmark::State& state) {
  const int appended = static_cast<int>(state.range(0));
  const media::Manifest manifest = LiveManifest(2048);
  Rng rng(0xabc);
  for (auto _ : state) {
    state.PauseTiming();
    infer::LiveChunkDatabase::Options options;
    options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
    infer::LiveChunkDatabase live(manifest, options);
    state.ResumeTiming();
    for (int r = 0; r < 16; ++r) {
      benchmark::DoNotOptimize(live.ApplyRefresh(MakeRefresh(&rng, appended)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.counters["chunks/refresh"] = static_cast<double>(appended) * kTracks;
}

// The stop-the-world alternative: a full sorted rebuild per refresh.
void BM_FullRebuildPerRefresh(benchmark::State& state) {
  const int appended = static_cast<int>(state.range(0));
  Rng rng(0xabc);
  for (auto _ : state) {
    state.PauseTiming();
    media::Manifest manifest = LiveManifest(2048);
    state.ResumeTiming();
    for (int r = 0; r < 16; ++r) {
      const infer::ManifestRefresh refresh = MakeRefresh(&rng, appended);
      for (int t = 0; t < kTracks; ++t) {
        auto& chunks = manifest.video_tracks[static_cast<size_t>(t)].chunks;
        chunks.insert(chunks.end(), refresh.video_appends[static_cast<size_t>(t)].begin(),
                      refresh.video_appends[static_cast<size_t>(t)].end());
      }
      infer::ChunkDatabase db(&manifest);
      benchmark::DoNotOptimize(db);
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.counters["chunks/refresh"] = static_cast<double>(appended) * kTracks;
}

// Candidate queries against a snapshot carrying `delta` residual chunks:
// delta = 0 is the compacted fast path (pure base index).
void BM_SnapshotQuery(benchmark::State& state) {
  const int delta_chunks = static_cast<int>(state.range(0));
  const media::Manifest manifest = LiveManifest(2048);
  infer::LiveChunkDatabase::Options options;
  options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
  infer::LiveChunkDatabase live(manifest, options);
  Rng rng(0x5eed);
  for (int left = delta_chunks; left > 0; left -= kTracks) {
    live.ApplyRefresh(MakeRefresh(&rng, 1));
  }
  const infer::DbSnapshot snap = live.Acquire();
  std::vector<Bytes> estimates(1024);
  for (auto& e : estimates) {
    e = rng.UniformInt(1, 8 * 250'000 * 2);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.VideoCandidates(estimates[i], 0.05));
    i = (i + 1) & (estimates.size() - 1);
  }
  state.counters["delta"] = static_cast<double>(snap.delta_chunks());
}

// The full serial rebuild a compaction runs (off the hot path).
void BM_Compaction(benchmark::State& state) {
  const media::Manifest manifest = LiveManifest(2048);
  Rng rng(0xc0);
  for (auto _ : state) {
    state.PauseTiming();
    infer::LiveChunkDatabase::Options options;
    options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
    infer::LiveChunkDatabase live(manifest, options);
    for (int r = 0; r < 8; ++r) {
      live.ApplyRefresh(MakeRefresh(&rng, 4));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(live.CompactNow());
  }
}

// Group enumeration across live-manifest refreshes, with and without the
// shared candidate cache (arg 1/0). The append sizes sit outside every query
// window, so a warm cache revalidates entries against the delta probe instead
// of re-enumerating — the --follow-manifests steady state.
void BM_GroupEnumAcrossRefreshes(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const media::Manifest manifest = LiveManifest(512);

  // Two-chunk groups planted on the low tracks: estimates stay well under
  // the out-of-window append size below.
  Rng qrng(0x9a);
  std::vector<infer::TrafficGroup> groups;
  for (int i = 0; i < 24; ++i) {
    const int start = static_cast<int>(qrng.UniformInt(0, 509));
    const int track = static_cast<int>(qrng.UniformInt(0, 2));
    infer::TrafficGroup g;
    Bytes total = 0;
    for (int j = 0; j < 2; ++j) {
      g.requests.push_back(infer::DetectedRequest{});
      total += manifest.video_tracks[static_cast<size_t>(track)]
                   .chunks[static_cast<size_t>(start + j)]
                   .size;
    }
    g.estimated_total = total + total / 300 + 1;
    groups.push_back(std::move(g));
  }

  // Live-edge appends no candidate window can contain.
  const auto big_refresh = [] {
    infer::ManifestRefresh refresh;
    refresh.video_appends.resize(kTracks);
    for (int t = 0; t < kTracks; ++t) {
      refresh.video_appends[static_cast<size_t>(t)].push_back(
          media::Chunk{50'000'000, 2'000'000});
    }
    return refresh;
  };

  infer::GroupSearchConfig config;
  config.k = 0.05;
  config.expected_overhead = 0.005;
  constexpr int kRefreshes = 8;
  for (auto _ : state) {
    state.PauseTiming();
    infer::LiveChunkDatabase::Options options;
    options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
    infer::LiveChunkDatabase live(manifest, options);
    infer::GroupCandidateCache cache(64ull << 20);
    infer::GroupSearchConfig run = config;
    if (cached) {
      run.shared_cache = &cache;
    }
    const auto enumerate_all = [&](const infer::DbSnapshot& snap) {
      for (const infer::TrafficGroup& g : groups) {
        benchmark::DoNotOptimize(
            infer::EnumerateGroupCandidateSet(g, snap, run, {}, 0, snap.num_positions()));
      }
    };
    enumerate_all(live.Acquire());  // warm pass at the starting epoch
    state.ResumeTiming();
    for (int r = 0; r < kRefreshes; ++r) {
      live.ApplyRefresh(big_refresh());
      enumerate_all(live.Acquire());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRefreshes *
                          static_cast<int64_t>(groups.size()));
  state.counters["cache"] = cached ? 1 : 0;
}

}  // namespace

BENCHMARK(BM_LiveRefresh)->ArgName("appended")->Arg(1)->Arg(4)->Arg(16)->UseRealTime();
BENCHMARK(BM_FullRebuildPerRefresh)
    ->ArgName("appended")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_SnapshotQuery)->ArgName("delta")->Arg(0)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_Compaction)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupEnumAcrossRefreshes)
    ->ArgName("cache")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
