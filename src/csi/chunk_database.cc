#include "src/csi/chunk_database.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/simd.h"
#include "src/common/telemetry.h"
#include "src/common/thread_pool.h"

namespace csi::infer {

namespace {

// One slot of the flat index during construction. Sorted by (size, packed);
// packed words are unique, so the order is a strict total order and any
// correct merge of sorted runs reproduces the full sort exactly.
struct FlatEntry {
  Bytes size = 0;
  uint32_t packed = 0;

  friend bool operator<(const FlatEntry& a, const FlatEntry& b) {
    if (a.size != b.size) {
      return a.size < b.size;
    }
    return a.packed < b.packed;
  }
};

int ResolveShards(const DbBuildOptions& options, size_t total) {
  int shards = options.shards;
  if (shards <= 0) {
    shards = options.pool != nullptr ? options.pool->num_workers() + 1 : 1;
  }
  // More shards than entries only manufactures empty runs.
  if (total > 0 && static_cast<size_t>(shards) > total) {
    shards = static_cast<int>(total);
  }
  return std::clamp(shards, 1, 256);
}

// Merges the sorted runs delimited by `bounds` into one sorted sequence with
// rounds of pairwise merges. Pairs within a round touch disjoint ranges, so
// they fan out over the pool; the pairing itself is fixed, and the comparator
// is total, so the result does not depend on scheduling.
void MergeSortedRuns(std::vector<FlatEntry>* entries, std::vector<size_t> bounds,
                     ThreadPool* pool) {
  if (bounds.size() <= 2) {
    return;
  }
  std::vector<FlatEntry> buffer(entries->size());
  std::vector<FlatEntry>* src = entries;
  std::vector<FlatEntry>* dst = &buffer;
  while (bounds.size() > 2) {
    const size_t runs = bounds.size() - 1;
    const int64_t pairs = static_cast<int64_t>(runs / 2);
    ParallelFor(pool, pairs, [&](int64_t p) {
      const size_t lo = bounds[static_cast<size_t>(2 * p)];
      const size_t mid = bounds[static_cast<size_t>(2 * p) + 1];
      const size_t hi = bounds[static_cast<size_t>(2 * p) + 2];
      std::merge(src->begin() + static_cast<ptrdiff_t>(lo),
                 src->begin() + static_cast<ptrdiff_t>(mid),
                 src->begin() + static_cast<ptrdiff_t>(mid),
                 src->begin() + static_cast<ptrdiff_t>(hi),
                 dst->begin() + static_cast<ptrdiff_t>(lo));
    });
    if (runs % 2 == 1) {  // odd run count: the tail run carries over as-is
      const size_t lo = bounds[runs - 1];
      std::copy(src->begin() + static_cast<ptrdiff_t>(lo), src->end(),
                dst->begin() + static_cast<ptrdiff_t>(lo));
    }
    std::vector<size_t> next;
    next.reserve(runs / 2 + 2);
    for (size_t i = 0; i < runs; i += 2) {
      next.push_back(bounds[i]);
    }
    next.push_back(bounds.back());
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != entries) {
    *entries = std::move(*src);
  }
}

}  // namespace

ChunkDatabase::ChunkDatabase(const media::Manifest* manifest)
    : ChunkDatabase(manifest, DbBuildOptions{}) {}

ChunkDatabase::ChunkDatabase(const media::Manifest* manifest, const DbBuildOptions& options)
    : manifest_(manifest) {
  num_tracks_ = manifest->num_video_tracks();
  num_positions_ = manifest->num_positions();
  CSI_SPAN("db_build", {"tracks", num_tracks_}, {"positions", num_positions_});
  const size_t total = static_cast<size_t>(num_tracks_) * static_cast<size_t>(num_positions_);
  size_of_.assign(total, 0);
  min_at_.assign(static_cast<size_t>(num_positions_), 0);
  max_at_.assign(static_cast<size_t>(num_positions_), 0);

  // Row-major size table, one disjoint row per track. Tracks shorter than
  // num_positions() keep size-0 entries (a well-formed manifest has uniform
  // track lengths; the clamp just keeps a ragged one deterministic and UB-free).
  ParallelFor(options.pool, num_tracks_, [&](int64_t t) {
    const auto& chunks = manifest->video_tracks[static_cast<size_t>(t)].chunks;
    const size_t limit =
        std::min(chunks.size(), static_cast<size_t>(num_positions_));
    Bytes* row = size_of_.data() + static_cast<size_t>(t) * static_cast<size_t>(num_positions_);
    for (size_t i = 0; i < limit; ++i) {
      row[i] = chunks[i].size;
    }
  });
  for (int t = 0; t < num_tracks_; ++t) {
    const Bytes* row =
        size_of_.data() + static_cast<size_t>(t) * static_cast<size_t>(num_positions_);
    for (int i = 0; i < num_positions_; ++i) {
      if (t == 0) {
        min_at_[static_cast<size_t>(i)] = row[i];
        max_at_[static_cast<size_t>(i)] = row[i];
      } else {
        min_at_[static_cast<size_t>(i)] = std::min(min_at_[static_cast<size_t>(i)], row[i]);
        max_at_[static_cast<size_t>(i)] = std::max(max_at_[static_cast<size_t>(i)], row[i]);
      }
    }
  }

  // Sharded flat-index build: each shard owns a contiguous slice of the
  // track-major (size, ref) domain, fills and sorts it independently, and the
  // sorted runs merge in fixed pair order. size_of_ is laid out track-major,
  // so slot f describes chunk (f / positions, f % positions) directly.
  build_shards_ = ResolveShards(options, total);
  CSI_COUNTER_INC("csi_db_builds_total");
  CSI_COUNTER_ADD("csi_db_build_shards_total", build_shards_);
  std::vector<FlatEntry> entries(total);
  std::vector<size_t> bounds(static_cast<size_t>(build_shards_) + 1);
  for (int s = 0; s <= build_shards_; ++s) {
    bounds[static_cast<size_t>(s)] =
        total * static_cast<size_t>(s) / static_cast<size_t>(build_shards_);
  }
  ParallelFor(options.pool, build_shards_, [&](int64_t s) {
    CSI_SPAN("db_build_shard");
    const size_t lo = bounds[static_cast<size_t>(s)];
    const size_t hi = bounds[static_cast<size_t>(s) + 1];
    for (size_t f = lo; f < hi; ++f) {
      const int t = static_cast<int>(f / static_cast<size_t>(num_positions_));
      const int i = static_cast<int>(f % static_cast<size_t>(num_positions_));
      entries[f] = FlatEntry{size_of_[f], PackRef(t, i)};
    }
    std::sort(entries.begin() + static_cast<ptrdiff_t>(lo),
              entries.begin() + static_cast<ptrdiff_t>(hi));
  });
  MergeSortedRuns(&entries, std::move(bounds), options.pool);

  sizes_.resize(total);
  packed_refs_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    sizes_[i] = entries[i].size;
    packed_refs_[i] = entries[i].packed;
  }

  for (const auto& track : manifest->audio_tracks) {
    audio_sizes_.push_back(track.chunks.empty() ? 0 : track.chunks[0].size);
  }
}

Bytes ChunkDatabase::AdmissibleLow(Bytes estimated, double k) {
  return static_cast<Bytes>(std::ceil(static_cast<double>(estimated) / (1.0 + k)));
}

std::pair<size_t, size_t> ChunkDatabase::FlatRange(Bytes lo, Bytes hi) const {
  // Hybrid scan: binary steps narrow the sorted array until a window this
  // small remains, then one SIMD count pass resolves the exact boundary. The
  // last levels of a binary search are branch-miss-dominated; a linear
  // compare-count over a couple of cache lines beats them, and the result is
  // identical to lower_bound/upper_bound by construction.
  constexpr size_t kScanWindow = 128;
  const Bytes* data = sizes_.data();
  const size_t n = sizes_.size();

  // Invariant: sizes_[i] < lo for all i < a; sizes_[i] >= lo for all i >= b.
  size_t a = 0;
  size_t b = n;
  while (b - a > kScanWindow) {
    const size_t mid = a + (b - a) / 2;
    if (data[mid] < lo) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  const size_t first = a + simd::CountBelow(data + a, b - a, lo);

  // Upper bound for hi, started at `first` so last >= first even when the
  // window is empty (hi < lo) — same contract as the old equal_range pair.
  size_t c = first;
  size_t d = n;
  while (d - c > kScanWindow) {
    const size_t mid = c + (d - c) / 2;
    if (data[mid] <= hi) {
      c = mid + 1;
    } else {
      d = mid;
    }
  }
  const size_t last = c + simd::CountAtOrBelow(data + c, d - c, hi);

  if (simd::ActiveBackend() != simd::Backend::kScalar) {
    CSI_COUNTER_INC("csi_simd_window_scans_total");
  } else {
    CSI_COUNTER_INC("csi_scalar_window_scans_total");
  }
  return {first, last};
}

std::vector<media::ChunkRef> ChunkDatabase::VideoCandidatesInSizeRange(Bytes lo,
                                                                       Bytes hi) const {
  std::vector<media::ChunkRef> out;
  const auto [first, last] = FlatRange(lo, hi);
  CSI_COUNTER_INC("csi_candidate_queries_total");
  CSI_HISTOGRAM_OBSERVE("csi_candidates_per_query", telemetry::CountBuckets(),
                        last - first);
  out.reserve(last - first);
  for (size_t i = first; i < last; ++i) {
    const uint32_t packed = packed_refs_[i];
    out.push_back(
        media::ChunkRef{media::MediaType::kVideo, TrackOfPacked(packed), IndexOfPacked(packed)});
  }
  return out;
}

std::vector<media::ChunkRef> ChunkDatabase::VideoCandidates(Bytes estimated, double k) const {
  std::vector<media::ChunkRef> out = VideoCandidatesInSizeRange(AdmissibleLow(estimated, k),
                                                                estimated);
  // Historical (track-major) ordering: downstream path-search enumeration
  // order, and therefore output sequence order, depends on it.
  std::stable_sort(out.begin(), out.end(),
                   [](const media::ChunkRef& a, const media::ChunkRef& b) {
                     return a.track < b.track;
                   });
  return out;
}

bool ChunkDatabase::HasVideoCandidate(Bytes estimated, double k) const {
  const auto [first, last] = FlatRange(AdmissibleLow(estimated, k), estimated);
  CSI_COUNTER_INC("csi_candidate_probes_total");
  return first < last;
}

bool ChunkDatabase::AudioPossible(Bytes estimated, double k) const {
  return MatchingAudioTrack(estimated, k) >= 0;
}

int ChunkDatabase::MatchingAudioTrack(Bytes estimated, double k) const {
  for (size_t a = 0; a < audio_sizes_.size(); ++a) {
    const double size = static_cast<double>(audio_sizes_[a]);
    if (size <= static_cast<double>(estimated) &&
        static_cast<double>(estimated) <= (1.0 + k) * size) {
      return static_cast<int>(a);
    }
  }
  return -1;
}

}  // namespace csi::infer
