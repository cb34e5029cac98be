#include "src/csi/chunk_database.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/simd.h"
#include "src/common/telemetry.h"

namespace csi::infer {

ChunkDatabase::ChunkDatabase(const media::Manifest* manifest) : manifest_(manifest) {
  num_tracks_ = manifest->num_video_tracks();
  num_positions_ = manifest->num_positions();
  CSI_SPAN("db_build", {"tracks", num_tracks_}, {"positions", num_positions_});
  CSI_COUNTER_INC("csi_db_builds_total");
  const size_t total = static_cast<size_t>(num_tracks_) * static_cast<size_t>(num_positions_);
  size_of_.assign(total, 0);
  min_at_.assign(static_cast<size_t>(num_positions_), 0);
  max_at_.assign(static_cast<size_t>(num_positions_), 0);

  // One pass fills the row-major size table, the per-position extremes and
  // the (size, packed ref) pairs of the flat index. Tracks shorter than
  // num_positions() keep size-0 entries (a well-formed manifest has uniform
  // track lengths; the clamp just keeps a ragged one deterministic and
  // UB-free).
  std::vector<std::pair<Bytes, uint32_t>> entries(total);
  for (int t = 0; t < num_tracks_; ++t) {
    const auto& chunks = manifest->video_tracks[static_cast<size_t>(t)].chunks;
    const size_t limit = std::min(chunks.size(), static_cast<size_t>(num_positions_));
    const size_t row = static_cast<size_t>(t) * static_cast<size_t>(num_positions_);
    for (size_t i = 0; i < limit; ++i) {
      size_of_[row + i] = chunks[i].size;
    }
    for (int i = 0; i < num_positions_; ++i) {
      const size_t p = static_cast<size_t>(i);
      const Bytes size = size_of_[row + p];
      min_at_[p] = t == 0 ? size : std::min(min_at_[p], size);
      max_at_[p] = t == 0 ? size : std::max(max_at_[p], size);
      entries[row + p] = {size, PackRef(t, i)};
    }
  }

  // Sorted by (size, packed ref): packed refs are unique, so this is a strict
  // total order and the index does not depend on the fill order.
  std::sort(entries.begin(), entries.end());
  sizes_.resize(total);
  packed_refs_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    sizes_[i] = entries[i].first;
    packed_refs_[i] = entries[i].second;
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
