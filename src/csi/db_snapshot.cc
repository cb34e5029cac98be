#include "src/csi/db_snapshot.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"

namespace csi::infer {

namespace internal {

uint64_t NextSnapshotStateId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

DbSnapshot::DbSnapshot(std::shared_ptr<const ChunkDatabase> db, uint64_t epoch) {
  auto rep = std::make_shared<internal::SnapshotRep>();
  rep->audio_sizes = db->audio_sizes();
  rep->num_positions = db->num_positions();
  rep->base = std::move(db);
  rep->epoch = epoch;
  rep->state_id = internal::NextSnapshotStateId();
  // Standalone full builds are their own (single-state) lineage.
  rep->lineage_id = rep->state_id;
  rep_ = std::move(rep);
}

std::pair<size_t, size_t> DbSnapshot::DeltaRange(Bytes lo, Bytes hi) const {
  const std::vector<internal::DeltaEntry>& delta = rep_->delta;
  const auto first = std::lower_bound(
      delta.begin(), delta.end(), lo,
      [](const internal::DeltaEntry& e, Bytes bound) { return e.size < bound; });
  const auto last = std::upper_bound(
      first, delta.end(), hi,
      [](Bytes bound, const internal::DeltaEntry& e) { return bound < e.size; });
  // Same contract as ChunkDatabase::FlatRange: last >= first even when the
  // window is inverted (hi < lo).
  return {static_cast<size_t>(first - delta.begin()),
          std::max(static_cast<size_t>(first - delta.begin()),
                   static_cast<size_t>(last - delta.begin()))};
}

bool DbSnapshot::DeltaHasSizeInWindow(Bytes lo, Bytes hi, int min_index) const {
  const auto [first, last] = DeltaRange(lo, hi);
  const std::vector<internal::DeltaEntry>& delta = rep_->delta;
  for (size_t i = first; i < last; ++i) {
    if (ChunkDatabase::IndexOfPacked(delta[i].packed) >= min_index) {
      return true;
    }
  }
  return false;
}

std::vector<media::ChunkRef> DbSnapshot::VideoCandidatesInSizeRange(Bytes lo, Bytes hi) const {
  const internal::SnapshotRep& rep = *rep_;
  if (rep.delta.empty()) {
    std::vector<media::ChunkRef> out = rep.base->VideoCandidatesInSizeRange(lo, hi);
    CSI_TRACE_INSTANT("db_query", "db", {"lo", lo}, {"hi", hi},
                      {"candidates", static_cast<int64_t>(out.size())});
    return out;
  }

  const auto [bfirst, blast] = rep.base->FlatRange(lo, hi);
  const auto [dfirst, dlast] = DeltaRange(lo, hi);
  CSI_COUNTER_INC("csi_candidate_queries_total");
  CSI_HISTOGRAM_OBSERVE("csi_candidates_per_query", telemetry::CountBuckets(),
                        (blast - bfirst) + (dlast - dfirst));

  // Two-pointer merge of the base window and the delta window in the shared
  // (size, packed) order. The sets are disjoint (delta positions all lie past
  // the base), so this reproduces exactly the flat-index order a full rebuild
  // would produce — the byte-identity contract.
  const std::vector<Bytes>& base_sizes = rep.base->flat_sizes();
  const std::vector<uint32_t>& base_packed = rep.base->flat_packed_refs();
  std::vector<media::ChunkRef> out;
  out.reserve((blast - bfirst) + (dlast - dfirst));
  auto push = [&out](uint32_t packed) {
    out.push_back(media::ChunkRef{media::MediaType::kVideo,
                                  ChunkDatabase::TrackOfPacked(packed),
                                  ChunkDatabase::IndexOfPacked(packed)});
  };
  size_t b = bfirst;
  size_t d = dfirst;
  while (b < blast && d < dlast) {
    const internal::DeltaEntry& e = rep.delta[d];
    if (base_sizes[b] < e.size || (base_sizes[b] == e.size && base_packed[b] < e.packed)) {
      push(base_packed[b++]);
    } else {
      push(e.packed);
      ++d;
    }
  }
  for (; b < blast; ++b) {
    push(base_packed[b]);
  }
  for (; d < dlast; ++d) {
    push(rep.delta[d].packed);
  }
  CSI_TRACE_INSTANT("db_query", "db", {"lo", lo}, {"hi", hi},
                    {"candidates", static_cast<int64_t>(out.size())});
  return out;
}

std::vector<media::ChunkRef> DbSnapshot::VideoCandidates(Bytes estimated, double k) const {
  if (rep_->delta.empty()) {
    return rep_->base->VideoCandidates(estimated, k);
  }
  std::vector<media::ChunkRef> out =
      VideoCandidatesInSizeRange(ChunkDatabase::AdmissibleLow(estimated, k), estimated);
  // Historical (track-major) ordering, matching ChunkDatabase::VideoCandidates.
  std::stable_sort(out.begin(), out.end(),
                   [](const media::ChunkRef& a, const media::ChunkRef& b) {
                     return a.track < b.track;
                   });
  return out;
}

bool DbSnapshot::HasVideoCandidate(Bytes estimated, double k) const {
  const internal::SnapshotRep& rep = *rep_;
  if (rep.delta.empty()) {
    return rep.base->HasVideoCandidate(estimated, k);
  }
  const Bytes lo = ChunkDatabase::AdmissibleLow(estimated, k);
  const auto [bfirst, blast] = rep.base->FlatRange(lo, estimated);
  CSI_COUNTER_INC("csi_candidate_probes_total");
  if (bfirst < blast) {
    return true;
  }
  const auto [dfirst, dlast] = DeltaRange(lo, estimated);
  return dfirst < dlast;
}

bool DbSnapshot::AudioPossible(Bytes estimated, double k) const {
  return MatchingAudioTrack(estimated, k) >= 0;
}

int DbSnapshot::MatchingAudioTrack(Bytes estimated, double k) const {
  const std::vector<Bytes>& sizes = rep_->audio_sizes;
  for (size_t a = 0; a < sizes.size(); ++a) {
    const double size = static_cast<double>(sizes[a]);
    if (size <= static_cast<double>(estimated) &&
        static_cast<double>(estimated) <= (1.0 + k) * size) {
      return static_cast<int>(a);
    }
  }
  return -1;
}

}  // namespace csi::infer
