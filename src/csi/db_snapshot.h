// Snapshot-versioned view of the chunk database.
//
// A DbSnapshot is the handle every searcher queries: an immutable, epoch-
// tagged view of the fingerprint dictionary, pinned by shared_ptr so a reader
// that acquired it keeps exactly that version until it finishes — publishes
// and compactions happening concurrently (see live_database.h) never block or
// mutate it (RCU-style readers).
//
// A snapshot is a *base* ChunkDatabase (the flat SIMD-scanned size index)
// plus a small sorted delta buffer of (size, packed ref) entries appended by
// live-manifest refreshes after the base was built. Queries binary-narrow the
// base index as before and merge the delta window in (size, ref) order, so
// the candidate lists are byte-identical to a full rebuild at the same
// refresh point — the determinism contract locked in by
// tests/live_database_test.cc.

#ifndef CSI_SRC_CSI_DB_SNAPSHOT_H_
#define CSI_SRC_CSI_DB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/csi/chunk_database.h"
#include "src/media/manifest.h"

namespace csi::infer {

namespace internal {

// One flat-index slot appended after the snapshot's base was built. Ordered
// by (size, packed) — the same strict total order as the base index, so a
// merge of base window and delta window reproduces the full-build order.
struct DeltaEntry {
  Bytes size = 0;
  uint32_t packed = 0;

  friend bool operator<(const DeltaEntry& a, const DeltaEntry& b) {
    if (a.size != b.size) {
      return a.size < b.size;
    }
    return a.packed < b.packed;
  }
};

// The immutable state one snapshot pins. Built once by LiveChunkDatabase (or
// the full-build DbSnapshot constructor) and never mutated afterwards;
// concurrent readers share it freely.
struct SnapshotRep {
  // Manifest version this snapshot describes. Null for every full-build
  // snapshot, where base->manifest() is the manifest the caller keeps alive.
  std::shared_ptr<const media::Manifest> manifest_version;
  // Manifest version `base` was built from (kept alive because the base holds
  // a raw pointer into it). May lag manifest_version by the delta appends.
  std::shared_ptr<const media::Manifest> base_manifest;
  // The compacted base index; always valid.
  std::shared_ptr<const ChunkDatabase> base;
  // Entries appended after `base` was built, sorted by (size, packed). All
  // packed refs name positions >= base->num_positions(), so base and delta
  // are disjoint.
  std::vector<DeltaEntry> delta;
  // Per appended position p (absolute index base->num_positions() + r):
  // min/max video chunk size across tracks.
  std::vector<Bytes> delta_min_at;
  std::vector<Bytes> delta_max_at;
  // Position-major sizes of appended chunks:
  // delta_size_of[r * num_tracks + t] is the size of chunk (t, base_pos + r).
  std::vector<Bytes> delta_size_of;
  // Constant per-track audio chunk sizes at this version (audio is CBR).
  std::vector<Bytes> audio_sizes;
  int num_positions = 0;
  uint64_t epoch = 0;
  // Process-unique id of this published state: two reps never share one, and
  // SameStateAs equality implies state-id equality. Cache keys use it instead
  // of the rep pointer (pointers can be reused after a rep dies).
  uint64_t state_id = 0;
  // Process-unique id of the evolving database this state belongs to (one per
  // LiveChunkDatabase; standalone full-build reps get their own). Two states
  // of the same lineage differ only by appends — positions are never resized
  // or resized downward and existing chunk sizes never change — which is what
  // makes cross-state cache revalidation sound (see candidate_cache.h).
  uint64_t lineage_id = 0;
};

// Next process-unique snapshot state id (atomic counter, starts at 1).
uint64_t NextSnapshotStateId();

}  // namespace internal

// Value-semantic handle over one immutable database version. Cheap to copy
// (one shared_ptr); safe to share across threads once constructed. All query
// methods mirror ChunkDatabase and require a non-empty handle.
class DbSnapshot {
 public:
  DbSnapshot() = default;  // empty handle; valid() is false

  // Owning snapshot of a full database (no delta). The snapshot keeps the
  // database alive; `epoch` tags it for cache keying.
  explicit DbSnapshot(std::shared_ptr<const ChunkDatabase> db, uint64_t epoch = 0);

  // Internal: wraps a prebuilt rep (LiveChunkDatabase publishes these).
  explicit DbSnapshot(std::shared_ptr<const internal::SnapshotRep> rep)
      : rep_(std::move(rep)) {}

  bool valid() const { return rep_ != nullptr; }
  uint64_t epoch() const { return rep_->epoch; }
  // Process-unique id of the pinned published state (see SnapshotRep).
  uint64_t state_id() const { return rep_->state_id; }
  // Process-unique id of the evolving database this state belongs to.
  uint64_t lineage_id() const { return rep_->lineage_id; }
  // Number of chunks in the delta buffer (0 for full-build snapshots).
  size_t delta_chunks() const { return rep_->delta.size(); }
  // Positions covered by the compacted base index (delta entries all name
  // positions >= this).
  int base_positions() const { return rep_->base->num_positions(); }
  // True when both handles pin the exact same published state.
  bool SameStateAs(const DbSnapshot& other) const { return rep_ == other.rep_; }

  // Validity probe for cross-state cache revalidation: true iff some delta
  // chunk at absolute position >= min_index has size in [lo, hi]. O(log d) to
  // narrow the sorted delta buffer plus a scan of the in-window entries.
  bool DeltaHasSizeInWindow(Bytes lo, Bytes hi, int min_index) const;

  // Manifest version this snapshot describes.
  const media::Manifest* manifest() const {
    return rep_->manifest_version != nullptr ? rep_->manifest_version.get()
                                             : rep_->base->manifest();
  }

  // --- Query API (mirrors ChunkDatabase; results are byte-identical to a
  // --- full build at this snapshot's refresh point) -----------------------
  std::vector<media::ChunkRef> VideoCandidates(Bytes estimated, double k) const;
  std::vector<media::ChunkRef> VideoCandidatesInSizeRange(Bytes lo, Bytes hi) const;
  bool HasVideoCandidate(Bytes estimated, double k) const;
  bool AudioPossible(Bytes estimated, double k) const;
  int MatchingAudioTrack(Bytes estimated, double k) const;
  const std::vector<Bytes>& audio_sizes() const { return rep_->audio_sizes; }

  Bytes VideoSize(int track, int index) const {
    const internal::SnapshotRep& rep = *rep_;
    const int base_positions = rep.base->num_positions();
    if (index < base_positions) {
      return rep.base->VideoSize(track, index);
    }
    return rep.delta_size_of[static_cast<size_t>(index - base_positions) *
                                 static_cast<size_t>(rep.base->num_video_tracks()) +
                             static_cast<size_t>(track)];
  }
  int num_video_tracks() const { return rep_->base->num_video_tracks(); }
  int num_positions() const { return rep_->num_positions; }
  Bytes MinSizeAt(int index) const {
    const internal::SnapshotRep& rep = *rep_;
    const int base_positions = rep.base->num_positions();
    return index < base_positions
               ? rep.base->MinSizeAt(index)
               : rep.delta_min_at[static_cast<size_t>(index - base_positions)];
  }
  Bytes MaxSizeAt(int index) const {
    const internal::SnapshotRep& rep = *rep_;
    const int base_positions = rep.base->num_positions();
    return index < base_positions
               ? rep.base->MaxSizeAt(index)
               : rep.delta_max_at[static_cast<size_t>(index - base_positions)];
  }

 private:
  // [first, last) window of the delta buffer with size in [lo, hi].
  std::pair<size_t, size_t> DeltaRange(Bytes lo, Bytes hi) const;

  std::shared_ptr<const internal::SnapshotRep> rep_;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_DB_SNAPSHOT_H_
