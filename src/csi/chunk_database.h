// Size-indexed chunk database (the fingerprint dictionary).
//
// Built from the manifest gathered ahead of the measurement (paper §4.1),
// this answers the Step 2.1 query: given an estimated size S~ and the error
// bound k, which chunks satisfy Property (1): S <= S~ <= (1+k)S, i.e.
// S in [S~/(1+k), S~]?
//
// Storage is a single flat size-sorted index over *all* video chunks (SoA:
// one contiguous sizes array plus a parallel packed (track, index) array).
// Construction is one serial pass over the manifest and one sort on
// (size, packed ref), a strict total order because packed refs are unique
// (checked against an in-test oracle by tests/db_differential_test.cc). For
// the ladders the tools serve (6 tracks x 120 positions) it takes
// microseconds and runs once per batch.
//
// A range query binary-narrows the sorted sizes array to a small window and
// resolves the exact bounds with a SIMD count scan (src/common/simd.h); the
// scalar and vector paths return identical candidate sets. The database is
// immutable after construction and safe to share across threads (batch
// inference fans many Analyze calls out over one instance).

#ifndef CSI_SRC_CSI_CHUNK_DATABASE_H_
#define CSI_SRC_CSI_CHUNK_DATABASE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/media/manifest.h"

namespace csi::infer {

class ChunkDatabase {
 public:
  explicit ChunkDatabase(const media::Manifest* manifest);

  // All video chunks whose true size could have produced estimate
  // `estimated` under error bound `k`. Ordered by (track, size, index).
  std::vector<media::ChunkRef> VideoCandidates(Bytes estimated, double k) const;

  // All video chunks with true size in [lo, hi], in flat-index order
  // (ascending size; ties by track then index).
  std::vector<media::ChunkRef> VideoCandidatesInSizeRange(Bytes lo, Bytes hi) const;

  // True iff VideoCandidates(estimated, k) would be non-empty — one range
  // probe, no allocation.
  bool HasVideoCandidate(Bytes estimated, double k) const;

  // Smallest admissible true size for estimate S~ under bound k: ceil(S~/(1+k)).
  static Bytes AdmissibleLow(Bytes estimated, double k);

  // True if some audio chunk size satisfies Property (1) for `estimated`.
  // Audio tracks are CBR (constant size per track, §5.2).
  bool AudioPossible(Bytes estimated, double k) const;
  // The audio track matching `estimated` (first match), or -1.
  int MatchingAudioTrack(Bytes estimated, double k) const;

  // Constant per-track audio chunk sizes.
  const std::vector<Bytes>& audio_sizes() const { return audio_sizes_; }

  // Size of video chunk (track, index).
  Bytes VideoSize(int track, int index) const {
    return size_of_[static_cast<size_t>(track) * static_cast<size_t>(num_positions_) +
                    static_cast<size_t>(index)];
  }
  int num_video_tracks() const { return num_tracks_; }
  int num_positions() const { return num_positions_; }
  // Smallest/largest video chunk size at a playback position.
  Bytes MinSizeAt(int index) const { return min_at_[static_cast<size_t>(index)]; }
  Bytes MaxSizeAt(int index) const { return max_at_[static_cast<size_t>(index)]; }

  const media::Manifest* manifest() const { return manifest_; }

  // Flat-index internals, exposed for the differential tests and benches:
  // sorted sizes and the parallel packed (track, index) words.
  const std::vector<Bytes>& flat_sizes() const { return sizes_; }
  const std::vector<uint32_t>& flat_packed_refs() const { return packed_refs_; }

  // Packs (track, index) into one word of the flat index. Shared with
  // DbSnapshot's delta buffer so merged windows order identically. Limits:
  // track < 4096, index < 2^20.
  static uint32_t PackRef(int track, int index) {
    return (static_cast<uint32_t>(track) << 20) | static_cast<uint32_t>(index);
  }
  static int TrackOfPacked(uint32_t packed) { return static_cast<int>(packed >> 20); }
  static int IndexOfPacked(uint32_t packed) {
    return static_cast<int>(packed & ((1u << 20) - 1));
  }
  static constexpr int kMaxPositions = 1 << 20;

  // [first, last) half-open range of flat-index slots with size in [lo, hi].
  // Public so DbSnapshot can merge the base window with its delta buffer.
  std::pair<size_t, size_t> FlatRange(Bytes lo, Bytes hi) const;

 private:
  const media::Manifest* manifest_;
  int num_tracks_ = 0;
  int num_positions_ = 0;
  // Flat global index, sorted by (size, track, index). `sizes_[i]` and
  // `packed_refs_[i]` describe the same chunk.
  std::vector<Bytes> sizes_;
  std::vector<uint32_t> packed_refs_;
  // Row-major (track-major) copy of all chunk sizes for O(1) VideoSize
  // without chasing manifest pointers in the DFS hot loop.
  std::vector<Bytes> size_of_;
  std::vector<Bytes> audio_sizes_;
  std::vector<Bytes> min_at_;
  std::vector<Bytes> max_at_;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CHUNK_DATABASE_H_
