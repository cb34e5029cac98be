// Incrementally updatable chunk database for live manifests.
//
// Live HLS/DASH manifests grow while a session is being watched: the crawler
// refreshes metadata continuously and each refresh appends chunks to every
// track of the ladder. Rebuilding the full ChunkDatabase per refresh is a
// stop-the-world swap; LiveChunkDatabase instead accumulates appends in the
// snapshot's sorted delta buffer and publishes a new immutable DbSnapshot
// RCU-style — Acquire() hands out the current version, readers keep their
// pinned epoch until they finish, and nobody ever blocks on a writer.
//
// Once the delta grows past a threshold, a compaction rebuilds the full flat
// index (one serial ChunkDatabase build, in the background on the ThreadPool
// when one is given) from the pinned manifest version and splices it in under
// the writer lock: delta entries the new base now covers are dropped, later
// appends survive. Every publish — refresh or compaction — bumps the epoch,
// and every snapshot answers queries byte-identically to a full rebuild at its
// refresh point (the determinism contract; see tests/live_database_test.cc).

#ifndef CSI_SRC_CSI_LIVE_DATABASE_H_
#define CSI_SRC_CSI_LIVE_DATABASE_H_

#include <atomic>
#include <cstddef>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/units.h"
#include "src/csi/db_snapshot.h"
#include "src/media/manifest.h"

namespace csi::infer {

// One live-manifest metadata refresh: the chunks the live edge appended since
// the previous refresh. `video_appends[t]` are the new chunks of video track
// t; the outer size must equal the database's video track count and all inner
// vectors must have the same length (the live edge advances uniformly across
// the ladder — required for incremental-vs-full byte identity, and what real
// live ladders do). Audio tracks grow by the same chunk count, repeating each
// track's constant (CBR) chunk.
struct ManifestRefresh {
  std::vector<std::vector<media::Chunk>> video_appends;
};

// Tuning knobs for LiveChunkDatabase. Namespace-scope (not nested) so it is
// a complete type when used as a defaulted constructor argument.
struct LiveDbOptions {
  // Pool background compactions run on; null compacts inline.
  ThreadPool* pool = nullptr;
  // Delta size (in chunks) at which a refresh triggers compaction. 0
  // compacts after every refresh; SIZE_MAX never compacts automatically.
  size_t compact_after_delta_chunks = 4096;
  // Run triggered compactions on `pool` in the background (publishes when
  // done); false compacts inline inside ApplyRefresh before it returns.
  // Ignored (treated as false) when `pool` is null.
  bool background_compaction = true;
};

// Thread-safe owner of the evolving database. All members are safe to call
// concurrently; writers (ApplyRefresh / CompactNow) serialize among
// themselves, readers (Acquire and everything on a DbSnapshot) never block.
class LiveChunkDatabase {
 public:
  using Options = LiveDbOptions;

  // Builds the initial full snapshot (epoch 0) from a copy of `initial`.
  // Throws std::invalid_argument if the video tracks have non-uniform lengths
  // or the manifest exceeds the packed-ref limits (4096 tracks, 2^20
  // positions).
  explicit LiveChunkDatabase(const media::Manifest& initial, Options options = {});
  ~LiveChunkDatabase();

  LiveChunkDatabase(const LiveChunkDatabase&) = delete;
  LiveChunkDatabase& operator=(const LiveChunkDatabase&) = delete;

  // The current published snapshot. O(1); never blocks on writers beyond the
  // pointer-swap critical section.
  DbSnapshot Acquire() const;

  // Appends `refresh` to the live manifest, publishes a new snapshot (epoch +
  // 1), and returns it. May trigger a compaction per Options. Throws
  // std::invalid_argument on ragged appends or track-count mismatch; the
  // database is unchanged in that case.
  DbSnapshot ApplyRefresh(const ManifestRefresh& refresh);

  // Waits for any in-flight background compaction, then compacts the current
  // delta inline (no-op when the delta is empty) and returns the resulting
  // snapshot.
  DbSnapshot CompactNow();

  // Blocks until the background compaction that was in flight (if any)
  // published. Propagates an exception the compaction threw.
  void WaitForCompaction();

  uint64_t epoch() const { return Current()->epoch; }
  size_t delta_chunks() const { return Current()->delta.size(); }
  int num_video_tracks() const { return num_tracks_; }
  int num_positions() const { return Current()->num_positions; }

 private:
  std::shared_ptr<const internal::SnapshotRep> Current() const;
  // Swaps in `rep` as the current snapshot and records publish telemetry.
  void Publish(std::shared_ptr<const internal::SnapshotRep> rep);
  // Builds a full ChunkDatabase from `manifest_version` and splices it in as
  // the new base. Skipped (stale) if a newer base already covers as much.
  void CompactFrom(std::shared_ptr<const media::Manifest> manifest_version);
  // Called under writer_mu_; starts a background compaction of the current
  // manifest version unless one is already running.
  void StartBackgroundCompaction(std::shared_ptr<const media::Manifest> manifest_version);

  Options options_;
  int num_tracks_ = 0;
  // Process-unique id shared by every state this database publishes; cache
  // layers use it to know two snapshots differ only by appends.
  uint64_t lineage_id_ = 0;

  // Guards `current_` only; held for pointer swaps, never while building.
  mutable std::mutex state_mu_;
  std::shared_ptr<const internal::SnapshotRep> current_;

  // Serializes writers (refresh publishes and compaction splices).
  std::mutex writer_mu_;

  // Background compaction bookkeeping.
  std::mutex compaction_mu_;
  std::future<void> compaction_;
  std::atomic<bool> compaction_running_{false};
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_LIVE_DATABASE_H_
