#include "src/csi/live_database.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/chunk_database.h"

namespace csi::infer {

namespace {

void ValidateUniformManifest(const media::Manifest& manifest) {
  if (manifest.num_video_tracks() >= (1 << 12)) {
    throw std::invalid_argument("LiveChunkDatabase: too many video tracks for packed refs");
  }
  if (manifest.num_positions() > ChunkDatabase::kMaxPositions) {
    throw std::invalid_argument("LiveChunkDatabase: too many positions for packed refs");
  }
  const size_t positions = manifest.video_tracks.empty()
                               ? 0
                               : manifest.video_tracks[0].chunks.size();
  for (const auto& track : manifest.video_tracks) {
    if (track.chunks.size() != positions) {
      throw std::invalid_argument(
          "LiveChunkDatabase: video tracks must have uniform lengths (live edge "
          "advances across the whole ladder)");
    }
  }
}

}  // namespace

LiveChunkDatabase::LiveChunkDatabase(const media::Manifest& initial, Options options)
    : options_(options) {
  ValidateUniformManifest(initial);
  auto manifest_version = std::make_shared<const media::Manifest>(initial);
  auto base = std::make_shared<const ChunkDatabase>(manifest_version.get());
  num_tracks_ = base->num_video_tracks();

  auto rep = std::make_shared<internal::SnapshotRep>();
  rep->manifest_version = manifest_version;
  rep->base_manifest = std::move(manifest_version);
  rep->base = std::move(base);
  rep->audio_sizes = rep->base->audio_sizes();
  rep->num_positions = rep->base->num_positions();
  rep->epoch = 0;
  rep->state_id = internal::NextSnapshotStateId();
  lineage_id_ = rep->state_id;
  rep->lineage_id = lineage_id_;
  Publish(std::move(rep));
}

LiveChunkDatabase::~LiveChunkDatabase() {
  // A background compaction captures `this`; it must finish before teardown.
  // Its exception (if any) has nowhere to go from a destructor.
  try {
    WaitForCompaction();
  } catch (...) {
  }
}

std::shared_ptr<const internal::SnapshotRep> LiveChunkDatabase::Current() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_;
}

DbSnapshot LiveChunkDatabase::Acquire() const { return DbSnapshot(Current()); }

void LiveChunkDatabase::Publish(std::shared_ptr<const internal::SnapshotRep> rep) {
  const size_t delta_chunks = rep->delta.size();
  const uint64_t epoch = rep->epoch;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    current_ = std::move(rep);
  }
  CSI_COUNTER_INC("csi_db_publishes_total");
  CSI_GAUGE_SET("csi_db_delta_chunks", static_cast<int64_t>(delta_chunks));
  CSI_TRACE_INSTANT("db_publish", "db", {"epoch", epoch},
                    {"delta_chunks", static_cast<int64_t>(delta_chunks)});
}

DbSnapshot LiveChunkDatabase::ApplyRefresh(const ManifestRefresh& refresh) {
  std::shared_ptr<const internal::SnapshotRep> published;
  std::shared_ptr<const media::Manifest> manifest_version;
  bool trigger_compaction = false;
  {
    std::lock_guard<std::mutex> writer(writer_mu_);
    const std::shared_ptr<const internal::SnapshotRep> old = Current();

    if (static_cast<int>(refresh.video_appends.size()) != num_tracks_) {
      throw std::invalid_argument(
          "ManifestRefresh: video_appends must cover every video track (got " +
          std::to_string(refresh.video_appends.size()) + ", want " +
          std::to_string(num_tracks_) + ")");
    }
    const size_t appended = refresh.video_appends.empty() ? 0 : refresh.video_appends[0].size();
    for (const auto& track_appends : refresh.video_appends) {
      if (track_appends.size() != appended) {
        throw std::invalid_argument(
            "ManifestRefresh: ragged append — the live edge must advance uniformly "
            "across the ladder");
      }
    }
    if (appended == 0) {
      return DbSnapshot(old);  // nothing changed; keep the current epoch
    }
    if (old->num_positions + static_cast<int>(appended) > ChunkDatabase::kMaxPositions) {
      throw std::invalid_argument("ManifestRefresh: position limit exceeded");
    }

    // New manifest version: pinned snapshots keep reading the old one.
    auto manifest = std::make_shared<media::Manifest>(*old->manifest_version);
    for (int t = 0; t < num_tracks_; ++t) {
      auto& chunks = manifest->video_tracks[static_cast<size_t>(t)].chunks;
      const auto& appends = refresh.video_appends[static_cast<size_t>(t)];
      chunks.insert(chunks.end(), appends.begin(), appends.end());
    }
    // Audio is CBR: the live edge repeats each track's constant chunk.
    for (auto& track : manifest->audio_tracks) {
      if (!track.chunks.empty()) {
        track.chunks.insert(track.chunks.end(), appended, track.chunks[0]);
      }
    }

    // Fresh delta entries, sorted and merged into the existing buffer under
    // the shared (size, packed) total order.
    std::vector<internal::DeltaEntry> fresh;
    fresh.reserve(appended * static_cast<size_t>(num_tracks_));
    for (size_t r = 0; r < appended; ++r) {
      for (int t = 0; t < num_tracks_; ++t) {
        fresh.push_back(internal::DeltaEntry{
            refresh.video_appends[static_cast<size_t>(t)][r].size,
            ChunkDatabase::PackRef(t, old->num_positions + static_cast<int>(r))});
      }
    }
    std::sort(fresh.begin(), fresh.end());

    auto rep = std::make_shared<internal::SnapshotRep>();
    rep->manifest_version = manifest;
    rep->base_manifest = old->base_manifest;
    rep->base = old->base;
    rep->delta.resize(old->delta.size() + fresh.size());
    std::merge(old->delta.begin(), old->delta.end(), fresh.begin(), fresh.end(),
               rep->delta.begin());
    rep->delta_min_at = old->delta_min_at;
    rep->delta_max_at = old->delta_max_at;
    rep->delta_size_of = old->delta_size_of;
    for (size_t r = 0; r < appended; ++r) {
      Bytes min_size = refresh.video_appends[0][r].size;
      Bytes max_size = min_size;
      for (int t = 0; t < num_tracks_; ++t) {
        const Bytes size = refresh.video_appends[static_cast<size_t>(t)][r].size;
        rep->delta_size_of.push_back(size);
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
      }
      rep->delta_min_at.push_back(min_size);
      rep->delta_max_at.push_back(max_size);
    }
    rep->audio_sizes = old->audio_sizes;
    rep->num_positions = old->num_positions + static_cast<int>(appended);
    rep->epoch = old->epoch + 1;
    rep->state_id = internal::NextSnapshotStateId();
    rep->lineage_id = lineage_id_;

    published = rep;
    manifest_version = std::move(manifest);
    trigger_compaction = rep->delta.size() >= options_.compact_after_delta_chunks;
    Publish(std::move(rep));
  }

  if (trigger_compaction) {
    if (options_.pool != nullptr) {
      StartBackgroundCompaction(std::move(manifest_version));
    } else {
      CompactFrom(std::move(manifest_version));
    }
  }
  return DbSnapshot(std::move(published));
}

void LiveChunkDatabase::CompactFrom(std::shared_ptr<const media::Manifest> manifest_version) {
  // The expensive rebuild happens outside every lock; readers keep acquiring
  // and writers keep refreshing while it runs.
  std::shared_ptr<const ChunkDatabase> base;
  {
    CSI_SPAN("db_compaction");
    base = std::make_shared<const ChunkDatabase>(manifest_version.get());
  }
  CSI_COUNTER_INC("csi_db_compactions_total");

  std::lock_guard<std::mutex> writer(writer_mu_);
  const std::shared_ptr<const internal::SnapshotRep> old = Current();
  const int covered = base->num_positions();
  const int old_base_positions = old->base->num_positions();
  if (covered <= old_base_positions) {
    return;  // a newer base already covers at least as much; splicing would regress
  }

  auto rep = std::make_shared<internal::SnapshotRep>();
  rep->manifest_version = old->manifest_version;
  rep->base_manifest = std::move(manifest_version);
  rep->base = std::move(base);
  // Delta entries the new base now covers are dropped; later appends survive
  // (refs are absolute, so they stay valid against the bigger base).
  for (const internal::DeltaEntry& e : old->delta) {
    if (ChunkDatabase::IndexOfPacked(e.packed) >= covered) {
      rep->delta.push_back(e);
    }
  }
  const size_t drop = static_cast<size_t>(covered - old_base_positions);
  rep->delta_min_at.assign(old->delta_min_at.begin() + static_cast<ptrdiff_t>(drop),
                           old->delta_min_at.end());
  rep->delta_max_at.assign(old->delta_max_at.begin() + static_cast<ptrdiff_t>(drop),
                           old->delta_max_at.end());
  rep->delta_size_of.assign(
      old->delta_size_of.begin() + static_cast<ptrdiff_t>(drop * static_cast<size_t>(num_tracks_)),
      old->delta_size_of.end());
  rep->audio_sizes = rep->base->audio_sizes();
  rep->num_positions = old->num_positions;
  rep->epoch = old->epoch + 1;
  rep->state_id = internal::NextSnapshotStateId();
  rep->lineage_id = lineage_id_;
  Publish(std::move(rep));
}

void LiveChunkDatabase::StartBackgroundCompaction(
    std::shared_ptr<const media::Manifest> manifest_version) {
  if (compaction_running_.exchange(true)) {
    return;  // one compaction in flight at a time; the next trigger re-checks
  }
  std::lock_guard<std::mutex> lock(compaction_mu_);
  // Flow event tying the submitting thread to the worker that eventually
  // runs the compaction, so the rebuild nests under its trigger in a viewer.
  uint64_t flow_id = 0;
  if (trace::Enabled()) {
    flow_id = trace::NewFlowId();
    trace::EmitFlow('s', "background_compaction", flow_id);
  }
  // Replacing a finished future whose exception nobody collected drops that
  // exception; WaitForCompaction is the way to observe failures.
  compaction_ =
      options_.pool->Submit([this, mv = std::move(manifest_version), flow_id]() {
        struct ClearFlag {
          std::atomic<bool>* flag;
          ~ClearFlag() { flag->store(false); }
        } clear{&compaction_running_};
        CSI_SPAN("background_compaction");
        if (flow_id != 0 && trace::Enabled()) {
          trace::EmitFlow('t', "background_compaction", flow_id);
        }
        CompactFrom(mv);
        if (flow_id != 0 && trace::Enabled()) {
          trace::EmitFlow('f', "background_compaction", flow_id);
        }
      });
}

DbSnapshot LiveChunkDatabase::CompactNow() {
  WaitForCompaction();
  const std::shared_ptr<const internal::SnapshotRep> current = Current();
  if (current->delta.empty()) {
    return DbSnapshot(current);
  }
  CompactFrom(current->manifest_version);
  return Acquire();
}

void LiveChunkDatabase::WaitForCompaction() {
  std::future<void> pending;
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    if (compaction_.valid()) {
      pending = std::move(compaction_);
    }
  }
  if (pending.valid()) {
    pending.get();
  }
}

}  // namespace csi::infer
