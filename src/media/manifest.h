// ABR media model: chunks, tracks, and manifests.
//
// A video asset is encoded into a ladder of `Track`s (one per quality level);
// each track is split into `Chunk`s of a few seconds of content. The
// `Manifest` is the metadata a streaming client downloads before playback and
// is also the chunk-size database CSI consults when fingerprinting encrypted
// traffic (paper §4.1).

#ifndef CSI_SRC_MEDIA_MANIFEST_H_
#define CSI_SRC_MEDIA_MANIFEST_H_

#include <string>
#include <vector>

#include "src/common/units.h"

namespace csi::media {

enum class MediaType { kVideo, kAudio };

// One encoded chunk: `size` bytes representing `duration` of playback.
struct Chunk {
  Bytes size = 0;
  TimeUs duration = 0;
};

// One encoding of the asset at a fixed quality level.
struct Track {
  std::string name;           // e.g. "720p" or "audio-128k"
  MediaType type = MediaType::kVideo;
  BitsPerSec nominal_bitrate = 0;  // the ladder's advertised bitrate
  std::vector<Chunk> chunks;

  // Total playback duration of the track.
  TimeUs TotalDuration() const;
  // Total encoded bytes of the track.
  Bytes TotalBytes() const;
  // Mean chunk size.
  double MeanChunkSize() const;
  // Peak-to-average size ratio: p95 chunk size / mean chunk size (paper §3.3).
  double Pasr() const;
};

// Identifies one chunk in a manifest: media type, track ordinal within that
// type (0-based, increasing bitrate), playback index (0-based).
struct ChunkRef {
  MediaType type = MediaType::kVideo;
  int track = 0;
  int index = 0;

  friend bool operator==(const ChunkRef&, const ChunkRef&) = default;
};

// The full encoding of one video asset.
struct Manifest {
  std::string asset_id;
  std::string host;  // server hostname (what SNI will carry)
  std::vector<Track> video_tracks;  // ascending nominal bitrate
  std::vector<Track> audio_tracks;  // ascending nominal bitrate (often 1)

  // Number of playback positions (chunks per video track).
  int num_positions() const {
    return video_tracks.empty() ? 0 : static_cast<int>(video_tracks[0].chunks.size());
  }
  int num_video_tracks() const { return static_cast<int>(video_tracks.size()); }
  int num_audio_tracks() const { return static_cast<int>(audio_tracks.size()); }
  bool has_separate_audio() const { return !audio_tracks.empty(); }

  // Playback duration of the asset (from the first video track).
  TimeUs TotalDuration() const;

  const Track& TrackOf(const ChunkRef& ref) const;
  const Chunk& ChunkOf(const ChunkRef& ref) const;
  Bytes SizeOf(const ChunkRef& ref) const { return ChunkOf(ref).size; }

  // Serializes to / parses from a simple line-oriented text format, standing
  // in for a DASH MPD / HLS playlist with explicit chunk sizes. Parse throws
  // std::runtime_error on an unknown tag, a field that does not parse, a
  // trailing token, a last line without its '\n' (a cut file), a track
  // bitrate or chunk size or duration of 0 or below, video tracks of unequal
  // length, or a ladder without a video track (an empty file).
  std::string Serialize() const;
  static Manifest Parse(const std::string& text);

  // Approximate wire size of the serialized manifest in bytes (what the
  // player downloads before the first chunk).
  Bytes SerializedSize() const;
};

}  // namespace csi::media

#endif  // CSI_SRC_MEDIA_MANIFEST_H_
