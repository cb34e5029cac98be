#include "src/media/manifest.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include "src/common/stats.h"

namespace csi::media {

TimeUs Track::TotalDuration() const {
  TimeUs total = 0;
  for (const Chunk& c : chunks) {
    total += c.duration;
  }
  return total;
}

Bytes Track::TotalBytes() const {
  Bytes total = 0;
  for (const Chunk& c : chunks) {
    total += c.size;
  }
  return total;
}

double Track::MeanChunkSize() const {
  if (chunks.empty()) {
    return 0.0;
  }
  return static_cast<double>(TotalBytes()) / static_cast<double>(chunks.size());
}

double Track::Pasr() const {
  if (chunks.empty()) {
    return 0.0;
  }
  std::vector<double> sizes;
  sizes.reserve(chunks.size());
  for (const Chunk& c : chunks) {
    sizes.push_back(static_cast<double>(c.size));
  }
  const double mean = Mean(sizes);
  if (mean <= 0.0) {
    return 0.0;
  }
  return Percentile(std::move(sizes), 95.0) / mean;
}

TimeUs Manifest::TotalDuration() const {
  return video_tracks.empty() ? 0 : video_tracks[0].TotalDuration();
}

const Track& Manifest::TrackOf(const ChunkRef& ref) const {
  const auto& tracks = ref.type == MediaType::kVideo ? video_tracks : audio_tracks;
  return tracks.at(static_cast<size_t>(ref.track));
}

const Chunk& Manifest::ChunkOf(const ChunkRef& ref) const {
  return TrackOf(ref).chunks.at(static_cast<size_t>(ref.index));
}

std::string Manifest::Serialize() const {
  std::ostringstream out;
  out << "#CSI-MANIFEST v1\n";
  out << "asset " << asset_id << "\n";
  out << "host " << host << "\n";
  auto emit = [&out](const Track& t, const char* kind) {
    out << kind << " " << t.name << " " << static_cast<int64_t>(t.nominal_bitrate) << "\n";
    for (const Chunk& c : t.chunks) {
      out << "chunk " << c.size << " " << c.duration << "\n";
    }
  };
  for (const Track& t : video_tracks) {
    emit(t, "video-track");
  }
  for (const Track& t : audio_tracks) {
    emit(t, "audio-track");
  }
  return out.str();
}

namespace {

// True when every field read from `ls` parsed and nothing follows them. A
// serialized line ends at its last field, so the read of that field has
// already set eof and no further extraction runs.
bool AtCleanEnd(std::istringstream& ls) {
  std::string extra;
  return !ls.fail() && (ls.eof() || !(ls >> extra));
}

}  // namespace

Manifest Manifest::Parse(const std::string& text) {
  Manifest m;
  std::istringstream in(text);
  std::string line;
  Track* current = nullptr;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    // Serialize ends every line with '\n': a last line without one is what
    // is left of a cut file.
    if (in.eof()) {
      throw std::runtime_error("manifest: truncated line " + std::to_string(line_no));
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    // A field that parses but describes no real track or chunk: a bitrate,
    // size or duration of 0 or below (a zero duration turns the QoE layer's
    // bitrate into NaN, a negative size widens every size window).
    bool positive = true;
    if (tag == "asset") {
      ls >> m.asset_id;
    } else if (tag == "host") {
      ls >> m.host;
    } else if (tag == "video-track" || tag == "audio-track") {
      Track t;
      int64_t bitrate = 0;
      ls >> t.name >> bitrate;
      positive = bitrate > 0;
      t.nominal_bitrate = static_cast<BitsPerSec>(bitrate);
      t.type = tag == "video-track" ? MediaType::kVideo : MediaType::kAudio;
      auto& list = t.type == MediaType::kVideo ? m.video_tracks : m.audio_tracks;
      list.push_back(std::move(t));
      current = &list.back();
    } else if (tag == "chunk") {
      if (current == nullptr) {
        throw std::runtime_error("manifest: chunk before track");
      }
      Chunk c;
      ls >> c.size >> c.duration;
      positive = c.size > 0 && c.duration > 0;
      current->chunks.push_back(c);
    } else {
      throw std::runtime_error("manifest: unknown tag '" + tag + "'");
    }
    if (!AtCleanEnd(ls)) {
      throw std::runtime_error("manifest: malformed line " + std::to_string(line_no));
    }
    if (!positive) {
      throw std::runtime_error("manifest: value not positive on line " +
                               std::to_string(line_no));
    }
  }
  // Inference matches against the video ladder: without one every slot would
  // come out as "other" with zero QoE instead of an error.
  if (m.video_tracks.empty()) {
    throw std::runtime_error("manifest: no video track");
  }
  // Every video track covers every playback position. A shorter one (a file
  // cut at a line boundary, a hand edit) would leave positions the database
  // can only fill with size-0 chunks.
  const Track& first = m.video_tracks.front();
  for (const Track& t : m.video_tracks) {
    if (t.chunks.size() != first.chunks.size()) {
      throw std::runtime_error("manifest: video track '" + t.name + "' has " +
                               std::to_string(t.chunks.size()) + " chunks, track '" +
                               first.name + "' has " + std::to_string(first.chunks.size()));
    }
  }
  return m;
}

Bytes Manifest::SerializedSize() const { return static_cast<Bytes>(Serialize().size()); }

}  // namespace csi::media
