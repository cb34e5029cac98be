#include "src/csi/qoe.h"

#include <algorithm>

namespace csi::infer {

QoeReport AnalyzeQoe(const InferredSequence& sequence, const media::Manifest& manifest,
                     const QoeConfig& config) {
  QoeReport report;
  report.track_time_fraction.assign(static_cast<size_t>(manifest.num_video_tracks()), 0.0);

  // Collect video slots in playback order and account for data usage.
  std::vector<const InferredSlot*> video;
  for (const auto& slot : sequence.slots) {
    if (slot.kind == SlotKind::kVideo) {
      video.push_back(&slot);
      report.data_usage += manifest.SizeOf(slot.chunk);
    } else if (slot.kind == SlotKind::kAudio &&
               slot.chunk.track < manifest.num_audio_tracks()) {
      const auto& track = manifest.audio_tracks[static_cast<size_t>(slot.chunk.track)];
      if (!track.chunks.empty()) {
        report.data_usage += track.chunks[0].size;
      }
    }
  }
  std::sort(video.begin(), video.end(), [](const InferredSlot* a, const InferredSlot* b) {
    return a->chunk.index < b->chunk.index;
  });
  if (video.empty()) {
    return report;
  }

  TimeUs content_total = 0;
  double bit_weighted = 0.0;
  int prev_track = -1;
  for (const InferredSlot* slot : video) {
    const media::Chunk& chunk = manifest.ChunkOf(slot->chunk);
    content_total += chunk.duration;
    report.track_time_fraction[static_cast<size_t>(slot->chunk.track)] +=
        static_cast<double>(chunk.duration);
    bit_weighted +=
        manifest.TrackOf(slot->chunk).nominal_bitrate * UsToSeconds(chunk.duration);
    if (prev_track >= 0 && slot->chunk.track != prev_track) {
      ++report.track_switches;
    }
    prev_track = slot->chunk.track;
  }
  for (double& f : report.track_time_fraction) {
    f /= static_cast<double>(content_total);
  }
  report.avg_bitrate = bit_weighted / UsToSeconds(content_total);

  // --- Playback reconstruction ---
  // Startup: playback begins once `startup_buffer` of content is downloaded.
  TimeUs buffered = 0;
  TimeUs play_start = video.front()->done_time;
  for (size_t i = 0; i < video.size(); ++i) {
    buffered += manifest.ChunkOf(video[i]->chunk).duration;
    play_start = std::max(play_start, video[i]->done_time);
    if (buffered >= config.startup_buffer) {
      break;
    }
  }
  report.startup_delay = play_start - sequence.slots.front().request_time;

  // Walk chunks: each displays as soon as the previous one finished and its
  // own download completed; gaps are stalls.
  TimeUs display_end = play_start;
  std::vector<std::pair<TimeUs, TimeUs>> display_windows;  // (start, end) per chunk
  for (const InferredSlot* slot : video) {
    const TimeUs dur = manifest.ChunkOf(slot->chunk).duration;
    TimeUs start = std::max(display_end, slot->done_time);
    if (slot->done_time > display_end && display_end > play_start) {
      ++report.stall_count;
      report.total_stall += slot->done_time - display_end;
    }
    display_windows.emplace_back(start, start + dur);
    display_end = start + dur;
  }

  // Buffer occupancy curve: downloaded content minus played content.
  const TimeUs t0 = sequence.slots.front().request_time;
  const TimeUs t1 = display_end;
  size_t done_cursor = 0;
  std::vector<std::pair<TimeUs, TimeUs>> done_times;  // (done_time, duration)
  for (const InferredSlot* slot : video) {
    done_times.emplace_back(slot->done_time, manifest.ChunkOf(slot->chunk).duration);
  }
  std::sort(done_times.begin(), done_times.end());
  TimeUs downloaded = 0;
  for (TimeUs t = t0; t <= t1; t += config.sample_step) {
    while (done_cursor < done_times.size() && done_times[done_cursor].first <= t) {
      downloaded += done_times[done_cursor].second;
      ++done_cursor;
    }
    // Played content by time t.
    TimeUs played = 0;
    for (const auto& [start, end] : display_windows) {
      if (t >= end) {
        played += end - start;
      } else if (t > start) {
        played += t - start;
      } else {
        break;
      }
    }
    report.buffer_curve.push_back(BufferSample{t, std::max<TimeUs>(downloaded - played, 0)});
  }
  return report;
}

}  // namespace csi::infer
