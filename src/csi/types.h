// Core types of the CSI inference engine.

#ifndef CSI_SRC_CSI_TYPES_H_
#define CSI_SRC_CSI_TYPES_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/media/manifest.h"

namespace csi::infer {

// The four ABR system design types of paper Table 2: Combined/Separate audio
// crossed with HTTPS/QUIC. Only SQ multiplexes transport streams.
enum class DesignType { kCH, kSH, kCQ, kSQ };

std::string DesignTypeName(DesignType type);
bool IsQuic(DesignType type);
bool HasSeparateAudio(DesignType type);

// Optional displayed-chunk information (§4.2): OCR of player overlays yields
// (playback index -> track) constraints that prune video candidates.
using DisplayConstraints = std::map<int, int>;

// One detected HTTP exchange: a request packet and the estimated size of the
// response downloaded before the next request (Step 1 output, §3.1).
struct EstimatedExchange {
  TimeUs request_time = 0;
  TimeUs last_data_time = 0;  // timestamp of the final attributed data packet
  Bytes estimated_size = 0;   // S~_i
  // The "request" is the ClientHello/Initial (observable via the SNI): a
  // handshake exchange, not an HTTP request.
  bool carries_sni = false;

  friend bool operator==(const EstimatedExchange&, const EstimatedExchange&) = default;
};

// What a request was inferred to be.
enum class SlotKind {
  kVideo,  // a specific video chunk
  kAudio,  // an audio chunk (CBR; identified by position in audio order)
  kOther,  // non-media exchange (handshake tail, manifest, telemetry)
};

// Inference output for one request slot.
struct InferredSlot {
  SlotKind kind = SlotKind::kOther;
  media::ChunkRef chunk;  // valid for kVideo and kAudio
  TimeUs request_time = 0;
  TimeUs done_time = 0;
  // Always 0: no inference path fills it. It stays only because csibench
  // reads it (DigestResults); filling it would change that digest.
  Bytes estimated_size = 0;

  friend bool operator==(const InferredSlot&, const InferredSlot&) = default;
};

// One candidate chunk sequence matching the whole session (the paper's
// algorithm may output several; see Table 4 best/worst columns).
struct InferredSequence {
  std::vector<InferredSlot> slots;

  friend bool operator==(const InferredSequence&, const InferredSequence&) = default;
};

// Full inference result: the lowest-cost paths through the Fig. 9 layered
// graph, with their costs.
struct InferenceResult {
  std::vector<InferredSequence> sequences;
  // Path cost of the best sequence and of its closest competitor, as the
  // chain search ranked them (absent when fewer than one/two complete paths
  // exist). The runner-up is reported even when `max_sequences` withholds
  // it. A large gap means an unambiguous answer; a near-tie flags a session
  // worth a second look.
  std::optional<double> best_cost;
  std::optional<double> runner_up_cost;
  // True if enumeration hit the cap and `sequences` is a subset.
  bool truncated = false;
  // Always empty: no inference path fills it. It stays only because csibench
  // reads it (DigestResults).
  std::vector<EstimatedExchange> exchanges;
  // Request count of each searched group, in search order, for every design:
  // the SP1/SP2 traffic groups for SQ, one single-request group per
  // estimated exchange for CH/SH/CQ.
  std::vector<int> group_sizes;

  friend bool operator==(const InferenceResult&, const InferenceResult&) = default;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_TYPES_H_
