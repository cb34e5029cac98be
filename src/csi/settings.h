// The settings an inference answer depends on, each declared once. Every
// cache tier keys on one of these slices, interned by its defaulted
// operator==, so what a cached value depends on is a type:
//   * PrefixSettings: the prefix tier (prefix_cache.h);
//   * InferenceSettings: the result tier (result_cache.h);
//   * EnumerationSettings plus the display constraints: the candidate tier
//     (candidate_cache.h).
// InferenceConfig and GroupSearchConfig derive from them and add only what no
// answer depends on (pools, cache pointers) or what the enumeration never
// reads (the sequence-chain knobs). A setting that a computation reads belongs
// in that computation's slice.

#ifndef CSI_SRC_CSI_SETTINGS_H_
#define CSI_SRC_CSI_SETTINGS_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/csi/splitter.h"
#include "src/csi/types.h"

namespace csi::infer {

struct PrefixSettings {
  DesignType design = DesignType::kCH;
  // Hostname suffix identifying the service's media flows.
  std::string host_suffix;
  // The splitter only runs for SQ, but it is part of the key for every design.
  SplitterConfig splitter;

  friend bool operator==(const PrefixSettings&, const PrefixSettings&) = default;
};

struct InferenceSettings : PrefixSettings {
  double k_https = 0.01;
  double k_quic = 0.05;
  // Calibrated overhead model for candidate ranking (§3.2 measurements):
  // TLS record framing + HTTP headers for HTTPS; QUIC frame headers +
  // undetectable retransmissions for QUIC.
  double expected_overhead_https = 0.0015;
  double expected_overhead_quic = 0.006;
  Bytes expected_fixed_overhead = 180;
  int max_sequences = 512;
  int max_candidates_per_group = 5000;
  // Ablation switches (see bench_ablation_robustness).
  bool enable_wildcards = true;
  bool enable_merge_repair = true;
  bool enable_phantom_deficit = true;
  bool enable_calibrated_ranking = true;
  // Sizes of known non-media objects (manifest etc.) for SQ group matching.
  // Auto-filled with the manifest size when empty.
  std::vector<Bytes> other_object_sizes;

  friend bool operator==(const InferenceSettings&, const InferenceSettings&) = default;
};

struct EnumerationSettings {
  double k = 0.05;  // QUIC size-estimation error bound
  // Calibrated estimate-inflation model (protocol overhead, §3.2):
  // estimate ~ true_bytes * (1 + expected_overhead) + objects * fixed
  // (record/frame framing is proportional; HTTP headers are per object).
  // Used only to *rank* candidates so the likeliest sequences are enumerated
  // before the cap, never to reject them.
  double expected_overhead = 0.006;
  Bytes expected_fixed_overhead = 230;
  // Per-(group, start-range) candidate cap.
  int max_candidates_per_group = 5000;
  // Groups with more requests than this always become wildcards.
  int max_group_requests = 16;
  // QUIC request packets may be retransmitted under new packet numbers and
  // are then double-counted by the request detector; allow explanations with
  // up to this many fewer objects than detected requests.
  int max_phantom_requests = 2;
  // Sizes of known non-media objects that may appear in a group (manifest,
  // init segments).
  std::vector<Bytes> other_object_sizes;
  // Ablation switch (on by default; see bench_ablation_robustness): wildcard
  // fallbacks for unexplainable groups.
  bool enable_wildcards = true;

  friend bool operator==(const EnumerationSettings&, const EnumerationSettings&) = default;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_SETTINGS_H_
