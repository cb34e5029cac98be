#include "src/csi/prefix_cache.h"

#include <utility>

namespace csi::infer {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// The two independent mixes behind the 128-bit fingerprint: a word-granular
// FNV-1a (lo) and the boost-style combine of the tiers' key hashes (hi). They
// share no structure, so a collision requires both to collide on the same
// field stream.
inline uint64_t FnvStep(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

// Accumulates the two mixes over the observer-visible field stream.
struct Mixer {
  uint64_t lo = kFnvOffset;
  uint64_t hi = 0x9AE16A3B2F90404Full;  // arbitrary odd seed, distinct from lo

  void Absorb(uint64_t v) {
    lo = FnvStep(lo, v);
    hi = internal::Mix(hi, v);
  }

  void AbsorbString(const std::string& s) {
    Absorb(static_cast<uint64_t>(s.size()));
    for (const char c : s) {
      Absorb(static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
  }
};

}  // namespace

TraceFingerprint FingerprintColumns(const capture::PacketColumns& columns) {
  Mixer mixer;
  mixer.Absorb(static_cast<uint64_t>(columns.packet_count()));
  mixer.Absorb(static_cast<uint64_t>(columns.flow_count()));
  for (uint32_t f = 0; f < columns.flow_count(); ++f) {
    const capture::FlowKey& key = columns.flow_key(f);
    // Pack the small fields into one word so short traces still stir both
    // accumulators instead of feeding runs of near-zero words.
    mixer.Absorb((static_cast<uint64_t>(key.client_port) << 48) |
                 (static_cast<uint64_t>(key.server_port) << 32) |
                 static_cast<uint64_t>(static_cast<uint8_t>(key.transport)));
    mixer.Absorb((static_cast<uint64_t>(key.client_ip) << 32) |
                 static_cast<uint64_t>(key.server_ip));
    mixer.AbsorbString(columns.flow_sni(f));
    const capture::FlowView view = columns.flow(f);
    mixer.Absorb(static_cast<uint64_t>(view.size()));
    mixer.Absorb(static_cast<uint64_t>(view.last_time()));
    for (size_t i = view.begin; i < view.end; ++i) {
      mixer.Absorb(static_cast<uint64_t>(columns.timestamps()[i]));
      mixer.Absorb(columns.flags()[i]);
      mixer.Absorb(columns.payloads()[i]);
      mixer.Absorb(columns.tcp_seqs()[i]);
    }
  }
  return TraceFingerprint{mixer.lo, mixer.hi};
}

size_t PrefixTier::Hash::operator()(const Query& q) const {
  uint64_t h = q.fingerprint.lo;
  h = internal::Mix(h, q.fingerprint.hi);
  h = internal::Mix(h, q.context);
  return static_cast<size_t>(h);
}

AnalysisPrefixCache::Query AnalysisPrefixCache::MakeQuery(
    const capture::PacketColumns& columns, uint32_t context) {
  return Query{FingerprintColumns(columns), context};
}

std::shared_ptr<const AnalysisPrefix> AnalysisPrefixCache::Lookup(const Query& query) {
  std::shared_ptr<const AnalysisPrefix> hit;
  CacheCore::Lookup(query, nullptr, &hit);
  return hit;
}

void AnalysisPrefixCache::Insert(const Query& query,
                                 std::shared_ptr<const AnalysisPrefix> prefix) {
  if (prefix == nullptr) {
    return;
  }
  size_t bytes = sizeof(AnalysisPrefix) + prefix->groups.capacity() * sizeof(TrafficGroup) +
                 prefix->exchanges.capacity() * sizeof(EstimatedExchange);
  for (const TrafficGroup& g : prefix->groups) {
    bytes += g.requests.capacity() * sizeof(DetectedRequest);
  }
  CacheCore::Insert(query, nullptr, std::move(prefix), bytes);
}

}  // namespace csi::infer
