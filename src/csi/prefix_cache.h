// Cross-session cache of the snapshot-independent analysis prefix.
//
// PR 6 moved the SQ group enumeration behind the shared candidate cache, and
// since then the per-packet stages — flow classification, request/size
// estimation and traffic splitting — dominate end-to-end batch time on clean
// captures. Those stages read only the capture bytes and a handful of config
// knobs; they never touch the chunk database. A `--follow-manifests` replay
// or an overlapping batch therefore recomputes byte-identical flows, groups
// and exchanges for every repeat of every trace.
//
// AnalysisPrefixCache is the amortization layer for that front of the
// pipeline: a sharded, concurrent, byte-budgeted cache mapping
//
//   (128-bit trace fingerprint, interned PrefixSettings)
//
// to the immutable `AnalysisPrefix` the per-packet stages produce. The
// fingerprint hashes every field the PacketColumns hold (addressing, each
// flow's first SNI, timing, the direction and carries-SNI flags, payload
// size, TCP sequence number) flow by flow, so two captures share an entry
// exactly when their PacketColumns — the inference input — are identical.
// Captures that differ only in what the columns do not hold (wire size, TCP
// ack, QUIC packet number, an SNI string other than its flow's first) share
// an entry, and the same analysis result. The context is the PrefixSettings
// slice of the inference settings (settings.h): the prefix stages take only
// that slice, so the compiler checks that the key covers what they read. It
// is interned with full structural equality, never a lossy hash.
//
// Safety argument (simpler than the candidate cache's): the cached value is a
// pure function of (capture bytes, context). No database state enters the
// prefix computation — merge repair, which probes the snapshot, deliberately
// stays *outside* the prefix (the cache stores pre-repair exchanges for the
// non-MUX designs) — so entries are valid across every snapshot, epoch and
// lineage forever; there is no invalidation, only eviction. Byte-identical
// output cache-on vs cache-off follows by construction and is locked in by
// tests/prefix_cache_test.cc.
//
// Hits return a shared_ptr to an immutable AnalysisPrefix — a warm Analyze
// jumps straight to the snapshot-dependent candidate/graph search without
// copying packet vectors. Storage, eviction and accounting are the shared
// core's (cache_common.h). A budget of 0 (BatchConfig::caches.prefix) means
// no cache is created at all.

#ifndef CSI_SRC_CSI_PREFIX_CACHE_H_
#define CSI_SRC_CSI_PREFIX_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/cache_common.h"
#include "src/csi/settings.h"
#include "src/csi/types.h"

namespace csi::infer {

// Deterministic 128-bit digest of a capture's columns. Two independent
// 64-bit mixes over the same field stream: a single 64-bit FNV would make
// accidental collisions plausible at deployment trace counts, 128 bits makes
// them negligible. Pure integer arithmetic — identical on every platform.
struct TraceFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const TraceFingerprint&, const TraceFingerprint&) = default;
};

// One sequential sweep: packet count, flow count, then every flow in id order
// — its key, its first SNI, its packet count and each of its packets' column
// values.
// Equal digests therefore mean equal PacketColumns as analysis reads them;
// captures that differ only in how their flows interleave share a digest
// (and an analysis result).
TraceFingerprint FingerprintColumns(const capture::PacketColumns& columns);

// Immutable output of the snapshot-independent front of Analyze: flow
// classification plus — for the dominant media flow — either the split
// traffic groups (SQ) or the SNI-filtered estimated exchanges (CH/SH/CQ,
// *before* merge repair, which consults the snapshot and stays per-call).
// Shared by pointer between the cache and every engine that hits it.
struct AnalysisPrefix {
  // Number of media flows classified; 0 short-circuits Analyze to the empty
  // result exactly like the uncached path.
  int media_flows = 0;
  // SQ only: traffic groups of the dominant flow (SP1/SP2 splitting).
  std::vector<TrafficGroup> groups;
  // Non-SQ designs: per-exchange size estimates of the dominant flow with
  // handshake exchanges already filtered out.
  std::vector<EstimatedExchange> exchanges;
};

// Key, context and names of the prefix tier over the shared core
// (cache_common.h). Entries never read the database, so they never revalidate.
struct PrefixTier {
  struct Query {
    TraceFingerprint fingerprint;
    uint32_t context = 0;

    friend bool operator==(const Query&, const Query&) = default;
  };
  struct Hash {
    size_t operator()(const Query& q) const;
  };
  // The prefix is a function of the capture and these settings alone.
  using Context = PrefixSettings;
  using Value = AnalysisPrefix;
  struct Extra {};
  static constexpr internal::TierNames kNames{"prefix", "prefix_cache", "prefix_cache_lookup",
                                              "fingerprint_match", /*revalidates=*/false};
};

class AnalysisPrefixCache : public internal::CacheCore<PrefixTier> {
 public:
  using CacheCore::CacheCore;

  // Fingerprints `columns` and assembles the key. O(packets), but pure
  // arithmetic — far cheaper than the classify/split work a hit skips.
  static Query MakeQuery(const capture::PacketColumns& columns,
                         uint32_t context);

  // Returns the cached prefix, or null on a miss. Entries are valid under
  // every database snapshot (see the safety argument above).
  std::shared_ptr<const AnalysisPrefix> Lookup(const Query& query);

  // Publishes a computed prefix; values larger than a whole shard's budget
  // are not admitted.
  void Insert(const Query& query, std::shared_ptr<const AnalysisPrefix> prefix);
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_PREFIX_CACHE_H_
