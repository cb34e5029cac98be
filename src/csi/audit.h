// Per-trace inference audit: the work behind one InferenceEngine::Analyze
// call — candidate counts per stage, DFS nodes expanded vs pruned, which
// shared-cache path each enumeration took — and the media-flow count. The
// rest of an audit line (groups, sequences, truncation, best and runner-up
// costs) is read from the InferenceResult. Emitted as trace-event args when
// a TraceSession is active and serialized to `--audit-out` JSONL by the
// tools, so a misinferred session can be diagnosed offline without rerunning
// it.
//
// Collection uses a thread-local pointer installed by AuditScope for the
// duration of one Analyze call that was given an audit: the deep layers
// (group enumeration, candidate cache, chain search) count their work
// through CurrentAudit() without threading a parameter through every
// signature. The collector is thread-confined by construction — the chain
// search runs on the analyzing thread, and DFS tallies from ParallelFor
// workers are merged by the calling thread before being recorded. A
// result-tier hit does none of that work, so its counters read 0.

#ifndef CSI_SRC_CSI_AUDIT_H_
#define CSI_SRC_CSI_AUDIT_H_

#include <cstdint>
#include <string>

#include "src/csi/types.h"

namespace csi::infer {

struct InferenceAudit {
  // Media flows the classifier found: the one fact of a line that the result
  // does not hold.
  int media_flows = 0;
  // Candidate enumeration, summed over every (group, start-range) the chain
  // search evaluated.
  int64_t enumerations = 0;
  int64_t candidates = 0;
  int64_t enum_truncations = 0;
  int64_t wildcards = 0;
  int64_t dfs_nodes_expanded = 0;
  int64_t dfs_nodes_pruned = 0;
  // Shared candidate-cache path taken by those enumerations (see
  // candidate_cache.h for the outcome semantics).
  int64_t cache_hits = 0;           // valid under the probed state
  int64_t cache_revalidations = 0;  // proven valid under a newer state
  int64_t cache_invalidations = 0;  // entry erased by the probe
  int64_t cache_misses = 0;
  // Sequence chaining. chain_nodes counts the root plus every child the
  // beam generated, not the path nodes it stored (only beam survivors are).
  int64_t chain_nodes = 0;

  // One JSON object on one line (stable key order) for --audit-out JSONL:
  // these fields interleaved with `result`'s group count, sequence count,
  // truncation and costs. `label` identifies the trace (file path or index).
  std::string ToJsonLine(const std::string& label, const InferenceResult& result) const;

  friend bool operator==(const InferenceAudit&, const InferenceAudit&) = default;
};

// The active collector for this thread, or null when no audit was requested.
InferenceAudit* CurrentAudit();

// Installs `audit` as the calling thread's collector; restores the previous
// one on destruction (scopes nest). Null is allowed and makes the scope a
// no-op.
class AuditScope {
 public:
  explicit AuditScope(InferenceAudit* audit);
  ~AuditScope();
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  InferenceAudit* previous_;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_AUDIT_H_
