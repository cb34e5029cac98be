// Per-trace inference audit: a compact explanation record of *why* the
// engine produced the sequences it did — candidate counts per stage, DFS
// nodes expanded vs pruned, which shared-cache path each enumeration took,
// and the chosen-vs-runner-up explanation scores. Emitted as trace-event
// args when a TraceSession is active and serialized to `--audit-out` JSONL
// by the tools, so a misinferred session can be diagnosed offline without
// rerunning it.
//
// Collection uses a thread-local pointer installed by AuditScope for the
// duration of one InferenceEngine::Analyze call: the deep layers (group
// enumeration, candidate cache, chain search) accumulate through
// CurrentAudit() without threading a parameter through every signature.
// The collector is thread-confined by construction — the chain search runs
// on the analyzing thread, and DFS tallies from ParallelFor workers are
// merged by the calling thread before being recorded.

#ifndef CSI_SRC_CSI_AUDIT_H_
#define CSI_SRC_CSI_AUDIT_H_

#include <cstdint>
#include <string>

namespace csi::infer {

struct InferenceAudit {
  // Session shape.
  int media_flows = 0;
  int groups = 0;  // traffic groups (SQ) or exchange-derived groups
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
  int sequences = 0;
  bool truncated = false;
  // Path cost of the emitted best explanation and its closest competitor
  // (absent when fewer than one/two complete sequences exist). A large gap
  // means the inference is unambiguous; near-ties flag sessions worth a
  // second look.
  bool has_best_cost = false;
  double best_cost = 0.0;
  bool has_runner_up_cost = false;
  double runner_up_cost = 0.0;

  // One JSON object on one line (stable key order) for --audit-out JSONL.
  // `label` identifies the trace (file path or index).
  std::string ToJsonLine(const std::string& label) const;
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
