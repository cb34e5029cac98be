#include "src/csi/candidate_cache.h"

#include <algorithm>
#include <utility>

#include "src/csi/audit.h"

namespace csi::infer {

size_t CandidateTier::Hash::operator()(const Query& q) const {
  uint64_t h = q.lineage;
  h = internal::Mix(h, q.context);
  h = internal::Mix(h, static_cast<uint64_t>(q.requests));
  h = internal::Mix(h, static_cast<uint64_t>(q.estimated_total));
  h = internal::Mix(h, static_cast<uint64_t>(q.start_lo));
  h = internal::Mix(h, static_cast<uint64_t>(q.start_hi));
  return static_cast<size_t>(h);
}

PositionDependence CandidateTier::Dependence(const Query& query, const Extra& hull,
                                             int positions) {
  return EnumerationDependence(hull, query.start_lo, query.start_hi, positions);
}

// An enumeration over positions [0, P) can diverge at a later state only
// through (a) new single-chunk candidates drawn from appended positions,
// (b) DFS runs that touch an appended position, or (c) per-start node budgets
// shifting with the clamped range. Each case maps to a window or to unsafe.
PositionDependence EnumerationDependence(const CandidateSetHull& hull, int start_lo,
                                         int canonical_start_hi, int positions) {
  PositionDependence dependence;
  if (!hull.has_video_split) {
    // Only video-free (and wildcard-fallback) explanations exist; they never
    // read the position axis.
    return dependence;
  }
  const int lo = std::max(start_lo, 0);
  if (canonical_start_hi != GroupCandidateCache::kOpenHi) {
    // Concrete hi < P - 1: the clamped start range — and with it every
    // per-start budget — stays the same at later states, and the single-chunk
    // path drops appended refs via its index > start_hi filter. Only
    // multi-chunk runs that start inside the range but extend past P can
    // differ.
    if (hull.v_max <= 1 || lo > canonical_start_hi ||
        canonical_start_hi + hull.v_max <= positions) {
      return dependence;  // no run can cross the live edge
    }
    // A crossing run is pruned before its DFS expands a node iff its minimum
    // sum already exceeds the split's window — guaranteed when every appended
    // chunk alone is bigger than every multi-chunk upper bound.
    dependence.Widen(0, hull.hull2_hi);
    return dependence;
  }
  // Growth: the range runs to the live edge, so appended positions join it.
  // Their candidates must all be pruned or filtered, and the old starts must
  // keep their exact budgets.
  const int range = positions - lo;  // starts enumerated at P
  if (hull.v_max >= 2 && range >= 1 &&
      kMaxDfsNodes / range > GroupCandidateCache::kPerStartNodeFloor) {
    // The per-start budget exceeded the floor, so widening the range would
    // shrink it — same inputs, different cutoff.
    dependence.sensitive = true;
    dependence.unsafe = true;
    return dependence;
  }
  // An appended chunk inside the window could seed a new single-chunk
  // candidate (v == 1 hull) or let a run through it survive the MinSum prune
  // (any chunk <= the v >= 2 bound keeps the minimum sum under it).
  dependence.Widen(hull.v_max >= 2 ? 0 : hull.hull1_lo, hull.hull_all_hi);
  return dependence;
}

GroupCandidateCache::Query GroupCandidateCache::MakeQuery(const DbSnapshot& db,
                                                          uint32_t context, int requests,
                                                          Bytes estimated_total, int start_lo,
                                                          int start_hi) {
  Query q;
  q.lineage = db.lineage_id();
  q.context = context;
  q.requests = requests;
  q.estimated_total = estimated_total;
  q.start_lo = std::max(start_lo, 0);
  // "Reaches the live edge" ranges share one key across refreshes; the
  // concrete-hi invariant (hi < positions at every state the entry is
  // anchored to) is what lets non-growth revalidation treat the clamped range
  // as fixed.
  q.start_hi = start_hi >= db.num_positions() - 1 ? kOpenHi : start_hi;
  return q;
}

std::shared_ptr<const GroupCandidateSet> GroupCandidateCache::Lookup(
    const Query& query, const DbSnapshot& db, CandidateSetHull* hull_out) {
  std::shared_ptr<const GroupCandidateSet> hit;
  const internal::LookupOutcome outcome = CacheCore::Lookup(query, &db, &hit, hull_out);
  if (InferenceAudit* const audit = CurrentAudit()) {
    switch (outcome) {
      case internal::LookupOutcome::kHit:
        ++audit->cache_hits;
        break;
      case internal::LookupOutcome::kRevalidated:
        ++audit->cache_revalidations;
        break;
      case internal::LookupOutcome::kInvalidated:
        ++audit->cache_invalidations;
        ++audit->cache_misses;
        break;
      case internal::LookupOutcome::kStaleSnapshot:
      case internal::LookupOutcome::kAbsent:
        ++audit->cache_misses;
        break;
    }
  }
  return hit;
}

void GroupCandidateCache::Insert(const Query& query, const DbSnapshot& db,
                                 const CandidateSetHull& hull,
                                 std::shared_ptr<const GroupCandidateSet> set) {
  if (set == nullptr) {
    return;
  }
  size_t bytes = sizeof(GroupCandidateSet) + set->candidates.capacity() * sizeof(GroupCandidate);
  for (const GroupCandidate& c : set->candidates) {
    bytes += c.tracks.capacity() * sizeof(int);
  }
  CacheCore::Insert(query, &db, std::move(set), bytes, hull);
}

}  // namespace csi::infer
