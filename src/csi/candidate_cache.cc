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

// An enumeration over positions [0, P) reads the position axis through its
// single-chunk index window, filtered to [start_lo, start_hi], and its DFS
// runs of at most v_max chunks from each start. A concrete hi keeps the
// clamped range, and with it every per-start DFS budget, the same at later
// states; a growth range (kOpenHi) takes in the appended starts.
bool EnumerationSurvivesAppends(int v_max, int start_lo, int canonical_start_hi,
                                int positions) {
  if (v_max == 0) {
    return true;  // video-free explanations never read the position axis
  }
  if (canonical_start_hi == GroupCandidateCache::kOpenHi) {
    return false;
  }
  return std::max(start_lo, 0) > canonical_start_hi ||
         canonical_start_hi + v_max <= positions;
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
  // "Reaches the live edge" ranges share one key across refreshes; a
  // concrete hi stays below the position count at every later state, so the
  // clamped range is fixed.
  q.start_hi = start_hi >= db.num_positions() - 1 ? kOpenHi : start_hi;
  return q;
}

std::shared_ptr<const GroupCandidateSet> GroupCandidateCache::Lookup(const Query& query,
                                                                    const DbSnapshot& db) {
  std::shared_ptr<const GroupCandidateSet> hit;
  const internal::LookupOutcome outcome = CacheCore::Lookup(query, &db, &hit);
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

void GroupCandidateCache::Insert(const Query& query, const DbSnapshot& db, int v_max,
                                 std::shared_ptr<const GroupCandidateSet> set) {
  if (set == nullptr) {
    return;
  }
  size_t bytes = sizeof(GroupCandidateSet) + set->candidates.capacity() * sizeof(GroupCandidate);
  for (const GroupCandidate& c : set->candidates) {
    bytes += c.tracks.capacity() * sizeof(int);
  }
  CacheCore::Insert(
      query, &db, std::move(set), bytes, {},
      EnumerationSurvivesAppends(v_max, query.start_lo, query.start_hi, db.num_positions()));
}

}  // namespace csi::infer
