#include "src/csi/result_cache.h"

#include <utility>

#include "src/csi/chunk_database.h"

namespace csi::infer {

namespace {

// The collector the engine installed around the running Analyze, if any.
thread_local ResultHull* t_result_hull = nullptr;

}  // namespace

ResultHullScope::ResultHullScope(ResultHull* hull) : previous_(t_result_hull) {
  t_result_hull = hull;
}

ResultHullScope::~ResultHullScope() { t_result_hull = previous_; }

ResultHull* CurrentResultHull() { return t_result_hull; }

void RecordEnumerationForResultCache(const CandidateSetHull& hull, int start_lo,
                                     int canonical_start_hi, int positions) {
  if (ResultHull* const collector = CurrentResultHull()) {
    collector->Merge(EnumerationDependence(hull, start_lo, canonical_start_hi, positions));
  }
}

void RecordSizeProbeForResultCache(Bytes estimated, double k) {
  ResultHull* const collector = CurrentResultHull();
  if (collector == nullptr) {
    return;
  }
  // Recorded for positive and negative probes alike: an appended chunk in the
  // window can flip a negative answer to positive (and a compaction-proof
  // positive stays positive, so widening is merely conservative).
  collector->Widen(ChunkDatabase::AdmissibleLow(estimated, k), estimated);
}

size_t ResultTier::Hash::operator()(const Query& q) const {
  uint64_t h = q.fingerprint.lo;
  h = internal::Mix(h, q.fingerprint.hi);
  h = internal::Mix(h, q.context);
  h = internal::Mix(h, q.lineage);
  return static_cast<size_t>(h);
}

ResultCache::Query ResultCache::MakeQuery(const TraceFingerprint& fingerprint,
                                          uint32_t context, const DbSnapshot& db) {
  return Query{fingerprint, context, db.lineage_id()};
}

std::shared_ptr<const InferenceResult> ResultCache::Lookup(const Query& query,
                                                           const DbSnapshot& db,
                                                           AuditShape* shape) {
  std::shared_ptr<const InferenceResult> hit;
  Extra extra;
  CacheCore::Lookup(query, &db, &hit, shape != nullptr ? &extra : nullptr);
  if (hit != nullptr && shape != nullptr) {
    *shape = extra.shape;
  }
  return hit;
}

void ResultCache::Insert(const Query& query, const DbSnapshot& db, const ResultHull& hull,
                         std::shared_ptr<const InferenceResult> result,
                         const AuditShape& shape) {
  if (result == nullptr) {
    return;
  }
  size_t bytes = sizeof(InferenceResult) +
                 result->sequences.capacity() * sizeof(InferredSequence) +
                 result->exchanges.capacity() * sizeof(EstimatedExchange) +
                 result->group_sizes.capacity() * sizeof(int);
  for (const InferredSequence& s : result->sequences) {
    bytes += s.slots.capacity() * sizeof(InferredSlot);
  }
  CacheCore::Insert(query, &db, std::move(result), bytes, Extra{hull, shape});
}

}  // namespace csi::infer
