#include "src/csi/result_cache.h"

#include <utility>

namespace csi::infer {

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
                                                           int* media_flows) {
  std::shared_ptr<const InferenceResult> hit;
  CacheCore::Lookup(query, &db, &hit, media_flows);
  return hit;
}

void ResultCache::Insert(const Query& query, const DbSnapshot& db,
                         std::shared_ptr<const InferenceResult> result,
                         int media_flows) {
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
  CacheCore::Insert(query, &db, std::move(result), bytes, media_flows);
}

}  // namespace csi::infer
