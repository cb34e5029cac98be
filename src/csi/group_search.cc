#include "src/csi/group_search.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <queue>
#include <tuple>

#include "src/common/sort_prefix.h"
#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/audit.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/result_cache.h"

namespace csi::infer {
namespace {

// Prefix sums of per-position min/max video chunk sizes, for DFS pruning.
struct SizeBounds {
  std::vector<Bytes> min_prefix;  // min_prefix[i] = sum of MinSizeAt(0..i-1)
  std::vector<Bytes> max_prefix;

  explicit SizeBounds(const DbSnapshot& db) {
    const int p = db.num_positions();
    min_prefix.assign(static_cast<size_t>(p) + 1, 0);
    max_prefix.assign(static_cast<size_t>(p) + 1, 0);
    for (int i = 0; i < p; ++i) {
      min_prefix[static_cast<size_t>(i) + 1] =
          min_prefix[static_cast<size_t>(i)] + db.MinSizeAt(i);
      max_prefix[static_cast<size_t>(i) + 1] =
          max_prefix[static_cast<size_t>(i)] + db.MaxSizeAt(i);
    }
  }
  Bytes MinSum(int lo, int hi_exclusive) const {
    return min_prefix[static_cast<size_t>(hi_exclusive)] - min_prefix[static_cast<size_t>(lo)];
  }
  Bytes MaxSum(int lo, int hi_exclusive) const {
    return max_prefix[static_cast<size_t>(hi_exclusive)] - max_prefix[static_cast<size_t>(lo)];
  }
};

// One (other-object mask, phantom deficit) interpretation of a group: how
// many audio chunks and which known objects accompany the video run, and the
// admissible window for the total *true* video bytes (Property (1)).
struct ObjectSplit {
  int audio_count = 0;
  int other_count = 0;
  Bytes other_bytes = 0;
  Bytes video_lo = 0;  // window for the video-byte sum; lo may be <= 0
  Bytes video_hi = 0;
  int video_count = 0;
};

// All (mask, deficit, v) splits of the group's requests, in the fixed
// enumeration order (mask outer, then deficit, then video count). Splits
// depend only on the group and config, never on the start range — computing
// them once up front is what lets per-start work be partitioned freely.
std::vector<ObjectSplit> EnumerateObjectSplits(const TrafficGroup& group,
                                               const DbSnapshot& db,
                                               const GroupSearchConfig& config) {
  std::vector<ObjectSplit> splits;
  const int n_req = group.num_requests();
  const Bytes audio_size = db.audio_sizes().empty() ? 0 : db.audio_sizes()[0];
  const int num_others = static_cast<int>(config.other_object_sizes.size());
  const int num_masks = 1 << std::min(num_others, 8);
  for (int mask = 0; mask < num_masks; ++mask) {
    Bytes other_bytes = 0;
    int other_count = 0;
    for (int b = 0; b < num_others; ++b) {
      if ((mask >> b) & 1) {
        other_bytes += config.other_object_sizes[static_cast<size_t>(b)];
        ++other_count;
      }
    }
    if (other_count > n_req) {
      continue;
    }
    const int max_deficit = std::min(config.max_phantom_requests, n_req - other_count);
    for (int deficit = 0; deficit <= max_deficit; ++deficit) {
      const int n_objects = n_req - deficit;
      for (int v = 0; v + other_count <= n_objects; ++v) {
        const int a = n_objects - other_count - v;
        if (a > 0 && audio_size <= 0) {
          continue;  // no audio tracks to explain these requests
        }
        const double estimate = static_cast<double>(group.estimated_total);
        ObjectSplit split;
        split.audio_count = a;
        split.other_count = other_count;
        split.other_bytes = other_bytes;
        split.video_count = v;
        split.video_hi = static_cast<Bytes>(estimate) - other_bytes - a * audio_size;
        split.video_lo = static_cast<Bytes>(std::ceil(estimate / (1.0 + config.k))) -
                         other_bytes - a * audio_size;
        if (split.video_hi < 0) {
          continue;
        }
        splits.push_back(split);
      }
    }
  }
  return splits;
}

// DFS over per-position track choices for one (start, split). Plain struct
// recursion: this is the innermost hot loop and a std::function-based
// closure costs an indirect call per node.
struct RunDfs {
  const DbSnapshot& db;
  const SizeBounds& bounds;
  const DisplayConstraints& display;
  const ObjectSplit& split;
  int start = 0;
  int tracks = 0;
  Bytes audio_size = 0;
  int64_t node_budget = 0;
  int candidate_budget = 0;
  std::vector<GroupCandidate>* out = nullptr;
  std::vector<int> chosen;
  bool capped = false;
  // Telemetry tallies, flushed to global counters once per DFS run so the
  // inner loop touches no atomics.
  int64_t pruned = 0;

  // Returns false to unwind (budget exhausted).
  bool Walk(int depth, Bytes acc) {
    if (--node_budget < 0) {
      capped = true;
      return false;
    }
    const int v = split.video_count;
    if (depth == v) {
      if (acc >= split.video_lo && acc <= split.video_hi) {
        GroupCandidate c;
        c.video_start = start;
        c.tracks = chosen;
        c.audio_count = split.audio_count;
        c.other_count = split.other_count;
        c.implied_total = acc + split.audio_count * audio_size + split.other_bytes;
        out->push_back(std::move(c));
        if (static_cast<int>(out->size()) >= candidate_budget) {
          capped = true;
          return false;
        }
      }
      return true;
    }
    const int index = start + depth;
    const Bytes rem_min = bounds.MinSum(index + 1, start + v);
    const Bytes rem_max = bounds.MaxSum(index + 1, start + v);
    auto constraint = display.find(index);
    for (int t = 0; t < tracks; ++t) {
      if (constraint != display.end() && constraint->second != t) {
        continue;
      }
      const Bytes total = acc + db.VideoSize(t, index);
      if (total + rem_min > split.video_hi || total + rem_max < split.video_lo) {
        ++pruned;
        continue;
      }
      chosen[static_cast<size_t>(depth)] = t;
      if (!Walk(depth + 1, total)) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

std::shared_ptr<const GroupCandidateSet> EnumerateGroupCandidateSet(
    const TrafficGroup& group, const DbSnapshot& db, const GroupSearchConfig& config,
    const DisplayConstraints& display, int start_lo, int start_hi, uint32_t context_id) {
  auto set = std::make_shared<GroupCandidateSet>();
  const int n_req = group.num_requests();
  if (n_req == 0) {
    return set;
  }
  CSI_SPAN("candidate_enum", {"requests", n_req}, {"start_lo", start_lo},
           {"start_hi", start_hi}, {"estimated_total", group.estimated_total});
  CSI_COUNTER_INC("csi_group_enumerations_total");
  InferenceAudit* const audit = CurrentAudit();
  if (audit != nullptr) {
    ++audit->enumerations;
  }
  if (n_req > config.max_group_requests) {
    if (config.enable_wildcards) {
      CSI_COUNTER_INC("csi_group_wildcards_total");
      if (audit != nullptr) {
        ++audit->wildcards;
      }
      GroupCandidate wild;
      wild.wildcard = true;
      set->candidates.push_back(wild);
    }
    return set;
  }

  // Consult the shared cross-trace cache before doing any work. The two
  // early-outs above are cheaper than a cache probe and stay uncached.
  GroupCandidateCache* const shared = config.shared_cache;
  if (shared != nullptr && context_id == 0) {
    context_id = shared->InternContext({config, display});
  }
  // The key's canonical start range (lo clamped to 0, hi kOpenHi at the live
  // edge) is also what the result-tier hull record reads.
  const GroupCandidateCache::Query query = GroupCandidateCache::MakeQuery(
      db, context_id, n_req, group.estimated_total, start_lo, start_hi);
  if (shared != nullptr) {
    CandidateSetHull cached_hull;
    if (std::shared_ptr<const GroupCandidateSet> hit =
            shared->Lookup(query, db, &cached_hull)) {
      if (audit != nullptr) {
        audit->candidates += static_cast<int64_t>(hit->candidates.size());
        if (hit->truncated) {
          ++audit->enum_truncations;
        }
      }
      // A hit skipped the enumeration but the result still depends on it:
      // fold the entry's recorded hulls into the result-tier collector
      // exactly as the computed path below would.
      RecordEnumerationForResultCache(cached_hull, query.start_lo, query.start_hi,
                                      db.num_positions());
      return hit;
    }
  }

  std::vector<GroupCandidate> candidates;
  const Bytes audio_size = db.audio_sizes().empty() ? 0 : db.audio_sizes()[0];
  const int positions = db.num_positions();
  const int tracks = db.num_video_tracks();
  start_lo = std::max(start_lo, 0);
  start_hi = std::min(start_hi, positions - 1);

  const std::vector<ObjectSplit> splits = EnumerateObjectSplits(group, db, config);
  bool capped_flag = false;

  // Size hulls of the splits, recorded with the cache entry so later states
  // can prove the output unchanged (see candidate_cache.h).
  CandidateSetHull hull;
  for (const ObjectSplit& split : splits) {
    if (split.video_count < 1) {
      continue;
    }
    hull.has_video_split = true;
    hull.v_max = std::max(hull.v_max, split.video_count);
    hull.hull_all_hi = std::max(hull.hull_all_hi, split.video_hi);
    if (split.video_count == 1) {
      const Bytes lo = std::max<Bytes>(split.video_lo, 0);
      hull.hull1_lo = hull.has_v1 ? std::min(hull.hull1_lo, lo) : lo;
      hull.hull1_hi = std::max(hull.hull1_hi, split.video_hi);
      hull.has_v1 = true;
    } else {
      hull.hull2_hi = std::max(hull.hull2_hi, split.video_hi);
    }
  }

  // Video-free explanations (start-agnostic): valid when the window admits
  // zero video bytes.
  for (const ObjectSplit& split : splits) {
    if (split.video_count == 0 && split.video_lo <= 0) {
      GroupCandidate c;
      c.audio_count = split.audio_count;
      c.other_count = split.other_count;
      c.implied_total = split.audio_count * audio_size + split.other_bytes;
      candidates.push_back(std::move(c));
    }
  }

  // Single-chunk runs: the flat size index answers "which chunks have true
  // size inside this window" in one lower_bound/upper_bound pair, replacing
  // the per-start-per-track scan. This is the whole video enumeration for
  // non-MUX designs (every exchange is a 1-request group).
  for (const ObjectSplit& split : splits) {
    if (split.video_count != 1 || start_lo > start_hi) {
      continue;
    }
    const std::vector<media::ChunkRef> hits =
        db.VideoCandidatesInSizeRange(std::max<Bytes>(split.video_lo, 0), split.video_hi);
    std::vector<media::ChunkRef> admitted;
    admitted.reserve(hits.size());
    for (const media::ChunkRef& ref : hits) {
      if (ref.index < start_lo || ref.index > start_hi) {
        continue;
      }
      auto constraint = display.find(ref.index);
      if (constraint != display.end() && constraint->second != ref.track) {
        continue;
      }
      admitted.push_back(ref);
    }
    // Flat-index order is (size, track, index); emit in (start, track) order
    // so the pre-rank ordering matches the longer-run enumeration below.
    std::sort(admitted.begin(), admitted.end(),
              [](const media::ChunkRef& a, const media::ChunkRef& b) {
                if (a.index != b.index) {
                  return a.index < b.index;
                }
                return a.track < b.track;
              });
    for (const media::ChunkRef& ref : admitted) {
      GroupCandidate c;
      c.video_start = ref.index;
      c.tracks = {ref.track};
      c.audio_count = split.audio_count;
      c.other_count = split.other_count;
      c.implied_total =
          db.VideoSize(ref.track, ref.index) + split.audio_count * audio_size + split.other_bytes;
      candidates.push_back(std::move(c));
    }
  }

  // Multi-chunk runs: DFS per start index. Each start gets budgets that are a
  // function of the query alone (never of the partitioning), so the
  // per-start outputs — and hence the merged list — are identical whether
  // the starts run serially or fan out across config.pool workers.
  bool any_multi = false;
  for (const ObjectSplit& split : splits) {
    any_multi = any_multi || split.video_count >= 2;
  }
  if (any_multi && start_lo <= start_hi) {
    const SizeBounds bounds(db);
    const int range = start_hi - start_lo + 1;
    const int64_t per_start_nodes =
        std::max<int64_t>(kMaxDfsNodes / range, GroupCandidateCache::kPerStartNodeFloor);
    std::vector<std::vector<GroupCandidate>> per_start(static_cast<size_t>(range));
    std::vector<char> start_capped(static_cast<size_t>(range), 0);
    // Per-job tallies merged by the calling thread: the audit collector is
    // thread-local to the analyzing thread, and one flush per enumeration
    // also touches fewer counter atomics than one per job.
    std::vector<int64_t> job_expanded(static_cast<size_t>(range), 0);
    std::vector<int64_t> job_pruned(static_cast<size_t>(range), 0);
    ParallelFor(config.pool, range, [&](int64_t job) {
      const int s = start_lo + static_cast<int>(job);
      std::vector<GroupCandidate>& out = per_start[static_cast<size_t>(job)];
      int64_t nodes_expanded = 0;
      int64_t nodes_pruned = 0;
      for (const ObjectSplit& split : splits) {
        const int v = split.video_count;
        if (v < 2 || s + v > positions) {
          continue;
        }
        if (bounds.MinSum(s, s + v) > split.video_hi ||
            bounds.MaxSum(s, s + v) < split.video_lo) {
          ++nodes_pruned;
          continue;
        }
        RunDfs dfs{db,     bounds,          display,
                   split,  s,               tracks,
                   audio_size, per_start_nodes, config.max_candidates_per_group,
                   &out,   std::vector<int>(static_cast<size_t>(v), 0),
                   false};
        dfs.Walk(0, 0);
        nodes_expanded += per_start_nodes - std::max<int64_t>(dfs.node_budget, 0);
        nodes_pruned += dfs.pruned;
        if (dfs.capped) {
          start_capped[static_cast<size_t>(job)] = 1;
          break;
        }
      }
      job_expanded[static_cast<size_t>(job)] = nodes_expanded;
      job_pruned[static_cast<size_t>(job)] = nodes_pruned;
    });
    int64_t total_expanded = 0;
    int64_t total_pruned = 0;
    for (int job = 0; job < range; ++job) {
      auto& out = per_start[static_cast<size_t>(job)];
      candidates.insert(candidates.end(), std::make_move_iterator(out.begin()),
                        std::make_move_iterator(out.end()));
      capped_flag = capped_flag || start_capped[static_cast<size_t>(job)] != 0;
      total_expanded += job_expanded[static_cast<size_t>(job)];
      total_pruned += job_pruned[static_cast<size_t>(job)];
    }
    CSI_COUNTER_ADD("csi_dfs_nodes_expanded_total", total_expanded);
    CSI_COUNTER_ADD("csi_dfs_nodes_pruned_total", total_pruned);
    if (audit != nullptr) {
      audit->dfs_nodes_expanded += total_expanded;
      audit->dfs_nodes_pruned += total_pruned;
    }
  }

  // Enumeration order decides which sequences the bounded chain search finds
  // first. Rank by how close the candidate's predicted estimate (under the
  // calibrated overhead model) is to the observation: the ground-truth
  // explanation sits almost exactly there, while spurious combinations
  // scatter across the admissible window. stable_sort over the fixed
  // concatenation order keeps ties deterministic.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&group, &config](const GroupCandidate& x, const GroupCandidate& y) {
                     return CandidateCost(x, group.estimated_total, group.num_requests(),
                                          config) <
                            CandidateCost(y, group.estimated_total, group.num_requests(),
                                          config);
                   });
  // The global cap now falls on the *worst-ranked* candidates (the serial
  // seed capped in enumeration order); parallel and serial agree because both
  // rank first and truncate after.
  if (static_cast<int>(candidates.size()) > config.max_candidates_per_group) {
    candidates.resize(static_cast<size_t>(config.max_candidates_per_group));
    capped_flag = true;
  }
  if (capped_flag) {
    CSI_COUNTER_INC("csi_group_enum_truncated_total");
  }
  CSI_HISTOGRAM_OBSERVE("csi_group_candidates_per_enum", telemetry::CountBuckets(),
                        candidates.size());
  if (audit != nullptr) {
    audit->candidates += static_cast<int64_t>(candidates.size());
    if (capped_flag) {
      ++audit->enum_truncations;
    }
  }
  CSI_TRACE_INSTANT("candidate_enum_result", "search",
                    {"candidates", static_cast<int64_t>(candidates.size())},
                    {"truncated", capped_flag ? 1 : 0});
  // Degrade to a wildcard only when the group cannot be explained at all
  // (oversized, corrupted estimate, or enumeration cut short before finding
  // anything). A wildcard alongside real candidates would flood the chain
  // search with low-information sequences.
  if (candidates.empty() && config.enable_wildcards) {
    CSI_COUNTER_INC("csi_group_wildcards_total");
    if (audit != nullptr) {
      ++audit->wildcards;
    }
    GroupCandidate wild;
    wild.wildcard = true;
    candidates.push_back(wild);
  }
  set->truncated = capped_flag;
  // Moved into an exact-capacity vector: the cache tiers charge by capacity.
  set->candidates.reserve(candidates.size());
  std::move(candidates.begin(), candidates.end(), std::back_inserter(set->candidates));
  if (shared != nullptr) {
    shared->Insert(query, db, hull, set);
  }
  RecordEnumerationForResultCache(hull, query.start_lo, query.start_hi, db.num_positions());
  return set;
}

std::vector<GroupCandidate> EnumerateGroupCandidates(const TrafficGroup& group,
                                                     const DbSnapshot& db,
                                                     const GroupSearchConfig& config,
                                                     const DisplayConstraints& display,
                                                     int start_lo, int start_hi,
                                                     bool* truncated) {
  const std::shared_ptr<const GroupCandidateSet> set =
      EnumerateGroupCandidateSet(group, db, config, display, start_lo, start_hi);
  if (set->truncated && truncated != nullptr) {
    *truncated = true;
  }
  return set->candidates;
}

double CandidateCost(const GroupCandidate& candidate, Bytes estimated_total,
                     int group_requests, const GroupSearchConfig& config) {
  if (candidate.wildcard) {
    return 1.0 * group_requests;
  }
  const int objects = static_cast<int>(candidate.tracks.size()) + candidate.audio_count +
                      candidate.other_count;
  const double predicted =
      static_cast<double>(candidate.implied_total) * (1.0 + config.expected_overhead) +
      static_cast<double>(objects) * static_cast<double>(config.expected_fixed_overhead);
  return std::abs(static_cast<double>(estimated_total) - predicted) /
         std::max(static_cast<double>(estimated_total), 1.0);
}

namespace {

class GroupSequenceSearcher {
 public:
  GroupSequenceSearcher(const std::vector<TrafficGroup>& groups, const DbSnapshot& db,
                        const GroupSearchConfig& config, const DisplayConstraints& display)
      : groups_(groups),
        db_(db),
        config_(config),
        display_(display),
        positions_(db.num_positions()) {
    // Intern the shared-cache context once per search instead of per
    // enumeration (it is identical for every group of this run).
    if (config_.shared_cache != nullptr) {
      context_id_ = config_.shared_cache->InternContext({config_, display_});
    }
  }

  InferenceResult Run() {
    CSI_SPAN("sequence_chain", {"groups", static_cast<int64_t>(groups_.size())});
    InferenceResult result;
    for (const auto& g : groups_) {
      result.group_sizes.push_back(g.num_requests());
    }
    if (groups_.empty()) {
      return result;
    }
    // Beam search over the group layers: the paper frames Step 2.2 as a
    // shortest-path problem; we weight each candidate by the deviation of its
    // implied size from the overhead-calibrated estimate and keep the
    // lowest-cost partial explanations at every layer. Wildcards carry a
    // large penalty and act as a last resort, so the most plausible complete
    // sequences surface first in the output.
    //
    // Because a merge advances two layers at once, frontiers are kept per
    // "first uncovered group" and processed in order. Only beam survivors
    // become PathNodes; every expanded child is first a 16-byte Child.
    std::vector<std::vector<PathNode>> frontiers(groups_.size() + 2);
    frontiers[0].push_back(PathNode{-1, 0, positions_, nullptr, false, -1, 0.0});
    int64_t chain_nodes = 1;  // the root plus every generated child
    const int beam_width = std::max(config_.max_sequences * 4, 2048);
    const int max_expansions_per_node = 768;

    std::vector<Child> next;
    std::vector<ParentLists> lists;
    for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
      const std::vector<PathNode>& frontier = frontiers[static_cast<size_t>(g)];
      const int requests = groups_[static_cast<size_t>(g)].num_requests();
      // Merge interpretation: a retransmitted request split one object's
      // traffic into two single-request groups (QUIC phantoms, §2); the joint
      // group explains both requests with a one-object deficit. The beam ranks
      // this against the unmerged reading by cost.
      const bool merge = config_.enable_merge_repair &&
                         g + 1 < static_cast<int>(groups_.size()) && requests == 1 &&
                         groups_[static_cast<size_t>(g) + 1].num_requests() == 1;
      next.clear();
      lists.resize(frontier.size());
      auto expand_with = [&](int slot, const CostedList& list, int list_requests,
                             uint32_t merged_bit) {
        const PathNode& parent = frontier[static_cast<size_t>(slot)];
        int expansions = 0;
        for (size_t i = 0; i < list.cands->size(); ++i) {
          if (expansions >= max_expansions_per_node) {
            truncated_ = true;
            break;
          }
          if (!Apply((*list.cands)[i], list_requests, parent.lo, parent.hi).feasible) {
            continue;
          }
          next.push_back(Child{parent.cost + (*list.costs)[i], slot,
                               static_cast<uint32_t>(i) << 1 | merged_bit});
          ++expansions;
        }
      };
      for (int slot = 0; slot < static_cast<int>(frontier.size()); ++slot) {
        const PathNode& parent = frontier[static_cast<size_t>(slot)];
        ParentLists& parent_lists = lists[static_cast<size_t>(slot)];
        parent_lists.plain = CandidatesFor(g, parent.lo, parent.hi);
        expand_with(slot, parent_lists.plain, requests, 0);
        if (merge) {
          parent_lists.merged = MergedCandidatesFor(g, parent.lo, parent.hi);
          expand_with(slot, parent_lists.merged, 2, 1);
        }
      }
      chain_nodes += static_cast<int64_t>(next.size());
      // The children arrive in generation order, and std::sort's tie order
      // over that sequence is part of the output. SortPrefix reproduces that
      // order for the beam_width children the beam keeps and leaves the
      // rest unsorted.
      SortPrefix(next.begin(), next.end(), beam_width,
                 [](const Child& a, const Child& b) { return a.cost < b.cost; });
      if (static_cast<int>(next.size()) > beam_width) {
        next.resize(static_cast<size_t>(beam_width));
        truncated_ = true;
      }
      for (const Child& child : next) {
        const PathNode& parent = frontier[static_cast<size_t>(child.parent)];
        const bool merged = (child.cand & 1) != 0;
        const ParentLists& parent_lists = lists[static_cast<size_t>(child.parent)];
        const GroupCandidate& c =
            (*(merged ? parent_lists.merged : parent_lists.plain).cands)[child.cand >> 1];
        const Transition tr = Apply(c, merged ? 2 : requests, parent.lo, parent.hi);
        frontiers[static_cast<size_t>(g) + (merged ? 2 : 1)].push_back(
            PathNode{g, tr.lo, tr.hi, &c, merged, child.parent, child.cost});
      }
    }
    // Keep the final frontier sorted by cost.
    const std::vector<PathNode>& last = frontiers[groups_.size()];
    std::vector<int> frontier(last.size());
    std::iota(frontier.begin(), frontier.end(), 0);
    std::sort(frontier.begin(), frontier.end(), [&last](int a, int b) {
      return last[static_cast<size_t>(a)].cost < last[static_cast<size_t>(b)].cost;
    });

    // Emit the lowest-cost complete explanations. A sequence is *clean* when
    // every group is fully explained (no wildcards, no phantom deficits) —
    // i.e. it satisfies Properties (1) and (2) outright, which is the paper's
    // notion of a matching sequence. When clean sequences exist, degraded
    // ones are withheld (they would only pad the output with
    // low-information interpretations).
    std::vector<std::vector<SlotAssignment>> clean;
    std::vector<std::vector<SlotAssignment>> degraded;
    // Path costs parallel to clean/degraded, kept for the audit record
    // (chosen vs runner-up explanation scores).
    std::vector<double> clean_costs;
    std::vector<double> degraded_costs;
    for (int slot : frontier) {
      std::vector<SlotAssignment> assignment;
      for (const PathNode* node = &last[static_cast<size_t>(slot)]; node->g >= 0;
           node = &frontiers[static_cast<size_t>(node->g)][static_cast<size_t>(node->parent)]) {
        assignment.push_back(SlotAssignment{node->g, node->cand, node->merged});
      }
      std::reverse(assignment.begin(), assignment.end());
      bool is_clean = true;
      for (const SlotAssignment& sa : assignment) {
        const GroupCandidate& c = *sa.cand;
        const int objects = static_cast<int>(c.tracks.size()) + c.audio_count + c.other_count;
        int requests = groups_[static_cast<size_t>(sa.g)].num_requests();
        if (sa.merged) {
          requests += groups_[static_cast<size_t>(sa.g) + 1].num_requests();
          // A merge explains two detected requests with one real object: the
          // expected phantom pattern, counted as clean with deficit 1.
          if (c.wildcard || objects != requests - 1) {
            is_clean = false;
            break;
          }
          continue;
        }
        if (c.wildcard || objects != requests) {
          is_clean = false;
          break;
        }
      }
      (is_clean ? clean : degraded).push_back(std::move(assignment));
      (is_clean ? clean_costs : degraded_costs).push_back(last[static_cast<size_t>(slot)].cost);
    }
    auto& chosen = clean.empty() ? degraded : clean;
    const auto& chosen_costs = clean.empty() ? degraded_costs : clean_costs;
    if (static_cast<int>(chosen.size()) > config_.max_sequences) {
      chosen.resize(static_cast<size_t>(config_.max_sequences));
      truncated_ = true;
    }
    for (const auto& assignment : chosen) {
      result.sequences.push_back(BuildSequence(assignment));
    }
    result.truncated = truncated_;
    CSI_COUNTER_ADD("csi_chain_nodes_total", chain_nodes);
    if (truncated_) {
      CSI_COUNTER_INC("csi_chain_truncated_total");
    }
    if (InferenceAudit* audit = CurrentAudit()) {
      audit->chain_nodes += chain_nodes;
      if (!chosen_costs.empty()) {
        audit->has_best_cost = true;
        audit->best_cost = chosen_costs[0];
      }
      if (chosen_costs.size() > 1) {
        audit->has_runner_up_cost = true;
        audit->runner_up_cost = chosen_costs[1];
      }
    }
    return result;
  }

 private:
  struct Transition {
    bool feasible = false;
    int lo = 0;
    int hi = 0;
  };

  struct SlotAssignment {
    int g = 0;
    const GroupCandidate* cand = nullptr;
    bool merged = false;
  };

  // A beam survivor. Its candidate covers group g (and g+1 when merged); its
  // parent is frontiers[g][parent]. The root has g = -1.
  struct PathNode {
    int g = -1;
    int lo = 0;
    int hi = 0;
    const GroupCandidate* cand = nullptr;
    bool merged = false;
    int parent = -1;
    double cost = 0.0;
  };

  // An expanded child before the beam cut: its path cost, its parent's slot
  // in the layer's frontier, and its candidate index shifted left past the
  // merged bit.
  struct Child {
    double cost;
    int parent;
    uint32_t cand;
  };
  static_assert(sizeof(Child) == 16);

  // A cached candidate list and each candidate's step cost (CandidateCost
  // against the group it explains), computed once per list.
  struct CostedList {
    const std::vector<GroupCandidate>* cands = nullptr;
    const std::vector<double>* costs = nullptr;
  };
  // The lists one parent was expanded with, for decoding its survivors.
  struct ParentLists {
    CostedList plain;
    CostedList merged;
  };

  static std::vector<double> StepCosts(const std::vector<GroupCandidate>& cands,
                                       const TrafficGroup& group, const GroupSearchConfig& config) {
    std::vector<double> costs;
    costs.reserve(cands.size());
    for (const GroupCandidate& c : cands) {
      costs.push_back(CandidateCost(c, group.estimated_total, group.num_requests(), config));
    }
    return costs;
  }

  // Two adjacent single-request groups viewed as one (phantom repair).
  TrafficGroup MergedGroup(int g) const {
    const TrafficGroup& a = groups_[static_cast<size_t>(g)];
    const TrafficGroup& b = groups_[static_cast<size_t>(g) + 1];
    TrafficGroup merged;
    merged.requests = a.requests;
    merged.requests.insert(merged.requests.end(), b.requests.begin(), b.requests.end());
    merged.start_time = a.start_time;
    merged.end_time = b.end_time;
    merged.estimated_total = a.estimated_total + b.estimated_total;
    return merged;
  }

  CostedList MergedCandidatesFor(int g, int lo, int hi) {
    const auto key = std::make_tuple(g, lo, hi);
    auto it = merged_cand_cache_.find(key);
    if (it == merged_cand_cache_.end()) {
      const TrafficGroup merged = MergedGroup(g);
      const std::shared_ptr<const GroupCandidateSet> set =
          EnumerateGroupCandidateSet(merged, db_, config_, display_, lo, hi, context_id_);
      // Only the one-object-deficit explanations make sense for a merge (two
      // requests, one real object); the filtered copy stays local — the
      // shared cache keeps the unfiltered set for other consumers of the
      // same key.
      MergedList list;
      for (const GroupCandidate& c : set->candidates) {
        if (c.wildcard ||
            static_cast<int>(c.tracks.size()) + c.audio_count + c.other_count != 1) {
          continue;
        }
        list.cands.push_back(c);
      }
      list.costs = StepCosts(list.cands, merged, config_);
      truncated_ = truncated_ || set->truncated;
      it = merged_cand_cache_.emplace(key, std::move(list)).first;
    }
    return CostedList{&it->second.cands, &it->second.costs};
  }

  // Lazy, cached per-(group, start-range) candidate enumeration. The range
  // conditioning is what keeps the per-group search space tractable. Sets are
  // held by pointer: a shared-cache hit is never copied into the searcher.
  CostedList CandidatesFor(int g, int lo, int hi) {
    const auto key = std::make_tuple(g, lo, hi);
    auto it = cand_cache_.find(key);
    if (it == cand_cache_.end()) {
      const TrafficGroup& group = groups_[static_cast<size_t>(g)];
      std::shared_ptr<const GroupCandidateSet> set =
          EnumerateGroupCandidateSet(group, db_, config_, display_, lo, hi, context_id_);
      truncated_ = truncated_ || set->truncated;
      std::vector<double> costs = StepCosts(set->candidates, group, config_);
      it = cand_cache_.emplace(key, CachedSet{std::move(set), std::move(costs)}).first;
    }
    return CostedList{&it->second.set->candidates, &it->second.costs};
  }

  // Next-index range after explaining a group of `requests` detected
  // requests (two for a merged pair) with `c`, from the range [lo, hi].
  Transition Apply(const GroupCandidate& c, int requests, int lo, int hi) const {
    Transition tr;
    if (c.wildcard) {
      tr.feasible = true;
      tr.lo = lo;
      tr.hi = std::min(hi + requests, positions_);
      return tr;
    }
    if (c.video_start < 0) {
      tr.feasible = true;
      tr.lo = lo;
      tr.hi = hi;
      return tr;
    }
    if (c.video_start < lo || c.video_start > hi) {
      return tr;
    }
    tr.feasible = true;
    tr.lo = c.video_end() + 1;
    tr.hi = tr.lo;
    return tr;
  }

  InferredSequence BuildSequence(const std::vector<SlotAssignment>& assignment) const {
    InferredSequence seq;
    // Audio indexes also grow contiguously; anchor them to the video index
    // progression (the audio pipeline trails the video pipeline by one chunk,
    // so a group whose video run starts at s carries audio from index s-1).
    // The anchor re-synchronizes after wildcard groups.
    int audio_next = -1;
    for (const SlotAssignment& sa : assignment) {
      const GroupCandidate& c = *sa.cand;
      const TrafficGroup group =
          sa.merged ? MergedGroup(sa.g) : groups_[static_cast<size_t>(sa.g)];
      if (c.wildcard) {
        for (int r = 0; r < group.num_requests(); ++r) {
          InferredSlot slot;
          slot.kind = SlotKind::kOther;
          slot.request_time = group.start_time;
          slot.done_time = group.end_time;
          seq.slots.push_back(slot);
        }
        continue;
      }
      for (size_t j = 0; j < c.tracks.size(); ++j) {
        InferredSlot slot;
        slot.kind = SlotKind::kVideo;
        slot.chunk = media::ChunkRef{media::MediaType::kVideo, c.tracks[j],
                                     c.video_start + static_cast<int>(j)};
        slot.request_time = group.start_time;
        slot.done_time = group.end_time;
        seq.slots.push_back(slot);
      }
      if (c.video_start >= 0) {
        audio_next = std::max(audio_next, std::max(c.video_start - 1, 0));
      }
      for (int a = 0; a < c.audio_count; ++a) {
        InferredSlot slot;
        slot.kind = SlotKind::kAudio;
        const int audio_index = std::max(audio_next, 0);
        slot.chunk = media::ChunkRef{media::MediaType::kAudio, 0, audio_index};
        audio_next = audio_index + 1;
        slot.request_time = group.start_time;
        slot.done_time = group.end_time;
        seq.slots.push_back(slot);
      }
      for (int o = 0; o < c.other_count; ++o) {
        InferredSlot slot;
        slot.kind = SlotKind::kOther;
        slot.request_time = group.start_time;
        slot.done_time = group.end_time;
        seq.slots.push_back(slot);
      }
    }
    return seq;
  }

  const std::vector<TrafficGroup>& groups_;
  // Held by value: the snapshot pins its database version for the whole
  // search even if a live publish lands mid-run.
  DbSnapshot db_;
  const GroupSearchConfig& config_;
  const DisplayConstraints& display_;
  int positions_ = 0;
  // Shared-cache context id, interned once in the constructor (0 = no shared
  // cache; the enumeration then ignores it).
  uint32_t context_id_ = 0;
  struct CachedSet {
    std::shared_ptr<const GroupCandidateSet> set;
    std::vector<double> costs;
  };
  struct MergedList {
    std::vector<GroupCandidate> cands;
    std::vector<double> costs;
  };
  std::map<std::tuple<int, int, int>, CachedSet> cand_cache_;
  std::map<std::tuple<int, int, int>, MergedList> merged_cand_cache_;
  bool truncated_ = false;
};

}  // namespace

InferenceResult SearchGroupSequences(const std::vector<TrafficGroup>& groups,
                                     const DbSnapshot& db, const GroupSearchConfig& config,
                                     const DisplayConstraints& display) {
  GroupSequenceSearcher searcher(groups, db, config, display);
  return searcher.Run();
}

}  // namespace csi::infer
