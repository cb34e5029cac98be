// Full-arena reference for the Step-2 chain search (paper §5.3, Fig. 9),
// test-only.
//
// infer::SearchGroupSequences runs a beam over the group layers in which an
// expanded child is a 16-byte (cost, parent slot, candidate) entry and only
// the beam survivors become path nodes. This oracle is the same beam in its
// most direct form:
//
//   - every expanded child is a full PathNode in one arena that is never
//     trimmed, and the beam keeps arena indexes;
//   - the step cost is recomputed for every (parent, candidate) pair;
//   - the candidate lists come from infer::EnumerateGroupCandidateSet with
//     no per-list memo beyond the (group, lo, hi) map the beam needs.
//
// Both sort each layer's children, in generation order, with std::sort on
// the cost alone, so their tie orders agree and the outputs must be
// identical: sequences in order, `truncated`, and the audit's chain_nodes,
// best cost and runner-up cost (written to infer::CurrentAudit() exactly as
// the production search writes them).

#ifndef CSI_TESTS_NAIVE_CHAIN_ORACLE_H_
#define CSI_TESTS_NAIVE_CHAIN_ORACLE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/csi/audit.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/group_search.h"

namespace csi::infer::oracle {

class NaiveChainSearch {
 public:
  // What the last Run exercised, so a seeded sweep can assert that it
  // reached every case it is meant to cover.
  struct Coverage {
    int capped_parents = 0;   // parents cut off at max_expansions_per_node
    int beam_cuts = 0;        // layers with more than beam_width children
    int boundary_ties = 0;    // cut layers whose last kept and first dropped child tie
    int beam_ties = 0;        // layers with equal-cost children among the kept
    int merged_nodes = 0;     // kept children that explain a merged pair
    int wildcard_nodes = 0;   // kept children that are wildcards
  };

  NaiveChainSearch(const std::vector<TrafficGroup>& groups, const DbSnapshot& db,
                   const GroupSearchConfig& config, const DisplayConstraints& display)
      : groups_(groups), db_(db), config_(config), display_(display) {}

  InferenceResult Run() {
    InferenceResult result;
    for (const auto& g : groups_) {
      result.group_sizes.push_back(g.num_requests());
    }
    if (groups_.empty()) {
      return result;
    }
    const int positions = db_.num_positions();
    std::vector<PathNode> arena;
    arena.push_back(PathNode{-1, 0, 0, positions, nullptr, false, -1, 0.0});
    const int beam_width = std::max(config_.max_sequences * 4, 2048);
    const int max_expansions_per_node = 768;

    std::vector<std::vector<int>> frontiers(groups_.size() + 2);
    frontiers[0].push_back(0);
    for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
      std::vector<std::pair<double, int>> next;
      auto expand_with = [&](int idx, const std::vector<GroupCandidate>& cands,
                             const TrafficGroup& group, bool merged, int next_g) {
        const PathNode parent = arena[static_cast<size_t>(idx)];
        int expansions = 0;
        for (const GroupCandidate& c : cands) {
          if (expansions >= max_expansions_per_node) {
            truncated_ = true;
            ++coverage_.capped_parents;
            break;
          }
          const Transition tr = Apply(c, group.num_requests(), parent.lo, parent.hi, positions);
          if (!tr.feasible) {
            continue;
          }
          const double step_cost =
              CandidateCost(c, group.estimated_total, group.num_requests(), config_);
          arena.push_back(
              PathNode{g, next_g, tr.lo, tr.hi, &c, merged, idx, parent.cost + step_cost});
          next.emplace_back(arena.back().cost, static_cast<int>(arena.size()) - 1);
          ++expansions;
        }
      };
      for (int idx : frontiers[static_cast<size_t>(g)]) {
        const PathNode parent = arena[static_cast<size_t>(idx)];
        expand_with(idx, CandidatesFor(g, parent.lo, parent.hi),
                    groups_[static_cast<size_t>(g)], /*merged=*/false, g + 1);
        if (config_.enable_merge_repair && g + 1 < static_cast<int>(groups_.size()) &&
            groups_[static_cast<size_t>(g)].num_requests() == 1 &&
            groups_[static_cast<size_t>(g) + 1].num_requests() == 1) {
          expand_with(idx, MergedCandidatesFor(g, parent.lo, parent.hi), MergedGroup(g),
                      /*merged=*/true, g + 2);
        }
      }
      std::sort(next.begin(), next.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      if (static_cast<int>(next.size()) > beam_width) {
        ++coverage_.beam_cuts;
        if (next[static_cast<size_t>(beam_width) - 1].first ==
            next[static_cast<size_t>(beam_width)].first) {
          ++coverage_.boundary_ties;
        }
        next.resize(static_cast<size_t>(beam_width));
        truncated_ = true;
      }
      for (size_t i = 1; i < next.size(); ++i) {
        if (next[i - 1].first == next[i].first) {
          ++coverage_.beam_ties;
          break;
        }
      }
      for (const auto& [cost, idx] : next) {
        const PathNode& node = arena[static_cast<size_t>(idx)];
        coverage_.merged_nodes += node.merged ? 1 : 0;
        coverage_.wildcard_nodes += node.cand->wildcard ? 1 : 0;
        frontiers[static_cast<size_t>(node.next_g)].push_back(idx);
      }
    }
    std::vector<int> frontier = frontiers[groups_.size()];
    std::sort(frontier.begin(), frontier.end(), [&arena](int a, int b) {
      return arena[static_cast<size_t>(a)].cost < arena[static_cast<size_t>(b)].cost;
    });

    std::vector<std::vector<SlotAssignment>> clean;
    std::vector<std::vector<SlotAssignment>> degraded;
    std::vector<double> clean_costs;
    std::vector<double> degraded_costs;
    for (int idx : frontier) {
      std::vector<SlotAssignment> assignment;
      for (int cursor = idx; cursor > 0; cursor = arena[static_cast<size_t>(cursor)].parent) {
        const PathNode& node = arena[static_cast<size_t>(cursor)];
        assignment.push_back(SlotAssignment{node.g, node.cand, node.merged});
      }
      std::reverse(assignment.begin(), assignment.end());
      bool is_clean = true;
      for (const SlotAssignment& sa : assignment) {
        const GroupCandidate& c = *sa.cand;
        const int objects = static_cast<int>(c.tracks.size()) + c.audio_count + c.other_count;
        int requests = groups_[static_cast<size_t>(sa.g)].num_requests();
        if (sa.merged) {
          requests += groups_[static_cast<size_t>(sa.g) + 1].num_requests();
          --requests;  // a merge is clean with a one-object deficit
        }
        if (c.wildcard || objects != requests) {
          is_clean = false;
          break;
        }
      }
      (is_clean ? clean : degraded).push_back(std::move(assignment));
      (is_clean ? clean_costs : degraded_costs).push_back(arena[static_cast<size_t>(idx)].cost);
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
    if (InferenceAudit* audit = CurrentAudit()) {
      audit->chain_nodes += static_cast<int64_t>(arena.size());
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

  const Coverage& coverage() const { return coverage_; }

 private:
  struct PathNode {
    int g = -1;
    int next_g = 0;
    int lo = 0;
    int hi = 0;
    const GroupCandidate* cand = nullptr;
    bool merged = false;
    int parent = -1;
    double cost = 0.0;
  };
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

  const std::vector<GroupCandidate>& CandidatesFor(int g, int lo, int hi) {
    const auto key = std::make_tuple(g, lo, hi);
    auto it = cand_cache_.find(key);
    if (it == cand_cache_.end()) {
      std::shared_ptr<const GroupCandidateSet> set = EnumerateGroupCandidateSet(
          groups_[static_cast<size_t>(g)], db_, config_, display_, lo, hi);
      truncated_ = truncated_ || set->truncated;
      it = cand_cache_.emplace(key, std::move(set)).first;
    }
    return it->second->candidates;
  }

  const std::vector<GroupCandidate>& MergedCandidatesFor(int g, int lo, int hi) {
    const auto key = std::make_tuple(g, lo, hi);
    auto it = merged_cand_cache_.find(key);
    if (it == merged_cand_cache_.end()) {
      const std::shared_ptr<const GroupCandidateSet> set =
          EnumerateGroupCandidateSet(MergedGroup(g), db_, config_, display_, lo, hi);
      std::vector<GroupCandidate> cands;
      for (const GroupCandidate& c : set->candidates) {
        if (!c.wildcard &&
            static_cast<int>(c.tracks.size()) + c.audio_count + c.other_count == 1) {
          cands.push_back(c);
        }
      }
      truncated_ = truncated_ || set->truncated;
      it = merged_cand_cache_.emplace(key, std::move(cands)).first;
    }
    return it->second;
  }

  static Transition Apply(const GroupCandidate& c, int requests, int lo, int hi,
                          int positions) {
    if (c.wildcard) {
      return Transition{true, lo, std::min(hi + requests, positions)};
    }
    if (c.video_start < 0) {
      return Transition{true, lo, hi};
    }
    if (c.video_start < lo || c.video_start > hi) {
      return Transition{};
    }
    return Transition{true, c.video_end() + 1, c.video_end() + 1};
  }

  InferredSequence BuildSequence(const std::vector<SlotAssignment>& assignment) const {
    InferredSequence seq;
    int audio_next = -1;
    for (const SlotAssignment& sa : assignment) {
      const GroupCandidate& c = *sa.cand;
      const TrafficGroup group =
          sa.merged ? MergedGroup(sa.g) : groups_[static_cast<size_t>(sa.g)];
      auto slot_of = [&group](SlotKind kind, media::ChunkRef chunk) {
        InferredSlot slot;
        slot.kind = kind;
        slot.chunk = chunk;
        slot.request_time = group.start_time;
        slot.done_time = group.end_time;
        return slot;
      };
      if (c.wildcard) {
        for (int r = 0; r < group.num_requests(); ++r) {
          seq.slots.push_back(slot_of(SlotKind::kOther, media::ChunkRef{}));
        }
        continue;
      }
      for (size_t j = 0; j < c.tracks.size(); ++j) {
        seq.slots.push_back(
            slot_of(SlotKind::kVideo, media::ChunkRef{media::MediaType::kVideo, c.tracks[j],
                                                      c.video_start + static_cast<int>(j)}));
      }
      if (c.video_start >= 0) {
        audio_next = std::max(audio_next, std::max(c.video_start - 1, 0));
      }
      for (int a = 0; a < c.audio_count; ++a) {
        const int audio_index = std::max(audio_next, 0);
        seq.slots.push_back(
            slot_of(SlotKind::kAudio, media::ChunkRef{media::MediaType::kAudio, 0, audio_index}));
        audio_next = audio_index + 1;
      }
      for (int o = 0; o < c.other_count; ++o) {
        seq.slots.push_back(slot_of(SlotKind::kOther, media::ChunkRef{}));
      }
    }
    return seq;
  }

  const std::vector<TrafficGroup>& groups_;
  DbSnapshot db_;
  const GroupSearchConfig& config_;
  const DisplayConstraints display_;  // a copy: callers may pass a temporary
  std::map<std::tuple<int, int, int>, std::shared_ptr<const GroupCandidateSet>> cand_cache_;
  std::map<std::tuple<int, int, int>, std::vector<GroupCandidate>> merged_cand_cache_;
  bool truncated_ = false;
  Coverage coverage_;
};

}  // namespace csi::infer::oracle

#endif  // CSI_TESTS_NAIVE_CHAIN_ORACLE_H_
