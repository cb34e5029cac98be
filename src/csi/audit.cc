#include "src/csi/audit.h"

#include <cinttypes>
#include <cstdio>
#include <optional>

#include "src/common/tracing.h"

namespace csi::infer {

namespace {

thread_local InferenceAudit* t_current_audit = nullptr;

void AppendInt(std::string* out, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRId64, key, value);
  out->append(buf);
}

void AppendDoubleOrNull(std::string* out, const char* key, const std::optional<double>& value) {
  char buf[96];
  if (value.has_value()) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.9g", key, *value);
  } else {
    std::snprintf(buf, sizeof(buf), ",\"%s\":null", key);
  }
  out->append(buf);
}

}  // namespace

InferenceAudit* CurrentAudit() { return t_current_audit; }

AuditScope::AuditScope(InferenceAudit* audit) : previous_(t_current_audit) {
  if (audit != nullptr) {
    t_current_audit = audit;
  }
}

AuditScope::~AuditScope() { t_current_audit = previous_; }

std::string InferenceAudit::ToJsonLine(const std::string& label, int round,
                                       const InferenceResult& result) const {
  std::string out = "{\"trace\":\"";
  trace::AppendJsonEscaped(&out, label);
  out.push_back('"');
  AppendInt(&out, "round", round);
  AppendInt(&out, "media_flows", media_flows);
  AppendInt(&out, "groups", static_cast<int64_t>(result.group_sizes.size()));
  AppendInt(&out, "enumerations", enumerations);
  AppendInt(&out, "candidates", candidates);
  AppendInt(&out, "enum_truncations", enum_truncations);
  AppendInt(&out, "wildcards", wildcards);
  AppendInt(&out, "dfs_nodes_expanded", dfs_nodes_expanded);
  AppendInt(&out, "dfs_nodes_pruned", dfs_nodes_pruned);
  AppendInt(&out, "cache_hits", cache_hits);
  AppendInt(&out, "cache_revalidations", cache_revalidations);
  AppendInt(&out, "cache_invalidations", cache_invalidations);
  AppendInt(&out, "cache_misses", cache_misses);
  AppendInt(&out, "chain_nodes", chain_nodes);
  AppendInt(&out, "sequences", static_cast<int64_t>(result.sequences.size()));
  out.append(",\"truncated\":");
  out.append(result.truncated ? "true" : "false");
  AppendDoubleOrNull(&out, "best_cost", result.best_cost);
  AppendDoubleOrNull(&out, "runner_up_cost", result.runner_up_cost);
  out.push_back('}');
  return out;
}

}  // namespace csi::infer
