// Shared command-line plumbing for the csi_* tools.
//
// csi_analyze and csi_batch grew the same hand-rolled flag loops, design-name
// parsing, file slurping, and metrics-snapshot writing; this header is the
// one copy. FlagParser is deliberately tiny — string/int/bool flags, `--help`
// detection, positional collection — not a general argv framework.

#ifndef CSI_TOOLS_CLI_OPTIONS_H_
#define CSI_TOOLS_CLI_OPTIONS_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/telemetry.h"
#include "src/csi/audit.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/result_cache.h"
#include "src/csi/types.h"

namespace csi::tools {

// Registry-driven argv parser. Register targets, then Parse(argc, argv);
// values land directly in the registered variables (untouched flags keep
// their defaults).
class FlagParser {
 public:
  // `--name VALUE`.
  void AddString(const std::string& name, std::string* value);
  // `--name N`, validated as a full base-10 int.
  void AddInt(const std::string& name, int* value);
  // Presence flag `--name` (no value); sets *value to true.
  void AddBool(const std::string& name, bool* value);
  // `--name KEY=VALUE`, repeatable: the VALUE for each registered KEY lands
  // in that key's target (an unregistered KEY is a parse error). Register the
  // same flag name once per key; string and int targets may mix across keys
  // of different flags but each key has one kind.
  void AddKeyedString(const std::string& name, const std::string& key, std::string* value);
  // Keyed variant of AddInt: `--name KEY=N`.
  void AddKeyedInt(const std::string& name, const std::string& key, int* value);

  // Parses argv[1..argc). Returns false and fills *error on an unknown flag,
  // missing value, or malformed int. Non-flag arguments are appended to
  // *positional when non-null and are an error otherwise. `--help`/`-h` stops
  // parsing and sets help_requested().
  bool Parse(int argc, const char* const* argv, std::vector<std::string>* positional,
             std::string* error);

  bool help_requested() const { return help_requested_; }

 private:
  enum class Kind { kString, kInt, kBool, kKeyed };
  struct Flag {
    Kind kind = Kind::kString;
    void* target = nullptr;
    // kKeyed only: per-KEY subtargets (kString or kInt each).
    std::map<std::string, Flag> keyed;
  };

  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

// Flags every analysis tool shares. Register() wires them into a FlagParser;
// Validate() checks the combination after parsing.
struct CommonOptions {
  std::string manifest_path;
  std::string design_name;
  std::string host_suffix;
  std::string metrics_out;
  std::string metrics_format = "json";
  // Shard count for the chunk-database build (0 = one shard per worker).
  int db_build_threads = 0;
  // Per-tier cache knobs, written by the `--cache <name>=on|off` /
  // `--cache-mb <name>=N` flags (last flag on the command line wins). "off"
  // wins over any budget; the CSI_CACHE=<name>:off environment override
  // beats both.
  // Byte budget (MiB) for the shared group-candidate cache; 0 disables it.
  int candidate_cache_mb = 64;
  // "on" (default) or "off".
  std::string candidate_cache = "on";
  // Byte budget (MiB) for the shared analysis-prefix cache; 0 disables it.
  int prefix_cache_mb = 32;
  // "on" (default) or "off".
  std::string prefix_cache = "on";
  // Byte budget (MiB) for the shared whole-result cache; 0 disables it.
  int result_cache_mb = 64;
  // "on" (default) or "off".
  std::string result_cache = "on";
  // Structured-trace output (Chrome trace-event JSON, Perfetto-loadable);
  // empty leaves tracing off entirely.
  std::string trace_out;
  // "full" records everything and exports --trace-out at exit; "flight" keeps
  // a small per-thread ring and writes --trace-out only when a trace analysis
  // throws (post-mortem flight recorder).
  std::string trace_mode = "full";
  // Per-trace inference audit records, one JSON object per line (JSONL).
  std::string audit_out;

  // Registers --manifest, --design, --host, --metrics-out, --metrics-format,
  // --db-build-threads, the cache flags --cache <name>=on|off and
  // --cache-mb <name>=N for name in {prefix, candidate, result}, plus
  // --trace-out, --trace-mode, --audit-out.
  void Register(FlagParser* parser);
  // Returns false and fills *error when required flags are missing or values
  // are out of range. Call after Parse().
  bool Validate(std::string* error) const;
  // The parsed --design value; only valid after Validate() passed.
  infer::DesignType design() const;
  // The effective cache budget in MiB after combining both cache flags
  // (0 when disabled). Only valid after Validate() passed.
  int candidate_cache_budget_mb() const;
  // Same combination for the analysis-prefix cache flags.
  int prefix_cache_budget_mb() const;
  // Same combination for the whole-result cache flags.
  int result_cache_budget_mb() const;
};

// Parses CH|SH|CQ|SQ into *out; false on anything else.
bool ParseDesignName(const std::string& name, infer::DesignType* out);

// Runs a tool's `run(argc, argv)` and returns its exit status. An exception
// that escapes it (unreadable pcap, malformed manifest, unwritable output)
// prints "error: <what>" to stderr and exits 1 instead of aborting.
int GuardedMain(int (*run)(int, char**), int argc, char** argv);

// Slurps `path` into *out; false with *error on failure.
bool ReadFileToString(const std::string& path, std::string* out, std::string* error);

// Writes the global telemetry snapshot to `path` as json or prom ("prom"
// selects the Prometheus exposition format); false with *error on failure.
// Stamps the csi_build_info gauge first, so every export carries the build
// configuration.
bool WriteMetricsSnapshot(const std::string& path, const std::string& format,
                          std::string* error);

// Starts the global trace session when --trace-out was given (no-op
// otherwise). Call before building the engine so the database build is part
// of the trace.
void StartTraceSessionIfRequested(const CommonOptions& options);

// Stops the session and, in full mode, writes the Chrome trace JSON to
// --trace-out. Flight mode writes nothing here — its file appears only on an
// analysis failure. Returns false with *error on a write failure; a run
// without --trace-out trivially succeeds.
bool FinishTraceSession(const CommonOptions& options, std::string* error);

// The unified per-tier cache summary block both tools print: one
// infer::FormatCacheSummary line per attached tier, in pipeline order
// (result, prefix, candidate), joined by newlines with no trailing newline.
// Null tiers are skipped; empty string when every tier is null.
std::string FormatCacheSummaryBlock(const infer::ResultCache* result,
                                    const infer::AnalysisPrefixCache* prefix,
                                    const infer::GroupCandidateCache* candidate);

// Per-stage timing breakdown from the csi_stage_duration_seconds span
// histograms in `snapshot`: ingest (pcap_read + column_build), then
// per-packet stages (flow_classify, traffic_split, size_estimate) vs. the
// candidate/graph search (group_search), plus the prefix/result cache
// lookups, each against the analyze envelope, and the remaining top-level
// stages outside it as "other". Stages nested inside a reported
// stage are not counted again. Empty string when the snapshot carries no
// stage histograms. No trailing newline.
std::string FormatStageBreakdown(const telemetry::MetricsSnapshot& snapshot);

// Writes audits[i] as a JSON line labeled labels[i] (falling back to the
// index when labels run short); false with *error on failure.
bool WriteAuditJsonl(const std::string& path, const std::vector<std::string>& labels,
                     const std::vector<infer::InferenceAudit>& audits, std::string* error);

}  // namespace csi::tools

#endif  // CSI_TOOLS_CLI_OPTIONS_H_
