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
#include "src/csi/batch_analyzer.h"
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
  // `--name KEY=N`, repeatable: the N for each registered KEY lands in that
  // key's target (an unregistered KEY is a parse error). Register the same
  // flag name once per key.
  void AddKeyedInt(const std::string& name, const std::string& key, int* value);

  // Parses argv[1..argc). Returns false and fills *error on an unknown flag,
  // missing value, or malformed int. Non-flag arguments are appended to
  // *positional when non-null and are an error otherwise. `--help`/`-h` stops
  // parsing and sets help_requested().
  bool Parse(int argc, const char* const* argv, std::vector<std::string>* positional,
             std::string* error);

  bool help_requested() const { return help_requested_; }

 private:
  enum class Kind { kString, kInt, kBool, kKeyedInt };
  struct Flag {
    Kind kind = Kind::kString;
    void* target = nullptr;
    // kKeyedInt only: the target of each KEY.
    std::map<std::string, int*> keyed;
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
  // Per-tier cache budgets in MiB, written by `--cache-mb <name>=N` (last
  // flag on the command line wins; 0 turns the tier off) and starting at the
  // library defaults. Both tools attach their tiers from it through
  // infer::AttachCaches.
  infer::BatchConfig::Caches caches;
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
  // --cache-mb <name>=N for name in {prefix, candidate, result}, plus
  // --trace-out, --trace-mode, --audit-out.
  void Register(FlagParser* parser);
  // Returns false and fills *error when required flags are missing or values
  // are out of range. Call after Parse().
  bool Validate(std::string* error) const;
  // The parsed --design value; only valid after Validate() passed.
  infer::DesignType design() const;
};

// Parses CH|SH|CQ|SQ into *out; false on anything else.
bool ParseDesignName(const std::string& name, infer::DesignType* out);

// Runs a tool's `run(argc, argv)` and returns its exit status. An exception
// that escapes it (unreadable pcap, malformed manifest, unwritable output)
// prints "error: <what>" to stderr and exits 1 instead of aborting.
int GuardedMain(int (*run)(int, char**), int argc, char** argv);

// Slurps `path` into *out; false with *error ("cannot open <path>", or
// "cannot read <path>" for a directory or other non-regular file and for a
// failed read) on failure.
bool ReadFileToString(const std::string& path, std::string* out, std::string* error);

// Writes the global telemetry snapshot to `path` as json or prom ("prom"
// selects the Prometheus exposition format); false with *error ("cannot
// write metrics to <path>", or "short write to <path>" when the write or the
// close fails) on failure. Stamps the csi_build_info gauge first, so every
// export carries the build configuration.
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

// Writes audits[i] beside results[i] (one per audit) as a JSON line, for
// rounds of one audit per label in round order: line i is labeled
// labels[i % labels.size()] and marked round i / labels.size(). False with
// *error ("cannot write audit log to <path>", or "short write to <path>") on
// failure.
bool WriteAuditJsonl(const std::string& path, const std::vector<std::string>& labels,
                     const std::vector<infer::InferenceAudit>& audits,
                     const std::vector<infer::InferenceResult>& results, std::string* error);

}  // namespace csi::tools

#endif  // CSI_TOOLS_CLI_OPTIONS_H_
