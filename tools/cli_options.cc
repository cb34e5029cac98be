#include "tools/cli_options.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <set>
#include <utility>

#include "src/common/build_info.h"
#include "src/common/telemetry.h"
#include "src/common/tracing.h"

namespace csi::tools {

void FlagParser::AddString(const std::string& name, std::string* value) {
  flags_[name] = Flag{Kind::kString, value, {}};
}

void FlagParser::AddInt(const std::string& name, int* value) {
  flags_[name] = Flag{Kind::kInt, value, {}};
}

void FlagParser::AddBool(const std::string& name, bool* value) {
  flags_[name] = Flag{Kind::kBool, value, {}};
}

void FlagParser::AddKeyedInt(const std::string& name, const std::string& key, int* value) {
  Flag& flag = flags_[name];
  flag.kind = Kind::kKeyedInt;
  flag.keyed[key] = value;
}

namespace {

bool ParseIntValue(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() ||
      value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

bool FlagParser::Parse(int argc, const char* const* argv,
                       std::vector<std::string>* positional, std::string* error) {
  help_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    const auto it = flags_.find(arg);
    if (it == flags_.end()) {
      if (!arg.empty() && arg[0] == '-') {
        if (error != nullptr) {
          *error = "unknown argument: " + arg;
        }
        return false;
      }
      if (positional == nullptr) {
        if (error != nullptr) {
          *error = "unexpected argument: " + arg;
        }
        return false;
      }
      positional->push_back(arg);
      continue;
    }
    Flag& flag = it->second;
    if (flag.kind == Kind::kBool) {
      *static_cast<bool*>(flag.target) = true;
      continue;
    }
    if (i + 1 >= argc) {
      if (error != nullptr) {
        *error = "missing value for " + arg;
      }
      return false;
    }
    const std::string value = argv[++i];
    if (flag.kind == Kind::kKeyedInt) {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) {
          *error = "expected KEY=VALUE for " + arg + ": " + value;
        }
        return false;
      }
      const std::string key = value.substr(0, eq);
      const std::string rest = value.substr(eq + 1);
      const auto sub = flag.keyed.find(key);
      if (sub == flag.keyed.end()) {
        if (error != nullptr) {
          *error = "unknown key for " + arg + ": " + key;
        }
        return false;
      }
      if (!ParseIntValue(rest, sub->second)) {
        if (error != nullptr) {
          *error = "invalid integer for " + arg + " " + key + ": " + rest;
        }
        return false;
      }
      continue;
    }
    if (flag.kind == Kind::kString) {
      *static_cast<std::string*>(flag.target) = value;
    } else {
      if (!ParseIntValue(value, static_cast<int*>(flag.target))) {
        if (error != nullptr) {
          *error = "invalid integer for " + arg + ": " + value;
        }
        return false;
      }
    }
  }
  return true;
}

void CommonOptions::Register(FlagParser* parser) {
  parser->AddString("--manifest", &manifest_path);
  parser->AddString("--design", &design_name);
  parser->AddString("--host", &host_suffix);
  parser->AddString("--metrics-out", &metrics_out);
  parser->AddString("--metrics-format", &metrics_format);
  parser->AddKeyedInt("--cache-mb", "prefix", &caches.prefix.budget_mb);
  parser->AddKeyedInt("--cache-mb", "candidate", &caches.candidate.budget_mb);
  parser->AddKeyedInt("--cache-mb", "result", &caches.result.budget_mb);
  parser->AddString("--trace-out", &trace_out);
  parser->AddString("--trace-mode", &trace_mode);
  parser->AddString("--audit-out", &audit_out);
}

bool CommonOptions::Validate(std::string* error) const {
  if (manifest_path.empty() || design_name.empty()) {
    if (error != nullptr) {
      *error = "--manifest and --design are required";
    }
    return false;
  }
  infer::DesignType parsed;
  if (!ParseDesignName(design_name, &parsed)) {
    if (error != nullptr) {
      *error = "unknown design type (expected CH, SH, CQ or SQ)";
    }
    return false;
  }
  if (metrics_format != "json" && metrics_format != "prom") {
    if (error != nullptr) {
      *error = "--metrics-format must be json or prom";
    }
    return false;
  }
  for (const auto& [name, budget] :
       {std::pair{"result", caches.result}, std::pair{"prefix", caches.prefix},
        std::pair{"candidate", caches.candidate}}) {
    if (budget.budget_mb < 0) {
      if (error != nullptr) {
        *error = std::string("--cache-mb ") + name + " must be >= 0";
      }
      return false;
    }
  }
  if (trace_mode != "full" && trace_mode != "flight") {
    if (error != nullptr) {
      *error = "--trace-mode must be full or flight";
    }
    return false;
  }
  return true;
}

infer::DesignType CommonOptions::design() const {
  infer::DesignType parsed = infer::DesignType::kCH;
  ParseDesignName(design_name, &parsed);
  return parsed;
}

bool ParseDesignName(const std::string& name, infer::DesignType* out) {
  if (name == "CH") {
    *out = infer::DesignType::kCH;
  } else if (name == "SH") {
    *out = infer::DesignType::kSH;
  } else if (name == "CQ") {
    *out = infer::DesignType::kCQ;
  } else if (name == "SQ") {
    *out = infer::DesignType::kSQ;
  } else {
    return false;
  }
  return true;
}

int GuardedMain(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

bool ReadFileToString(const std::string& path, std::string* out, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  // A directory opens too and reads as nothing: only a regular file read to
  // its end counts.
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string text;
  char chunk[1 << 16];
  while (ok) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) {
      break;
    }
    if (n > 0) {
      text.append(chunk, static_cast<size_t>(n));
    } else {
      ok = errno == EINTR;
    }
  }
  ::close(fd);
  if (!ok) {
    if (error != nullptr) {
      *error = "cannot read " + path;
    }
    return false;
  }
  *out = std::move(text);
  return true;
}

namespace {

// Flushes and closes `out`; a failed write or close (a full disk, /dev/full)
// is reported as the trace export reports it.
bool CloseChecked(std::ofstream* out, const std::string& path, std::string* error) {
  out->close();
  if (!*out) {
    if (error != nullptr) {
      *error = "short write to " + path;
    }
    return false;
  }
  return true;
}

}  // namespace

bool WriteMetricsSnapshot(const std::string& path, const std::string& format,
                          std::string* error) {
  RecordBuildInfoMetric();
  const telemetry::MetricsSnapshot snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot write metrics to " + path;
    }
    return false;
  }
  out << (format == "prom" ? snapshot.ToPrometheus() : snapshot.ToJson());
  return CloseChecked(&out, path, error);
}

void StartTraceSessionIfRequested(const CommonOptions& options) {
  if (options.trace_out.empty()) {
    return;
  }
  trace::SessionOptions session;
  if (options.trace_mode == "flight") {
    session.mode = trace::Mode::kFlight;
    session.flight_dump_path = options.trace_out;
  }
  trace::TraceSession::Global().Start(session);
}

bool FinishTraceSession(const CommonOptions& options, std::string* error) {
  if (options.trace_out.empty()) {
    return true;
  }
  trace::TraceSession& session = trace::TraceSession::Global();
  session.Stop();
  if (options.trace_mode != "full") {
    return true;  // the flight recorder's file appears only on a failure
  }
  return session.ExportChromeTrace(options.trace_out, error);
}

std::string FormatCacheSummaryBlock(const infer::ResultCache* result,
                                    const infer::AnalysisPrefixCache* prefix,
                                    const infer::GroupCandidateCache* candidate) {
  std::string block;
  const auto append = [&block](const std::string& line) {
    if (!block.empty()) {
      block += '\n';
    }
    block += line;
  };
  if (result != nullptr) {
    append(infer::FormatCacheSummary("result", result->stats()));
  }
  if (prefix != nullptr) {
    append(infer::FormatCacheSummary("prefix", prefix->stats()));
  }
  if (candidate != nullptr) {
    append(infer::FormatCacheSummary("candidate", candidate->stats()));
  }
  return block;
}

std::string FormatStageBreakdown(const telemetry::MetricsSnapshot& snapshot) {
  // Per-stage wall-clock sums from the span histogram. Stages that run
  // inside another reported stage, and envelopes around reported stages,
  // are skipped so no second is counted twice: the search's candidate_enum,
  // group_cache_lookup and sequence_chain; the batch and per-trace
  // envelopes; and the compaction wrappers around db_build. The
  // pcap read and column build are the ingest row. Any other stage lands in
  // "other" so new spans never silently vanish.
  static const std::set<std::string> kNestedOrEnvelope = {
      "candidate_enum", "group_cache_lookup", "sequence_chain", "batch_analyze_all",
      "batch_trace", "db_compaction", "background_compaction"};
  double ingest = 0.0;      // pcap_read + column_build
  double per_packet = 0.0;  // flow_classify + traffic_split + size_estimate
  double search = 0.0;      // group_search (candidate + graph layers)
  double cache_lookup = 0.0;
  double analyze = 0.0;
  double other = 0.0;
  bool any = false;
  for (const telemetry::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name != "csi_stage_duration_seconds" || h.labels.empty() ||
        h.labels[0].first != "stage") {
      continue;
    }
    any = true;
    const std::string& stage = h.labels[0].second;
    if (stage == "analyze") {
      analyze += h.sum;  // the envelope the components are reported against
    } else if (stage == "pcap_read" || stage == "column_build") {
      ingest += h.sum;
    } else if (stage == "flow_classify" || stage == "traffic_split" ||
               stage == "size_estimate") {
      per_packet += h.sum;
    } else if (stage == "group_search") {
      search += h.sum;
    } else if (stage == "prefix_cache_lookup" || stage == "result_cache_lookup") {
      cache_lookup += h.sum;
    } else if (kNestedOrEnvelope.count(stage) == 0) {
      other += h.sum;
    }
  }
  if (!any) {
    return std::string();
  }
  const auto pct = [analyze](double v) {
    return analyze > 0.0 ? 100.0 * v / analyze : 0.0;
  };
  // Ingest and "other" (db build) lie outside the analyze envelope, so the
  // components are reported against analyze, not summed to it.
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "stage timing: ingest %.3fs; analyze %.3fs; per-packet %.3fs (%.1f%%); "
                "search %.3fs (%.1f%%); cache lookup %.3fs (%.1f%%); other stages %.3fs",
                ingest, analyze, per_packet, pct(per_packet), search, pct(search),
                cache_lookup, pct(cache_lookup), other);
  return buf;
}

bool WriteAuditJsonl(const std::string& path, const std::vector<std::string>& labels,
                     const std::vector<infer::InferenceAudit>& audits,
                     const std::vector<infer::InferenceResult>& results, std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot write audit log to " + path;
    }
    return false;
  }
  for (size_t i = 0; i < audits.size(); ++i) {
    out << audits[i].ToJsonLine(i < labels.size() ? labels[i] : std::to_string(i), results[i])
        << '\n';
  }
  return CloseChecked(&out, path, error);
}

}  // namespace csi::tools
