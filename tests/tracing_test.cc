// Tracing subsystem contract:
//   * per-thread rings overwrite their own oldest events and report drops;
//   * ParallelFor propagates trace context across threads via flow events
//     ('s' on the caller, 't' on each participating worker, 'f' at the
//     join), with balanced B/E spans per thread (run under TSan in CI);
//   * the Chrome trace-event exporter is byte-stable over an explicit event
//     list (golden output);
//   * a flight-recorder session dumps the last events plus a metrics
//     snapshot when a batch trace analysis throws, first failure wins;
//   * instrumentation never changes inference output: the golden digest
//     holds with tracing on and off, and collecting audits is equally
//     inert.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/telemetry.h"
#include "src/common/thread_pool.h"
#include "src/common/tracing.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"

namespace csi {
namespace {

using infer::DesignType;
using testutil::AnalyzeFixedSqBatch;
using testutil::DigestResults;
using testutil::kSqBatchDigest;
using testutil::MakeBatch;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Tracing, RingOverwritesOldestAndCountsDrops) {
  trace::SessionOptions options;
  options.ring_capacity = 8;
  trace::TraceSession& session = trace::TraceSession::Global();
  session.Start(options);
  for (int i = 0; i < 20; ++i) {
    trace::TraceEvent event;
    event.name = "tick";
    event.category = "test";
    event.ts_ns = i + 1;  // explicit, deterministic timestamps
    event.num_args = 1;
    event.args[0] = trace::TraceArg("i", i);
    trace::Emit(event);
  }
  session.Stop();

  const std::vector<trace::TraceEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 8u);
  // Oldest 12 overwritten: the ring keeps exactly ticks 12..19, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, static_cast<int64_t>(i) + 13);
    EXPECT_EQ(events[i].args[0].int_value, static_cast<int64_t>(i) + 12);
  }
  EXPECT_EQ(session.dropped_events(), 12u);
  // The export says how many events the ring lost.
  EXPECT_EQ(session.ExportChromeTrace().find("{\"droppedEvents\":12,\"traceEvents\":["), 0u);
}

TEST(Tracing, ParallelForPropagatesFlowAcrossThreads) {
  trace::TraceSession& session = trace::TraceSession::Global();
  session.Start({});
  std::atomic<int64_t> sum{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(64, [&](int64_t i) { sum.fetch_add(i); });
  }
  session.Stop();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);

  // Every flow id must have exactly one start and one finish, with all steps
  // and the finish timestamped at or after the start; B/E spans must balance
  // per thread (no 'E' without a matching 'B').
  struct FlowInfo {
    int starts = 0;
    int steps = 0;
    int finishes = 0;
    int64_t start_ts = 0;
    int64_t min_other_ts = INT64_MAX;
  };
  std::map<uint64_t, FlowInfo> flows;
  std::map<int32_t, int> depth;
  for (const trace::TraceEvent& e : session.Collect()) {
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      ASSERT_NE(e.flow_id, 0u);
      FlowInfo& info = flows[e.flow_id];
      if (e.phase == 's') {
        ++info.starts;
        info.start_ts = e.ts_ns;
      } else {
        info.steps += e.phase == 't' ? 1 : 0;
        info.finishes += e.phase == 'f' ? 1 : 0;
        info.min_other_ts = std::min(info.min_other_ts, e.ts_ns);
      }
    } else if (e.phase == 'B') {
      ++depth[e.tid];
    } else if (e.phase == 'E') {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0) << "unmatched 'E' on tid " << e.tid;
    }
  }
  ASSERT_FALSE(flows.empty());
  for (const auto& [id, info] : flows) {
    EXPECT_EQ(info.starts, 1) << "flow " << id;
    EXPECT_EQ(info.finishes, 1) << "flow " << id;
    EXPECT_LE(info.steps, 4) << "flow " << id;  // at most one 't' per helper
    EXPECT_LE(info.start_ts, info.min_other_ts) << "flow " << id;
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST(Tracing, FlightRecorderDumpsOnAnalysisFailureFirstWins) {
  const std::string path = ::testing::TempDir() + "/csi_flight_dump.json";
  std::remove(path.c_str());
  trace::SessionOptions options;
  options.mode = trace::Mode::kFlight;
  options.flight_dump_path = path;
  trace::TraceSession& session = trace::TraceSession::Global();
  session.Start(options);

  const TimeUs duration = 30 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  infer::InferenceConfig config;
  config.design = DesignType::kSQ;
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.analyze_override = [](const capture::PacketColumns&) -> infer::InferenceResult {
    throw std::runtime_error("injected trace failure");
  };
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  const std::vector<capture::PacketColumns> columns =
      testutil::BuildColumns(std::vector<capture::CaptureTrace>(3));
  auto* failures = telemetry::MetricsRegistry::Global().GetCounter(
      "csi_batch_trace_analyze_failures_total");
  const uint64_t failures_before = failures->Value();
  std::vector<std::string> errors;
  const auto results = analyzer.AnalyzeAll(testutil::Pointers(columns), nullptr, &errors);
  // All three captures failed in isolation; the batch itself completed.
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(errors.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], infer::InferenceResult{}) << "failed slot must stay default";
    EXPECT_EQ(errors[i], "injected trace failure");
  }
  EXPECT_EQ(failures->Value(), failures_before + 3);
  // Only the first failure dumped; later calls are refused.
  EXPECT_FALSE(session.DumpFlightRecord("later", "cascade failure"));
  session.Stop();

  const std::string dump = Slurp(path);
  ASSERT_FALSE(dump.empty()) << "flight dump missing at " << path;
  EXPECT_NE(dump.find("\"error\":\"injected trace failure\""), std::string::npos);
  EXPECT_NE(dump.find("\"context\":\"batch trace "), std::string::npos);
  EXPECT_NE(dump.find("\"traceEvents\":"), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\":"), std::string::npos);
  EXPECT_EQ(dump.find("cascade failure"), std::string::npos);
}

TEST(Tracing, ChromeTraceJsonGolden) {
  std::vector<trace::TraceEvent> events(5);
  events[0].name = "analyze";
  events[0].category = "stage";
  events[0].phase = 'B';
  events[0].tid = 1;
  events[0].ts_ns = 1500;
  events[0].num_args = 2;
  events[0].args[0] = trace::TraceArg("packets", static_cast<int64_t>(4821));
  events[0].args[1] = trace::TraceArg("ratio", 0.5);
  events[1].name = "parallel_for";
  events[1].category = "flow";
  events[1].phase = 's';
  events[1].tid = 1;
  events[1].ts_ns = 2000;
  events[1].flow_id = 7;
  events[2].name = "parallel_for";
  events[2].category = "flow";
  events[2].phase = 't';
  events[2].tid = 2;
  events[2].ts_ns = 2500;
  events[2].flow_id = 7;
  events[3].name = "group_cache";
  events[3].category = "cache";
  events[3].phase = 'i';
  events[3].tid = 2;
  events[3].ts_ns = 3001;
  events[3].num_args = 1;
  events[3].args[0] = trace::TraceArg("outcome", "a\"b\n");
  events[4].name = "analyze";
  events[4].category = "stage";
  events[4].phase = 'E';
  events[4].tid = 1;
  events[4].ts_ns = 4000;

  const std::string expected =
      "{\"droppedEvents\":3,\"traceEvents\":["
      "{\"name\":\"analyze\",\"cat\":\"stage\",\"ph\":\"B\",\"ts\":1.500,"
      "\"pid\":1,\"tid\":1,\"args\":{\"packets\":4821,\"ratio\":0.5}},\n"
      "{\"name\":\"parallel_for\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":2.000,"
      "\"pid\":1,\"tid\":1,\"id\":7},\n"
      "{\"name\":\"parallel_for\",\"cat\":\"flow\",\"ph\":\"t\",\"ts\":2.500,"
      "\"pid\":1,\"tid\":2,\"id\":7},\n"
      "{\"name\":\"group_cache\",\"cat\":\"cache\",\"ph\":\"i\",\"ts\":3.001,"
      "\"pid\":1,\"tid\":2,\"args\":{\"outcome\":\"a\\\"b\\n\"}},\n"
      "{\"name\":\"analyze\",\"cat\":\"stage\",\"ph\":\"E\",\"ts\":4.000,"
      "\"pid\":1,\"tid\":1}"
      "]}\n";
  EXPECT_EQ(trace::ChromeTraceJson(events, 3), expected);
}

// The invariance contract, tracing edition: the golden digest holds with an
// active full-mode session and with tracing off.
TEST(TracingInvariance, ResultsByteIdenticalOnVsOff) {
  // All four design paths, not just SQ: the CH/SH/CQ pipelines emit their own
  // span/instant mix (size_estimate instead of traffic_split, merge repair),
  // and each must be inert too.
  for (const DesignType design :
       {DesignType::kCH, DesignType::kSH, DesignType::kCQ, DesignType::kSQ}) {
    trace::TraceSession::Global().Start({});
    const auto with_tracing = testutil::AnalyzeFixedBatch(design);
    trace::TraceSession::Global().Stop();
    const auto without_tracing = testutil::AnalyzeFixedBatch(design);
    EXPECT_EQ(DigestResults(with_tracing), testutil::GoldenBatchDigest(design))
        << infer::DesignTypeName(design);
    EXPECT_EQ(DigestResults(without_tracing), testutil::GoldenBatchDigest(design))
        << infer::DesignTypeName(design);
  }
}

TEST(Audit, CollectionIsInertAndPopulatesPerTraceRecords) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const auto columns = testutil::BuildColumns(MakeBatch(manifest, DesignType::kSQ, 4, duration));
  infer::InferenceConfig config;
  config.design = DesignType::kSQ;
  infer::BatchConfig batch;
  batch.threads = 4;
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  std::vector<infer::InferenceAudit> audits;
  const auto results =
      analyzer.AnalyzeAll(testutil::Pointers(columns), nullptr, nullptr, &audits);
  // Collecting audits must not perturb the inference (same golden batch as
  // the invariance tests).
  EXPECT_EQ(DigestResults(results), kSqBatchDigest);
  ASSERT_EQ(audits.size(), 4u);
  for (size_t i = 0; i < audits.size(); ++i) {
    const infer::InferenceAudit& audit = audits[i];
    EXPECT_EQ(audit.media_flows, 1) << "trace " << i;
    EXPECT_FALSE(results[i].group_sizes.empty()) << "trace " << i;
    EXPECT_GT(audit.enumerations, 0) << "trace " << i;
    EXPECT_GT(audit.candidates, 0) << "trace " << i;
    EXPECT_GT(audit.chain_nodes, 0) << "trace " << i;
    if (!results[i].sequences.empty()) {
      EXPECT_TRUE(results[i].best_cost.has_value()) << "trace " << i;
    }
    const std::string line = audit.ToJsonLine("trace-" + std::to_string(i), 0, results[i]);
    EXPECT_EQ(line.find("{\"trace\":\"trace-"), 0u) << line;
    EXPECT_NE(line.find("\"dfs_nodes_expanded\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"best_cost\":"), std::string::npos) << line;
  }
}

// Minimal RFC 8259 reader for one flat JSON object: string keys; string,
// number, true, false or null values. A raw control byte inside a string is
// a parse error, as in any conforming parser.
bool ParseJsonString(const std::string& s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') {
    return false;
  }
  ++*pos;
  while (*pos < s.size()) {
    const char c = s[(*pos)++];
    if (c == '"') {
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return false;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*pos >= s.size()) {
      return false;
    }
    const char e = s[(*pos)++];
    const std::string simple = "\"\\/bfnrt";
    const std::string decoded = "\"\\/\b\f\n\r\t";
    if (simple.find(e) != std::string::npos) {
      out->push_back(decoded[simple.find(e)]);
    } else if (e == 'u' && *pos + 4 <= s.size() &&
               s.substr(*pos, 4).find_first_not_of("0123456789abcdefABCDEF") ==
                   std::string::npos) {
      const unsigned long code = std::stoul(s.substr(*pos, 4), nullptr, 16);
      if (code > 0x7f) {
        return false;  // ASCII is all the labels here need
      }
      out->push_back(static_cast<char>(code));
      *pos += 4;
    } else {
      return false;
    }
  }
  return false;
}

bool ParseFlatJsonObject(const std::string& s, std::map<std::string, std::string>* fields) {
  size_t pos = 0;
  if (s.empty() || s[pos++] != '{') {
    return false;
  }
  while (true) {
    std::string key;
    std::string value;
    if (!ParseJsonString(s, &pos, &key) || pos >= s.size() || s[pos++] != ':') {
      return false;
    }
    if (pos < s.size() && s[pos] == '"') {
      if (!ParseJsonString(s, &pos, &value)) {
        return false;
      }
    } else {
      const size_t end = s.find_first_of(",}", pos);
      if (end == std::string::npos) {
        return false;
      }
      value = s.substr(pos, end - pos);
      char* parsed_end = nullptr;
      std::strtod(value.c_str(), &parsed_end);
      const bool number = !value.empty() && (value[0] == '-' || std::isdigit(value[0])) &&
                          parsed_end == value.c_str() + value.size();
      if (!number && value != "true" && value != "false" && value != "null") {
        return false;
      }
      pos = end;
    }
    (*fields)[key] = value;
    if (pos >= s.size()) {
      return false;
    }
    const char separator = s[pos++];
    if (separator == '}') {
      return pos == s.size();
    }
    if (separator != ',') {
      return false;
    }
  }
}

TEST(Audit, ToJsonLineIsValidJsonForControlBytesInTheLabel) {
  infer::InferenceAudit audit;
  const std::string label = "a\tb\x01";
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseFlatJsonObject(audit.ToJsonLine(label, 0, {}), &fields))
      << audit.ToJsonLine(label, 0, {});
  EXPECT_EQ(fields["trace"], label);
  EXPECT_EQ(fields["truncated"], "false");
  EXPECT_EQ(fields["best_cost"], "null");
}

TEST(Audit, ToJsonLineEscapesLabelAndEncodesMissingCosts) {
  infer::InferenceAudit audit;
  audit.media_flows = 1;
  const std::string line = audit.ToJsonLine("path\\with\"quote", 0, {});
  EXPECT_EQ(line.find("{\"trace\":\"path\\\\with\\\"quote\""), 0u) << line;
  EXPECT_NE(line.find("\"best_cost\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"runner_up_cost\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"truncated\":false"), std::string::npos) << line;
}

// The line's shape comes from the result: group and sequence counts, the
// truncation flag and both costs, in the writer's stable key order after the
// label and the round.
TEST(Audit, ToJsonLineReadsTheShapeFromTheResult) {
  infer::InferenceAudit audit;
  audit.media_flows = 2;
  audit.chain_nodes = 9;
  infer::InferenceResult result;
  result.sequences.resize(3);
  result.group_sizes = {1, 2};
  result.truncated = true;
  result.best_cost = 0.25;
  result.runner_up_cost = 0.5;
  EXPECT_EQ(audit.ToJsonLine("t", 2, result),
            "{\"trace\":\"t\",\"round\":2,\"media_flows\":2,\"groups\":2,\"enumerations\":0,"
            "\"candidates\":0,\"enum_truncations\":0,\"wildcards\":0,"
            "\"dfs_nodes_expanded\":0,\"dfs_nodes_pruned\":0,\"cache_hits\":0,"
            "\"cache_revalidations\":0,\"cache_invalidations\":0,\"cache_misses\":0,"
            "\"chain_nodes\":9,\"sequences\":3,\"truncated\":true,\"best_cost\":0.25,"
            "\"runner_up_cost\":0.5}");
}

}  // namespace
}  // namespace csi
