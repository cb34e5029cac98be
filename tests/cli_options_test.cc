// Unit tests for the shared command-line option layer (tools/cli_options.h)
// factored out of csi_analyze and csi_batch.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/cli_options.h"

namespace csi::tools {
namespace {

// argv helper: prepends the program name and hands out the char* view gtest
// can pass to Parse.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (const std::string& s : storage_) {
      ptrs_.push_back(s.c_str());
    }
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  const char* const* argv() const { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<const char*> ptrs_;
};

TEST(FlagParserTest, ParsesStringsIntsAndBools) {
  std::string name;
  int count = 0;
  bool verbose = false;
  FlagParser parser;
  parser.AddString("--name", &name);
  parser.AddInt("--count", &count);
  parser.AddBool("--verbose", &verbose);

  const Argv args({"--name", "widget", "--count", "-3", "--verbose"});
  std::string error;
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  EXPECT_EQ(name, "widget");
  EXPECT_EQ(count, -3);
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(parser.help_requested());
}

TEST(FlagParserTest, CollectsPositionalArguments) {
  std::string name;
  FlagParser parser;
  parser.AddString("--name", &name);
  const Argv args({"a.pcap", "--name", "x", "b.pcap"});
  std::vector<std::string> positional;
  std::string error;
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), &positional, &error)) << error;
  EXPECT_EQ(positional, (std::vector<std::string>{"a.pcap", "b.pcap"}));
}

TEST(FlagParserTest, RejectsPositionalWhenNoneExpected) {
  FlagParser parser;
  const Argv args({"stray"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("stray"), std::string::npos);
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  FlagParser parser;
  const Argv args({"--nope"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("--nope"), std::string::npos);
}

TEST(FlagParserTest, RejectsMissingValue) {
  std::string name;
  FlagParser parser;
  parser.AddString("--name", &name);
  const Argv args({"--name"});
  std::string error;
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
  EXPECT_NE(error.find("--name"), std::string::npos);
}

TEST(FlagParserTest, RejectsMalformedIntegers) {
  int count = 0;
  FlagParser parser;
  parser.AddInt("--count", &count);
  for (const char* bad : {"", "12x", "x12", "99999999999999999999", "1.5"}) {
    const Argv args({"--count", bad});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error))
        << "accepted: " << bad;
  }
}

TEST(FlagParserTest, HelpShortCircuits) {
  std::string name;
  FlagParser parser;
  parser.AddString("--name", &name);
  for (const char* h : {"--help", "-h"}) {
    const Argv args({h, "--name"});  // would otherwise be a missing-value error
    std::string error;
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_TRUE(parser.help_requested());
  }
}

TEST(CommonOptionsTest, RegistersAndValidates) {
  CommonOptions common;
  FlagParser parser;
  common.Register(&parser);
  const Argv args({"--manifest", "m.txt", "--design", "SQ", "--host", "cdn.example",
                   "--metrics-out", "metrics.prom", "--metrics-format", "prom"});
  std::string error;
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  ASSERT_TRUE(common.Validate(&error)) << error;
  EXPECT_EQ(common.manifest_path, "m.txt");
  EXPECT_EQ(common.host_suffix, "cdn.example");
  EXPECT_EQ(common.metrics_format, "prom");
  EXPECT_EQ(common.design(), infer::DesignType::kSQ);
}

TEST(CommonOptionsTest, ValidateRejectsBadInputs) {
  std::string error;
  {
    CommonOptions common;  // neither manifest nor design
    EXPECT_FALSE(common.Validate(&error));
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "ZZ";
    EXPECT_FALSE(common.Validate(&error));
    EXPECT_NE(error.find("design"), std::string::npos);
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "CH";
    common.metrics_format = "xml";
    EXPECT_FALSE(common.Validate(&error));
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "CH";
    EXPECT_TRUE(common.Validate(&error)) << error;
  }
}

TEST(CommonOptionsTest, CandidateCacheFlags) {
  std::string error;
  {
    CommonOptions common;
    FlagParser parser;
    common.Register(&parser);
    const Argv args({"--manifest", "m.txt", "--design", "SQ",
                     "--cache-mb", "candidate=128"});
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.candidate.budget_mb, 128);
  }
  {
    // Defaults: cache on at 64 MiB.
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.candidate.budget_mb, 64);
  }
  {
    // --cache-mb candidate=0 is valid: it turns the tier off.
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    common.caches.candidate.budget_mb = 0;
    EXPECT_TRUE(common.Validate(&error)) << error;
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    common.caches.candidate.budget_mb = -1;
    EXPECT_FALSE(common.Validate(&error));
    EXPECT_NE(error.find("--cache-mb candidate"), std::string::npos);
  }
}

TEST(FlagParserTest, KeyedFlagsParseAndReject) {
  int budget = 64;
  FlagParser parser;
  parser.AddKeyedInt("--cache-mb", "prefix", &budget);
  {
    const Argv args({"--cache-mb", "prefix=128"});
    std::string error;
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
    EXPECT_EQ(budget, 128);
  }
  {
    // A keyed value without '=' is a parse error, not a silent default.
    const Argv args({"--cache-mb", "prefix"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_NE(error.find("KEY=VALUE"), std::string::npos);
  }
  {
    const Argv args({"--cache-mb", "nonsense=1"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_NE(error.find("nonsense"), std::string::npos);
  }
  {
    const Argv args({"--cache-mb", "prefix=lots"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error));
    EXPECT_NE(error.find("lots"), std::string::npos);
  }
}

TEST(CommonOptionsTest, UnifiedCacheFlagsCoverAllTiers) {
  std::string error;
  CommonOptions common;
  FlagParser parser;
  common.Register(&parser);
  const Argv args({"--manifest", "m.txt", "--design", "SQ",
                   "--cache-mb", "prefix=8",
                   "--cache-mb", "candidate=16",
                   "--cache-mb", "result=0"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  ASSERT_TRUE(common.Validate(&error)) << error;
  EXPECT_EQ(common.caches.prefix.budget_mb, 8);
  EXPECT_EQ(common.caches.candidate.budget_mb, 16);
  EXPECT_EQ(common.caches.result.budget_mb, 0);
}

TEST(CommonOptionsTest, RepeatedCacheFlagsLastOneWins) {
  std::string error;
  CommonOptions common;
  FlagParser parser;
  common.Register(&parser);
  const Argv args({"--manifest", "m.txt", "--design", "SQ",
                   "--cache-mb", "candidate=128",
                   "--cache-mb", "candidate=32",
                   "--cache-mb", "prefix=0",
                   "--cache-mb", "prefix=16"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << error;
  ASSERT_TRUE(common.Validate(&error)) << error;
  EXPECT_EQ(common.caches.candidate.budget_mb, 32);
  EXPECT_EQ(common.caches.prefix.budget_mb, 16);
}

TEST(CommonOptionsTest, PerTierCacheFlagsAreGone) {
  for (const char* flag : {"--cache", "--candidate-cache", "--candidate-cache-mb",
                           "--prefix-cache", "--prefix-cache-mb"}) {
    CommonOptions common;
    FlagParser parser;
    common.Register(&parser);
    const Argv args({"--manifest", "m.txt", "--design", "SQ", flag, "1"});
    std::string error;
    EXPECT_FALSE(parser.Parse(args.argc(), args.argv(), nullptr, &error)) << flag;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
}

TEST(CommonOptionsTest, ResultCacheFlagsValidate) {
  std::string error;
  {
    // Defaults: result tier on at 64 MiB.
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    ASSERT_TRUE(common.Validate(&error)) << error;
    EXPECT_EQ(common.caches.result.budget_mb, 64);
  }
  {
    CommonOptions common;
    common.manifest_path = "m.txt";
    common.design_name = "SQ";
    common.caches.result.budget_mb = -1;
    EXPECT_FALSE(common.Validate(&error));
    EXPECT_NE(error.find("--cache-mb result"), std::string::npos);
  }
}

// A hand-built snapshot shaped like one cold SQ batch plus its database
// build: only stages that are not nested inside another reported stage may
// add to a total.
TEST(FormatStageBreakdownTest, CountsEachSecondOnce) {
  telemetry::MetricsSnapshot snapshot;
  const auto stage = [&snapshot](const char* name, double sum) {
    telemetry::HistogramSnapshot h;
    h.name = "csi_stage_duration_seconds";
    h.labels = {{"stage", name}};
    h.count = 1;
    h.sum = sum;
    snapshot.histograms.push_back(h);
  };
  stage("batch_analyze_all", 1.26);
  stage("batch_trace", 1.25);
  stage("pcap_read", 0.4);
  stage("column_build", 0.05);
  stage("analyze", 1.0);
  stage("result_cache_lookup", 0.01);
  stage("prefix_cache_lookup", 0.02);
  stage("flow_classify", 0.03);
  stage("traffic_split", 0.07);
  stage("group_search", 0.8);
  stage("candidate_enum", 0.1);
  stage("group_cache_lookup", 0.05);
  stage("sequence_chain", 0.6);
  stage("db_build", 0.2);
  // Unlabelled stage histograms and other metrics are ignored.
  telemetry::HistogramSnapshot task;
  task.name = "csi_threadpool_task_duration_seconds";
  task.sum = 9.0;
  snapshot.histograms.push_back(task);
  EXPECT_EQ(FormatStageBreakdown(snapshot),
            "stage timing: ingest 0.450s; analyze 1.000s; per-packet 0.100s (10.0%); "
            "search 0.800s (80.0%); cache lookup 0.030s (3.0%); other stages 0.200s");
  EXPECT_EQ(FormatStageBreakdown(telemetry::MetricsSnapshot{}), "");
}

TEST(CommonOptionsTest, ParseDesignNameCoversAllDesigns) {
  infer::DesignType design;
  ASSERT_TRUE(ParseDesignName("CH", &design));
  EXPECT_EQ(design, infer::DesignType::kCH);
  ASSERT_TRUE(ParseDesignName("SH", &design));
  EXPECT_EQ(design, infer::DesignType::kSH);
  ASSERT_TRUE(ParseDesignName("CQ", &design));
  EXPECT_EQ(design, infer::DesignType::kCQ);
  ASSERT_TRUE(ParseDesignName("SQ", &design));
  EXPECT_EQ(design, infer::DesignType::kSQ);
  EXPECT_FALSE(ParseDesignName("ch", &design));
  EXPECT_FALSE(ParseDesignName("", &design));
}

}  // namespace
}  // namespace csi::tools
