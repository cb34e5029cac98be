// csi_testgen — generate a synthetic streaming session for CSI analysis.
//
// Usage:
//   csi_testgen --design SH --out DIR [--duration SECONDS] [--bandwidth MBPS]
//               [--cv COEFF] [--adaptation NAME] [--pasr X] [--seed N]
//               [--shaper-rate MBPS --shaper-bucket BYTES]
//
// Writes into DIR, which it creates if it is missing:
//   session.pcap     the encrypted capture (analyze with csi_analyze)
//   video.manifest   the chunk-size database
//   ground_truth.tsv the instrumented-player log (for scoring)
//
// Together with csi_analyze this reproduces the paper's workflow end to end
// from the command line.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "src/capture/pcap_io.h"
#include "src/csi/inference.h"
#include "src/testbed/experiment.h"
#include "tools/cli_options.h"

using namespace csi;

namespace {

[[noreturn]] void Usage(const char* error) {
  if (error != nullptr) {
    std::fprintf(stderr, "error: %s\n\n", error);
  }
  std::fprintf(stderr,
               "usage: csi_testgen --design CH|SH|CQ|SQ --out DIR\n"
               "                   [--duration SECONDS] [--bandwidth MBPS] [--cv COEFF]\n"
               "                   [--adaptation rate-based|buffer-based|hybrid|hulu-like]\n"
               "                   [--pasr X] [--seed N]\n"
               "                   [--shaper-rate MBPS --shaper-bucket BYTES]\n");
  std::exit(error == nullptr ? 0 : 2);
}

// The whole of `text` as a number, or a usage error naming `flag`.
template <typename T>
T ParseNumber(const std::string& flag, const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [used, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || used != end) {
    Usage(("invalid value for " + flag + ": '" + text + "'").c_str());
  }
  return value;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

int Run(int argc, char** argv) {
  std::string design_name;
  std::string out_dir;
  std::string adaptation = "hybrid";
  double duration_s = 600;
  double bandwidth_mbps = 6.0;
  double cv = 0.5;
  double pasr = 1.6;
  uint64_t seed = 1;
  double shaper_rate_mbps = 0;
  Bytes shaper_bucket = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--design") {
      design_name = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--duration") {
      duration_s = ParseNumber<double>(arg, next());
    } else if (arg == "--bandwidth") {
      bandwidth_mbps = ParseNumber<double>(arg, next());
    } else if (arg == "--cv") {
      cv = ParseNumber<double>(arg, next());
    } else if (arg == "--adaptation") {
      adaptation = next();
    } else if (arg == "--pasr") {
      pasr = ParseNumber<double>(arg, next());
    } else if (arg == "--seed") {
      seed = ParseNumber<uint64_t>(arg, next());
    } else if (arg == "--shaper-rate") {
      shaper_rate_mbps = ParseNumber<double>(arg, next());
    } else if (arg == "--shaper-bucket") {
      shaper_bucket = ParseNumber<Bytes>(arg, next());
    } else if (arg == "--help" || arg == "-h") {
      Usage(nullptr);
    } else {
      Usage(("unknown argument: " + arg).c_str());
    }
  }
  if (design_name.empty() || out_dir.empty()) {
    Usage("--design and --out are required");
  }

  infer::DesignType design{};
  if (!tools::ParseDesignName(design_name, &design)) {
    Usage("unknown design type");
  }
  // Before the simulation, so that a bad --out fails at once.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", out_dir.c_str());
    return 2;
  }
  const TimeUs duration = SecondsToUs(duration_s);
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(design, static_cast<int>(seed % 5), duration, pasr);

  testbed::SessionConfig session;
  session.design = design;
  session.manifest = &manifest;
  Rng trace_rng(seed ^ 0xBEEF);
  session.downlink = cv > 0
                         ? nettrace::CellularTrace("gen", bandwidth_mbps * kMbps, cv,
                                                   duration, 2 * kUsPerSec, trace_rng)
                         : nettrace::StableTrace("gen", bandwidth_mbps * kMbps);
  session.adaptation = adaptation;
  session.duration = duration;
  session.seed = seed;
  if (shaper_rate_mbps > 0) {
    net::TokenBucketConfig shaper;
    shaper.rate = shaper_rate_mbps * kMbps;
    shaper.bucket_size = shaper_bucket > 0 ? shaper_bucket : 50 * kKB;
    session.shaper = shaper;
  }
  const testbed::SessionResult result = RunStreamingSession(session);

  capture::WritePcap(out_dir + "/session.pcap", result.capture);
  WriteFileOrDie(out_dir + "/video.manifest", manifest.Serialize());
  std::string gt = "# kind\ttrack\tindex\trequest_us\tdone_us\tbytes\n";
  for (const auto& d : result.downloads) {
    gt += std::string(d.chunk.type == media::MediaType::kVideo ? "video" : "audio") + "\t" +
          std::to_string(d.chunk.track) + "\t" + std::to_string(d.chunk.index) + "\t" +
          std::to_string(d.request_time) + "\t" + std::to_string(d.done_time) + "\t" +
          std::to_string(d.bytes) + "\n";
  }
  WriteFileOrDie(out_dir + "/ground_truth.tsv", gt);

  std::printf("wrote %s/session.pcap (%zu packets), video.manifest, ground_truth.tsv "
              "(%zu downloads)\n",
              out_dir.c_str(), result.capture.size(), result.downloads.size());
  std::printf("analyze with:\n  csi_analyze --pcap %s/session.pcap --manifest "
              "%s/video.manifest --design %s\n",
              out_dir.c_str(), out_dir.c_str(), design_name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tools::GuardedMain(Run, argc, argv); }
