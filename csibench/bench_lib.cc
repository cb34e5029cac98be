#include "csibench/bench_lib.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/capture/pcap_io.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/group_search.h"
#include "src/csi/size_estimator.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

namespace csibench {

using namespace csi;

// ---------------------------------------------------------------------------
// Workloads

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "ch_cold_10min") {
    return WorkloadSpec{name, infer::DesignType::kCH, 20, 20, false, 1, 0};
  }
  if (name == "sq_cold_10min") {
    return WorkloadSpec{name, infer::DesignType::kSQ, 60, 20, false, 1, 0};
  }
  if (name == "ch_live_replay") {
    // Rounds: initial, plain, refresh, plain, refresh, plain.
    return WorkloadSpec{name, infer::DesignType::kCH, 12, 12, true, 6, 2};
  }
  return std::nullopt;
}

uint64_t SessionSeed(const WorkloadSpec& spec, uint64_t seed, int index) {
  return 5 * (seed * static_cast<uint64_t>(spec.sessions) + static_cast<uint64_t>(index)) +
         kAssetGenre;
}

std::string SessionPcapPath(const std::string& dir, int index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/s%02d.pcap", index);
  return dir + name;
}

std::string SessionTruthPath(const std::string& dir, int index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/s%02d.truth.tsv", index);
  return dir + name;
}

std::string ManifestPath(const std::string& dir) { return dir + "/video.manifest"; }

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

std::string FormatTruth(const std::vector<player::DownloadRecord>& downloads) {
  std::string text = "# kind\ttrack\tindex\trequest_us\tdone_us\tbytes\n";
  for (const player::DownloadRecord& d : downloads) {
    text += std::string(d.chunk.type == media::MediaType::kVideo ? "video" : "audio") + "\t" +
            std::to_string(d.chunk.track) + "\t" + std::to_string(d.chunk.index) + "\t" +
            std::to_string(d.request_time) + "\t" + std::to_string(d.done_time) + "\t" +
            std::to_string(d.bytes) + "\n";
  }
  return text;
}

std::vector<player::DownloadRecord> ParseTruth(const std::string& text) {
  std::vector<player::DownloadRecord> downloads;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind;
    player::DownloadRecord d;
    if (!(fields >> kind >> d.chunk.track >> d.chunk.index >> d.request_time >> d.done_time >>
          d.bytes)) {
      throw std::runtime_error("ground truth: malformed line: " + line);
    }
    d.chunk.type = kind == "audio" ? media::MediaType::kAudio : media::MediaType::kVideo;
    downloads.push_back(d);
  }
  return downloads;
}

void GenerateWorkload(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  const TimeUs duration = SecondsToUs(kSessionSeconds);
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(spec.design, kAssetGenre, duration);
  if (!WriteFile(ManifestPath(dir), manifest.Serialize())) {
    throw std::runtime_error("cannot write " + ManifestPath(dir));
  }
  // The calling thread simulates sessions too.
  ThreadPool pool(kGenerationThreads - 1);
  ParallelFor(&pool, spec.sessions, [&](int64_t i) {
    const int index = static_cast<int>(i);
    const uint64_t session_seed = SessionSeed(spec, seed, index);
    // Same construction as csi_testgen with its default bandwidth (6 Mbps),
    // variability (cv 0.5) and adaptation policy.
    testbed::SessionConfig session;
    session.design = spec.design;
    session.manifest = &manifest;
    Rng trace_rng(session_seed ^ 0xBEEF);
    session.downlink =
        nettrace::CellularTrace("gen", 6.0 * kMbps, 0.5, duration, 2 * kUsPerSec, trace_rng);
    session.duration = duration;
    session.seed = session_seed;
    const testbed::SessionResult result = testbed::RunStreamingSession(session);
    capture::WritePcap(SessionPcapPath(dir, index), result.capture);
    if (!WriteFile(SessionTruthPath(dir, index), FormatTruth(result.downloads))) {
      throw std::runtime_error("cannot write " + SessionTruthPath(dir, index));
    }
  });
}

// ---------------------------------------------------------------------------
// Statistics

double HighestPercentileWithTenBeyond(size_t samples) {
  if (samples < 20) {
    return -1;
  }
  return 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
}

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double HarrellDavisMedian(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  // Sample i's weight is the mass of the Beta((n+1)/2, (n+1)/2) density over
  // [i/n, (i+1)/n], integrated by Simpson's rule and normalized at the end.
  const double a = (static_cast<double>(n) + 1) / 2;
  const double log_beta = 2 * std::lgamma(a) - std::lgamma(2 * a);
  const auto density = [&](double x) {
    return x <= 0 || x >= 1 ? 0.0
                            : std::exp((a - 1) * (std::log(x) + std::log1p(-x)) - log_beta);
  };
  constexpr int kSteps = 32;  // per sample; even, as Simpson's rule needs
  const double step = 1.0 / static_cast<double>(n) / kSteps;
  double estimate = 0;
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    double sum = density(lo) + density(lo + kSteps * step);
    for (int k = 1; k < kSteps; ++k) {
      sum += (k % 2 == 1 ? 4 : 2) * density(lo + k * step);
    }
    const double weight = sum * step / 3;
    estimate += weight * values[i];
    total += weight;
  }
  return total > 0 ? estimate / total : MedianOf(values);
}

// ---------------------------------------------------------------------------
// Failure accounting

void FailureTally::Fail(FailureKind kind, const std::string& detail) {
  failures_.emplace_back(kind, detail);
}

uint64_t FailureTally::failed(FailureKind kind) const {
  return static_cast<uint64_t>(
      std::count_if(failures_.begin(), failures_.end(),
                    [kind](const auto& failure) { return failure.first == kind; }));
}

double FailureTally::completed_share() const {
  if (attempted_ == 0) {
    return 1;
  }
  return static_cast<double>(attempted_ - failed()) / static_cast<double>(attempted_);
}

IngestedSession IngestSession(const std::string& pcap_path, SpanRecorder* spans,
                              int64_t session) {
  IngestedSession ingested;
  std::optional<capture::CaptureTrace> trace;
  const Clock::time_point start = Clock::now();
  {
    const SpanRecorder::Scope span(spans, "capture.read", session);
    try {
      trace = capture::ReadPcap(pcap_path);
    } catch (const std::exception& e) {
      ingested.error = e.what();
    }
  }
  const Clock::time_point read = Clock::now();
  ingested.read_s = std::chrono::duration<double>(read - start).count();
  if (!trace.has_value()) {
    return ingested;
  }
  ingested.packets = trace->size();
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(pcap_path, ec);
  ingested.pcap_bytes = ec ? 0 : static_cast<uint64_t>(size);
  {
    const SpanRecorder::Scope span(spans, "capture.columns", session);
    ingested.columns = capture::PacketColumns::Build(*trace);
    trace.reset();  // the columns carry everything inference reads
  }
  ingested.columns_s = std::chrono::duration<double>(Clock::now() - read).count();
  return ingested;
}

bool CountIngested(const IngestedSession& session, FailureTally* tally) {
  if (session.error.empty()) {
    return true;
  }
  tally->Attempt();
  tally->Fail(FailureKind::kLoad, session.error);
  return false;
}

bool CountAnalyzed(const infer::InferenceResult& result, const std::string& error,
                   FailureTally* tally) {
  tally->Attempt();
  if (!error.empty()) {
    tally->Fail(FailureKind::kAnalyze, error);
    return false;
  }
  if (result.sequences.empty()) {
    tally->Fail(FailureKind::kNoSequence, "no sequence emitted");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Span recording

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const std::string& name, int64_t session)
    : recorder_(recorder) {
  if (recorder_ != nullptr) {
    index_ = recorder_->Begin(name, session);
  }
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) {
    recorder_->End(index_);
  }
}

int SpanRecorder::Begin(const std::string& name, int64_t session) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.session = session < 0 && span.parent >= 0 ? spans_[span.parent].session : session;
  span.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[index].end_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  // Scopes are stack objects, so spans close innermost first.
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::TotalSeconds() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) {
    totals[span.name] += span.duration();
  }
  return totals;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration();
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].duration();
    }
  }
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    totals[spans_[i].name] += self[i];
  }
  return totals;
}

std::string SpanRecorder::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  char event[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(event, sizeof(event),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"session\":%" PRId64 "}}",
                  i == 0 ? "" : ",\n", span.name.c_str(), span.start_s * 1e6,
                  span.duration() * 1e6, i, span.parent, span.session);
    out += event;
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Stage replay

infer::InferenceResult ReplayStages(const infer::InferenceEngine& engine,
                                    const capture::PacketColumns& columns,
                                    infer::GroupCandidateCache* candidate_cache,
                                    SpanRecorder* spans, int64_t session,
                                    StageCounts* counts) {
  const infer::InferenceConfig& config = engine.config();
  const bool quic = infer::IsQuic(config.design);
  if (config.design == infer::DesignType::kCQ) {
    throw std::logic_error("stage replay: CQ merge repair has no public entry point");
  }

  std::vector<uint32_t> media;
  uint32_t main_flow = 0;
  {
    const SpanRecorder::Scope span(spans, "csi.flow_classifier", session);
    media = infer::ClassifyMediaFlowIds(columns, config.host_suffix);
    // First-max over downlink bytes, as the engine picks the dominant flow.
    if (!media.empty()) {
      main_flow = media.front();
      for (const uint32_t f : media) {
        if (columns.flow_downlink_bytes(f) > columns.flow_downlink_bytes(main_flow)) {
          main_flow = f;
        }
      }
    }
  }
  counts->media_flows += media.size();
  if (!media.empty()) {
    counts->dominant_flow_packets += columns.flow(main_flow).size();
  }

  std::vector<infer::TrafficGroup> groups;
  {
    const SpanRecorder::Scope span(spans, "csi.splitter", session);
    if (!media.empty() && config.design == infer::DesignType::kSQ) {
      groups = infer::SplitIntoGroups(columns.flow(main_flow), config.splitter);
      counts->groups += groups.size();
    }
  }
  {
    const SpanRecorder::Scope span(spans, "csi.size_estimator", session);
    if (!media.empty() && config.design != infer::DesignType::kSQ) {
      const capture::FlowView view = columns.flow(main_flow);
      for (const infer::EstimatedExchange& ex : infer::EstimateExchanges(view, quic)) {
        if (ex.carries_sni) {
          continue;  // the handshake flight, not a media object
        }
        ++counts->exchanges;
        infer::TrafficGroup group;
        group.requests.push_back(infer::DetectedRequest{ex.request_time, false});
        group.start_time = ex.request_time;
        group.end_time = ex.last_data_time;
        group.estimated_total = ex.estimated_size;
        groups.push_back(std::move(group));
      }
    }
  }
  if (media.empty()) {
    return {};
  }

  infer::GroupSearchConfig search;
  search.k = quic ? config.k_quic : config.k_https;
  search.expected_overhead = quic ? config.expected_overhead_quic : config.expected_overhead_https;
  search.expected_fixed_overhead = config.expected_fixed_overhead;
  search.max_sequences = config.max_sequences;
  search.max_candidates_per_group = config.max_candidates_per_group;
  search.other_object_sizes = config.other_object_sizes;
  search.enable_wildcards = config.enable_wildcards;
  search.enable_merge_repair = config.enable_merge_repair;
  search.pool = config.search_pool;
  search.shared_cache = candidate_cache;
  if (!config.enable_phantom_deficit) {
    search.max_phantom_requests = 0;
  }
  if (!config.enable_calibrated_ranking) {
    search.expected_overhead = 0.0;
    search.expected_fixed_overhead = 0;
  }
  infer::InferenceResult result;
  {
    const SpanRecorder::Scope span(spans, "csi.group_search", session);
    result = infer::SearchGroupSequences(groups, engine.snapshot(), search);
  }
  counts->sequences += result.sequences.size();
  counts->truncated += result.truncated ? 1 : 0;
  return result;
}

// ---------------------------------------------------------------------------
// Results

std::string DigestResults(const std::vector<infer::InferenceResult>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (const infer::InferenceResult& r : results) {
    mix(static_cast<int64_t>(r.sequences.size()));
    mix(r.truncated ? 1 : 0);
    for (const infer::InferredSequence& seq : r.sequences) {
      mix(static_cast<int64_t>(seq.slots.size()));
      for (const infer::InferredSlot& slot : seq.slots) {
        mix(static_cast<int64_t>(slot.kind));
        mix(slot.chunk.track);
        mix(slot.chunk.index);
        mix(slot.request_time);
        mix(slot.done_time);
        mix(slot.estimated_size);
      }
    }
    for (const infer::EstimatedExchange& ex : r.exchanges) {
      mix(ex.request_time);
      mix(ex.last_data_time);
      mix(ex.estimated_size);
      mix(ex.carries_sni ? 1 : 0);
    }
    for (int g : r.group_sizes) {
      mix(g);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

double CurrentRssMb() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) {
    return 0;
  }
  const int read = std::fscanf(statm, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(statm);
  if (read != 2) {
    return 0;
  }
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace csibench
