// Support code of the end-to-end benchmark runner (csibench_runner.cc):
// workload shapes and input generation, per-session ingest with failure
// accounting, the sample-count rule for reported percentiles, the runner's own
// span recorder, and the stage replay that the traced run times layer by
// layer. Everything here calls the CSI libraries only through their public
// headers, so the benchmark measures what a user of those libraries gets.

#ifndef CSIBENCH_BENCH_LIB_H_
#define CSIBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/inference.h"
#include "src/player/abr_player.h"

namespace csibench {

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  csi::infer::DesignType design = csi::infer::DesignType::kCH;
  // Distinct captures generated per seed, analyzed `batch` at a time: each
  // batch is one csi_batch run over a directory of captures (ingest, one
  // AnalyzeAll per round, QoE), so memory stays bounded by one batch.
  int sessions = 0;
  int batch = 0;
  // Live replay: the database starts from half the manifest and the rounds
  // alternate plain repeats with repeats after one refresh publish.
  bool live = false;
  int rounds = 1;
  int refreshes = 0;
};

// The three workloads, or nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

// Every capture of every workload is a 10-min session of one asset: genre 1
// of the design's test assets, streamed over a cellular trace around 6 Mbps
// (csi_testgen's defaults), so one seed's captures share a manifest and any
// two seeds give the same workload shape with different captures.
inline constexpr double kSessionSeconds = 600;
inline constexpr int kAssetGenre = 1;

// The csi_testgen --seed of capture `index` of workload seed `seed`. It is
// congruent to kAssetGenre mod 5, so `csi_testgen --design D --seed S`
// reproduces the capture byte for byte.
uint64_t SessionSeed(const WorkloadSpec& spec, uint64_t seed, int index);

// Sessions GenerateWorkload simulates at once.
inline constexpr int kGenerationThreads = 4;

// Writes video.manifest, sNN.pcap and sNN.truth.tsv for every session into
// `dir` (which must exist), kGenerationThreads sessions at a time.
void GenerateWorkload(const WorkloadSpec& spec, uint64_t seed, const std::string& dir);

std::string SessionPcapPath(const std::string& dir, int index);
std::string SessionTruthPath(const std::string& dir, int index);
std::string ManifestPath(const std::string& dir);

// Ground-truth download logs, in csi_testgen's ground_truth.tsv format.
std::string FormatTruth(const std::vector<csi::player::DownloadRecord>& downloads);
std::vector<csi::player::DownloadRecord> ParseTruth(const std::string& text);

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& content);

// ---------------------------------------------------------------------------
// Statistics

// The highest percentile that still has at least ten samples beyond it among
// `samples` values: 100 * (1 - 10 / samples), or -1 when fewer than 20
// samples leave ten beyond even the median.
double HighestPercentileWithTenBeyond(size_t samples);

// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double PercentileOf(std::vector<double> values, double p);
inline double MedianOf(std::vector<double> values) { return PercentileOf(std::move(values), 50); }

// Harrell-Davis estimate of the median: a weighted mean of all order
// statistics (weights from the Beta((n+1)/2, (n+1)/2) distribution) rather
// than the one or two middle samples, so it moves less when the samples are
// a different draw of the same population. 0 when empty.
double HarrellDavisMedian(std::vector<double> values);

// ---------------------------------------------------------------------------
// Span recording (the runner's own; single-threaded)

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t session = -1;
    double start_s = 0;  // since the recorder was created
    double end_s = 0;
    double duration() const { return end_s - start_s; }
  };

  // Records one span from construction to destruction, nested in the
  // innermost open one; a null recorder makes it a no-op, so untraced runs
  // share the traced code path without recording. `session` tags every span
  // of one session (children inherit it).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const std::string& name, int64_t session = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: total duration and total self time (duration minus the
  // part its direct children cover).
  std::map<std::string, double> TotalSeconds() const;
  std::map<std::string, double> SelfSeconds() const;
  // Chrome trace-event JSON (loadable in Perfetto).
  std::string ToChromeTrace() const;

 private:
  int Begin(const std::string& name, int64_t session);
  void End(int index);

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Failure accounting

// Why a session counted as failed.
enum class FailureKind { kLoad, kAnalyze, kNoSequence };

class FailureTally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(FailureKind kind, const std::string& detail);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failures_.size(); }
  uint64_t failed(FailureKind kind) const;
  // Share of attempted sessions that completed; 1 when nothing was attempted.
  double completed_share() const;
  const std::vector<std::pair<FailureKind, std::string>>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  std::vector<std::pair<FailureKind, std::string>> failures_;
};

// One capture read and transposed to columns, or the reason it was not.
struct IngestedSession {
  std::optional<csi::capture::PacketColumns> columns;
  std::string error;
  size_t packets = 0;
  uint64_t pcap_bytes = 0;
  double read_s = 0;
  double columns_s = 0;
};

// capture::ReadPcap then capture::PacketColumns::Build, under the spans
// capture.read and capture.columns when `spans` is non-null. A capture that
// does not load is reported in `error`, never thrown.
IngestedSession IngestSession(const std::string& pcap_path, SpanRecorder* spans = nullptr,
                              int64_t session = -1);

// Counts a capture that did not load as one attempted, failed session.
// Returns true when it loaded.
bool CountIngested(const IngestedSession& session, FailureTally* tally);

// Classifies one analyzed session: counts it attempted, and failed when its
// analysis threw (`error` non-empty) or it emitted no sequence. Returns true
// when the session completed.
bool CountAnalyzed(const csi::infer::InferenceResult& result, const std::string& error,
                   FailureTally* tally);

// ---------------------------------------------------------------------------
// Stage replay

// Work counts of the replayed stages, summed over sessions.
struct StageCounts {
  uint64_t media_flows = 0;
  uint64_t dominant_flow_packets = 0;  // packets of the flows Step 1 works on
  uint64_t exchanges = 0;
  uint64_t groups = 0;
  uint64_t sequences = 0;
  uint64_t truncated = 0;
};

// Reruns the cold compute path of InferenceEngine::Analyze on `columns` as
// its public stage calls — ClassifyMediaFlowIds, then EstimateExchanges or
// SplitIntoGroups on the dominant flow, then SearchGroupSequences with the
// GroupSearchConfig the engine builds — each under its own span. No result
// or prefix tier is consulted; `candidate_cache` stands in for the engine's
// candidate tier. Both estimator and splitter spans are always opened, so a
// stage without work on this design reads its (empty) dispatch cost. Supports
// the CH, SH and SQ designs (CQ's merge repair is not a public call).
csi::infer::InferenceResult ReplayStages(const csi::infer::InferenceEngine& engine,
                                         const csi::capture::PacketColumns& columns,
                                         csi::infer::GroupCandidateCache* candidate_cache,
                                         SpanRecorder* spans, int64_t session,
                                         StageCounts* counts);

// ---------------------------------------------------------------------------
// Results

// FNV-1a over every integer field of the results, in order (the golden-digest
// convention of the test suite), as 16 hex digits.
std::string DigestResults(const std::vector<csi::infer::InferenceResult>& results);

// Resident set size now, and the process's peak so far, in MiB.
double CurrentRssMb();
double PeakRssMb();

}  // namespace csibench

#endif  // CSIBENCH_BENCH_LIB_H_
