#include "src/csi/batch_analyzer.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/candidate_cache.h"

namespace csi::infer {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

template <typename Cache>
void ResolveCache(std::shared_ptr<Cache>* cache, const CacheOptions& options) {
  if (*cache != nullptr || options.budget_mb <= 0) {
    return;
  }
  *cache = std::make_shared<Cache>(static_cast<size_t>(options.budget_mb) * 1024 * 1024);
}

}  // namespace

void AttachCaches(const BatchConfig::Caches& budgets, InferenceConfig::Caches* caches) {
  ResolveCache(&caches->candidate, budgets.candidate);
  ResolveCache(&caches->prefix, budgets.prefix);
  ResolveCache(&caches->result, budgets.result);
}

InferenceEngine BatchAnalyzer::MakeEngine(DbSnapshot snapshot, InferenceConfig config,
                                          const BatchConfig& batch) {
  AttachCaches(batch.caches, &config.caches);
  return InferenceEngine(std::move(snapshot), std::move(config));
}

BatchAnalyzer::BatchAnalyzer(const media::Manifest* manifest, InferenceConfig config,
                             BatchConfig batch)
    : BatchAnalyzer(DbSnapshot(std::make_shared<const ChunkDatabase>(manifest)),
                    std::move(config), std::move(batch)) {}

BatchAnalyzer::BatchAnalyzer(DbSnapshot snapshot, InferenceConfig config, BatchConfig batch)
    : batch_(std::move(batch)),
      pool_(ResolveThreads(batch_.threads)),
      engine_(MakeEngine(std::move(snapshot), std::move(config), batch_)) {}

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<const capture::PacketColumns*>& columns,
    std::vector<double>* trace_seconds, std::vector<std::string>* trace_errors,
    std::vector<InferenceAudit>* audits) {
  const size_t total = columns.size();
  std::vector<InferenceResult> results(total);
  if (trace_seconds != nullptr) {
    trace_seconds->assign(total, 0.0);
  }
  if (trace_errors != nullptr) {
    trace_errors->assign(total, std::string());
  }
  if (audits != nullptr) {
    audits->assign(total, InferenceAudit{});
  }
  CSI_SPAN("batch_analyze_all", {"traces", static_cast<int64_t>(total)});
  std::atomic<size_t> completed{0};
  std::mutex progress_mu;
  pool_.ParallelFor(static_cast<int64_t>(total), [&](int64_t i) {
    const size_t index = static_cast<size_t>(i);
    // The per-trace timing slot keeps its own clock pair (noise next to
    // Analyze itself); the batch_trace span feeds the histogram and trace.
    const auto start = std::chrono::steady_clock::now();
    {
      CSI_SPAN("batch_trace", {"index", i});
      // A throwing capture must not take its siblings down with it: the slot
      // keeps a default result and the error is reported by index. Letting
      // the exception escape would make ParallelFor abort the remaining
      // captures.
      try {
        const capture::PacketColumns& capture = *columns[index];
        InferenceAudit* const audit = audits != nullptr ? &(*audits)[index] : nullptr;
        results[index] = batch_.analyze_override ? batch_.analyze_override(capture)
                                                 : engine_.Analyze(capture, {}, audit);
      } catch (const std::exception& e) {
        if (trace_errors != nullptr) {
          (*trace_errors)[index] = e.what();
        }
        CSI_COUNTER_INC("csi_batch_trace_analyze_failures_total");
        trace::TraceSession::Global().DumpFlightRecord(
            "batch trace " + std::to_string(i), e.what());
      } catch (...) {
        if (trace_errors != nullptr) {
          (*trace_errors)[index] = "unknown error";
        }
        CSI_COUNTER_INC("csi_batch_trace_analyze_failures_total");
        trace::TraceSession::Global().DumpFlightRecord(
            "batch trace " + std::to_string(i), "unknown error");
      }
    }
    if (trace_seconds != nullptr) {
      (*trace_seconds)[index] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
    CSI_COUNTER_INC("csi_batch_traces_total");
    const size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    CSI_GAUGE_SET("csi_batch_traces_in_flight", total - done);
    if (batch_.progress && batch_.progress_every > 0 &&
        (done % batch_.progress_every == 0 || done == total)) {
      std::lock_guard<std::mutex> lock(progress_mu);
      batch_.progress(done, total);
    }
  });
  return results;
}

}  // namespace csi::infer
