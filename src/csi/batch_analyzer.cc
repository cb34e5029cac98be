#include "src/csi/batch_analyzer.h"

#include <atomic>
#include <chrono>
#include <exception>
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

// Creates the batch-wide shared candidate cache unless the caller brought
// their own, disabled the tier, or the env forces it off.
void ResolveCandidateCache(InferenceConfig* config, const BatchConfig& batch) {
  const int budget_mb = batch.caches.candidate.effective_budget_mb();
  if (config->caches.candidate != nullptr || budget_mb <= 0 ||
      GroupCandidateCache::EnvForcesOff()) {
    return;
  }
  config->caches.candidate =
      std::make_shared<GroupCandidateCache>(static_cast<size_t>(budget_mb) * 1024 * 1024);
}

// Same resolution for the analysis-prefix cache.
void ResolvePrefixCache(InferenceConfig* config, const BatchConfig& batch) {
  const int budget_mb = batch.caches.prefix.effective_budget_mb();
  if (config->caches.prefix != nullptr || budget_mb <= 0 ||
      AnalysisPrefixCache::EnvForcesOff()) {
    return;
  }
  config->caches.prefix =
      std::make_shared<AnalysisPrefixCache>(static_cast<size_t>(budget_mb) * 1024 * 1024);
}

// Same resolution for the whole-result cache.
void ResolveResultCache(InferenceConfig* config, const BatchConfig& batch) {
  const int budget_mb = batch.caches.result.effective_budget_mb();
  if (config->caches.result != nullptr || budget_mb <= 0 || ResultCache::EnvForcesOff()) {
    return;
  }
  config->caches.result =
      std::make_shared<ResultCache>(static_cast<size_t>(budget_mb) * 1024 * 1024);
}

}  // namespace

InferenceEngine BatchAnalyzer::MakeEngine(const media::Manifest* manifest,
                                          InferenceConfig config, const BatchConfig& batch,
                                          ThreadPool* pool) {
  if (batch.parallel_group_search) {
    config.search_pool = pool;
  }
  // The shared database builds once, before any trace runs, so the batch
  // pool is idle and free to take the shard jobs.
  if (config.db_build_pool == nullptr) {
    config.db_build_pool = pool;
  }
  if (config.db_build_shards == 0) {
    config.db_build_shards = batch.db_build_shards;
  }
  ResolveCandidateCache(&config, batch);
  ResolvePrefixCache(&config, batch);
  ResolveResultCache(&config, batch);
  return InferenceEngine(manifest, std::move(config));
}

InferenceEngine BatchAnalyzer::MakeEngine(DbSnapshot snapshot, InferenceConfig config,
                                          const BatchConfig& batch, ThreadPool* pool) {
  if (batch.parallel_group_search) {
    config.search_pool = pool;
  }
  ResolveCandidateCache(&config, batch);
  ResolvePrefixCache(&config, batch);
  ResolveResultCache(&config, batch);
  return InferenceEngine(std::move(snapshot), std::move(config));
}

BatchAnalyzer::BatchAnalyzer(const media::Manifest* manifest, InferenceConfig config,
                             BatchConfig batch)
    : batch_(std::move(batch)),
      pool_(ResolveThreads(batch_.threads)),
      engine_(MakeEngine(manifest, std::move(config), batch_, &pool_)) {}

BatchAnalyzer::BatchAnalyzer(DbSnapshot snapshot, InferenceConfig config, BatchConfig batch)
    : batch_(std::move(batch)),
      pool_(ResolveThreads(batch_.threads)),
      engine_(MakeEngine(std::move(snapshot), std::move(config), batch_, &pool_)) {}

std::vector<InferenceResult> BatchAnalyzer::RunBatch(
    size_t total,
    const std::function<InferenceResult(size_t index, InferenceAudit* audit)>& analyze_one,
    std::vector<double>* trace_seconds, std::vector<std::string>* trace_errors,
    std::vector<InferenceAudit>* audits) {
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
    // The per-trace timing slot keeps its own clock pair (noise next to
    // Analyze itself); the batch_trace span feeds the histogram and trace.
    const auto start = std::chrono::steady_clock::now();
    {
      CSI_SPAN("batch_trace", {"index", i});
      // A throwing trace must not take its siblings down with it: the slot
      // keeps a default result and the error is reported by index. Letting
      // the exception escape would make ParallelFor abort the remaining
      // traces.
      try {
        InferenceAudit* const audit =
            audits != nullptr ? &(*audits)[static_cast<size_t>(i)] : nullptr;
        results[static_cast<size_t>(i)] = analyze_one(static_cast<size_t>(i), audit);
      } catch (const std::exception& e) {
        if (trace_errors != nullptr) {
          (*trace_errors)[static_cast<size_t>(i)] = e.what();
        }
        CSI_COUNTER_INC("csi_batch_trace_analyze_failures_total");
        trace::TraceSession::Global().DumpFlightRecord(
            "batch trace " + std::to_string(i), e.what());
      } catch (...) {
        if (trace_errors != nullptr) {
          (*trace_errors)[static_cast<size_t>(i)] = "unknown error";
        }
        CSI_COUNTER_INC("csi_batch_trace_analyze_failures_total");
        trace::TraceSession::Global().DumpFlightRecord(
            "batch trace " + std::to_string(i), "unknown error");
      }
    }
    if (trace_seconds != nullptr) {
      (*trace_seconds)[static_cast<size_t>(i)] =
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

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<const capture::CaptureTrace*>& traces,
    std::vector<double>* trace_seconds, std::vector<std::string>* trace_errors,
    std::vector<InferenceAudit>* audits) {
  return RunBatch(
      traces.size(),
      [&](size_t i, InferenceAudit* audit) {
        const capture::CaptureTrace& trace = *traces[i];
        return batch_.analyze_override ? batch_.analyze_override(trace)
                                       : engine_.Analyze(trace, {}, audit);
      },
      trace_seconds, trace_errors, audits);
}

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<capture::CaptureTrace>& traces, std::vector<double>* trace_seconds,
    std::vector<std::string>* trace_errors, std::vector<InferenceAudit>* audits) {
  std::vector<const capture::CaptureTrace*> pointers;
  pointers.reserve(traces.size());
  for (const capture::CaptureTrace& trace : traces) {
    pointers.push_back(&trace);
  }
  return AnalyzeAll(pointers, trace_seconds, trace_errors, audits);
}

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<const capture::PacketColumns*>& columns,
    std::vector<double>* trace_seconds, std::vector<std::string>* trace_errors,
    std::vector<InferenceAudit>* audits) {
  return RunBatch(
      columns.size(),
      [&](size_t i, InferenceAudit* audit) {
        return engine_.Analyze(*columns[i], {}, audit);
      },
      trace_seconds, trace_errors, audits);
}

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<capture::PacketColumns>& columns, std::vector<double>* trace_seconds,
    std::vector<std::string>* trace_errors, std::vector<InferenceAudit>* audits) {
  std::vector<const capture::PacketColumns*> pointers;
  pointers.reserve(columns.size());
  for (const capture::PacketColumns& c : columns) {
    pointers.push_back(&c);
  }
  return AnalyzeAll(pointers, trace_seconds, trace_errors, audits);
}

}  // namespace csi::infer
