#include "src/common/thread_pool.h"

#include <algorithm>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"

namespace csi {

namespace {

// Shared by the worker loop and the help-while-waiting path so queue-sourced
// tasks are accounted identically wherever they end up running.
void RunTimedTask(const std::function<void()>& task) {
  {
    CSI_SCOPED_HIST_TIMER("csi_threadpool_task_duration_seconds");
    task();
  }
  CSI_COUNTER_INC("csi_threadpool_tasks_total");
}

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  workers_.reserve(static_cast<size_t>(std::max(num_workers, 0)));
  try {
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  } catch (...) {
    // A thread failed to start. No destructor runs, and a joinable
    // std::thread left in workers_ would terminate the process on unwind.
    StopAndJoin();
    throw;
  }
}

ThreadPool::~ThreadPool() { StopAndJoin(); }

void ThreadPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Post(std::function<void()> task) {
  if (workers_.empty()) {
    RunTimedTask(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    CSI_GAUGE_SET("csi_threadpool_queue_depth", queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      CSI_GAUGE_SET("csi_threadpool_queue_depth", queue_.size());
    }
    RunTimedTask(task);
  }
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
    CSI_GAUGE_SET("csi_threadpool_queue_depth", queue_.size());
  }
  RunTimedTask(task);
  return true;
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  // Shared per-call state: a claim counter, first-exception capture, and the
  // helper completion count the caller blocks on.
  struct LoopState {
    std::atomic<int64_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t unfinished = 0;
    std::exception_ptr err;
  };
  auto state = std::make_shared<LoopState>();
  auto drain = [state, n, &fn]() {
    while (!state->abort.load(std::memory_order_relaxed)) {
      const int64_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->err) {
          state->err = std::current_exception();
        }
        state->abort.store(true, std::memory_order_relaxed);
      }
    }
  };
  // Trace-context propagation: the caller opens a flow ('s'); every helper
  // that actually runs binds to it with a step ('t') inside its own task
  // span, so the fanned-out work nests under this loop in the trace viewer.
  // The caller closes the flow ('f') after the join.
  uint64_t flow = 0;
  if (trace::Enabled()) {
    flow = trace::NewFlowId();
    trace::EmitBegin("parallel_for", "pool", {{"n", n}});
    trace::EmitFlow('s', "parallel_for", flow);
  }
  // Helpers never outnumber the remaining iterations; a helper that starts
  // after the loop is drained exits immediately.
  const int64_t helpers = std::min<int64_t>(num_workers(), n - 1);
  state->unfinished = helpers;
  for (int64_t h = 0; h < helpers; ++h) {
    Post([state, drain, flow]() {
      {
        const bool traced = flow != 0 && trace::Enabled();
        if (traced) {
          trace::EmitBegin("parallel_for_worker", "pool");
          trace::EmitFlow('t', "parallel_for", flow);
        }
        drain();
        if (traced) {
          trace::EmitEnd("parallel_for_worker", "pool");
        }
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->unfinished == 0) {
        state->done_cv.notify_all();
      }
    });
  }
  drain();  // the calling thread does its share (possibly all of it)
  // Help-while-waiting: a helper we posted may still sit in the queue behind
  // other work — or *be* other work's helper under nesting. Blocking on it
  // without draining the queue deadlocks once every thread waits this way, so
  // the caller keeps executing queued tasks until its own helpers finish.
  // Sleeping is safe only when the queue is empty: then all unfinished
  // helpers are already running on workers that make progress the same way.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->unfinished == 0) {
        break;
      }
    }
    if (!RunOneTask()) {
      std::unique_lock<std::mutex> lock(state->mu);
      state->done_cv.wait(lock, [&]() { return state->unfinished == 0; });
      break;
    }
  }
  if (flow != 0 && trace::Enabled()) {
    trace::EmitFlow('f', "parallel_for", flow);
    trace::EmitEnd("parallel_for", "pool");
  }
  if (state->err) {
    std::rethrow_exception(state->err);
  }
}

void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn) {
  if (pool == nullptr || pool->num_workers() == 0) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace csi
