// Structured event tracing: per-thread ring buffers of begin/end/instant/flow
// events collected by a process-wide TraceSession and exported as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Contract, mirroring the telemetry conventions (telemetry.h):
//   1. Tracing must never change what the pipeline computes. Events are
//      write-only from the instrumented code's point of view; inference
//      output is byte-identical tracing-on vs tracing-off (covered by
//      tracing_test).
//   2. Off is the default and nearly free: every instrumentation site
//      reduces to one relaxed load and a branch while no session is active.
//      Stage spans come from CSI_SPAN (telemetry.h), which feeds the stage
//      histogram and this ring under one name; this header adds instants
//      and flows.
//   3. Bounded memory: each thread owns a fixed-capacity ring and overwrites
//      its own oldest events; a runaway stage can never grow the trace
//      without limit. Writers never contend with each other — each thread
//      appends only to its own buffer; a collector (export or flight dump)
//      briefly takes the per-thread buffer lock, which is otherwise
//      uncontended on the hot path.
//
// Two session modes:
//   * kFull   — large rings, exported to --trace-out at end of run.
//   * kFlight — small rings acting as a post-mortem flight recorder: when a
//     trace analysis throws, the last N events per thread plus a telemetry
//     snapshot and the error are dumped to the configured file
//     (DumpFlightRecord), wired into BatchAnalyzer's trace_errors path.
//
// Cross-thread causality uses Chrome flow events: ParallelFor emits a flow
// 's' (start) on the calling thread and every participating worker emits a
// 't' (step) bound to the same flow id inside its task span, so fanned-out
// work nests under its logical parent in the viewer. Background compaction
// propagates the same way across ThreadPool::Submit.

#ifndef CSI_SRC_COMMON_TRACING_H_
#define CSI_SRC_COMMON_TRACING_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace csi::trace {

// True while a TraceSession is active. One relaxed load; every
// instrumentation helper checks it first.
bool Enabled();

enum class Mode {
  kFull,    // big rings, export at end of run
  kFlight,  // small rings, dump on analysis failure
};

// One typed argument attached to an event. Keys and string values must be
// string literals (or otherwise outlive the session): the ring stores only
// the pointer, never a copy — that is what keeps a record cheap enough for
// query-level events.
struct TraceArg {
  enum class Kind : uint8_t { kNone = 0, kInt, kDouble, kString };

  TraceArg() = default;
  TraceArg(const char* k, int64_t v) : key(k), kind(Kind::kInt), int_value(v) {}
  TraceArg(const char* k, int v)
      : key(k), kind(Kind::kInt), int_value(static_cast<int64_t>(v)) {}
  TraceArg(const char* k, uint64_t v)
      : key(k), kind(Kind::kInt), int_value(static_cast<int64_t>(v)) {}
  TraceArg(const char* k, double v) : key(k), kind(Kind::kDouble), double_value(v) {}
  TraceArg(const char* k, const char* v)
      : key(k), kind(Kind::kString), string_value(v) {}

  const char* key = nullptr;
  Kind kind = Kind::kNone;
  int64_t int_value = 0;
  double double_value = 0.0;
  const char* string_value = nullptr;
};

inline constexpr int kMaxTraceArgs = 4;

// One recorded event. `name` and `category` must be string literals (see
// TraceArg). Phases follow the Chrome trace-event format: 'B'/'E' duration
// begin/end, 'i' instant, 's'/'t'/'f' flow start/step/end.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'i';
  int32_t tid = 0;
  int64_t ts_ns = 0;       // nanoseconds since session start
  uint64_t seq = 0;        // per-thread emission order (ties on ts_ns)
  uint64_t flow_id = 0;    // nonzero for 's'/'t'/'f' phases
  uint8_t num_args = 0;
  TraceArg args[kMaxTraceArgs];
};

struct SessionOptions {
  Mode mode = Mode::kFull;
  // Events retained per thread. 0 picks the mode default (32768 full,
  // 4096 flight). Rounded up to a power of two.
  size_t ring_capacity = 0;
  // Flight-recorder dump target. Only the first failure of a session dumps
  // (post-mortems want the original fault, not the last of a cascade).
  std::string flight_dump_path;
};

// Process-wide trace session. Start/Stop are the runtime on/off switch;
// collection and export may happen after Stop (rings survive until the next
// Start). All methods are thread-safe.
class TraceSession {
 public:
  static TraceSession& Global();

  // Clears all rings, applies options, enables recording. Restarting an
  // active session is allowed and starts a fresh trace.
  void Start(const SessionOptions& options);
  void Stop();

  bool active() const;
  Mode mode() const;

  // Snapshot of every thread's ring (oldest first per thread), merged and
  // sorted by (ts_ns, tid, seq). Safe while threads keep recording; each
  // ring is copied under its own lock.
  std::vector<TraceEvent> Collect() const;

  // Events overwritten so far across all rings (ring-buffer drop count).
  uint64_t dropped_events() const;

  // Chrome trace-event JSON, object form: {"traceEvents":[...]}.
  std::string ExportChromeTrace() const;
  bool ExportChromeTrace(const std::string& path, std::string* error) const;

  // Flight-recorder dump: writes {"context","error","droppedEvents",
  // "traceEvents","metrics"} to the configured flight_dump_path. Returns
  // false (without touching the filesystem) unless an active flight-mode
  // session with a dump path exists and this is the session's first dump.
  bool DumpFlightRecord(const std::string& context, const std::string& error);
};

// Pure exporter over an explicit event list — the deterministic core of
// TraceSession::ExportChromeTrace, exposed for golden tests.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

// Allocates a process-unique nonzero flow id.
uint64_t NewFlowId();

// --- Low-level emission (all no-ops while !Enabled()) -----------------------

// Records a fully specified event into the calling thread's ring, stamping
// tid/ts_ns/seq (ts_ns only if the event's ts_ns is 0 — tests pass explicit
// timestamps for deterministic exports).
void Emit(TraceEvent event);

void EmitBegin(const char* name, const char* category,
               std::initializer_list<TraceArg> args = {});
void EmitEnd(const char* name, const char* category);
void EmitInstant(const char* name, const char* category,
                 std::initializer_list<TraceArg> args = {});
// Flow phases: 's' on the producing thread, 't' on each consuming thread,
// 'f' when the logical operation completes.
void EmitFlow(char phase, const char* name, uint64_t flow_id);

}  // namespace csi::trace

// Instant event with args, e.g.
//   CSI_TRACE_INSTANT("group_cache", "cache", {"outcome", "hit"});
#define CSI_TRACE_INSTANT(name, category, ...) \
  ::csi::trace::EmitInstant((name), (category), {__VA_ARGS__})

#endif  // CSI_SRC_COMMON_TRACING_H_
