#include "src/common/tracing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>

#include "src/common/telemetry.h"

namespace csi::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_flow_id{1};

constexpr size_t kDefaultFullCapacity = 32768;
constexpr size_t kDefaultFlightCapacity = 4096;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// One thread's ring. The owning thread appends under `mu`; the lock is
// uncontended except while a collector copies the ring out. `head` counts
// total writes, so `head - size-in-ring` is the drop count and the head
// value doubles as the per-thread sequence number.
struct ThreadLog {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  size_t capacity = 0;  // power of two
  uint64_t head = 0;
  int32_t tid = 0;
};

struct SessionState {
  std::mutex mu;  // guards everything below plus ring (re)configuration
  std::vector<std::shared_ptr<ThreadLog>> logs;
  int32_t next_tid = 1;
  Mode mode = Mode::kFull;
  size_t capacity = kDefaultFullCapacity;
  std::string flight_dump_path;
  // Session start on the steady clock, in ns. Atomic because Emit() reads it
  // without taking the session mutex.
  std::atomic<int64_t> base_ns{0};
  std::atomic<bool> flight_dumped{false};
};

SessionState& State() {
  static SessionState* state = new SessionState();
  return *state;
}

ThreadLog& LocalLog() {
  thread_local std::shared_ptr<ThreadLog> log = []() {
    auto created = std::make_shared<ThreadLog>();
    SessionState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    created->tid = state.next_tid++;
    created->capacity = state.capacity;
    created->ring.resize(created->capacity);
    state.logs.push_back(created);
    return created;
  }();
  return *log;
}

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  AppendJsonEscaped(out, s.c_str());
}

// Chrome trace ts is in microseconds; keep nanosecond precision as a fixed
// three-decimal fraction so exports are deterministic (no float formatting).
void AppendTimestampUs(std::string* out, int64_t ts_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ts_ns / 1000,
                ts_ns % 1000);
  out->append(buf);
}

void AppendArgValue(std::string* out, const TraceArg& arg) {
  char buf[40];
  switch (arg.kind) {
    case TraceArg::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, arg.int_value);
      out->append(buf);
      break;
    case TraceArg::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.9g", arg.double_value);
      out->append(buf);
      break;
    case TraceArg::Kind::kString:
      out->push_back('"');
      AppendJsonEscaped(out, arg.string_value != nullptr ? arg.string_value : "");
      out->append("\"");
      break;
    case TraceArg::Kind::kNone:
      out->append("null");
      break;
  }
}

void AppendEventJson(std::string* out, const TraceEvent& e) {
  out->append("{\"name\":\"");
  AppendJsonEscaped(out, e.name != nullptr ? e.name : "");
  out->append("\",\"cat\":\"");
  AppendJsonEscaped(out, e.category != nullptr ? e.category : "csi");
  out->append("\",\"ph\":\"");
  out->push_back(e.phase);
  out->append("\",\"ts\":");
  AppendTimestampUs(out, e.ts_ns);
  out->append(",\"pid\":1,\"tid\":");
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", e.tid);
  out->append(buf);
  if (e.flow_id != 0) {
    char idbuf[32];
    std::snprintf(idbuf, sizeof(idbuf), ",\"id\":%" PRIu64, e.flow_id);
    out->append(idbuf);
  }
  if (e.num_args > 0) {
    out->append(",\"args\":{");
    for (int i = 0; i < e.num_args; ++i) {
      if (i > 0) {
        out->push_back(',');
      }
      out->push_back('"');
      AppendJsonEscaped(out, e.args[i].key != nullptr ? e.args[i].key : "");
      out->append("\":");
      AppendArgValue(out, e.args[i]);
    }
    out->push_back('}');
  }
  out->push_back('}');
}

void AppendEventArray(std::string* out, const std::vector<TraceEvent>& events) {
  out->push_back('[');
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      out->append(",\n");
    }
    AppendEventJson(out, events[i]);
  }
  out->push_back(']');
}

bool WriteStringToFile(const std::string& path, const std::string& contents,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = written == contents.size() && std::fclose(f) == 0;
  if (!ok && error != nullptr) {
    *error = "short write to " + path;
  }
  return ok;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NewFlowId() {
  return g_next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

TraceSession& TraceSession::Global() {
  static TraceSession* session = new TraceSession();
  return *session;
}

void TraceSession::Start(const SessionOptions& options) {
  SessionState& state = State();
  // Disable while reconfiguring so no writer appends into a ring that is
  // being resized; writers re-check Enabled() per event.
  g_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state.mu);
  state.mode = options.mode;
  size_t capacity = options.ring_capacity;
  if (capacity == 0) {
    capacity = options.mode == Mode::kFlight ? kDefaultFlightCapacity
                                             : kDefaultFullCapacity;
  }
  state.capacity = RoundUpPow2(capacity);
  state.flight_dump_path = options.flight_dump_path;
  state.flight_dumped.store(false, std::memory_order_relaxed);
  state.base_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count(),
                      std::memory_order_relaxed);
  for (const auto& log : state.logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    log->capacity = state.capacity;
    log->ring.assign(log->capacity, TraceEvent{});
    log->head = 0;
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void TraceSession::Stop() { g_enabled.store(false, std::memory_order_relaxed); }

bool TraceSession::active() const { return Enabled(); }

Mode TraceSession::mode() const {
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.mode;
}

std::vector<TraceEvent> TraceSession::Collect() const {
  SessionState& state = State();
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    logs = state.logs;
  }
  std::vector<TraceEvent> events;
  for (const auto& log : logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    const uint64_t count = std::min<uint64_t>(log->head, log->capacity);
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t index = log->head - count + i;
      events.push_back(log->ring[index & (log->capacity - 1)]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) {
                return a.ts_ns < b.ts_ns;
              }
              if (a.tid != b.tid) {
                return a.tid < b.tid;
              }
              return a.seq < b.seq;
            });
  return events;
}

uint64_t TraceSession::dropped_events() const {
  SessionState& state = State();
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    logs = state.logs;
  }
  uint64_t dropped = 0;
  for (const auto& log : logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    if (log->head > log->capacity) {
      dropped += log->head - log->capacity;
    }
  }
  return dropped;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out.append("{\"traceEvents\":");
  AppendEventArray(&out, events);
  out.append("}\n");
  return out;
}

std::string TraceSession::ExportChromeTrace() const {
  return ChromeTraceJson(Collect());
}

bool TraceSession::ExportChromeTrace(const std::string& path,
                                     std::string* error) const {
  return WriteStringToFile(path, ExportChromeTrace(), error);
}

bool TraceSession::DumpFlightRecord(const std::string& context,
                                    const std::string& error) {
  SessionState& state = State();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!Enabled() || state.mode != Mode::kFlight ||
        state.flight_dump_path.empty()) {
      return false;
    }
    // First failure wins: a cascade of failing traces must not overwrite the
    // post-mortem of the fault that started it.
    if (state.flight_dumped.exchange(true, std::memory_order_relaxed)) {
      return false;
    }
    path = state.flight_dump_path;
  }
  std::string out;
  out.append("{\"context\":\"");
  AppendJsonEscaped(&out, context);
  out.append("\",\"error\":\"");
  AppendJsonEscaped(&out, error);
  out.append("\",\"droppedEvents\":");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, dropped_events());
  out.append(buf);
  out.append(",\"traceEvents\":");
  AppendEventArray(&out, Collect());
  out.append(",\n\"metrics\":");
  out.append(telemetry::MetricsRegistry::Global().Snapshot().ToJson());
  out.append("}\n");
  return WriteStringToFile(path, out, nullptr);
}

void Emit(TraceEvent event) {
  if (!Enabled()) {
    return;
  }
  ThreadLog& log = LocalLog();
  if (event.ts_ns == 0) {
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
    event.ts_ns = now_ns - State().base_ns.load(std::memory_order_relaxed);
    if (event.ts_ns <= 0) {
      event.ts_ns = 1;  // keep "0 == stamp me" unambiguous
    }
  }
  std::lock_guard<std::mutex> lock(log.mu);
  if (log.capacity == 0) {
    return;  // Start() has not configured rings yet
  }
  event.tid = log.tid;
  event.seq = log.head;
  log.ring[log.head & (log.capacity - 1)] = event;
  ++log.head;
}

namespace {

void FillArgs(TraceEvent* event, std::initializer_list<TraceArg> args) {
  for (const TraceArg& arg : args) {
    if (event->num_args >= kMaxTraceArgs) {
      break;
    }
    event->args[event->num_args++] = arg;
  }
}

}  // namespace

void EmitBegin(const char* name, const char* category,
               std::initializer_list<TraceArg> args) {
  if (!Enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'B';
  FillArgs(&event, args);
  Emit(event);
}

void EmitEnd(const char* name, const char* category) {
  if (!Enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'E';
  Emit(event);
}

void EmitInstant(const char* name, const char* category,
                 std::initializer_list<TraceArg> args) {
  if (!Enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'i';
  FillArgs(&event, args);
  Emit(event);
}

void EmitFlow(char phase, const char* name, uint64_t flow_id) {
  if (!Enabled() || flow_id == 0) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = "flow";
  event.phase = phase;
  event.flow_id = flow_id;
  Emit(event);
}

}  // namespace csi::trace
