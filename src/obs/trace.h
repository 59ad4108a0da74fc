#ifndef TGRAPH_OBS_TRACE_H_
#define TGRAPH_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tgraph::obs {

class QueryTrace;

/// \brief One completed span: a named, timed section of one thread's
/// execution, with its position in the per-thread nesting tree.
///
/// Timestamps are steady-clock microseconds relative to the tracer's epoch
/// (process start), matching the Chrome trace_event "ts"/"dur" convention.
struct SpanEvent {
  std::string name;
  const char* category;  ///< Static string ("dataflow", "zoom", ...).
  int64_t start_us;
  int64_t duration_us;
  uint32_t tid;       ///< Dense per-thread id, assigned at first span.
  uint64_t id;        ///< Process-unique span id (never 0).
  uint64_t parent_id; ///< 0 when the span is a thread-level root.
  uint64_t query_id;  ///< Owning query (0 = outside any query context).
};

// --- query contexts --------------------------------------------------------
//
// Every query (a tgraphd request, a `tgz query` run) gets a process-unique
// 64-bit id and a sampling decision. The context is a thread-local that
// ExecutionContext::ParallelFor snapshots into its worker tasks, so every
// span a query causes — pipeline stages, shuffles, Pregel supersteps, zoom
// operators, store loads, cache lookups — carries the owning query id and,
// when the query is sampled, is additionally collected into the query's own
// QueryTrace buffer for on-demand export (`tgz query --trace`).
//
// Sampling also *gates* the global tracer for served traffic: when a query
// context is active and the query was not sampled, spans are suppressed
// even if the process-wide tracer is enabled, which is what keeps
// always-on tracing affordable at traffic (TGRAPH_TRACE_SAMPLE).
//
// The context also carries the query's counter block (QueryCounters), the
// one mechanism that attributes work to a query: every attributed
// increment (AddQueryCounter) lands in the process-global counter and in
// the block of the query whose context is installed, on whichever thread
// the work ran. The block pointer does not affect span recording.

/// Copyable snapshot of a query's identity, shipped across threads.
struct QueryContext {
  uint64_t query_id = 0;      ///< 0 = no query context.
  QueryTrace* trace = nullptr; ///< Non-null iff the query is sampled.
  /// Span to nest under when this context is installed on another thread
  /// (the innermost open span of the capturing thread).
  uint64_t parent_span = 0;
  /// The query's counter block (not owned); null = none installed.
  QueryCounters* counters = nullptr;
};

namespace internal {
/// The thread-local slot behind CurrentQueryContext() (defined in
/// trace.cc). Treat as private.
struct QueryContextTls {
  uint64_t query_id = 0;
  QueryTrace* trace = nullptr;
  uint64_t parent_span = 0;
  QueryCounters* counters = nullptr;
};
}  // namespace internal

/// This thread's active query context (query_id 0 when none).
QueryContext CurrentQueryContext();

/// Snapshot of the current context for cross-thread propagation: like
/// CurrentQueryContext() but with parent_span set to this thread's
/// innermost open span, so spans recorded by the receiving thread nest
/// under the capturing scope in per-query traces.
QueryContext CaptureQueryContext();

/// Installs a query context on this thread for the current scope,
/// restoring the previous one on destruction. Used at query entry (the
/// server request handler, the CLI) and inside every ParallelFor task.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext& context);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  internal::QueryContextTls saved_;
};

/// Adds `delta` to `counter`'s process-global twin and, when this thread
/// has a query counter block installed, to the query's field: the single
/// increment every attributed site makes, so /metrics and the query's own
/// report count the same work.
void AddQueryCounter(QueryCounter counter, int64_t delta);

/// \brief Measures the attributed work of one scope: how far this
/// thread's query counter block moved between construction and Delta().
/// When no block is installed (a library caller, `tgz query` in local
/// mode), installs a private one for the scope's lifetime. Only the block
/// pointer changes, so the query id, sampling and span recording stay as
/// they were.
class QueryCounterScope {
 public:
  QueryCounterScope();
  ~QueryCounterScope();

  QueryCounterScope(const QueryCounterScope&) = delete;
  QueryCounterScope& operator=(const QueryCounterScope&) = delete;

  QueryCounterValues Delta() const { return block_->Snapshot() - start_; }

 private:
  QueryCounters own_;
  QueryCounters* block_;
  QueryCounterValues start_;
};

/// Process-unique, never-zero query id.
uint64_t NextQueryId();

/// The TGRAPH_TRACE_SAMPLE sampling rate in [0, 1] (default 0: queries are
/// traced only on demand). Parsed once per process.
double TraceSampleRate();

/// Deterministic per-query sampling decision: true for a `rate` fraction
/// of query ids (rate >= 1 always samples, rate <= 0 never).
bool SampleQuery(uint64_t query_id, double rate);

/// \brief Span buffer owned by one sampled query: every span recorded
/// anywhere in the process while that query's context is installed lands
/// here, so a query's trace can be exported the moment it finishes without
/// quiescing the rest of the server. Thread-safe (ParallelFor workers
/// record concurrently).
class QueryTrace {
 public:
  explicit QueryTrace(uint64_t query_id) : query_id_(query_id) {}

  uint64_t query_id() const { return query_id_; }

  void Record(SpanEvent event);
  size_t size() const;

  /// All spans recorded so far, ordered by (tid, start_us).
  std::vector<SpanEvent> Events() const;

  /// Chrome trace_event JSON for this query only; span args carry the
  /// query id and the span/parent ids, so nesting survives the export.
  std::string ToChromeTraceJson() const;

 private:
  uint64_t query_id_;
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
};

/// Chrome trace_event JSON ({"traceEvents": [...]}) for a span list.
std::string ChromeTraceJson(const std::vector<SpanEvent>& events);

/// \brief Process-global span collector with Chrome trace_event export.
///
/// Spans are recorded into per-thread buffers: when tracing is disabled
/// and no sampled query context is active (the default) a Span costs two
/// relaxed loads and a branch; when enabled, one steady_clock read at
/// entry and a locked push_back at exit. Each buffer has its own mutex,
/// taken only at span end and during export, so Events()/Clear() are safe
/// to call at any time — including while worker threads are still
/// recording (the guarantee tgzd's SIGTERM drain relies on: no span that
/// ended before the export call can be dropped). Spans still *open* at
/// export time are not included (they have no duration yet).
class Tracer {
 public:
  /// The singleton used by all instrumentation. Never destroyed.
  static Tracer& Global();

  void Enable() { enabled_flag_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_flag_.store(false, std::memory_order_relaxed); }

  /// Whether the process-wide tracer collects spans.
  static bool enabled() {
    return enabled_flag_.load(std::memory_order_relaxed);
  }

  /// The guard every instrumentation site checks before doing any work:
  /// a sampled query records always; an unsampled query records never
  /// (even with the global tracer on); outside any query the global
  /// enable flag decides.
  /// Out of line so only trace.cc touches the thread-local: elsewhere the
  /// linker relaxes its access (add -> lea) under UBSan's null check, which
  /// then reads stale flags and reports a false null reference.
  static bool ShouldRecord();

  /// Drops all collected events; thread buffers stay registered.
  void Clear();

  /// Number of events collected so far.
  size_t EventCount() const;

  /// All collected events, ordered by (tid, start_us).
  std::vector<SpanEvent> Events() const;

  /// Chrome trace_event JSON: {"traceEvents": [{"ph":"X", ...}, ...]}.
  /// Loadable in chrome://tracing or https://ui.perfetto.dev.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Plain-text hierarchical summary: spans aggregated by call path
  /// (parent chain of names), indented by depth, children ordered by
  /// total wall time. One line per path: count, total, mean.
  std::string Summary() const;

  /// The innermost open span on this thread (0 if none) — the nesting
  /// parent a cross-thread context capture hands to worker tasks.
  uint64_t OpenSpanOnThisThread() const;

  /// Microseconds since the tracer epoch (steady clock).
  static int64_t NowMicros();

 private:
  friend class Span;
  struct ThreadBuffer {
    std::mutex mu;  ///< Guards `events` against concurrent export.
    std::vector<SpanEvent> events;
    uint32_t tid = 0;
    uint64_t open_parent = 0;  ///< id of the innermost open span.
  };

  Tracer() = default;

  /// This thread's buffer, registering it on first use.
  ThreadBuffer* BufferForThisThread();

  static std::atomic<bool> enabled_flag_;

  mutable std::mutex mu_;  ///< Guards `buffers_` registration/iteration.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  uint32_t next_tid_ = 1;
};

/// \brief RAII scoped span recording into the global tracer and/or the
/// active query's trace buffer (see Tracer::ShouldRecord).
///
/// Pass a string literal (or otherwise long-lived char array) for the
/// cheap path; the std::string overload exists for dynamic names and only
/// pays its construction when the caller already built the string.
class Span {
 public:
  explicit Span(const char* name, const char* category = "tgraph") {
    if (!Tracer::ShouldRecord()) return;
    Begin(name, category);
  }
  Span(std::string name, const char* category = "tgraph") {
    if (!Tracer::ShouldRecord()) return;
    Begin(std::move(name), category);
  }
  ~Span() {
    if (active_) End();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(std::string name, const char* category);
  void End();

  bool active_ = false;
  bool record_global_ = false;
  std::string name_;
  const char* category_ = nullptr;
  int64_t start_us_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;       ///< Parent recorded in the event.
  uint64_t restore_parent_ = 0;  ///< Buffer open_parent to restore at end.
  uint64_t query_id_ = 0;
  QueryTrace* query_trace_ = nullptr;
  Tracer::ThreadBuffer* buffer_ = nullptr;
};

#define TG_SPAN_CONCAT_INNER(a, b) a##b
#define TG_SPAN_CONCAT(a, b) TG_SPAN_CONCAT_INNER(a, b)
/// Declares an anonymous scoped span: TG_SPAN("name", "category").
#define TG_SPAN(...) \
  ::tgraph::obs::Span TG_SPAN_CONCAT(_tg_span_, __LINE__)(__VA_ARGS__)

}  // namespace tgraph::obs

#endif  // TGRAPH_OBS_TRACE_H_
