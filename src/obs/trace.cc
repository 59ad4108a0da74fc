#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace tgraph::obs {

std::atomic<bool> Tracer::enabled_flag_{false};

namespace internal {
thread_local QueryContextTls t_query_context;
}  // namespace internal

namespace {

std::chrono::steady_clock::time_point TracerEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_query_id{1};

/// JSON string escaping for span names (control chars, quotes, backslash).
void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

// --- query contexts --------------------------------------------------------

QueryContext CurrentQueryContext() {
  const internal::QueryContextTls& t = internal::t_query_context;
  return QueryContext{t.query_id, t.trace, t.parent_span, t.counters};
}

QueryContext CaptureQueryContext() {
  const internal::QueryContextTls& t = internal::t_query_context;
  return QueryContext{t.query_id, t.trace,
                      Tracer::Global().OpenSpanOnThisThread(), t.counters};
}

ScopedQueryContext::ScopedQueryContext(const QueryContext& context) {
  internal::QueryContextTls& t = internal::t_query_context;
  saved_ = t;
  t.query_id = context.query_id;
  t.trace = context.trace;
  t.parent_span = context.parent_span;
  t.counters = context.counters;
}

ScopedQueryContext::~ScopedQueryContext() {
  internal::t_query_context = saved_;
}

void AddQueryCounter(QueryCounter counter, int64_t delta) {
  // Registry pointers are stable for the process lifetime.
  static const std::array<Counter*, kNumQueryCounters> globals = [] {
    std::array<Counter*, kNumQueryCounters> out{};
    for (size_t i = 0; i < kNumQueryCounters; ++i) {
      out[i] = MetricsRegistry::Global().GetCounter(
          QueryCounterName(static_cast<QueryCounter>(i)));
    }
    return out;
  }();
  globals[static_cast<size_t>(counter)]->Add(delta);
  if (QueryCounters* block = internal::t_query_context.counters) {
    block->Add(counter, delta);
  }
}

QueryCounterScope::QueryCounterScope()
    : block_(internal::t_query_context.counters) {
  if (block_ == nullptr) {
    block_ = &own_;
    internal::t_query_context.counters = &own_;
  }
  start_ = block_->Snapshot();
}

QueryCounterScope::~QueryCounterScope() {
  if (block_ == &own_) internal::t_query_context.counters = nullptr;
}

uint64_t NextQueryId() {
  return g_next_query_id.fetch_add(1, std::memory_order_relaxed);
}

double TraceSampleRate() {
  static const double rate = [] {
    const char* env = std::getenv("TGRAPH_TRACE_SAMPLE");
    if (env == nullptr || *env == '\0') return 0.0;
    char* end = nullptr;
    double value = std::strtod(env, &end);
    if (end == env) return 0.0;
    return std::clamp(value, 0.0, 1.0);
  }();
  return rate;
}

bool SampleQuery(uint64_t query_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  // splitmix64 finalizer: decorrelates the sampling decision from the
  // sequential id allocation so rate=0.5 doesn't sample every other burst.
  uint64_t h = query_id + 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h = h ^ (h >> 31);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

// --- per-query traces ------------------------------------------------------

void QueryTrace::Record(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

size_t QueryTrace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<SpanEvent> QueryTrace::Events() const {
  std::vector<SpanEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all = events_;
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_us < b.start_us;
                   });
  return all;
}

std::string QueryTrace::ToChromeTraceJson() const {
  return ChromeTraceJson(Events());
}

std::string ChromeTraceJson(const std::vector<SpanEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, e.category);
    out += "\",\"ph\":\"X\",\"ts\":" + std::to_string(e.start_us) +
           ",\"dur\":" + std::to_string(e.duration_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"args\":{\"id\":" + std::to_string(e.id) +
           ",\"parent\":" + std::to_string(e.parent_id);
    if (e.query_id != 0) {
      char qid[32];
      std::snprintf(qid, sizeof(qid), "%016llx",
                    static_cast<unsigned long long>(e.query_id));
      out += ",\"qid\":\"";
      out += qid;
      out += "\"";
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

// --- global tracer ---------------------------------------------------------

int64_t Tracer::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TracerEpoch())
      .count();
}

bool Tracer::ShouldRecord() {
  const internal::QueryContextTls& q = internal::t_query_context;
  if (q.trace != nullptr) return true;
  if (!enabled()) return false;
  return q.query_id == 0;
}

Tracer& Tracer::Global() {
  // Establish the epoch before any span can observe a timestamp.
  TracerEpoch();
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer != nullptr) return t_buffer;
  auto buffer = std::make_unique<ThreadBuffer>();
  std::lock_guard<std::mutex> lock(mu_);
  buffer->tid = next_tid_++;
  t_buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return t_buffer;
}

uint64_t Tracer::OpenSpanOnThisThread() const {
  // Reading this thread's own slot: no lock needed (only this thread
  // writes open_parent).
  return const_cast<Tracer*>(this)->BufferForThisThread()->open_parent;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

size_t Tracer::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

std::vector<SpanEvent> Tracer::Events() const {
  std::vector<SpanEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_us < b.start_us;
                   });
  return all;
}

std::string Tracer::ToChromeTraceJson() const {
  return ChromeTraceJson(Events());
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json = ToChromeTraceJson();
  FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  bool ok = written == json.size();
  return std::fclose(file) == 0 && ok;
}

std::string Tracer::Summary() const {
  std::vector<SpanEvent> events = Events();
  // Resolve each event's call path by walking its parent chain. Parents
  // are always in the same thread's buffer (nesting is per-thread), and at
  // quiescence every parent has been recorded.
  std::map<std::pair<uint32_t, uint64_t>, const SpanEvent*> by_id;
  for (const SpanEvent& e : events) by_id[{e.tid, e.id}] = &e;

  struct Agg {
    int64_t count = 0;
    int64_t total_us = 0;
  };
  // Aggregate across threads by path so ParallelFor workers fold together.
  std::map<std::vector<std::string>, Agg> by_path;
  for (const SpanEvent& e : events) {
    std::vector<std::string> path;
    const SpanEvent* cur = &e;
    path.push_back(cur->name);
    while (cur->parent_id != 0) {
      auto it = by_id.find({cur->tid, cur->parent_id});
      if (it == by_id.end()) break;  // parent lost to a Clear(); treat as root
      cur = it->second;
      path.push_back(cur->name);
    }
    std::reverse(path.begin(), path.end());
    Agg& agg = by_path[path];
    agg.count += 1;
    agg.total_us += e.duration_us;
  }

  // Order siblings by total time descending, then render depth-first.
  std::vector<std::pair<std::vector<std::string>, Agg>> rows(by_path.begin(),
                                                             by_path.end());
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    // Lexicographic over (per-prefix rank): compare element-wise; ties on
    // shared prefixes keep parents before children.
    size_t n = std::min(a.first.size(), b.first.size());
    for (size_t i = 0; i < n; ++i) {
      if (a.first[i] != b.first[i]) {
        std::vector<std::string> pa(a.first.begin(), a.first.begin() + i + 1);
        std::vector<std::string> pb(b.first.begin(), b.first.begin() + i + 1);
        int64_t ta = by_path.count(pa) ? by_path.at(pa).total_us : 0;
        int64_t tb = by_path.count(pb) ? by_path.at(pb).total_us : 0;
        if (ta != tb) return ta > tb;
        return a.first[i] < b.first[i];
      }
    }
    return a.first.size() < b.first.size();
  });

  std::string out;
  char line[256];
  for (const auto& [path, agg] : rows) {
    std::string indent(2 * (path.size() - 1), ' ');
    std::snprintf(line, sizeof(line), "%s%-*s count=%-6lld total=%.3fms mean=%.3fms\n",
                  indent.c_str(),
                  static_cast<int>(std::max<size_t>(40 - indent.size(), 8)),
                  path.back().c_str(), static_cast<long long>(agg.count),
                  static_cast<double>(agg.total_us) / 1e3,
                  static_cast<double>(agg.total_us) / 1e3 /
                      static_cast<double>(agg.count));
    out += line;
  }
  return out;
}

void Span::Begin(std::string name, const char* category) {
  active_ = true;
  name_ = std::move(name);
  category_ = category;
  // Capture the destinations now: the query context may be swapped out
  // (scope ends on another frame) before this span ends, and the span
  // must land where it started.
  const internal::QueryContextTls& q = internal::t_query_context;
  query_id_ = q.query_id;
  query_trace_ = q.trace;
  record_global_ =
      Tracer::enabled() && (q.query_id == 0 || q.trace != nullptr);
  buffer_ = Tracer::Global().BufferForThisThread();
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  // At a thread root, adopt the context's cross-thread parent so worker
  // spans nest under the capturing scope; the buffer restore still uses
  // the buffer's own (thread-local) previous value.
  restore_parent_ = buffer_->open_parent;
  parent_id_ = restore_parent_ != 0 ? restore_parent_ : q.parent_span;
  buffer_->open_parent = id_;
  start_us_ = Tracer::NowMicros();
}

void Span::End() {
  int64_t end_us = Tracer::NowMicros();
  buffer_->open_parent = restore_parent_;
  SpanEvent event{std::move(name_), category_,   start_us_,
                  end_us - start_us_, buffer_->tid, id_,
                  parent_id_,         query_id_};
  if (query_trace_ != nullptr) query_trace_->Record(event);
  if (record_global_) {
    std::lock_guard<std::mutex> lock(buffer_->mu);
    buffer_->events.push_back(std::move(event));
  }
}

}  // namespace tgraph::obs
