// In-memory span recorder for the traced run.
//
// A span is one call the benchmark makes into a layer of the library:
// its name, start, end, thread, and parent — the enclosing benchmark span
// on the same thread. Spans are kept in memory and written as Chrome
// trace_event JSON at exit. Distance calls are far too many to record one by one
// (millions per run); the Metric decorator charges their time to the
// innermost open span of the calling thread instead (Span::dist_nanos).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  /// 0 = a root span.
  uint64_t parent = 0;
  /// Must outlive the recorder (a string literal).
  const char* name = "";
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Time of the distance calls made directly inside this span (not
  /// inside a child span), and their number.
  int64_t dist_nanos = 0;
  uint64_t dist_calls = 0;
  /// One numeric argument (e.g. the batch size), exported to the trace.
  double arg = 0.0;
};

/// Monotonic nanoseconds (steady clock).
int64_t NowNanos();

/// Thread-safe span store.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NextId();
  void Record(const Span& span);
  /// Copy of everything recorded so far.
  std::vector<Span> Spans() const;
  size_t size() const;
  /// Chrome trace_event JSON ("X" events; parent and arg in "args").
  std::string ChromeTraceJson() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span. Its parent is the innermost ScopedSpan open on this thread.
/// While open it is the thread's innermost span, so distance calls on this
/// thread are charged to it. A null recorder (the untraced run) records
/// nothing and costs a branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  int64_t start_ns() const { return span_.start_ns; }
  void set_arg(double arg) { span_.arg = arg; }

  /// Charges one distance call to the calling thread's innermost open
  /// span; returns false when no span is open on this thread.
  static bool ChargeDistance(int64_t nanos);

 private:
  SpanRecorder* recorder_;
  Span span_;
  ScopedSpan* outer_ = nullptr;
};

/// Per-span self time: duration minus the part of the interval covered by
/// its children (their union, clipped to the parent; children may overlap
/// each other and run past the parent) and minus its charged distance
/// time. Keyed by span id.
std::unordered_map<uint64_t, int64_t> SelfNanos(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
