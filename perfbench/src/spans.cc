#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace perfbench {
namespace {

thread_local ScopedSpan* innermost = nullptr;

/// Small dense id of the calling thread, for the trace's "tid".
uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanRecorder::ChromeTraceJson() const {
  const std::vector<Span> spans = Spans();
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"dist_us\":%.3f,\"dist_calls\":%" PRIu64
                  ",\"arg\":%.17g}}",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, static_cast<double>(s.dist_nanos) / 1e3,
                  s.dist_calls, s.arg);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && written == json.size();
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.id = recorder_->NextId();
  span_.parent = innermost != nullptr ? innermost->id() : 0;
  span_.name = name;
  span_.tid = ThreadId();
  outer_ = innermost;
  innermost = this;
  span_.start_ns = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = NowNanos();
  innermost = outer_;
  recorder_->Record(span_);
}

bool ScopedSpan::ChargeDistance(int64_t nanos) {
  if (innermost == nullptr) return false;
  innermost->span_.dist_nanos += nanos;
  ++innermost->span_.dist_calls;
  return true;
}

std::unordered_map<uint64_t, int64_t> SelfNanos(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::unordered_map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cursor = s.start_ns;  // everything before it is counted
      for (const auto& [lo, hi] : iv) {
        const int64_t a = std::max(lo, cursor);
        const int64_t b = std::min(hi, s.end_ns);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
    }
    self[s.id] = s.end_ns - s.start_ns - covered - s.dist_nanos;
  }
  return self;
}

}  // namespace perfbench
