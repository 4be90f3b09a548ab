#include "report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

/// Written in place of a non-finite value: a percentile that landed on a
/// shed or failed request is above every limit.
constexpr double kMissedReported = 1e12;

/// 1-based rank of the p-th percentile of n samples (nearest rank).
size_t Rank(size_t n, double p) {
  const double exact = std::clamp(p, 0.0, 100.0) / 100.0 *
                       static_cast<double>(n);
  // 0.999 * 1000 is 999.0000000000001 in floating point: a rank within
  // 1e-9 of an integer is that integer.
  const double rounded = std::round(exact);
  const double rank =
      std::abs(exact - rounded) < 1e-9 ? rounded : std::ceil(exact);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

struct Spec {
  const char* name;
  const char* unit;
};

// Kept in the order of BENCHMARK.json; run.py checks both agree.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},  {"throughput_qps", "1/s"},
    {"reopen_s", "s"},       {"space_amp", "ratio"},  {"write_amp", "ratio"},
};

constexpr Spec kPerLayer[] = {
    {"service.batch_size_mean", "queries"},
    {"service.batch_size_mean.r1600", "queries"},
    {"service.batch_size_mean.r3200", "queries"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.queue_wait_ms_p99.r1600", "ms"},
    {"service.submit_us_p50", "us"},
    {"service.pending_max", "count"},
    {"service.deadline_flush_frac", "ratio"},
    {"service.coalesced_frac", "ratio"},
    {"service.shed_frac", "ratio"},
    {"parallel.batch_ms_p50", "ms"},
    {"parallel.batch_ms_p99", "ms"},
    {"parallel.busy_frac", "ratio"},
    {"parallel.busy_frac.r3200", "ratio"},
    {"parallel.server_skew", "ratio"},
    {"parallel.retries", "count"},
    {"parallel.failovers", "count"},
    {"core.batch_ms_p50", "ms"},
    {"core.self_ms_per_query", "ms"},
    {"core.dists_per_query", "count"},
    {"core.matrix_dists_per_batch", "count"},
    {"core.triangle_tries_per_query", "count"},
    {"core.triangle_avoid_ratio", "ratio"},
    {"core.pivot_tries_per_query", "count"},
    {"core.pivot_avoid_ratio", "ratio"},
    {"core.speculative_ratio", "ratio"},
    {"core.delta_objects_mean", "count"},
    {"core.tombstones_mean", "count"},
    {"core.modeled_over_measured", "ratio"},
    {"dist.ns_per_distance", "ns"},
    {"dist.rows_per_call", "count"},
    {"dist.share", "ratio"},
    {"storage.pages_per_query", "count"},
    {"storage.buffer_hit_ratio", "ratio"},
    {"storage.preads_per_query", "count"},
    {"storage.pread_kib_per_query", "KiB"},
    {"storage.checkpoints", "count"},
    {"storage.checkpoint_ms_p50", "ms"},
    {"storage.wal_bytes_per_write", "B"},
    {"storage.replayed_records", "count"},
    {"trace.spans", "count"},
};

template <size_t N>
Result Template(const Spec (&specs)[N]) {
  Result r;
  for (const Spec& s : specs) r.metrics.push_back({s.name, 0.0, s.unit});
  return r;
}

double Reported(double v) { return std::isfinite(v) ? v : kMissedReported; }

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = Rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

bool SupportsPercentile(size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

void Result::Set(const std::string& name, double value) {
  for (MetricValue& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

void Result::Extra(const std::string& name, double value,
                   const std::string& unit) {
  extras.push_back({name, value, unit});
}

Result EndToEndTemplate() { return Template(kEndToEnd); }
Result PerLayerTemplate() { return Template(kPerLayer); }

void PrintReport(std::FILE* out, const Result& result) {
  for (const MetricValue& m : result.metrics) {
    std::fprintf(out, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const MetricValue& m : result.extras) {
    std::fprintf(out, "  %-34s %16.6f %s  (not gated)\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::fprintf(out, "  %-34s %16" PRIu64 " / %" PRIu64 "  correct=%s\n",
               "failed / attempted", result.failed, result.attempted,
               result.correct ? "true" : "false");
}

std::string ResultJson(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const MetricValue& m = result.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", Reported(m.value));
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
