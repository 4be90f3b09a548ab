// Micro-benchmarks of the observability layer (google-benchmark): the
// lock-free instrument hot paths, the disabled-tracer span cost, and —
// the acceptance check of the layer — ExecuteAll with a null sink vs. the
// default registry sink vs. full tracing. The null-sink row must match
// pre-instrumentation engine cost (the sink is a per-call pointer check
// plus instruments resolved once at construction, nothing per object).

#include <benchmark/benchmark.h>

#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace msq {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram hist(obs::LatencyBoundariesMicros());
  double v = 0.5;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1e6 ? v * 1.7 : 0.5;  // sweep across buckets
  }
  benchmark::DoNotOptimize(hist.Count());
}
BENCHMARK(BM_HistogramObserve);

void BM_SlidingWindowObserve(benchmark::State& state) {
  obs::SlidingWindowHistogram hist(obs::LatencyBoundariesMicros(),
                                   std::chrono::seconds(10));
  double v = 0.5;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1e6 ? v * 1.7 : 0.5;  // sweep across buckets
  }
  benchmark::DoNotOptimize(hist.Snap().count);
}
BENCHMARK(BM_SlidingWindowObserve);

void BM_ScopedSpanDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // disabled by default
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "bench.span", "bench");
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_ScopedSpanDisabled);

/// ExecuteAll over a small astronomy-like dataset under the sink
/// configurations. sink: 0 = nullptr (no-op; must match the
/// pre-instrumentation engine cost — per-page attribution timers are gated
/// behind a non-null sink, so this row also re-verifies zero overhead with
/// attribution code compiled in), 1 = default registry with latency
/// attribution, 2 = registry + enabled tracer.
void BM_ExecuteAllSink(benchmark::State& state) {
  const int sink_mode = static_cast<int>(state.range(0));
  TychoLikeOptions gen;
  gen.n = 4000;
  gen.seed = 3;
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.multi.metrics =
      sink_mode == 0 ? nullptr : obs::MetricsSink::Default();
  auto db = MetricDatabase::Open(MakeTychoLikeDataset(gen),
                                 std::make_shared<EuclideanMetric>(), options);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  if (sink_mode == 2) obs::Tracer::Global()->Enable();

  const size_t m = 32;
  for (auto _ : state) {
    state.PauseTiming();
    (*db)->ResetAll();
    std::vector<Query> batch;
    batch.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      batch.push_back((*db)->MakeObjectKnnQuery(
          static_cast<ObjectId>(i * 97 % gen.n), 10));
    }
    state.ResumeTiming();
    auto got = (*db)->MultipleSimilarityQueryAll(batch);
    benchmark::DoNotOptimize(got);
  }
  if (sink_mode == 2) {
    obs::Tracer::Global()->Disable();
    obs::Tracer::Global()->Clear();
  }
  static const char* const kLabels[] = {"sink=null", "sink=registry attr=on",
                                        "sink=registry+trace"};
  state.SetLabel(kLabels[sink_mode]);
}
BENCHMARK(BM_ExecuteAllSink)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace msq

BENCHMARK_MAIN();
