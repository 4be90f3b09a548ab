// `serve`: online serving. Open-loop Poisson arrivals (src/load's
// arrival process, Zipf popularity and tenant mix) from one producer
// thread, completions drained by one waiter thread, through a
// BatchScheduler (batch 32, 2 ms flush, 2-thread pool) into a threaded,
// 2-way replicated 4-server SharedNothingCluster whose replicas are
// page-store files with a 10% buffer pool. The offered rate steps up:
// r800 (the reference, ~40% of capacity), r1600 (near the knee) and
// r3200 (overload; the queue is unbounded, so nothing is shed).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "core/database.h"
#include "dataset/generators.h"
#include "decorator.h"
#include "dist/builtin_metrics.h"
#include "load/workload.h"
#include "parallel/cluster.h"
#include "parallel/thread_pool.h"
#include "service/batch_scheduler.h"
#include "sys.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kObjects = 20000;
/// The catalogue and which of its objects are popular are fixed; --seed
/// drives the request stream (arrival times, tenants, Zipf draws).
constexpr uint64_t kCatalogueSeed = 43;
constexpr uint64_t kPopularitySeed = 7919;
constexpr size_t kPoolThreads = 2;
constexpr int kTenantShift = 40;
/// Every kCheckEvery-th request's answer is re-derived by a full scan.
constexpr size_t kCheckEvery = 40;
constexpr size_t kWarmupQueries = 100;
constexpr int kReopens = 200;

struct Step {
  const char* name;
  double qps;
  /// Share of --seconds this step's arrival schedule lasts.
  double share;
};
/// Overload gets the largest share: throughput_qps is the one gated
/// figure of the steps, and the longer it runs the more it averages over
/// the host. Not more than 0.4: the backlog it leaves grows with its
/// length, and that backlog is most of peak_rss_mb.
constexpr Step kSteps[] = {
    {"r800", 800.0, 0.35}, {"r1600", 1600.0, 0.25}, {"r3200", 3200.0, 0.4}};
constexpr size_t kNumSteps = sizeof(kSteps) / sizeof(kSteps[0]);
/// The unsuffixed latencies and per-layer metrics.
constexpr size_t kReference = 0;
constexpr size_t kKnee = 1;
/// throughput_qps: answers per second when offered more than capacity.
constexpr size_t kOverload = 2;

const msq::Dataset& Catalogue() {
  static const msq::Dataset data = [] {
    msq::TychoLikeOptions gen;
    gen.n = kObjects;
    gen.seed = kCatalogueSeed;
    return msq::MakeTychoLikeDataset(gen);
  }();
  return data;
}

std::vector<msq::load::TenantSpec> Tenants() {
  msq::load::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 0.7;
  interactive.k = 10;
  interactive.zipf_s = 0.9;
  msq::load::TenantSpec analytics = interactive;
  analytics.name = "analytics";
  analytics.weight = 0.3;
  analytics.k = 40;
  return {interactive, analytics};
}

msq::ClusterOptions ClusterConfig(const std::string& store_dir) {
  msq::ClusterOptions c;
  c.num_servers = 4;
  c.replication_factor = 2;
  c.server_options.backend = msq::BackendKind::kXTree;
  c.server_options.buffer_fraction = 0.10;
  c.use_threads = true;
  c.partial_results = true;
  c.seed = 5;
  c.retry.max_retries = 2;
  c.retry.initial_backoff = std::chrono::microseconds(100);
  c.breaker.failure_threshold = 3;
  c.breaker.open_cooldown = std::chrono::milliseconds(200);
  c.store_dir = store_dir;
  return c;
}

/// What the traced pass learns from inside the executor callback. All
/// methods are called concurrently from the producer and pool threads.
class Ledger {
 public:
  explicit Ledger(SpanRecorder* spans) : spans_(spans) {}

  void SetStep(size_t step) { step_.store(step); }

  /// Before Submit: remembers when the query with `id` was submitted.
  void OnSubmit(msq::QueryId id, int64_t now) {
    std::lock_guard<std::mutex> lock(mu_);
    waiting_[id].push_back(now);
  }
  /// Submit returned after `nanos`, with `pending` queries pending.
  void OnSubmitted(int64_t nanos, size_t pending) {
    std::lock_guard<std::mutex> lock(mu_);
    Of(step_.load()).submit_us.push_back(static_cast<double>(nanos) / 1e3);
    pending_max_ = std::max(pending_max_, pending);
  }

  /// The wrapped executor: spans around the callback and around
  /// SharedNothingCluster::ExecuteBatch; joins the batch's queries to
  /// their submissions by id.
  msq::StatusOr<msq::BatchResult> Execute(
      msq::SharedNothingCluster* cluster,
      const std::vector<msq::Query>& queries, msq::QueryStats* stats) {
    ScopedSpan exec(spans_, "BatchScheduler.executor");
    exec.set_arg(static_cast<double>(queries.size()));
    std::vector<double> waits;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const msq::Query& q : queries) {
        auto it = waiting_.find(q.id);
        if (it == waiting_.end()) continue;
        for (int64_t t : it->second) waits.push_back(Ms(exec.start_ns() - t));
        waiting_.erase(it);
      }
    }
    int64_t t0 = 0, t1 = 0;
    msq::StatusOr<msq::BatchResult> result = msq::BatchResult{};
    {
      ScopedSpan parallel(spans_, "SharedNothingCluster::ExecuteBatch");
      t0 = NowNanos();
      result = cluster->ExecuteBatch(queries, stats);
      t1 = NowNanos();
    }
    std::lock_guard<std::mutex> lock(mu_);
    StepLedger& s = Of(step_.load());
    s.batch_sizes.push_back(static_cast<double>(queries.size()));
    s.queue_wait_ms.insert(s.queue_wait_ms.end(), waits.begin(), waits.end());
    s.execute_ms.push_back(Ms(t1 - t0));
    return result;
  }

  struct StepLedger {
    std::vector<double> submit_us;
    std::vector<double> batch_sizes;
    std::vector<double> queue_wait_ms;
    std::vector<double> execute_ms;
  };
  /// Read after the pass (no concurrent writers).
  const StepLedger& step(size_t i) const { return steps_[i]; }
  size_t pending_max() const { return pending_max_; }

 private:
  StepLedger& Of(size_t step) { return steps_[std::min(step, kNumSteps)]; }

  SpanRecorder* spans_;
  std::atomic<size_t> step_{kNumSteps};  // kNumSteps = outside the steps
  std::mutex mu_;
  std::unordered_map<msq::QueryId, std::vector<int64_t>> waiting_;
  StepLedger steps_[kNumSteps + 1];
  size_t pending_max_ = 0;
};

/// The serving stack. Members are destroyed in reverse order: scheduler
/// (drains), then its pool, then the cluster its executor calls.
struct Service {
  std::unique_ptr<msq::SharedNothingCluster> cluster;
  std::unique_ptr<msq::ThreadPool> pool;
  msq::AggregateStats stats;
  std::unique_ptr<msq::BatchScheduler> scheduler;
};

std::unique_ptr<Service> SetUp(const std::string& store_dir,
                               std::shared_ptr<const msq::Metric> metric,
                               Ledger* ledger) {
  auto service = std::make_unique<Service>();
  auto cluster = msq::SharedNothingCluster::Create(Catalogue(), metric,
                                                   ClusterConfig(store_dir));
  if (!cluster.ok()) {
    std::fprintf(stderr, "serve: cluster create failed: %s\n",
                 cluster.status().ToString().c_str());
    std::exit(1);
  }
  service->cluster = std::move(cluster).value();
  service->pool = std::make_unique<msq::ThreadPool>(kPoolThreads);
  msq::BatchSchedulerOptions o;
  o.max_batch_size = 32;
  o.flush_deadline = std::chrono::microseconds(2000);
  msq::SharedNothingCluster* cl = service->cluster.get();
  if (ledger != nullptr) {
    o.executor = [cl, ledger](const std::vector<msq::Query>& queries,
                              msq::QueryStats* stats) {
      return ledger->Execute(cl, queries, stats);
    };
  } else {
    o.executor = [cl](const std::vector<msq::Query>& queries,
                      msq::QueryStats* stats) {
      return cl->ExecuteBatch(queries, stats);
    };
  }
  o.admission_check = [cl] { return cl->QuorumStatus(); };
  service->scheduler = std::make_unique<msq::BatchScheduler>(
      nullptr, service->pool.get(), o, &service->stats);

  // Warm-up: one m=100 batch of kNN queries on every replica, run by
  // this thread. It fills the buffer pools as a burst through the
  // scheduler would, but on one CPU, so setup_s does not follow how many
  // CPUs a shared host leaves free.
  const msq::Dataset& data = Catalogue();
  std::vector<msq::Query> warmup;
  msq::Rng rng(99);
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    msq::Query q;
    // Outside the request ids: a replica keeps answers by query id, and
    // rejects a later request that reuses an id for another point.
    q.id = (uint64_t{1} << 62) | i;
    q.point = data.object(static_cast<msq::ObjectId>(rng.NextIndex(data.size())));
    q.type = msq::QueryType::Knn(10);
    warmup.push_back(std::move(q));
  }
  for (size_t p = 0; p < cl->partitions().size(); ++p) {
    for (size_t j = 0; j < cl->placement()[p].size(); ++j) {
      if (!cl->replica(p, j).MultipleSimilarityQueryAll(warmup).ok()) {
        std::fprintf(stderr, "serve: warm-up batch failed\n");
        std::exit(1);
      }
    }
  }
  return service;
}

/// One submitted request waiting to be drained.
struct Outstanding {
  msq::AnswerFuture future;
  Clock::time_point scheduled;
  msq::ObjectId object = 0;
  size_t k = 0;
  bool check = false;
};

struct Checked {
  msq::ObjectId object;
  size_t k;
  msq::AnswerSet answer;
};

struct StepOutcome {
  std::vector<double> latency_ms;  // from scheduled arrival; kMissed if lost
  uint64_t submitted = 0;
  uint64_t ok = 0;
  double wall_s = 0.0;           // first scheduled arrival -> last completion
  double max_lateness_ms = 0.0;  // how late the producer ran
};

/// Single-producer single-consumer hand-off of outstanding requests.
class Handoff {
 public:
  void Push(Outstanding item) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(item));
    cv_.notify_one();
  }
  bool Pop(Outstanding* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Outstanding> items_;
  bool closed_ = false;
};

StepOutcome RunStep(Service& service, const Step& step, size_t step_index,
                    const RunOptions& options,
                    const std::vector<msq::load::ZipfSampler>& samplers,
                    const msq::load::TenantMix& mix, Ledger* ledger,
                    SpanRecorder* spans, std::vector<Checked>* checked) {
  const msq::Dataset& data = Catalogue();
  StepOutcome out;
  Handoff handoff;
  if (ledger != nullptr) ledger->SetStep(step_index);
  msq::load::PoissonArrivals arrivals(step.qps,
                                      options.seed * 31 + step_index);
  msq::Rng rng(options.seed * 131 + step_index);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds * step.share));
  const Clock::time_point first = start + arrivals.NextGap();
  Clock::time_point last_done{};
  std::thread waiter([&] {
    Outstanding item;
    while (handoff.Pop(&item)) {
      msq::StatusOr<msq::AnswerSet> answer = item.future.get();
      const Clock::time_point done = Clock::now();
      out.latency_ms.push_back(
          answer.ok() ? std::chrono::duration<double, std::milli>(
                            done - item.scheduled)
                            .count()
                      : kMissed);
      if (answer.ok()) {
        ++out.ok;
        if (item.check) {
          checked->push_back({item.object, item.k, std::move(answer).value()});
        }
      }
      last_done = std::max(last_done, done);
    }
  });

  Clock::time_point next = first;
  while (next < end) {
    std::this_thread::sleep_until(next);
    const size_t tenant = mix.PickIndex(rng);
    const auto object = static_cast<msq::ObjectId>(samplers[tenant].Sample(rng));
    msq::Query q;
    q.id = (static_cast<msq::QueryId>(tenant) << kTenantShift) | object;
    q.point = data.object(object);
    q.type = msq::QueryType::Knn(mix.tenant(tenant).k);
    const size_t k = mix.tenant(tenant).k;
    out.max_lateness_ms = std::max(
        out.max_lateness_ms,
        std::chrono::duration<double, std::milli>(Clock::now() - next).count());
    msq::AnswerFuture future;
    if (ledger != nullptr) {
      ledger->OnSubmit(q.id, NowNanos());
      const int64_t t0 = NowNanos();
      {
        ScopedSpan span(spans, "BatchScheduler::Submit");
        future = service.scheduler->Submit(std::move(q));
      }
      ledger->OnSubmitted(NowNanos() - t0, service.scheduler->pending_size());
    } else {
      future = service.scheduler->Submit(std::move(q));
    }
    handoff.Push({std::move(future), next, object, k,
                  out.submitted % kCheckEvery == 0});
    ++out.submitted;
    next += arrivals.NextGap();
  }
  handoff.Close();
  waiter.join();
  service.scheduler->Drain();
  if (out.ok > 0) {
    out.wall_s = std::chrono::duration<double>(last_done - first).count();
  }
  return out;
}

std::vector<std::string> StoreFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

Pass ServePass(const RunOptions& options, int setups, SpanRecorder* spans) {
  Pass pass;
  const msq::Dataset& data = Catalogue();
  const std::string store_dir = options.dir + "/serve";
  std::filesystem::create_directories(store_dir);
  auto timed_metric = std::make_shared<TimedMetric>();
  std::shared_ptr<const msq::Metric> metric =
      spans != nullptr ? std::shared_ptr<const msq::Metric>(timed_metric)
                       : std::make_shared<msq::EuclideanMetric>();
  std::unique_ptr<Ledger> ledger;
  if (spans != nullptr) ledger = std::make_unique<Ledger>(spans);

  std::unique_ptr<Service> service;
  std::vector<double> setup_s;
  uint64_t written_before = 0;
  for (int s = 0; s < setups; ++s) {
    service.reset();
    written_before = WrittenBytes();
    const double t0 = NowSeconds();
    service = SetUp(store_dir, metric, ledger.get());
    setup_s.push_back(NowSeconds() - t0);
  }

  // --- timed phase: three offered rates, low to high --------------------
  const msq::load::TenantMix mix(Tenants());
  std::vector<msq::load::ZipfSampler> samplers;
  for (size_t t = 0; t < mix.size(); ++t) {
    samplers.emplace_back(data.size(), mix.tenant(t).zipf_s,
                          kPopularitySeed + t);
  }
  msq::SharedNothingCluster& cluster = *service->cluster;
  msq::BatchScheduler& scheduler = *service->scheduler;
  const msq::QueryStats stats_before = service->stats.Snapshot();
  const std::vector<msq::QueryStats> servers_before = cluster.ServerStats();
  const uint64_t submitted_before = scheduler.queries_submitted();
  const uint64_t coalesced_before = scheduler.queries_coalesced();
  const uint64_t shed_before = scheduler.queries_shed();
  const msq::FlushCounts flushes_before = scheduler.flush_counts();
  const uint64_t retries_before = cluster.retries_attempted();
  const uint64_t failovers_before = cluster.failovers();
  const DistTotals dist_before = timed_metric->totals();
  const auto store_io = [&cluster] {
    std::vector<msq::PageFileIoStats> io;
    for (size_t p = 0; p < cluster.partitions().size(); ++p) {
      for (size_t j = 0; j < cluster.placement()[p].size(); ++j) {
        const msq::PageFileIoStats* stats =
            StoreIoStats(cluster.replica(p, j));
        io.push_back(stats != nullptr ? *stats : msq::PageFileIoStats{});
      }
    }
    return io;
  };
  const std::vector<msq::PageFileIoStats> io_before = store_io();

  std::vector<Checked> checked;
  StepOutcome outcome[kNumSteps];
  for (size_t s = 0; s < kNumSteps; ++s) {
    outcome[s] = RunStep(*service, kSteps[s], s, options, samplers, mix,
                         ledger.get(), spans, &checked);
  }
  if (ledger != nullptr) ledger->SetStep(kNumSteps);
  const uint64_t written = WrittenBytes() - written_before;

  const msq::QueryStats delta = service->stats.Snapshot() - stats_before;
  const std::vector<msq::QueryStats> servers_after = cluster.ServerStats();
  const std::vector<msq::PageFileIoStats> io_after = store_io();
  const msq::FlushCounts flushes = scheduler.flush_counts();
  const double submitted =
      static_cast<double>(scheduler.queries_submitted() - submitted_before);
  const double coalesced =
      static_cast<double>(scheduler.queries_coalesced() - coalesced_before);
  const double shed = static_cast<double>(scheduler.queries_shed() - shed_before);
  const double retries =
      static_cast<double>(cluster.retries_attempted() - retries_before);
  const double failovers =
      static_cast<double>(cluster.failovers() - failovers_before);
  const DistTotals dist_after = timed_metric->totals();

  // --- output check: sampled answers against a full scan ----------------
  const Candidates everything = AllObjects(data);
  uint64_t wrong = 0;
  for (const Checked& c : checked) {
    if (!SameAnswers(c.answer,
                     BruteForceKnn(data.object(c.object), c.k, everything))) {
      ++wrong;
    }
  }

  // --- persisted state: reopen every replica file -----------------------
  service.reset();
  const std::vector<std::string> files = StoreFiles(store_dir);
  uint64_t file_bytes = 0;
  for (const std::string& f : files) file_bytes += FileBytes(f);
  std::vector<double> reopen_s;
  const msq::ClusterOptions config = ClusterConfig(store_dir);
  const ScopedCpuPin pin;  // every serving thread has ended
  for (int r = 0; r < kReopens; ++r) {
    const double t0 = NowSeconds();
    for (const std::string& f : files) {
      if (!msq::MetricDatabase::Open(f, config.server_options, metric).ok()) {
        std::fprintf(stderr, "serve: reopen of %s failed\n", f.c_str());
        std::exit(1);
      }
    }
    reopen_s.push_back(NowSeconds() - t0);
  }
  const double user_bytes =
      static_cast<double>(data.size() * data.dim() * sizeof(msq::Scalar));

  Result& e = pass.e2e;
  uint64_t attempted = 0, lost = 0;
  for (const StepOutcome& o : outcome) {
    attempted += o.submitted;
    lost += o.submitted - o.ok;
  }
  const StepOutcome& over = outcome[kOverload];
  e.correct = wrong == 0;
  e.attempted = attempted;
  e.failed = lost + wrong;
  e.Set("setup_s", Median(setup_s));
  e.Set("peak_rss_mb", PeakRssMiB());
  e.Set("throughput_qps", Ratio(static_cast<double>(over.ok), over.wall_s));
  const StepOutcome& ref = outcome[kReference];
  e.Extra("p50_ms", Percentile(ref.latency_ms, 50), "ms");
  e.Extra("p90_ms", Percentile(ref.latency_ms, 90), "ms");
  if (SupportsPercentile(ref.latency_ms.size(), 99)) {
    e.Extra("p99_ms", Percentile(ref.latency_ms, 99), "ms");
  }
  e.Set("reopen_s", Median(reopen_s));
  e.Set("space_amp", static_cast<double>(file_bytes) / user_bytes);
  e.Set("write_amp", static_cast<double>(written) / user_bytes);
  for (size_t s = 0; s < kNumSteps; ++s) {
    const StepOutcome& o = outcome[s];
    const std::string suffix = std::string(".") + kSteps[s].name;
    e.Extra("p50_ms" + suffix, Percentile(o.latency_ms, 50), "ms");
    e.Extra("p90_ms" + suffix, Percentile(o.latency_ms, 90), "ms");
    if (SupportsPercentile(o.latency_ms.size(), 99)) {
      e.Extra("p99_ms" + suffix, Percentile(o.latency_ms, 99), "ms");
    }
    e.Extra("answered_qps" + suffix, Ratio(static_cast<double>(o.ok), o.wall_s),
            "1/s");
    e.Extra("samples" + suffix, static_cast<double>(o.latency_ms.size()),
            "count");
    e.Extra("generator_late_ms_max" + suffix, o.max_lateness_ms, "ms");
  }
  e.Extra("checked_answers", static_cast<double>(checked.size()), "count");

  if (ledger != nullptr) {
    Result& l = pass.layers;
    // Queries the executor ran (coalesced submissions ride along once).
    double queries = 0.0, batches = 0.0;
    for (size_t s = 0; s < kNumSteps; ++s) {
      for (double m : ledger->step(s).batch_sizes) queries += m;
      batches += static_cast<double>(ledger->step(s).batch_sizes.size());
    }
    SetQueryStatsLayers(delta, queries, batches, &l);
    const auto busy = [&](size_t s) {
      double sum = 0.0;
      for (double x : ledger->step(s).execute_ms) sum += x;
      return Ratio(sum / 1e3, kPoolThreads * outcome[s].wall_s);
    };
    const Ledger::StepLedger& ref_step = ledger->step(kReference);
    const Ledger::StepLedger& knee_step = ledger->step(kKnee);
    l.Set("service.batch_size_mean", Mean(ref_step.batch_sizes));
    l.Set("service.batch_size_mean.r1600", Mean(knee_step.batch_sizes));
    l.Set("service.batch_size_mean.r3200",
          Mean(ledger->step(kOverload).batch_sizes));
    l.Set("service.queue_wait_ms_p50", Percentile(ref_step.queue_wait_ms, 50));
    l.Set("service.queue_wait_ms_p99", Percentile(ref_step.queue_wait_ms, 99));
    l.Set("service.queue_wait_ms_p99.r1600",
          Percentile(knee_step.queue_wait_ms, 99));
    l.Set("service.submit_us_p50", Percentile(ref_step.submit_us, 50));
    l.Set("service.pending_max", static_cast<double>(ledger->pending_max()));
    const double flush_total = static_cast<double>(
        (flushes.size - flushes_before.size) +
        (flushes.deadline - flushes_before.deadline) +
        (flushes.explicit_flush - flushes_before.explicit_flush) +
        (flushes.drain - flushes_before.drain));
    l.Set("service.deadline_flush_frac",
          Ratio(static_cast<double>(flushes.deadline - flushes_before.deadline),
                flush_total));
    l.Set("service.coalesced_frac", Ratio(coalesced, submitted));
    l.Set("service.shed_frac", Ratio(shed, submitted + shed));
    l.Set("parallel.batch_ms_p50", Percentile(ref_step.execute_ms, 50));
    l.Set("parallel.batch_ms_p99", Percentile(ref_step.execute_ms, 99));
    l.Set("parallel.busy_frac", busy(kReference));
    l.Set("parallel.busy_frac.r3200", busy(kOverload));
    double max_dists = 0.0, sum_dists = 0.0;
    for (size_t s = 0; s < servers_after.size(); ++s) {
      const double d = static_cast<double>(
          servers_after[s].TotalDistComputations() -
          servers_before[s].TotalDistComputations());
      max_dists = std::max(max_dists, d);
      sum_dists += d;
    }
    l.Set("parallel.server_skew",
          Ratio(max_dists, sum_dists / static_cast<double>(servers_after.size())));
    l.Set("parallel.retries", retries);
    l.Set("parallel.failovers", failovers);
    SetDistLayers(dist_before, dist_after, &l);
    uint64_t preads = 0, pread_bytes = 0;
    for (size_t i = 0; i < io_after.size(); ++i) {
      preads += io_after[i].reads - io_before[i].reads;
      pread_bytes += io_after[i].read_bytes - io_before[i].read_bytes;
    }
    l.Set("storage.preads_per_query",
          Ratio(static_cast<double>(preads), queries));
    l.Set("storage.pread_kib_per_query",
          Ratio(static_cast<double>(pread_bytes) / 1024.0, queries));
    l.Set("trace.spans", static_cast<double>(spans->size()));
  }
  return pass;
}

}  // namespace perfbench
