// Micro-benchmarks of the engine's hot paths (google-benchmark): answer
// accumulation, query-distance-matrix preparation, avoidance checks, the
// per-page pivot filter, MBR MINDIST, buffer pool access, the page-store
// checksum, and end-to-end single-query latency per backend.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/answer_list.h"
#include "core/avoidance.h"
#include "core/database.h"
#include "core/distance_matrix.h"
#include "core/pivot_table.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "storage/buffer_pool.h"
#include "xtree/mbr.h"

namespace msq {
namespace {

void BM_AnswerListOffer(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> dists(4096);
  for (auto& d : dists) d = rng.NextDouble();
  size_t i = 0;
  AnswerList list(QueryType::Knn(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list.Offer(static_cast<ObjectId>(i), dists[i & 4095]));
    ++i;
  }
  state.SetLabel("k=" + std::to_string(k));
}
BENCHMARK(BM_AnswerListOffer)->Arg(10)->Arg(100);

void BM_DistanceMatrixPrepare(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::vector<Query> queries;
  for (size_t i = 0; i < m; ++i) {
    Vec p(20);
    for (auto& x : p) x = static_cast<Scalar>(rng.NextDouble());
    queries.push_back({i + 1, std::move(p), QueryType::Knn(10)});
  }
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  for (auto _ : state) {
    QueryDistanceCache cache;
    std::vector<uint32_t> idx;
    cache.Prepare(queries, metric, &idx);
    benchmark::DoNotOptimize(cache.Dist(idx[0], idx[m - 1]));
  }
  state.SetLabel("m=" + std::to_string(m) + " (m(m-1)/2 distances)");
}
BENCHMARK(BM_DistanceMatrixPrepare)->Arg(10)->Arg(100);

void BM_AvoidanceCheck(benchmark::State& state) {
  const size_t known_count = static_cast<size_t>(state.range(0));
  Rng rng(17);
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  std::vector<Query> queries;
  for (size_t i = 0; i <= known_count; ++i) {
    Vec p(20);
    for (auto& x : p) x = static_cast<Scalar>(rng.NextDouble());
    queries.push_back({i + 1, std::move(p), QueryType::Knn(10)});
  }
  QueryDistanceCache cache;
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  std::vector<KnownQueryDistance> known;
  for (size_t i = 0; i < known_count; ++i) {
    known.push_back({idx[i], rng.NextDouble(0.0, 2.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CanAvoidDistance(cache, known, idx[known_count], 0.05, nullptr));
  }
  state.SetLabel("known=" + std::to_string(known_count));
}
BENCHMARK(BM_AvoidanceCheck)->Arg(1)->Arg(8)->Arg(64);

// Phase-1 pivot filter of one page for one query: p=16 pivots over a
// 280-object page (a 24 KiB page of 20-d float vectors), at a radius that
// proves about half of the (object, pivot) gaps. The kernel has no data-
// dependent branch, so its time does not depend on the radius.
void BM_PivotFilterPage(benchmark::State& state) {
  constexpr size_t kObjects = 280;
  static Dataset dataset = MakeUniformDataset(20000, 20, 43);
  EuclideanMetric metric;
  PivotTableOptions options;
  options.num_pivots = 16;
  auto table = PivotTable::Build(dataset, metric, options);
  if (!table.ok()) {
    state.SkipWithError(table.status().ToString().c_str());
    return;
  }
  const size_t p = (*table)->num_pivots();
  Rng rng(47);
  std::vector<ObjectId> ids(kObjects);
  for (ObjectId& id : ids) {
    id = static_cast<ObjectId>(rng.NextIndex(dataset.size()));
  }
  PivotPageBlock block;
  block.Gather(**table, ids);
  std::vector<double> query_row;
  (*table)->QueryDists(dataset.object(0), metric, nullptr, &query_row);
  std::vector<double> gaps;
  for (ObjectId id : ids) {
    for (size_t k = 0; k < p; ++k) {
      gaps.push_back(std::fabs((*table)->Row(id)[k] - query_row[k]));
    }
  }
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  const double radius = gaps[gaps.size() / 2];
  std::vector<uint32_t> survivors;
  QueryStats stats;
  for (auto _ : state) {
    survivors.clear();
    block.Filter(query_row.data(), radius, &survivors, &stats);
    benchmark::DoNotOptimize(survivors.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kObjects));
  state.SetLabel("p=" + std::to_string(p) +
                 " objects=" + std::to_string(kObjects));
}
BENCHMARK(BM_PivotFilterPage);

void BM_MbrMinDist(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(19);
  Mbr box = Mbr::Empty(dim);
  Vec lo(dim), hi(dim), q(dim);
  for (size_t d = 0; d < dim; ++d) {
    lo[d] = static_cast<Scalar>(rng.NextDouble(0.0, 0.4));
    hi[d] = static_cast<Scalar>(rng.NextDouble(0.5, 1.0));
    q[d] = static_cast<Scalar>(rng.NextDouble(-0.5, 1.5));
  }
  box.ExtendPoint(lo);
  box.ExtendPoint(hi);
  EuclideanMetric metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(box.MinDist(q, metric));
  }
}
BENCHMARK(BM_MbrMinDist)->Arg(20)->Arg(64);

void BM_BufferPoolAccess(benchmark::State& state) {
  BufferPool pool(256);
  Rng rng(23);
  QueryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pool.Access(static_cast<PageId>(rng.NextIndex(1024)), &stats));
  }
}
BENCHMARK(BM_BufferPoolAccess);

// The checksum every page-store extent read pays on a buffer-pool miss.
void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> page(static_cast<size_t>(state.range(0)));
  Rng rng(53);
  for (auto& b : page) b = static_cast<unsigned char>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page.data(), page.size()));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * page.size()));
}
BENCHMARK(BM_Crc32)->Arg(24 * 1024)->Arg(32 * 1024);

void BM_SingleKnnQuery(benchmark::State& state) {
  const auto backend = static_cast<BackendKind>(state.range(0));
  static Dataset dataset =
      MakeGaussianClustersDataset(20000, 16, 12, 0.05, 29);
  DatabaseOptions options;
  options.backend = backend;
  auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                 options);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  Rng rng(31);
  for (auto _ : state) {
    const ObjectId id = static_cast<ObjectId>(rng.NextIndex(dataset.size()));
    auto got = (*db)->SimilarityQuery((*db)->MakeObjectKnnQuery(id, 10));
    benchmark::DoNotOptimize(got.ok());
  }
  state.SetLabel(BackendKindName(backend));
}
BENCHMARK(BM_SingleKnnQuery)
    ->Arg(static_cast<int>(BackendKind::kLinearScan))
    ->Arg(static_cast<int>(BackendKind::kXTree))
    ->Arg(static_cast<int>(BackendKind::kMTree))
    ->Arg(static_cast<int>(BackendKind::kVaFile));

void BM_MultiQueryBatch(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  static Dataset dataset =
      MakeGaussianClustersDataset(20000, 16, 12, 0.05, 37);
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.multi.max_batch_size = 256;
  auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                 options);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  Rng rng(41);
  for (auto _ : state) {
    state.PauseTiming();
    (*db)->ResetAll();
    std::vector<Query> batch;
    for (uint64_t id : rng.SampleWithoutReplacement(dataset.size(), m)) {
      batch.push_back((*db)->MakeObjectKnnQuery(static_cast<ObjectId>(id),
                                                10));
    }
    state.ResumeTiming();
    auto got = (*db)->MultipleSimilarityQueryAll(batch);
    benchmark::DoNotOptimize(got.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * m));
  state.SetLabel("m=" + std::to_string(m));
}
BENCHMARK(BM_MultiQueryBatch)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace msq

BENCHMARK_MAIN();
