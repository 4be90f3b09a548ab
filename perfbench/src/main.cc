// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload mine|serve|ingest --seed N --seconds S
//             --trace 0|1 --dir DIR [--trace-out FILE]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0; with --trace 1, the per-layer
// metrics of a traced pass and, as traced.<name>, that pass's end-to-end
// metrics. Exits 1 when an output check fails, 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "report.h"
#include "spans.h"
#include "sys.h"
#include "workload.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload mine|serve|ingest --seed N "
               "--seconds S --trace 0|1 --dir DIR [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, dir, trace_out;
  RunOptions options;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = true;
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--dir") {
      dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || dir.empty() ||
      options.seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  // Set-ups a run repeats (setup_s is their median): enough to span
  // ~3 s, because a median over a shorter span follows the shared host's
  // second-to-second speed.
  struct Workload {
    const char* name;
    Pass (*run)(const RunOptions&, int, SpanRecorder*);
    int setups;
  };
  constexpr Workload kWorkloads[] = {
      {"mine", MinePass, 5}, {"serve", ServePass, 15}, {"ingest", IngestPass, 31}};
  Pass (*run)(const RunOptions&, int, SpanRecorder*) = nullptr;
  int setups = 0;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      run = w.run;
      setups = w.setups;
    }
  }
  if (run == nullptr) return Usage();
  // mine and ingest run one thread; serve pins only its single-threaded
  // phases.
  std::optional<ScopedCpuPin> pin;
  if (workload != "serve") pin.emplace();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  options.dir = dir;

  const CpuTicks ticks_before = ReadCpuTicks();
  Result result;
  if (trace == 0) {
    result = run(options, setups, nullptr).e2e;
    std::printf("%s seed %llu: end-to-end metrics\n", workload.c_str(),
                static_cast<unsigned long long>(options.seed));
  } else {
    // Only the traced pass: run.py runs the untraced one in a process of
    // its own, so that neither pass inherits the other's peak memory or
    // warm caches, and reports the difference as trace.overhead.*.
    SpanRecorder recorder;
    Pass traced = run(options, setups, &recorder);
    result = traced.layers;
    result.correct = traced.e2e.correct;
    result.attempted = traced.e2e.attempted;
    result.failed = traced.e2e.failed;
    for (const MetricValue& m : traced.e2e.metrics) {
      result.metrics.push_back({"traced." + m.name, m.value, m.unit});
    }
    if (!trace_out.empty() && !recorder.WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("%s seed %llu: per-layer metrics (traced run)\n",
                workload.c_str(),
                static_cast<unsigned long long>(options.seed));
  }
  // Share of the machine's CPU time the hypervisor took for other guests
  // during the run: context for a slow run, not a metric of the program.
  const CpuTicks ticks_after = ReadCpuTicks();
  result.Extra("host_steal_frac",
               static_cast<double>(ticks_after.steal - ticks_before.steal) /
                   static_cast<double>(std::max<uint64_t>(
                       ticks_after.total - ticks_before.total, 1)),
               "ratio");
  PrintReport(stdout, result);
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
