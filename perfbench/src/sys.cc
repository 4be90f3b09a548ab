#include "sys.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

/// Value of the first line of `path` starting with `key`, parsed as an
/// unsigned integer (the unit suffix, if any, is ignored).
uint64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMiB() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t WrittenBytes() { return ProcField("/proc/self/io", "wchar:"); }

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": the all-CPU line
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

ScopedCpuPin::ScopedCpuPin() {
  CPU_ZERO(&previous_);
  if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &previous_)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(previous_), &previous_);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
