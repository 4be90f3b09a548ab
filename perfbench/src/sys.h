// Process-level measurements read from /proc, plus small file helpers.

#ifndef PERFBENCH_SYS_H_
#define PERFBENCH_SYS_H_

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Peak resident set size (VmHWM) of this process, in MiB; 0 if unknown.
double PeakRssMiB();

/// Bytes this process has passed to write-type syscalls (`wchar` of
/// /proc/self/io); 0 if unknown.
uint64_t WrittenBytes();

/// Machine-wide CPU time from /proc/stat, in clock ticks: the time the
/// hypervisor gave to other guests while this one wanted to run (steal),
/// and the total.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Pins the calling thread, and the threads it starts while pinned, to
/// the highest-numbered CPU it may run on; restores its CPU set when
/// destroyed. Left free, the kernel moves a single thread between CPUs
/// whose speed differs on a shared host (interrupts, busy siblings),
/// which shows as run-to-run spread.
class ScopedCpuPin {
 public:
  ScopedCpuPin();
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t previous_;
  bool pinned_ = false;
};

/// Size of a file in bytes (0 when absent).
uint64_t FileBytes(const std::string& path);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Arithmetic mean of `values` (0 when empty).
double Mean(const std::vector<double>& values);

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SYS_H_
