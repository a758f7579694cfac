#ifndef PERFBENCH_STEAL_H_
#define PERFBENCH_STEAL_H_

// Hypervisor steal on a shared virtual machine. Other tenants of the host
// take whole vCPUs away for minutes at a time (steal shares of 10-35% were
// seen on a 4-vCPU VM); every dop-4 statement then waits for its stalled
// worker. The sampler records the host-wide steal share so the measured
// phases can report rates as they would be with the stolen time given
// back.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Samples the `cpu` line of /proc/stat every `period_s` seconds from
/// construction until destruction. Where /proc/stat is unreadable the
/// steal share reads 0.
class StealSampler {
 public:
  explicit StealSampler(double period_s = 0.05);
  ~StealSampler();

  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Share of all CPU time stolen between `from_s` and `to_s` seconds after
  /// construction, using the samples nearest those times.
  double ShareBetween(double from_s, double to_s) const;

  /// 1 - steal share for each of `windows` equal windows of [0, wall_s).
  std::vector<double> Available(double wall_s, int windows) const;

 private:
  struct Sample {
    double at_s = 0.0;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  void Take();
  void Run(double period_s);

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};

}  // namespace perfbench

#endif  // PERFBENCH_STEAL_H_
