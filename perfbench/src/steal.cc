#include "steal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

StealSampler::StealSampler(double period_s) {
  Take();
  thread_ = std::thread([this, period_s] { Run(period_s); });
}

StealSampler::~StealSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StealSampler::Run(double period_s) {
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(period_s));
  auto next = std::chrono::steady_clock::now() + period;
  while (!stop_.load()) {
    std::this_thread::sleep_until(next);
    next += period;
    Take();
  }
}

void StealSampler::Take() {
  Sample s;
  s.at_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
               .count();
  if (std::FILE* in = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    // cpu  user nice system idle iowait irq softirq steal ...
    if (std::fscanf(in, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      s.steal = v[7];
      for (unsigned long long x : v) s.total += x;
    }
    std::fclose(in);
  }
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(s);
}

double StealSampler::ShareBetween(double from_s, double to_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  auto nearest = [this](double t) {
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const Sample& s, double x) { return s.at_s < x; });
    if (it == samples_.end()) return samples_.back();
    if (it != samples_.begin() && t - (it - 1)->at_s < it->at_s - t) --it;
    return *it;
  };
  const Sample a = nearest(from_s);
  const Sample b = nearest(to_s);
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::vector<double> StealSampler::Available(double wall_s, int windows) const {
  std::vector<double> out;
  const double width = wall_s / windows;
  for (int w = 0; w < windows; ++w) {
    out.push_back(std::clamp(1.0 - ShareBetween(w * width, (w + 1) * width),
                             0.1, 1.0));
  }
  return out;
}

}  // namespace perfbench
