#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/serialize.h"
#include "stats.h"

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit, samples};
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Count(const std::string& statement, bool ok,
                   const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  auto& entry = failures_[statement];
  if (entry.first++ == 0) entry.second = why;
}

std::int64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::int64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Report::Note(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = value;
}

std::string Report::note(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = notes_.find(key);
  return it == notes_.end() ? std::string() : it->second;
}

std::string ReferencesHash(const References& refs) {
  std::string all;
  for (const auto& [key, bytes] : refs) {
    all += key;
    all += '\0';
    all += std::to_string(bytes.size());
    all += '\0';
    all += bytes;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(all)));
  return buf;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  char buf[128];
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.9g", m.value);
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  out += "}, \"failures\": {";
  first = true;
  for (const auto& [statement, entry] : failures_) {
    out += (first ? "" : ", ") + JsonString(statement) +
           ": {\"count\": " + std::to_string(entry.first) +
           ", \"first\": " + JsonString(entry.second) + "}";
    first = false;
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : notes_) {
    out += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  return out + "}}";
}

std::string TableBytes(const raven::relational::Table& table) {
  raven::BinaryWriter writer;
  table.Serialize(&writer);
  return writer.Release();
}

void ReportSetup(const std::vector<SetupTimes>& setups, Report* report) {
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return Percentile(v, 0.5);
  };
  const auto n = static_cast<std::int64_t>(setups.size());
  report->Set("setup_s", median(&SetupTimes::total_s), "s", n);
  report->Set("setup.datagen_s", median(&SetupTimes::datagen_s), "s", n);
  report->Set("setup.train_s", median(&SetupTimes::train_s), "s", n);
  report->Set("storage.write_s", median(&SetupTimes::write_s), "s", n);
  report->Set("storage.open_ms", median(&SetupTimes::open_ms), "ms", n);
  report->Set("setup.server_start_s", median(&SetupTimes::server_start_s),
              "s", n);
  report->Set("setup.reference_s", median(&SetupTimes::reference_s), "s", n);
  report->Set("setup.warmup_s", median(&SetupTimes::warmup_s), "s", n);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "batch_scoring", "served_reads", "served_churn", "disk_analytics"};
  return *names;
}

raven::Status RunWorkload(const Options& options, Report* report) {
  raven::Status status;
  if (options.workload == "batch_scoring") {
    status = RunBatchScoring(options, report);
  } else if (options.workload == "served_reads") {
    status = RunServed(options, /*churn=*/false, report);
  } else if (options.workload == "served_churn") {
    status = RunServed(options, /*churn=*/true, report);
  } else if (options.workload == "disk_analytics") {
    status = RunDiskAnalytics(options, report);
  } else {
    return raven::Status::InvalidArgument("unknown workload '" +
                                          options.workload + "'");
  }
  if (!status.ok()) return status;
  const double attempted = static_cast<double>(report->attempted());
  report->Set("error_rate",
              attempted > 0 ? static_cast<double>(report->failed()) / attempted
                            : 1.0,
              "fraction", report->attempted());
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  report->Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Note("build_type", PERFBENCH_BUILD_TYPE);
  report->Note("compiler", PERFBENCH_COMPILER);
  report->Note("seed", std::to_string(options.seed));
  report->Note("workload", options.workload);
  return raven::Status::OK();
}

}  // namespace perfbench
