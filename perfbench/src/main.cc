// raven_perfbench: runs one workload of the repository benchmark and prints
// its report as one JSON line (the last line of standard output).
//
//   raven_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir DIR] [--git-sha SHA]
//
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::Report report;
  raven::Status status = perfbench::RunWorkload(options, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  report.Note("git_sha", git_sha);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
