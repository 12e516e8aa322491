// The benchmark's four workloads and the run that measures one of them.
//
// Every workload is a closed loop: a job starts only when a worker finished
// its previous one.  A run repeats whole cycles of the workload's catalogue
// (every config once, each with a seed-chosen entry of its simulation-seed
// pool) until --seconds have passed, so every run holds the same mix of
// configs whatever its seed.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for journals and the span file.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
};

// Runs `options.workload`, printing a human-readable report (host stamp,
// every metric with its unit, correctness findings) to stdout.  Throws
// std::invalid_argument on an unknown workload.
Outcome RunBenchmark(const Options& options, Goldens* goldens);

// Runs every job of every catalogue once, filling `goldens` (which must be
// in record mode).  Returns false if any job failed.
bool RecordGoldens(const std::string& work_dir, Goldens* goldens);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
