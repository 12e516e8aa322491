// simbench: the simulator's host-time benchmark (see perfbench/NOTES.md).
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR --goldens FILE
//   simbench --record --work-dir DIR --goldens FILE
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Exits non-zero when any output was wrong.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --goldens FILE\n       simbench --record "
               "--work-dir DIR --goldens FILE\n",
               error.c_str());
  std::exit(2);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string goldens_path;
  bool record = false;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      record = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          Usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else if (arg == "--goldens") {
        goldens_path = value;
      } else {
        Usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value '" + value + "' for " + arg);
    }
  }
  if (options.work_dir.empty() || goldens_path.empty()) {
    Usage("--work-dir and --goldens are required");
  }

  Goldens goldens;
  if (record) {
    goldens.SetRecording(true);
    const bool ok = RecordGoldens(options.work_dir, &goldens);
    if (!ok || !goldens.Write(goldens_path)) {
      std::fprintf(stderr, "simbench: recording failed\n");
      return 1;
    }
    return 0;
  }
  if (!have_workload || !have_seed || !(options.seconds > 0.0)) {
    Usage("--workload, --seed and a positive --seconds are required");
  }
  if (!goldens.Load(goldens_path)) {
    Usage("cannot read recorded digests from " + goldens_path);
  }

  std::printf("host: nproc=%ld hw_threads=%u cpu=\"%s\" compiler=\"%s\" build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              CpuModel().c_str(), __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Outcome out;
  try {
    out = RunBenchmark(options, &goldens);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
