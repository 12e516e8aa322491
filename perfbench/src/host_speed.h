// Host-speed reference: a fixed kernel owned by the benchmark, timed at
// intervals through a run, that says how fast the host ran during it.
//
// The machines this benchmark runs on are shared: a fixed CPU loop's time
// moves by 20-30% within seconds and minutes as neighbours come and go, and
// whole runs of one workload moved by up to 30% with nothing changed.  The
// end-to-end times are therefore reported adjusted to a nominal host speed:
// measured time divided by factor(), rates multiplied by it.  The kernel
// never calls the simulator and is timed warm (after an untimed run of its
// own), so the cache state a program change leaves behind does not reach
// it; such a change moves the adjusted figures by the same ratio as the raw
// ones.
//
// The kernel mixes the kinds of work the workloads do, so that host
// slowdowns that hit one kind more than another show in it too: an event
// loop like the simulator's, libm log/cos like the DAQ noise, a bulk copy
// like journal reads and snapshot restores, and a table-driven CRC-32 like
// the journal's frame check.  It runs on as many
// threads at once as the workload has workers, so that contention between
// the host's CPUs shows in it as it does in the workload.

#ifndef PERFBENCH_SRC_HOST_SPEED_H_
#define PERFBENCH_SRC_HOST_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

class HostSpeed {
 public:
  // One kernel thread's working memory, allocated (and its pages touched)
  // once, so neither page faults nor the allocator enter a measurement.
  struct Buffers {
    Buffers();
    std::vector<std::uint64_t> state;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;  // (due time, id)
    std::vector<char> from;
    std::vector<char> to;
  };

  explicit HostSpeed(int threads);

  // Times one run of the kernel (on every thread at once), after an untimed
  // run that warms it.
  void Sample();
  // Samples if kInterval has passed since the last sample.
  void MaybeSample();

  // Mean kernel time (the slowest and fastest tenth of samples dropped)
  // over the nominal one: above 1 when the host ran slower than nominal.
  double factor() const;
  std::size_t samples() const { return samples_ms_.size(); }

 private:
  // About the kernel's time on the 4-vCPU Xeon host (GCC 12, RelWithDebInfo)
  // the benchmark was calibrated on; any constant works, it sets the scale.
  static constexpr double kNominalMs = 1.7;
  static constexpr double kIntervalS = 0.05;

  std::vector<Buffers> buffers_;  // one per kernel thread
  std::vector<double> samples_ms_;
  Clock::time_point last_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_SPEED_H_
