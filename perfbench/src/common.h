// Shared pieces of the host-time benchmark: wall clocks, order statistics,
// output digests and the recorded-digest table that makes every run check
// its simulated outputs.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// FNV-1a 64: the digest of one job's output bytes.
inline std::uint64_t Fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// splitmix64 finalizer.  The benchmark derives its workload choices (job
// order, seed-pool picks) from --seed with this, never with the program's
// own RNG, so a change to the simulator's RNG cannot change which jobs run.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Recorded output digests, one per job key ("paper/<governor>/<app>/<k>",
// ...).  Every job a run executes looks its digest up here; a job whose key
// is missing or whose digest differs is a failed job.  In record mode the
// table is filled instead of checked (run.py --record rewrites the file).
class Goldens {
 public:
  // Loads "<key> <hex digest>" lines; returns false if the file is unreadable.
  bool Load(const std::string& path);
  void SetRecording(bool recording) { recording_ = recording; }

  // Checks (or records) one job's digest.  Thread-safe.
  bool Check(const std::string& key, std::uint64_t digest);

  // Writes the recorded table (record mode), sorted by key.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> table_;
  bool recording_ = false;
};

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
