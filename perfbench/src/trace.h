// Traced mode: spans around the benchmark's calls into each src/ module, and
// the per-layer totals they add up to.
//
// Every span is recorded from the benchmark's own code, around a public
// call: DeviceSim's constructor and phases (exp, sim), Daq::SampleWindow
// (daq), PowerTape::EnergyJoules (hw), the journal codec (exp) and the
// governor's OnQuantum (core, through TimedPolicy).  Nothing inside the
// program is instrumented, so kernel time cannot be split from RunUntil.
//
// Spans are kept in memory and written out as CSV when the run ends.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/exp/experiment.h"
#include "src/exp/journal.h"
#include "src/kernel/policy.h"

namespace dcs {
class DeviceSim;
}  // namespace dcs

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    double start_ns;
    double end_ns;
    int parent;
    std::int64_t job;
  };

  // Opens a span under the calling thread's innermost open span.
  int Open(const char* name, std::int64_t job);
  // Closes span `id` (the calling thread's innermost) and returns its
  // duration in nanoseconds.
  double Close(int id);
  // Records a child of `parent` that stands for `ns` of time spread over the
  // parent's interval (the per-quantum governor calls, summed per RunUntil).
  void Aggregate(int parent, const char* name, double ns);

  // Times `fn` as one span; returns its duration in nanoseconds.
  template <typename Fn>
  double Time(const char* name, std::int64_t job, Fn&& fn) {
    const int id = Open(name, job);
    fn();
    return Close(id);
  }

  // Writes "id,parent,job,name,start_us,end_us" rows.
  bool WriteCsv(const std::string& path) const;

 private:
  double Now() const { return NanosBetween(epoch_, Clock::now()); }

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Forwarding governor: times every OnQuantum call of the policy it wraps.
// Installed over the registry's policy with Kernel::InstallPolicy; the
// wrapped policy's OnInstall is idempotent, so installing it twice is safe.
class TimedPolicy final : public dcs::ClockPolicy {
 public:
  explicit TimedPolicy(dcs::ClockPolicy* inner) : inner_(inner) {}

  const char* Name() const override { return inner_->Name(); }
  void OnInstall(dcs::Kernel& kernel) override { inner_->OnInstall(kernel); }
  std::optional<dcs::SpeedRequest> OnQuantum(const dcs::UtilizationSample& sample) override;
  void Reset() override { inner_->Reset(); }
  void SaveState(dcs::SnapshotWriter* w) const override { inner_->SaveState(w); }
  void LoadState(dcs::SnapshotReader* r) override { inner_->LoadState(r); }

  double ns() const { return ns_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t step_changes() const { return step_changes_; }

 private:
  dcs::ClockPolicy* inner_;
  double ns_ = 0.0;
  std::uint64_t decisions_ = 0;
  std::uint64_t step_changes_ = 0;
};

// What an empty timed region reads: the clock-read cost each TimedPolicy
// call adds to the governor time it reports (median of back-to-back reads).
double TimerBiasNs();

// The layers a run's host time is split into for the share report.
enum Layer { kExp, kSim, kCore, kDaq, kHw, kNumLayers };
const char* LayerName(Layer layer);

// Sums of the traced calls of one pass.  A "unit" is what the per-unit
// counts are averaged over: one experiment job, or one fleet device.
struct LayerTotals {
  double daq_ns = 0, tape_ns = 0, build_ns = 0, finish_ns = 0, finish_self_ns = 0;
  double fingerprint_ns = 0, serialize_ns = 0, deserialize_ns = 0, append_ns = 0, read_ns = 0;
  double run_ns = 0, run_self_ns = 0, save_ns = 0, load_ns = 0, core_ns = 0;
  std::uint64_t daq_calls = 0, daq_samples = 0, tape_calls = 0, builds = 0, finishes = 0;
  std::uint64_t fingerprints = 0, serializes = 0, deserializes = 0, appends = 0, read_records = 0;
  std::uint64_t record_bytes = 0, runs = 0, saves = 0, loads = 0, snapshot_bytes = 0;
  std::uint64_t events = 0, events_cancelled = 0, quanta = 0, dispatches = 0;
  std::uint64_t sched_records = 0, decisions = 0, step_changes = 0, trace_points = 0;
  std::uint64_t power_segments = 0, clock_changes = 0, requests = 0, admitted = 0;
  std::uint64_t units = 0;
  // Host time on the path the untraced workload itself takes, by layer.
  double on_path_ns[kNumLayers] = {};
  // The traced counterpart of the untraced pass's job-body time (the work
  // both passes do, without the probes): the tracing overhead's numerator.
  double comparable_ns = 0;
  // Each Finish call's time minus its replayed DAQ and tape time.  Two
  // separate runs of the same work, so one sample can read below zero.
  std::vector<double> finish_self_samples_ns;

  void Merge(const LayerTotals& o);
};

// Journal used to time the codec's append and read directions on a pass's
// own results.  Appends are serialized by a mutex (the timed region is the
// AppendRecord call alone); every kBatch records the file is read back,
// checked record by record against the digests appended, and started over.
class ProbeJournal {
 public:
  explicit ProbeJournal(std::string path) : path_(std::move(path)) {}
  ~ProbeJournal();
  ProbeJournal(const ProbeJournal&) = delete;
  ProbeJournal& operator=(const ProbeJournal&) = delete;

  // Appends `record` (whose result serializes to a digest of `digest`) in
  // the batch's next slot; adds the append time and, when a batch
  // completes, the read-back time to *totals.  Returns false on an I/O error
  // or a read-back mismatch.
  bool Append(dcs::JournalRecord* record, std::uint64_t digest, LayerTotals* totals,
              std::string* error);
  // Reads back and checks whatever the current batch holds.
  bool Flush(LayerTotals* totals, std::string* error);

 private:
  static constexpr int kBatch = 64;
  bool FlushLocked(LayerTotals* totals, std::string* error);

  std::string path_;
  std::mutex mutex_;
  std::unique_ptr<dcs::JournalWriter> writer_;
  std::vector<std::uint64_t> digests_;
};

// Digest of an ExperimentResult: FNV-1a over its SerializeResult bytes.
std::uint64_t ResultDigest(const dcs::ExperimentResult& result);

// Everything one traced experiment job needs.
struct TraceContext {
  Tracer* tracer = nullptr;
  ProbeJournal* journal = nullptr;
  // True when the workload's runner fingerprints, serializes and journals
  // every result itself (a journaled campaign): those calls are then on the
  // workload's path, not probes.
  bool journaled = false;
  std::mutex mutex;
  LayerTotals totals;
  // Totals of the jobs a workload sets apart for a second layer picture, by
  // group (fleet_clone: its shards on bench/fleet_scale's own traffic, by
  // governor).
  std::map<std::string, LayerTotals> subsets;
};

// A device's cumulative simulated counts, read through public accessors.
struct DeviceCounts {
  std::uint64_t events = 0, events_cancelled = 0, quanta = 0, dispatches = 0;
  std::uint64_t sched_records = 0, trace_points = 0, admitted = 0, requests = 0;
  std::uint64_t power_segments = 0, clock_changes = 0;
};
DeviceCounts CountsOf(dcs::DeviceSim& dev);
// Adds the counts accrued between `before` and `after` to *t.
void AddCounts(const DeviceCounts& after, const DeviceCounts& before, LayerTotals* t);

std::uint64_t CounterOf(const dcs::MetricsRegistry& m, const char* name);
// Throws std::runtime_error naming `what` unless `ok`.
void Require(bool ok, const std::string& what);

// The measurement tail of a traced device: replays (and times) the DAQ
// sampling and tape integration Finish performs, before Finish on even
// `job`s and after it on odd ones, times Finish itself,
// cross-checks the replayed figures and the counts against the result
// (`decisions` is the governor.decisions count the result must carry), then
// times the journal codec on the result.  Adds to *t but leaves its
// on-path shares to the caller.
dcs::ExperimentResult TracedFinish(dcs::DeviceSim& dev, const dcs::ExperimentConfig& config,
                                   std::uint64_t decisions, std::int64_t job, TraceContext* ctx,
                                   LayerTotals* t);

// Runs one experiment through DeviceSim's public phases with every layer
// call timed, and returns the result RunExperiment(config) returns.  Besides
// the phases RunExperiment runs, it replays the DAQ sampling and the tape
// integration that Finish performs (to time them), round-trips a device
// snapshot, and round-trips the result through the journal codec.  Throws
// std::runtime_error when a replayed figure or a count cross-check
// disagrees with the program's own.
dcs::ExperimentResult TracedExperiment(const dcs::ExperimentConfig& config, std::int64_t job,
                                       TraceContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
