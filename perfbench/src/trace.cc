#include "perfbench/src/trace.h"

#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/daq/daq.h"
#include "src/exp/device_sim.h"
#include "src/obs/metrics.h"
#include "src/sim/snapshot.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

}  // namespace

int Tracer::Open(const char* name, std::int64_t job) {
  const double now = Now();
  const std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now, now, open_spans.empty() ? -1 : open_spans.back(), job});
  open_spans.push_back(id);
  return id;
}

double Tracer::Close(int id) {
  const double now = Now();
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now;
  return span.end_ns - span.start_ns;
}

void Tracer::Aggregate(int parent, const char* name, double ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  spans_.push_back({name, p.start_ns, p.start_ns + ns, parent, p.job});
}

bool Tracer::WriteCsv(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,parent,job,name,start_us,end_us\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%lld,%s,%.3f,%.3f\n", i, s.parent, static_cast<long long>(s.job),
                 s.name, s.start_ns / 1e3, s.end_ns / 1e3);
  }
  return std::fclose(f) == 0;
}

std::optional<dcs::SpeedRequest> TimedPolicy::OnQuantum(const dcs::UtilizationSample& sample) {
  const Clock::time_point t0 = Clock::now();
  std::optional<dcs::SpeedRequest> request = inner_->OnQuantum(sample);
  ns_ += NanosBetween(t0, Clock::now());
  ++decisions_;
  if (request.has_value() && request->step.has_value() && *request->step != sample.step) {
    ++step_changes_;
  }
  return request;
}

double TimerBiasNs() {
  std::vector<double> pairs(4096);
  for (double& d : pairs) {
    const Clock::time_point a = Clock::now();
    d = NanosBetween(a, Clock::now());
  }
  return Median(std::move(pairs));
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {"exp", "sim", "core", "daq", "hw"};
  return kNames[layer];
}

void LayerTotals::Merge(const LayerTotals& o) {
  daq_ns += o.daq_ns;
  tape_ns += o.tape_ns;
  build_ns += o.build_ns;
  finish_ns += o.finish_ns;
  finish_self_ns += o.finish_self_ns;
  fingerprint_ns += o.fingerprint_ns;
  serialize_ns += o.serialize_ns;
  deserialize_ns += o.deserialize_ns;
  append_ns += o.append_ns;
  read_ns += o.read_ns;
  run_ns += o.run_ns;
  run_self_ns += o.run_self_ns;
  save_ns += o.save_ns;
  load_ns += o.load_ns;
  core_ns += o.core_ns;
  daq_calls += o.daq_calls;
  daq_samples += o.daq_samples;
  tape_calls += o.tape_calls;
  builds += o.builds;
  finishes += o.finishes;
  fingerprints += o.fingerprints;
  serializes += o.serializes;
  deserializes += o.deserializes;
  appends += o.appends;
  read_records += o.read_records;
  record_bytes += o.record_bytes;
  runs += o.runs;
  saves += o.saves;
  loads += o.loads;
  snapshot_bytes += o.snapshot_bytes;
  events += o.events;
  events_cancelled += o.events_cancelled;
  quanta += o.quanta;
  dispatches += o.dispatches;
  sched_records += o.sched_records;
  decisions += o.decisions;
  step_changes += o.step_changes;
  trace_points += o.trace_points;
  power_segments += o.power_segments;
  clock_changes += o.clock_changes;
  requests += o.requests;
  admitted += o.admitted;
  units += o.units;
  comparable_ns += o.comparable_ns;
  finish_self_samples_ns.insert(finish_self_samples_ns.end(), o.finish_self_samples_ns.begin(),
                                o.finish_self_samples_ns.end());
  for (int l = 0; l < kNumLayers; ++l) {
    on_path_ns[l] += o.on_path_ns[l];
  }
}

ProbeJournal::~ProbeJournal() {
  writer_.reset();
  std::remove(path_.c_str());
}

bool ProbeJournal::Append(dcs::JournalRecord* record, std::uint64_t digest,
                          LayerTotals* totals, std::string* error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (writer_ == nullptr) {
    writer_ = dcs::JournalWriter::Create(path_, error);
    dcs::JournalHeader header;
    header.jobs = kBatch;
    header.label = "perfbench probe";
    if (writer_ == nullptr || !writer_->AppendHeader(header, error)) {
      return false;
    }
  }
  record->slot = static_cast<std::uint32_t>(digests_.size());
  const Clock::time_point t0 = Clock::now();
  const bool ok = writer_->AppendRecord(*record, error);
  totals->append_ns += NanosBetween(t0, Clock::now());
  totals->appends += 1;
  if (!ok) {
    return false;
  }
  digests_.push_back(digest);
  return static_cast<int>(digests_.size()) < kBatch || FlushLocked(totals, error);
}

bool ProbeJournal::Flush(LayerTotals* totals, std::string* error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return FlushLocked(totals, error);
}

bool ProbeJournal::FlushLocked(LayerTotals* totals, std::string* error) {
  if (digests_.empty()) {
    return true;
  }
  writer_.reset();
  const Clock::time_point t0 = Clock::now();
  const dcs::JournalReadResult read = dcs::ReadJournal(path_);
  totals->read_ns += NanosBetween(t0, Clock::now());
  totals->read_records += digests_.size();
  bool ok = read.readable && read.segments.size() == 1 &&
            read.segments[0].records.size() == digests_.size();
  for (std::size_t i = 0; ok && i < digests_.size(); ++i) {
    ok = ResultDigest(read.segments[0].records[i].result) == digests_[i];
  }
  digests_.clear();
  if (!ok) {
    *error = "probe journal '" + path_ + "' read back different results";
  }
  return ok;
}

std::uint64_t ResultDigest(const dcs::ExperimentResult& result) {
  dcs::ByteWriter w;
  dcs::SerializeResult(result, &w);
  return Fnv1a(w.bytes());
}

std::uint64_t CounterOf(const dcs::MetricsRegistry& m, const char* name) {
  const dcs::MetricsCounter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

void Require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error("traced run disagrees with the program: " + what);
  }
}

DeviceCounts CountsOf(dcs::DeviceSim& dev) {
  DeviceCounts c;
  c.events = dev.sim().events_executed();
  c.events_cancelled = dev.sim().events_cancelled();
  c.quanta = dev.kernel().quanta_elapsed();
  c.dispatches = CounterOf(dev.metrics(), "kernel.dispatches");
  c.sched_records = dev.kernel().sched_log().total_recorded();
  for (const std::string& name : dev.kernel().sink().Names()) {
    c.trace_points += dev.kernel().sink().Find(name)->size();
  }
  const dcs::DeadlineMonitor& deadlines = dev.deadlines();
  c.admitted = static_cast<std::uint64_t>(deadlines.TotalEvents());
  c.requests = static_cast<std::uint64_t>(deadlines.TotalEvents() + deadlines.TotalRejected());
  c.power_segments = dev.itsy().tape().segments().size();
  c.clock_changes = static_cast<std::uint64_t>(dev.itsy().clock_changes());
  return c;
}

void AddCounts(const DeviceCounts& after, const DeviceCounts& before, LayerTotals* t) {
  t->events += after.events - before.events;
  t->events_cancelled += after.events_cancelled - before.events_cancelled;
  t->quanta += after.quanta - before.quanta;
  t->dispatches += after.dispatches - before.dispatches;
  t->sched_records += after.sched_records - before.sched_records;
  t->trace_points += after.trace_points - before.trace_points;
  t->admitted += after.admitted - before.admitted;
  t->requests += after.requests - before.requests;
  t->power_segments += after.power_segments - before.power_segments;
  t->clock_changes += after.clock_changes - before.clock_changes;
}

dcs::ExperimentResult TracedFinish(dcs::DeviceSim& dev, const dcs::ExperimentConfig& config,
                                   std::uint64_t decisions, std::int64_t job, TraceContext* ctx,
                                   LayerTotals* t) {
  Tracer& tr = *ctx->tracer;
  const std::uint64_t events = dev.sim().events_executed();
  const std::uint64_t quanta = dev.kernel().quanta_elapsed();

  // Finish samples the GPIO window [0, end) and integrates the tape over it;
  // the same two calls, replayed here with Finish's DAQ seed, time them.
  // Whichever of the replay and Finish runs second finds the tape in cache,
  // so the order alternates from job to job: Finish's self time, a
  // difference of the two, is then biased neither up nor down on average.
  const dcs::SimTime end = dev.sim().Now();
  const dcs::PowerTape& tape = dev.itsy().tape();
  double daq_energy = 0.0;
  double exact_energy = 0.0;
  double daq_ns = 0.0;
  double tape_ns = 0.0;
  const auto replay = [&] {
    dcs::DaqConfig daq_config = config.daq;
    daq_config.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
    dcs::Daq daq(daq_config, config.arena);
    daq_ns = tr.Time("daq.sample_window", job, [&] {
      const std::span<const double> samples = daq.SampleWindow(tape, dcs::SimTime::Zero(), end);
      t->daq_samples += samples.size();
      daq_energy = daq.EnergyJoules(samples);
    });
    tape_ns = tr.Time("hw.tape_energy", job,
                      [&] { exact_energy = tape.EnergyJoules(dcs::SimTime::Zero(), end); });
  };
  const bool replay_first = job % 2 == 0;
  if (replay_first) {
    replay();
  }
  dcs::ExperimentResult result;
  const double finish_ns = tr.Time("exp.finish", job, [&] { result = dev.Finish(); });
  if (!replay_first) {
    replay();
  }
  t->daq_ns += daq_ns;
  t->daq_calls += 1;
  t->tape_ns += tape_ns;
  t->tape_calls += 1;
  t->finish_ns += finish_ns;
  t->finish_self_ns += finish_ns - daq_ns - tape_ns;
  t->finish_self_samples_ns.push_back(finish_ns - daq_ns - tape_ns);
  t->finishes += 1;

  Require(result.energy_joules == daq_energy, "replayed DAQ energy");
  Require(result.exact_energy_joules == exact_energy, "replayed tape energy");
  Require(CounterOf(result.metrics, "sim.events_executed") == events, "sim.events");
  Require(CounterOf(result.metrics, "kernel.quanta") == quanta, "kernel.quanta");
  Require(CounterOf(result.metrics, "governor.decisions") == decisions, "core.decisions");

  // The journal codec on this result: fingerprint, serialize, deserialize
  // (which must reproduce the bytes), append and, per batch, read back.
  std::uint64_t fingerprint = 0;
  t->fingerprint_ns += tr.Time("exp.fingerprint", job,
                               [&] { fingerprint = dcs::ConfigFingerprint(config); });
  t->fingerprints += 1;
  dcs::ByteWriter bytes;
  t->serialize_ns +=
      tr.Time("exp.serialize", job, [&] { dcs::SerializeResult(result, &bytes); });
  t->serializes += 1;
  t->record_bytes += bytes.bytes().size();
  const std::uint64_t digest = Fnv1a(bytes.bytes());
  dcs::JournalRecord record;
  bool decoded = false;
  t->deserialize_ns += tr.Time("exp.deserialize", job, [&] {
    dcs::ByteReader reader(bytes.bytes());
    decoded = dcs::DeserializeResult(&reader, &record.result) && reader.AtEnd();
  });
  t->deserializes += 1;
  Require(decoded && ResultDigest(record.result) == digest, "result codec round trip");
  record.config_fingerprint = fingerprint;
  record.ok = true;
  std::string error;
  const int append = tr.Open("exp.journal_append", job);
  const bool appended = ctx->journal->Append(&record, digest, t, &error);
  tr.Close(append);
  if (!appended) {
    throw std::runtime_error(error);
  }
  return result;
}

dcs::ExperimentResult TracedExperiment(const dcs::ExperimentConfig& config, std::int64_t job,
                                       TraceContext* ctx) {
  Tracer& tr = *ctx->tracer;
  LayerTotals t;
  t.units = 1;
  const int root = tr.Open("job", job);

  std::optional<dcs::DeviceSim> dev;
  std::optional<TimedPolicy> policy;
  t.build_ns = tr.Time("exp.device_build", job, [&] {
    dev.emplace(config);
    if (dev->governor() != nullptr) {
      policy.emplace(dev->governor());
      dev->kernel().InstallPolicy(&*policy);
    }
  });
  t.builds = 1;

  const int run = tr.Open("sim.run_until", job);
  dev->Start();
  dev->RunUntil(dev->duration());
  t.run_ns = tr.Close(run);
  t.core_ns = policy ? policy->ns() : 0.0;
  tr.Aggregate(run, "core.on_quantum", t.core_ns);
  t.run_self_ns = t.run_ns - t.core_ns;
  t.runs = 1;
  const std::uint64_t decisions = policy ? policy->decisions() : 0;
  t.decisions = decisions;
  t.step_changes = policy ? policy->step_changes() : 0;
  AddCounts(CountsOf(*dev), DeviceCounts{}, &t);

  // Snapshot round trip at the quiescent point RunUntil leaves: restoring a
  // device from its own image must not change what Finish reports (the
  // digest check proves it did not).
  dcs::SnapshotWriter image;
  t.save_ns = tr.Time("sim.snapshot_save", job, [&] { dev->SaveState(&image); });
  bool restored = false;
  t.load_ns = tr.Time("sim.snapshot_load", job, [&] {
    dcs::SnapshotReader reader(image);
    dev->LoadState(&reader);
    restored = reader.ok();
  });
  Require(restored, "device image failed to restore");
  t.saves = t.loads = 1;
  t.snapshot_bytes = image.size();

  dcs::ExperimentResult result = TracedFinish(*dev, config, decisions, job, ctx, &t);
  tr.Close(root);

  t.on_path_ns[kExp] = t.build_ns + t.finish_self_ns;
  if (ctx->journaled) {
    t.on_path_ns[kExp] += t.fingerprint_ns + t.serialize_ns + t.append_ns;
  }
  t.on_path_ns[kSim] = t.run_self_ns;
  t.on_path_ns[kCore] = t.core_ns;
  t.on_path_ns[kDaq] = t.daq_ns;
  t.on_path_ns[kHw] = t.tape_ns;
  t.comparable_ns = t.build_ns + t.run_ns + t.finish_ns;
  const std::lock_guard<std::mutex> lock(ctx->mutex);
  ctx->totals.Merge(t);
  return result;
}

}  // namespace perfbench
