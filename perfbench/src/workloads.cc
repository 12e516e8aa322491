#include "perfbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "perfbench/src/fleet_drive.h"
#include "perfbench/src/host_speed.h"
#include "perfbench/src/trace.h"
#include "src/exp/campaign.h"
#include "src/exp/fleet.h"
#include "src/exp/journal.h"
#include "src/exp/sweep.h"
#include "src/sim/arena.h"

namespace perfbench {
namespace {

// --- Catalogues ---------------------------------------------------------------
//
// A catalogue is a list of configs, each with a pool of simulation seeds.
// Every (config, pool entry) pair is one job with a recorded output digest.

struct Job {
  std::string key;
  dcs::ExperimentConfig config;  // experiment workloads
  dcs::FleetSpec fleet;          // fleet_clone
};

struct Catalogue {
  int configs;
  int pool;
  Job (*make)(int config, int pool_entry);
};

// Table 2: the paper's five best MPEG configurations, with the midpoints of
// the paper's 95% CIs (EXPERIMENTS.md), the model's only reference results.
constexpr int kTab2Rows = 5;
constexpr const char* kTab2Governors[kTab2Rows] = {
    "fixed-206.4", "fixed-132.7", "fixed-132.7@1.23", "PAST-peg-peg-93-98",
    "PAST-peg-peg-93-98-vs"};
constexpr double kTab2PaperJoules[kTab2Rows] = {86.04, 80.265, 74.085, 85.25, 85.025};

// A slice of the section 5.3 AVG_N x speed-policy grid.
constexpr const char* kSliceApps[] = {"mpeg", "web", "chess", "editor"};
constexpr const char* kSliceGovernors[] = {"AVG1-one-one-50-70", "AVG3-double-peg-50-70",
                                           "AVG9-peg-peg-50-70"};

Job PaperJob(int c, int k) {
  Job job;
  if (c < kTab2Rows) {
    job.config.app = "mpeg";
    job.config.governor = kTab2Governors[c];
    job.config.seed = 1000 + static_cast<std::uint64_t>(k);
    job.key = "paper/tab2/" + job.config.governor;
  } else {
    const int s = c - kTab2Rows;
    job.config.app = kSliceApps[s / 3];
    job.config.governor = kSliceGovernors[s % 3];
    job.config.seed = 7 + static_cast<std::uint64_t>(k);
    job.key = "paper/avgn/" + job.config.app + "/" + job.config.governor;
  }
  job.key += "/" + std::to_string(k);
  return job;
}
constexpr Catalogue kPaper = {kTab2Rows + 12, 8, PaperJob};

// Short open-loop server experiments: arrival grammar x admission policy x
// governor x offered rate.
constexpr dcs::ArrivalProcess kArrivals[] = {
    dcs::ArrivalProcess::kPoisson, dcs::ArrivalProcess::kBursty,
    dcs::ArrivalProcess::kSelfSimilar};
constexpr dcs::AdmissionPolicy kAdmission[] = {dcs::AdmissionPolicy::kNone,
                                               dcs::AdmissionPolicy::kFeedback};
constexpr const char* kServerGovernors[] = {"fixed-206.4", "PAST-peg-peg-93-98", "pid-vs",
                                            "deadline-vs"};
constexpr double kServerRates[] = {160.0, 320.0};

Job ServerJob(int c, int k) {
  Job job;
  dcs::ServerConfig server;
  server.duration = dcs::SimTime::Seconds(3);
  server.slo = dcs::SimTime::Millis(50);
  server.rate_rps = kServerRates[c % 2];
  server.admission.policy = kAdmission[(c / 2) % 2];
  server.arrivals = kArrivals[(c / 4) % 3];
  job.config.app = "server";
  job.config.server = server;
  job.config.governor = kServerGovernors[c / 12];
  job.config.seed = 7 + static_cast<std::uint64_t>(k);
  job.key = std::string("server/") + dcs::ArrivalProcessName(server.arrivals) + "/" +
            dcs::AdmissionPolicyName(server.admission.policy) + "/" + job.config.governor +
            "/" + std::to_string(static_cast<int>(server.rate_rps)) + "/" + std::to_string(k);
  return job;
}
constexpr Catalogue kServer = {48, 4, ServerJob};

// fleet_clone's traffic is bench/fleet_scale's fleet (BenchFleet there): mpeg
// and web in the weights 3 : 1 under each governor of its four-governor
// slate, a 2 s shared warmup, a 3 s horizon and 10% battery-capacity jitter.
// To that it adds the server cells the workload calls for, weight 1 per
// governor, at one of three arrival-rate variants.  Each cell is its own
// single-shard fleet of 256 devices, so a job is one shard, and the weights
// are config counts.
constexpr const char* kFleetGovernors[] = {"fixed-132.7", "pid-vs", "adaptive-vs",
                                           "deadline-vs"};
constexpr const char* kFleetApps[] = {"mpeg", "mpeg", "mpeg", "web", "server"};
constexpr int kFleetAppsPerGovernor = 5;
// The server fleets' offered rates; a job's pool entry picks one.
constexpr double kFleetServerRates[] = {200.0, 240.0, 280.0};
constexpr std::uint64_t kFleetDevices = 256;

Job FleetJob(int c, int k) {
  const int slot = c % kFleetAppsPerGovernor;
  const std::string app = kFleetApps[slot];
  Job job;
  dcs::FleetSpec& spec = job.fleet;
  spec.devices = kFleetDevices;
  spec.shard_devices = kFleetDevices;
  // Seeds apart per slot, so a governor's three mpeg fleets simulate
  // different devices.
  spec.seed = 12 + static_cast<std::uint64_t>(16 * slot + k);
  spec.apps = {{app, 1.0}};
  spec.base.governor = kFleetGovernors[c / kFleetAppsPerGovernor];
  spec.base.itsy.battery = dcs::BatteryParams{};
  std::string variant = std::to_string(slot);
  if (app == "server") {
    spec.base.server.emplace();
    spec.base.server->rate_rps = kFleetServerRates[k % 3];
    spec.base.server->slo = dcs::SimTime::Millis(50);
    variant = std::to_string(static_cast<int>(spec.base.server->rate_rps));
  }
  spec.warmup = dcs::SimTime::Seconds(2);
  spec.duration = dcs::SimTime::Seconds(3);
  spec.jitter.battery_capacity = 0.1;
  job.key = "fleet/" + spec.base.governor + "/" + app + "/" + variant + "/" + std::to_string(k);
  return job;
}
constexpr Catalogue kFleet = {4 * kFleetAppsPerGovernor, 6, FleetJob};

// Whether a fleet job is on bench/fleet_scale's own traffic (mpeg or web),
// the traffic ROADMAP item 1's profile was taken on.
bool OnBenchFleetTraffic(const Job& job) { return job.fleet.apps.front().app != "server"; }

// Cycle `cycle` of a run seeded with `seed`: every config once, in catalogue
// order, each with a seed-chosen pool entry.  The order is fixed so that two
// seeds differ only in the simulated inputs, not in the sequence of job
// shapes the allocator and caches see.
std::vector<Job> Cycle(const Catalogue& cat, std::uint64_t seed, int cycle) {
  std::uint64_t state = Mix64(seed ^ Mix64(static_cast<std::uint64_t>(cycle) + 1));
  std::vector<Job> jobs;
  for (int c = 0; c < cat.configs; ++c) {
    state = Mix64(state);
    jobs.push_back(cat.make(c, static_cast<int>(state % static_cast<std::uint64_t>(cat.pool))));
  }
  return jobs;
}

std::vector<Job> AllJobs(const Catalogue& cat) {
  std::vector<Job> jobs;
  for (int c = 0; c < cat.configs; ++c) {
    for (int k = 0; k < cat.pool; ++k) {
      jobs.push_back(cat.make(c, k));
    }
  }
  return jobs;
}

std::vector<dcs::ExperimentConfig> ConfigsOf(const std::vector<Job>& jobs) {
  std::vector<dcs::ExperimentConfig> configs;
  for (const Job& job : jobs) {
    configs.push_back(job.config);
  }
  return configs;
}

// --- Outcome bookkeeping --------------------------------------------------------

// Counts jobs attempted and failed; a job fails when it errored or its output
// digest differs from the recorded one.
class Checks {
 public:
  explicit Checks(Goldens* goldens) : goldens_(goldens) {}

  // Records one job; returns whether it passed.
  bool Job(const std::string& key, const std::string& error, std::uint64_t digest) {
    bool ok = error.empty();
    std::string why = error;
    if (ok && !key.empty() && !goldens_->Check(key, digest)) {
      ok = false;
      why = "output digest differs from the recorded one";
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
      Fail(key + ": " + why);
    }
    return ok;
  }

  // A finding that is not one job's (a pass-level check); also fails a job
  // so it shows in fail_frac.
  void Finding(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    Fail(what);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    if (errors_.size() < 8) {
      errors_.push_back(what);
    }
  }

  Goldens* goldens_;
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// Timings and outputs of one pass over a sequence of cycles.
struct Pass {
  // Non-null in the traced pass.
  TraceContext* ctx = nullptr;
  // Time each job body too (the runner-overhead denominator).
  bool measure_busy = false;
  std::mutex mutex;
  std::vector<double> job_ms;
  double wall_s = 0.0;  // summed over the timed runner calls
  double busy_s = 0.0;  // summed job-body time, when measured
  std::uint64_t jobs = 0;
  std::uint64_t devices = 0;
  double sim_s = 0.0;
  std::atomic<std::int64_t> next_job{0};
  // Running digest over every job's output digest, in job order.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  // Per Table 2 row: summed DAQ energy and job count.
  double tab2_joules[kTab2Rows] = {};
  int tab2_jobs[kTab2Rows] = {};

  void Combine(std::uint64_t d) {
    digest = Fnv1a(std::string_view(reinterpret_cast<const char*>(&d), sizeof(d)), digest);
  }
};

double Ms(Clock::time_point a, Clock::time_point b) { return SecondsBetween(a, b) * 1e3; }

// --- Workloads -------------------------------------------------------------------

class Workload {
 public:
  Workload(const Options& options, Checks* checks, const Catalogue& catalogue)
      : options_(options), checks_(checks), catalogue_(catalogue) {}
  virtual ~Workload() = default;

  virtual int workers() const { return 1; }
  // Whether the workload's runner journals every result (the codec is then
  // on its path).
  virtual bool journaled() const { return false; }

  // Everything before the first job (setup_s): building the first cycle's
  // grid, fleet Plan(), and the journal the replay reads.  `ctx` is non-null
  // only for a traced set-up.
  virtual void Setup(TraceContext* ctx) {
    (void)ctx;
    grid_ = Cycle(catalogue_, options_.seed, 0);
  }

  // Runs the first few catalogue configs once, untimed, after set-up: the
  // measured cycles then start with caches filled, arenas grown and lazy
  // statics built.
  void Warmup() {
    const std::vector<Job> jobs = WarmupJobs();
    if (!jobs.empty()) {
      Pass warmup;
      RunJobs(jobs, &warmup);
    }
  }

  virtual void RunCycle(int cycle, Pass* pass) {
    RunJobs(cycle == 0 ? grid_ : Cycle(catalogue_, options_.seed, cycle), pass);
  }

  virtual void RunJobs(const std::vector<Job>& jobs, Pass* pass) = 0;

  const Catalogue& catalogue() const { return catalogue_; }

 protected:
  std::vector<Job> WarmupJobs() const {
    std::vector<Job> jobs;
    for (int c = 0; c < WarmupConfigs(); ++c) {
      jobs.push_back(catalogue_.make(c, 0));
    }
    return jobs;
  }
  virtual int WarmupConfigs() const = 0;

  // Checks experiment results against the recorded digests and counts them.
  void CheckResults(const std::vector<Job>& jobs, const std::vector<dcs::SweepJobResult>& results,
                    Pass* pass) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const dcs::SweepJobResult& r = results[i];
      const std::uint64_t digest = r.ok() ? ResultDigest(*r.result) : 0;
      const std::string error = r.ok() ? "" : (r.error.empty() ? "job failed" : r.error);
      pass->Combine(digest);
      if (!checks_->Job(jobs[i].key, error, digest)) {
        continue;
      }
      pass->jobs += 1;
      pass->devices += 1;
      pass->sim_s += r.result->duration.ToSeconds();
      for (int row = 0; row < kTab2Rows; ++row) {
        if (jobs[i].key.rfind(std::string("paper/tab2/") + kTab2Governors[row] + "/", 0) == 0) {
          pass->tab2_joules[row] += r.result->energy_joules;
          pass->tab2_jobs[row] += 1;
        }
      }
    }
  }

  // One experiment job body: RunExperiment, or its traced re-composition.
  dcs::ExperimentResult RunOne(const dcs::ExperimentConfig& config, Pass* pass) {
    const Clock::time_point t0 = Clock::now();
    dcs::ExperimentResult result = pass->ctx != nullptr
                                       ? TracedExperiment(config, pass->next_job++, pass->ctx)
                                       : dcs::RunExperiment(config);
    const double busy = SecondsBetween(t0, Clock::now());
    const std::lock_guard<std::mutex> lock(pass->mutex);
    pass->busy_s += busy;
    return result;
  }

  // A journaled campaign over `jobs` with the server_campaign runner
  // settings: 2 workers, a fresh journal at `journal` fsynced per record,
  // and the per-job watchdog.  Each job's host time runs from its start to
  // the next job start on the same worker (or the campaign's end), so it
  // includes the journal append and the runner hand-off.
  std::vector<dcs::SweepJobResult> RunCampaign(const std::vector<Job>& jobs,
                                               const std::string& journal, Pass* pass) {
    std::remove(journal.c_str());
    std::remove((journal + ".quarantine.json").c_str());
    dcs::CampaignRunner runner(CampaignOptions(journal));
    std::map<std::thread::id, Clock::time_point> starts;
    runner.SetJobFunction([&](const dcs::ExperimentConfig& config) {
      const Clock::time_point now = Clock::now();
      {
        const std::lock_guard<std::mutex> lock(pass->mutex);
        const auto [it, fresh] = starts.try_emplace(std::this_thread::get_id(), now);
        if (!fresh) {
          pass->job_ms.push_back(Ms(it->second, now));
          it->second = now;
        }
      }
      return RunOne(config, pass);
    });
    const Clock::time_point begin = Clock::now();
    std::vector<dcs::SweepJobResult> results = runner.Run(ConfigsOf(jobs));
    const Clock::time_point end = Clock::now();
    for (const auto& [thread, start] : starts) {
      pass->job_ms.push_back(Ms(start, end));
    }
    pass->wall_s += SecondsBetween(begin, end);
    return results;
  }

  static dcs::SweepOptions CampaignOptions(const std::string& journal) {
    dcs::SweepOptions options;
    options.threads = 2;
    options.campaign.resume = journal;
    options.campaign.job_timeout = 60.0;
    return options;
  }

  const Options& options_;
  Checks* checks_;
  const Catalogue& catalogue_;
  // The first cycle's jobs, as set-up builds them.
  std::vector<Job> grid_;
};

// The paper's own experiments through the sweep engine, 1 worker, no journal.
class PaperTables final : public Workload {
 public:
  PaperTables(const Options& options, Checks* checks) : Workload(options, checks, kPaper) {}

  void RunJobs(const std::vector<Job>& jobs, Pass* pass) override {
    dcs::SweepOptions options;
    options.threads = 1;
    dcs::SweepRunner runner(options);
    dcs::SweepJobHooks hooks;
    Clock::time_point last;
    hooks.on_result = [&](int, const dcs::SweepJobResult&) {
      const Clock::time_point now = Clock::now();
      pass->job_ms.push_back(Ms(last, now));
      last = now;
    };
    if (pass->ctx != nullptr || pass->measure_busy) {
      hooks.execute = [&](const dcs::ExperimentConfig& config, int) {
        // The runner's own job path binds a worker arena reset per job.
        static thread_local dcs::Arena arena;
        arena.Reset();
        dcs::ExperimentConfig job = config;
        job.arena = &arena;
        dcs::SweepJobResult slot;
        slot.result = RunOne(job, pass);
        return slot;
      };
    }
    last = Clock::now();
    const Clock::time_point begin = last;
    const std::vector<dcs::SweepJobResult> results = runner.Run(ConfigsOf(jobs), hooks);
    pass->wall_s += SecondsBetween(begin, Clock::now());
    CheckResults(jobs, results, pass);
  }

 private:
  int WarmupConfigs() const override { return 6; }
};

// Many short open-loop server experiments through a journaled campaign.
class ServerCampaign final : public Workload {
 public:
  ServerCampaign(const Options& options, Checks* checks) : Workload(options, checks, kServer) {}

  int workers() const override { return 2; }
  bool journaled() const override { return true; }

  void RunJobs(const std::vector<Job>& jobs, Pass* pass) override {
    const std::vector<dcs::SweepJobResult> results =
        RunCampaign(jobs, options_.work_dir + "/server_campaign.dcsj", pass);
    CheckResults(jobs, results, pass);
  }

 private:
  int WarmupConfigs() const override { return 48; }
};

// Single-shard fleets through the FleetRunner, 1 worker, no journal.
class FleetClone final : public Workload {
 public:
  FleetClone(const Options& options, Checks* checks) : Workload(options, checks, kFleet) {}

  void Setup(TraceContext* ctx) override {
    Workload::Setup(ctx);
    for (const Job& job : grid_) {
      dcs::FleetRunner runner(job.fleet, FleetOptions());
      runner.Plan();
    }
  }

  void RunJobs(const std::vector<Job>& jobs, Pass* pass) override {
    for (const Job& job : jobs) {
      dcs::FleetRunner runner(job.fleet, FleetOptions());
      FleetFold fold;
      bool ok = false;
      try {
        if (pass->ctx == nullptr) {
          ok = RunFleet(job, &runner, pass, &fold);
        } else {
          runner.Plan();
          LayerTotals shard;
          const Clock::time_point t0 = Clock::now();
          fold = DriveFleetShard(job.fleet, OnlyCell(runner), pass->next_job++, pass->ctx, &shard);
          pass->job_ms.push_back(Ms(t0, Clock::now()));
          pass->wall_s += SecondsBetween(t0, Clock::now());
          if (OnBenchFleetTraffic(job)) {
            pass->ctx->subsets[job.fleet.base.governor].Merge(shard);
          }
          ok = checks_->Job("", "", 0);
        }
      } catch (const std::exception& e) {
        checks_->Job(job.key, e.what(), 0);
      }
      pass->Combine(Fnv1a(std::string_view(reinterpret_cast<const char*>(&fold), sizeof(fold))));
      if (!ok) {
        continue;
      }
      pass->jobs += 1;
      pass->devices += fold.devices;
      // Simulated device-seconds actually run: the shared warmup once, then
      // each device's tail from its restored image.
      pass->sim_s += job.fleet.warmup.ToSeconds() +
                     static_cast<double>(fold.devices) *
                         (job.fleet.duration - job.fleet.warmup).ToSeconds();
    }
  }

 private:
  int WarmupConfigs() const override { return kFleetAppsPerGovernor; }

  static dcs::SweepOptions FleetOptions() {
    dcs::SweepOptions options;
    options.threads = 1;
    return options;
  }

  static const dcs::FleetCell& OnlyCell(const dcs::FleetRunner& runner) {
    if (runner.cells().size() != 1 || runner.shards().size() != 1) {
      throw std::runtime_error("fleet job is not a single-shard fleet");
    }
    return runner.cells().front();
  }

  // Runs one fleet through the FleetRunner; returns whether its report
  // matched the recorded digest.  The job's time is Run()'s: Plan(), the
  // campaign hand-off, RunShard and the report merge.
  bool RunFleet(const Job& job, dcs::FleetRunner* runner, Pass* pass, FleetFold* fold) {
    const Clock::time_point t0 = Clock::now();
    const dcs::FleetReport report = runner->Run();
    const Clock::time_point t1 = Clock::now();
    pass->job_ms.push_back(Ms(t0, t1));
    pass->wall_s += SecondsBetween(t0, t1);
    *fold = FoldOf(report);
    const std::string error = report.failed_shards == 0 ? "" : "fleet shard failed";
    return checks_->Job(job.key, error, Fnv1a(dcs::RenderFleetJson(report)));
  }
};

// Resumes a completed server_campaign journal: only the codec's read
// direction runs.
class CampaignReplay final : public Workload {
 public:
  CampaignReplay(const Options& options, Checks* checks)
      : Workload(options, checks, kServer),
        journal_(options.work_dir + "/campaign_replay.dcsj") {}

  int workers() const override { return 2; }
  bool journaled() const override { return true; }

  // Writes the journal the run replays: one server_campaign cycle.
  void Setup(TraceContext* ctx) override {
    Workload::Setup(ctx);
    Pass pass;
    pass.ctx = ctx;
    CheckResults(grid_, RunCampaign(grid_, journal_, &pass), &pass);
  }

  void RunCycle(int, Pass* pass) override { RunJobs(grid_, pass); }

  void RunJobs(const std::vector<Job>& jobs, Pass* pass) override {
    dcs::CampaignRunner runner(CampaignOptions(journal_));
    const std::vector<dcs::ExperimentConfig> configs = ConfigsOf(jobs);
    Tracer* tr = pass->ctx != nullptr ? pass->ctx->tracer : nullptr;
    const std::int64_t job_id = pass->next_job++;
    const int span = tr != nullptr ? tr->Open("exp.campaign_replay", job_id) : -1;
    const Clock::time_point t0 = Clock::now();
    const std::vector<dcs::SweepJobResult> results = runner.Run(configs);
    const Clock::time_point t1 = Clock::now();
    if (tr != nullptr) {
      tr->Close(span);
    }
    pass->job_ms.push_back(Ms(t0, t1));
    pass->wall_s += SecondsBetween(t0, t1);
    const dcs::CampaignReport& report = runner.report();
    if (report.replayed != static_cast<int>(jobs.size()) || report.executed != 0) {
      checks_->Finding("journal replayed " + std::to_string(report.replayed) + " of " +
                       std::to_string(jobs.size()) + " records");
    }
    CheckResults(jobs, results, pass);
    if (pass->ctx != nullptr) {
      TraceReadDirection(results, pass->ctx, job_id, SecondsBetween(t0, t1) * 1e9);
    }
  }

 private:
  // Its set-up already ran every config it replays.
  int WarmupConfigs() const override { return 0; }

  // Times the calls the replay is made of, one by one: ReadJournal over the
  // journal, and DeserializeResult per record.
  void TraceReadDirection(const std::vector<dcs::SweepJobResult>& results, TraceContext* ctx,
                          std::int64_t job, double replay_ns) {
    LayerTotals t;
    dcs::JournalReadResult read;
    t.read_ns = ctx->tracer->Time("exp.journal_read", job,
                                  [&] { read = dcs::ReadJournal(journal_); });
    for (const dcs::JournalSegment& segment : read.segments) {
      t.read_records += segment.records.size();
    }
    for (const dcs::SweepJobResult& r : results) {
      if (!r.ok()) {
        continue;
      }
      dcs::ByteWriter bytes;
      dcs::SerializeResult(*r.result, &bytes);
      dcs::ExperimentResult back;
      t.deserialize_ns += ctx->tracer->Time("exp.deserialize", job, [&] {
        dcs::ByteReader reader(bytes.bytes());
        dcs::DeserializeResult(&reader, &back);
      });
      t.deserializes += 1;
    }
    t.on_path_ns[kExp] = replay_ns;
    t.comparable_ns = replay_ns;
    const std::lock_guard<std::mutex> lock(ctx->mutex);
    ctx->totals.Merge(t);
  }

  std::string journal_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& options, Checks* checks) {
  if (options.workload == "paper_tables") {
    return std::make_unique<PaperTables>(options, checks);
  }
  if (options.workload == "server_campaign") {
    return std::make_unique<ServerCampaign>(options, checks);
  }
  if (options.workload == "fleet_clone") {
    return std::make_unique<FleetClone>(options, checks);
  }
  if (options.workload == "campaign_replay") {
    return std::make_unique<CampaignReplay>(options, checks);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

// --- Reporting ------------------------------------------------------------------

double Per(double sum, std::uint64_t n) { return n == 0 ? 0.0 : sum / static_cast<double>(n); }

// Mean absolute relative error of the Table 2 energies against the paper.
double Tab2ErrorPct(const Pass& pass) {
  double sum = 0.0;
  int rows = 0;
  for (int row = 0; row < kTab2Rows; ++row) {
    if (pass.tab2_jobs[row] > 0) {
      const double mean = pass.tab2_joules[row] / pass.tab2_jobs[row];
      sum += std::abs(mean - kTab2PaperJoules[row]) / kTab2PaperJoules[row];
      ++rows;
    }
  }
  return rows == 0 ? 0.0 : 100.0 * sum / rows;
}

void Print(const Metric& m) {
  std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

// Runs whole cycles until `seconds` have passed, sampling the host's speed
// between cycles; returns the cycles run.
int RunFor(Workload* w, double seconds, Pass* pass, HostSpeed* host) {
  const Clock::time_point begin = Clock::now();
  int cycles = 0;
  do {
    host->MaybeSample();
    w->RunCycle(cycles++, pass);
  } while (SecondsBetween(begin, Clock::now()) < seconds);
  return cycles;
}

// setup_s is the median of repeated set-ups: at least kMinSetups, and more
// until kSetupSeconds have passed (or kMaxSetups are done).  The first one
// is the cold set-up a user pays; the report prints it apart.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 5000;
constexpr double kSetupSeconds = 0.5;

void EndToEnd(const Options& options, Workload* w, Checks* checks, Outcome* out) {
  HostSpeed host(w->workers());
  std::vector<double> setups;
  const Clock::time_point setups_begin = Clock::now();
  do {
    host.MaybeSample();
    const Clock::time_point t0 = Clock::now();
    w->Setup(nullptr);
    setups.push_back(SecondsBetween(t0, Clock::now()));
  } while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            SecondsBetween(setups_begin, Clock::now()) < kSetupSeconds));
  w->Warmup();
  Pass pass;
  const int cycles = RunFor(w, options.seconds, &pass, &host);
  // VmHWM once the run is over.  By then every config has run with nearly
  // every entry of its seed pool, so the peak has settled on the costliest
  // jobs rather than on the seed's first picks.
  const double peak_rss_mb = PeakRssMb();

  // Times divide by the host-speed factor and rates multiply by it (see
  // host_speed.h); memory is reported as measured.
  const double f = host.factor();
  const std::vector<Metric> raw = {
      {"sim_s_per_s", pass.sim_s / pass.wall_s, "sim-s/s"},
      {"jobs_per_s", static_cast<double>(pass.jobs) / pass.wall_s, "1/s"},
      {"devices_per_s", static_cast<double>(pass.devices) / pass.wall_s, "1/s"},
      {"job_ms_p50", Quantile(pass.job_ms, 0.5), "ms"},
      {"job_ms_p90", Quantile(pass.job_ms, 0.9), "ms"},
      {"setup_s", Median(setups), "s"},
  };
  for (const Metric& m : raw) {
    const bool rate = m.name.ends_with("_per_s");
    out->metrics.push_back({m.name, rate ? m.value * f : m.value / f, m.unit});
  }
  out->metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});

  std::printf("end-to-end (host wall time; %d cycles, %zu job samples, %.3f s timed; host "
              "speed factor %.4f from %zu reference samples):\n",
              cycles, pass.job_ms.size(), pass.wall_s, f, host.samples());
  std::printf("  %-28s %16s %16s\n", "", "adjusted", "as measured");
  for (std::size_t i = 0; i < out->metrics.size(); ++i) {
    const Metric& m = out->metrics[i];
    const double measured = i < raw.size() ? raw[i].value : m.value;
    std::printf("  %-28s %16.6g %16.6g %s\n", m.name.c_str(), m.value, measured, m.unit.c_str());
  }
  const double fail_frac =
      checks->attempted() == 0
          ? 0.0
          : static_cast<double>(checks->failed()) / static_cast<double>(checks->attempted());
  Print({"fail_frac", fail_frac, "ratio"});
  if (options.workload == "paper_tables") {
    Print({"tab2_err_pct", Tab2ErrorPct(pass), "%"});
  }
  std::printf("  setup_s is the median of %zu set-ups; the first (cold) one took %.6g s as "
              "measured\n",
              setups.size(), setups.front());
  if (pass.job_ms.size() < 100) {
    std::printf("  note: only %zu job samples; p90 has fewer than 10 beyond it\n",
                pass.job_ms.size());
  }
}

// Takes the clock-read bias of its governor calls out of a pass's core time.
void RemoveTimerBias(LayerTotals* t, double timer_bias_ns) {
  const double bias_ns = std::min(t->core_ns, timer_bias_ns * static_cast<double>(t->decisions));
  t->core_ns -= bias_ns;
  t->on_path_ns[kCore] -= std::min(t->on_path_ns[kCore], bias_ns);
}

// A layer's share (%) of the five layers' self time on the workload's path.
double SharePct(const LayerTotals& t, Layer layer) {
  double total = 0.0;
  for (const double ns : t.on_path_ns) {
    total += ns;
  }
  return total > 0.0 ? 100.0 * t.on_path_ns[layer] / total : 0.0;
}

Layer LargestLayer(const LayerTotals& t) {
  int largest = 0;
  for (int l = 1; l < kNumLayers; ++l) {
    if (t.on_path_ns[l] > t.on_path_ns[largest]) {
      largest = l;
    }
  }
  return static_cast<Layer>(largest);
}

void PerLayer(const Options& options, Workload* w, Checks* checks, Outcome* out) {
  Tracer tracer;
  ProbeJournal journal(options.work_dir + "/probe.dcsj");
  TraceContext ctx;
  ctx.tracer = &tracer;
  ctx.journal = &journal;
  ctx.journaled = w->journaled();

  // The replay's set-up simulates the journal it replays: trace it, so the
  // device layers are measured on the jobs whose records the run reads.
  const bool traced_setup = options.workload == "campaign_replay";
  w->Setup(traced_setup ? &ctx : nullptr);
  w->Warmup();
  for (double& ns : ctx.totals.on_path_ns) {
    ns = 0.0;
  }
  ctx.totals.comparable_ns = 0.0;

  Pass plain;
  plain.measure_busy = true;
  HostSpeed host(w->workers());
  const int cycles = RunFor(w, options.seconds / 2, &plain, &host);
  Pass traced;
  traced.ctx = &ctx;
  for (int c = 0; c < cycles; ++c) {
    w->RunCycle(c, &traced);
  }
  std::string error;
  if (!journal.Flush(&ctx.totals, &error)) {
    checks->Finding(error);
  }
  if (traced.digest != plain.digest) {
    checks->Finding("traced run's output digest differs from the untraced run's");
  }
  const std::string span_file =
      options.work_dir + "/spans-" + options.workload + "-" + std::to_string(options.seed) + ".csv";
  if (!tracer.WriteCsv(span_file)) {
    checks->Finding("cannot write " + span_file);
  }

  // The governor's calls are short enough for the timer to matter: take the
  // clock-read bias out of core time (the run's own sim time excludes it
  // already, being RunUntil minus the timed governor regions).
  const double timer_bias_ns = TimerBiasNs();
  LayerTotals t = ctx.totals;
  RemoveTimerBias(&t, timer_bias_ns);
  const double plain_body_s = plain.busy_s > 0.0 ? plain.busy_s : plain.wall_s;
  // Without timed job bodies (fleet_clone, campaign_replay) a job's time is
  // the runner call's own: FleetRunner::Run per single-shard fleet, or one
  // journal resume.
  const double shard_ms = plain.busy_s > 0.0
                              ? 1e3 * Per(plain.busy_s, plain.jobs)
                              : 1e3 * Per(plain.wall_s, plain.job_ms.size());
  // FleetRunner hands its shards to a job function of its own, which cannot
  // be wrapped from outside, so its runner overhead is not measured; the
  // JSON then carries 0.
  const bool overhead_measured = options.workload != "fleet_clone";
  const double runner_overhead_pct =
      overhead_measured ? 100.0 * (1.0 - plain.busy_s / (w->workers() * plain.wall_s)) : 0.0;
  out->metrics = {
      {"daq.sample_ms", Per(t.daq_ns, t.daq_calls) / 1e6, "ms"},
      {"daq.samples", Per(static_cast<double>(t.daq_samples), t.daq_calls), "count"},
      {"daq.ns_per_sample", Per(t.daq_ns, t.daq_samples), "ns"},
      {"hw.tape_energy_us", Per(t.tape_ns, t.tape_calls) / 1e3, "us"},
      {"hw.power_segments", Per(static_cast<double>(t.power_segments), t.units), "count"},
      {"hw.clock_changes", Per(static_cast<double>(t.clock_changes), t.units), "count"},
      {"exp.device_build_us", Per(t.build_ns, t.builds) / 1e3, "us"},
      {"exp.finish_self_ms", std::max(0.0, Per(t.finish_self_ns, t.finishes)) / 1e6, "ms"},
      {"exp.runner_overhead_pct", runner_overhead_pct, "%"},
      {"exp.fingerprint_us", Per(t.fingerprint_ns, t.fingerprints) / 1e3, "us"},
      {"exp.serialize_us", Per(t.serialize_ns, t.serializes) / 1e3, "us"},
      {"exp.journal_append_us", Per(t.append_ns, t.appends) / 1e3, "us"},
      {"exp.journal_record_bytes", Per(static_cast<double>(t.record_bytes), t.serializes),
       "count"},
      {"exp.journal_read_us", Per(t.read_ns, t.read_records) / 1e3, "us"},
      {"exp.deserialize_us", Per(t.deserialize_ns, t.deserializes) / 1e3, "us"},
      {"exp.shard_ms", shard_ms, "ms"},
      {"sim.run_until_ms", Per(t.run_ns, t.runs) / 1e6, "ms"},
      {"sim.ns_per_event", Per(t.run_self_ns, t.events), "ns"},
      {"sim.events", Per(static_cast<double>(t.events), t.units), "count"},
      {"sim.events_cancelled", Per(static_cast<double>(t.events_cancelled), t.units), "count"},
      {"sim.snapshot_save_us", Per(t.save_ns, t.saves) / 1e3, "us"},
      {"sim.snapshot_load_us", Per(t.load_ns, t.loads) / 1e3, "us"},
      {"sim.snapshot_bytes", Per(static_cast<double>(t.snapshot_bytes), t.saves), "count"},
      {"kernel.quanta", Per(static_cast<double>(t.quanta), t.units), "count"},
      {"kernel.dispatches", Per(static_cast<double>(t.dispatches), t.units), "count"},
      {"kernel.sched_log_records", Per(static_cast<double>(t.sched_records), t.units), "count"},
      {"core.on_quantum_ns", Per(t.core_ns, t.decisions), "ns"},
      {"core.decisions", Per(static_cast<double>(t.decisions), t.units), "count"},
      {"core.step_changes", Per(static_cast<double>(t.step_changes), t.units), "count"},
      {"obs.trace_points", Per(static_cast<double>(t.trace_points), t.units), "count"},
      {"workload.requests", Per(static_cast<double>(t.requests), t.units), "count"},
      {"workload.admit_ratio",
       t.requests == 0 ? 1.0 : static_cast<double>(t.admitted) / static_cast<double>(t.requests),
       "ratio"},
      {"trace.overhead_pct", 100.0 * (t.comparable_ns / 1e9 / plain_body_s - 1.0), "%"},
  };
  for (int l = 0; l < kNumLayers; ++l) {
    out->metrics.push_back({std::string("layer.") + LayerName(static_cast<Layer>(l)) + "_pct",
                            SharePct(t, static_cast<Layer>(l)), "%"});
  }

  std::printf("per-layer (traced, as measured; host speed factor %.4f; %d cycles untraced "
              "then the same %d traced; spans in %s):\n",
              host.factor(), cycles, cycles, span_file.c_str());
  for (const Metric& m : out->metrics) {
    Print(m);
  }
  if (!overhead_measured) {
    std::printf("  exp.runner_overhead_pct is not measured on %s: FleetRunner's shard job "
                "function cannot be wrapped from outside (0 is a placeholder)\n",
                options.workload.c_str());
  }
  const std::vector<double>& fs = t.finish_self_samples_ns;
  std::printf("  exp.finish_self_ms is Finish minus a separate replay of its DAQ and tape work "
              "(order alternating per job), floored at 0: %zu samples, per-job p10 %.4g p50 "
              "%.4g p90 %.4g ms\n",
              fs.size(), Quantile(fs, 0.1) / 1e6, Quantile(fs, 0.5) / 1e6,
              Quantile(fs, 0.9) / 1e6);
  std::printf("  self time on the workload's path, summed over the traced pass:");
  for (int l = 0; l < kNumLayers; ++l) {
    std::printf(" %s %.4g s", LayerName(static_cast<Layer>(l)), t.on_path_ns[l] / 1e9);
  }
  std::printf("\n  timer bias %.1f ns per governor call, taken out of core time\n", timer_bias_ns);
  std::printf("  output digest untraced %016llx traced %016llx\n",
              static_cast<unsigned long long>(plain.digest),
              static_cast<unsigned long long>(traced.digest));

  // The layer picture ROADMAP item 1 expects, checked (and reported, never
  // tuned away) on the two workloads it names.
  const Layer largest = LargestLayer(t);
  const double core_pct = SharePct(t, kCore);
  if (options.workload == "paper_tables") {
    std::printf("  layer picture: largest layer %s (expected daq): %s\n", LayerName(largest),
                largest == kDaq ? "agrees" : "MISMATCH");
  } else if (options.workload == "fleet_clone") {
    std::printf(
        "  layer picture: largest layer %s (expected sim), core %.1f%% (expected < 10%%): %s\n",
        LayerName(largest), core_pct, largest == kSim && core_pct < 10.0 ? "agrees" : "MISMATCH");
    // The same on bench/fleet_scale's own traffic, where ROADMAP's profile
    // found no governor's OnQuantum above 3.4% of the whole run.
    LayerTotals bench;
    for (auto& [governor, totals] : ctx.subsets) {
      RemoveTimerBias(&totals, timer_bias_ns);
      bench.Merge(totals);
    }
    std::printf("  on fleet_scale's traffic (mpeg and web shards): largest layer %s, sim %.1f%%, "
                "core %.1f%%; per governor, its core time as a share of that traffic's "
                "(ROADMAP: 3.4%% or less each):",
                LayerName(LargestLayer(bench)), SharePct(bench, kSim), SharePct(bench, kCore));
    double bench_total_ns = 0.0;
    for (const double ns : bench.on_path_ns) {
      bench_total_ns += ns;
    }
    bool agrees = true;
    for (const auto& [governor, totals] : ctx.subsets) {
      const double pct = 100.0 * totals.on_path_ns[kCore] / bench_total_ns;
      agrees = agrees && pct <= 3.4;
      std::printf(" %s %.1f%%", governor.c_str(), pct);
    }
    std::printf(": %s\n", agrees ? "agrees" : "MISMATCH");
  }
}

}  // namespace

Outcome RunBenchmark(const Options& options, Goldens* goldens) {
  Checks checks(goldens);
  const std::unique_ptr<Workload> w = MakeWorkload(options, &checks);
  Outcome out;
  if (options.trace) {
    PerLayer(options, w.get(), &checks, &out);
  } else {
    EndToEnd(options, w.get(), &checks, &out);
  }
  for (const std::string& e : checks.errors()) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  out.attempted = checks.attempted();
  out.failed = checks.failed();
  out.correct = checks.failed() == 0;
  return out;
}

bool RecordGoldens(const std::string& work_dir, Goldens* goldens) {
  Checks checks(goldens);
  for (const char* name : {"paper_tables", "server_campaign", "fleet_clone"}) {
    Options options;
    options.workload = name;
    options.work_dir = work_dir;
    const std::unique_ptr<Workload> w = MakeWorkload(options, &checks);
    Pass pass;
    w->RunJobs(AllJobs(w->catalogue()), &pass);
    std::printf("recorded %s: %llu jobs\n", name, static_cast<unsigned long long>(pass.jobs));
  }
  for (const std::string& e : checks.errors()) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  return checks.failed() == 0;
}

}  // namespace perfbench
