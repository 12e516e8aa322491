#include "src/exp/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/repeat.h"

namespace dcs {
namespace {

ExperimentConfig ShortMpeg(std::uint64_t seed, const std::string& governor = "fixed-206.4") {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::Seconds(2);
  return config;
}

// Field-by-field bit equality of the result surface the benches report.
void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.governor, b.governor);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.exact_energy_joules, b.exact_energy_joules);
  EXPECT_EQ(a.average_watts, b.average_watts);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.quanta, b.quanta);
  EXPECT_EQ(a.clock_changes, b.clock_changes);
  EXPECT_EQ(a.voltage_transitions, b.voltage_transitions);
  EXPECT_EQ(a.total_stall, b.total_stall);
  EXPECT_EQ(a.step_residency, b.step_residency);
  EXPECT_EQ(a.task_cpu_seconds, b.task_cpu_seconds);
  EXPECT_EQ(a.deadline_events, b.deadline_events);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.worst_lateness, b.worst_lateness);
  const TraceSeries* ua = a.sink.Find("utilization");
  const TraceSeries* ub = b.sink.Find("utilization");
  ASSERT_NE(ua, nullptr);
  ASSERT_NE(ub, nullptr);
  ASSERT_EQ(ua->size(), ub->size());
  for (std::size_t i = 0; i < ua->size(); ++i) {
    EXPECT_EQ(ua->points()[i], ub->points()[i]) << "quantum " << i;
  }
}

TEST(SweepRunnerTest, EmptyGridYieldsNoResults) {
  SweepRunner runner;
  EXPECT_TRUE(runner.Run({}).empty());
  EXPECT_EQ(runner.metrics().jobs, 0);
}

TEST(SweepRunnerTest, EmptyGridResetsMetricsFromPreviousRun) {
  // Regression: an empty grid after a real one must not report the previous
  // call's wall clock, failure count or throughput.
  SweepRunner runner;
  runner.Run({ShortMpeg(1), ShortMpeg(2, "definitely-not-a-spec")});
  ASSERT_GT(runner.metrics().wall_seconds, 0.0);
  ASSERT_EQ(runner.metrics().failed, 1);

  EXPECT_TRUE(runner.Run({}).empty());
  const SweepMetrics& m = runner.metrics();
  EXPECT_EQ(m.jobs, 0);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(m.wall_seconds, 0.0);
  EXPECT_EQ(m.simulated_seconds, 0.0);
  EXPECT_EQ(m.sim_seconds_per_second, 0.0);
}

TEST(SweepRunnerTest, ResultsAreIndexedByJobOrder) {
  const std::vector<ExperimentConfig> configs = {
      ShortMpeg(1, "fixed-206.4"), ShortMpeg(2, "fixed-132.7"),
      ShortMpeg(3, "PAST-peg-peg-93-98")};
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  const std::vector<SweepJobResult> jobs = runner.Run(configs);
  ASSERT_EQ(jobs.size(), 3u);
  // Each slot must hold exactly the result a serial RunExperiment of that
  // slot's config produces (ExpectIdentical compares the governor name too,
  // so a swapped slot would show up immediately).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(jobs[i].ok()) << jobs[i].error;
    ExpectIdentical(*jobs[i].result, RunExperiment(configs[i]));
  }
}

TEST(SweepRunnerTest, BitIdenticalAcrossThreadCounts) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    configs.push_back(ShortMpeg(seed, seed % 2 == 0 ? "PAST-peg-peg-93-98" : "AVG9-one-one-50-70"));
  }
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<ExperimentResult> a = RunSweep(configs, serial);
  const std::vector<ExperimentResult> b = RunSweep(configs, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ExpectIdentical(a[i], b[i]);
  }
}

TEST(SweepRunnerTest, BadConfigFailsOnlyItsJob) {
  std::vector<ExperimentConfig> configs = {ShortMpeg(1), ShortMpeg(2, "definitely-not-a-spec"),
                                           ShortMpeg(3)};
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  const std::vector<SweepJobResult> jobs = runner.Run(configs);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_TRUE(jobs[0].ok());
  EXPECT_FALSE(jobs[1].ok());
  EXPECT_NE(jobs[1].error.find("definitely-not-a-spec"), std::string::npos) << jobs[1].error;
  EXPECT_TRUE(jobs[2].ok());
  EXPECT_EQ(runner.metrics().failed, 1);
}

TEST(SweepRunnerTest, RunSweepThrowsOnFirstFailedJob) {
  const std::vector<ExperimentConfig> configs = {ShortMpeg(1),
                                                 ShortMpeg(2, "definitely-not-a-spec")};
  EXPECT_THROW(RunSweep(configs), std::runtime_error);
}

TEST(SweepRunnerTest, MetricsTrackJobsAndSimulatedSeconds) {
  const std::vector<ExperimentConfig> configs = {ShortMpeg(1), ShortMpeg(2)};
  SweepRunner runner;
  runner.Run(configs);
  const SweepMetrics& m = runner.metrics();
  EXPECT_EQ(m.jobs, 2);
  EXPECT_EQ(m.failed, 0);
  EXPECT_GE(m.threads, 1);
  EXPECT_LE(m.threads, 2);  // never more workers than jobs
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.simulated_seconds, 4.0);
  EXPECT_GT(m.sim_seconds_per_second, 0.0);
}

TEST(SweepRunnerTest, ThreadsResolveToHardwareWhenUnset) {
  SweepRunner runner;
  EXPECT_GE(runner.threads(), 1);
  SweepOptions options;
  options.threads = 3;
  EXPECT_EQ(SweepRunner(options).threads(), 3);
}

TEST(SweepOptionsFromArgsTest, ParsesThreadsAndProgress) {
  char prog[] = "bench";
  char threads_eq[] = "--threads=6";
  char progress[] = "--progress";
  char* argv1[] = {prog, threads_eq, progress};
  SweepOptions options = SweepOptionsFromArgs(3, argv1);
  EXPECT_EQ(options.threads, 6);
  EXPECT_TRUE(options.progress);

  char threads_flag[] = "--threads";
  char four[] = "4";
  char* argv2[] = {prog, threads_flag, four};
  options = SweepOptionsFromArgs(3, argv2);
  EXPECT_EQ(options.threads, 4);
  EXPECT_FALSE(options.progress);

  char* argv3[] = {prog};
  options = SweepOptionsFromArgs(1, argv3);
  EXPECT_EQ(options.threads, 0);
}

TEST(SweepOptionsFromArgsTest, ParsesCampaignFlags) {
  char prog[] = "bench";
  char resume[] = "--resume=run.journal";
  char timeout[] = "--job-timeout=2.5";
  char retries[] = "--max-retries=5";
  char quarantine[] = "--quarantine-out=bad.json";
  char* argv1[] = {prog, resume, timeout, retries, quarantine};
  SweepOptions options = SweepOptionsFromArgs(5, argv1);
  EXPECT_EQ(options.campaign.resume, "run.journal");
  EXPECT_DOUBLE_EQ(options.campaign.job_timeout, 2.5);
  EXPECT_EQ(options.campaign.max_retries, 5);
  EXPECT_EQ(options.campaign.quarantine_out, "bad.json");
  EXPECT_TRUE(options.campaign.Enabled());
  EXPECT_EQ(options.campaign.QuarantinePath(), "bad.json");

  // Space-separated form, negative values clamped, defaults otherwise.
  char resume_flag[] = "--resume";
  char journal[] = "j.bin";
  char bad_timeout[] = "--job-timeout=-1";
  char* argv2[] = {prog, resume_flag, journal, bad_timeout};
  options = SweepOptionsFromArgs(4, argv2);
  EXPECT_EQ(options.campaign.resume, "j.bin");
  EXPECT_EQ(options.campaign.job_timeout, 0.0);
  EXPECT_EQ(options.campaign.QuarantinePath(), "j.bin.quarantine.json");

  char* argv3[] = {prog};
  options = SweepOptionsFromArgs(1, argv3);
  EXPECT_FALSE(options.campaign.Enabled());
  EXPECT_EQ(options.campaign.QuarantinePath(), "");
  EXPECT_EQ(options.campaign.max_retries, 2);
}

TEST(RunRepeatedParallelTest, BitIdenticalToSerial) {
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const RepeatedResult a = RunRepeated(ShortMpeg(100), 5, serial);
  const RepeatedResult b = RunRepeated(ShortMpeg(100), 5, parallel);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    ExpectIdentical(a.runs[i], b.runs[i]);
  }
  EXPECT_EQ(a.energy.mean, b.energy.mean);
  EXPECT_EQ(a.energy.stddev, b.energy.stddev);
  EXPECT_EQ(a.energy.ci95_half, b.energy.ci95_half);
  EXPECT_EQ(a.total_deadline_misses, b.total_deadline_misses);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.mean_clock_changes, b.mean_clock_changes);
}

// A fixed integer burn; returns its result so it cannot be optimised away.
std::uint64_t Burn(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SecondsToRun(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The parallelism the host actually gives `threads` threads right now: a
// burn calibrated to ~20 ms on one thread, then the same burn on every
// thread at once, best of three each; threads * t1 / t_parallel.  Unlike
// hardware_concurrency(), this sees CPU quotas and neighbours' load.
double MeasuredParallelism(int threads) {
  std::atomic<std::uint64_t> sink{0};
  std::uint64_t iterations = 1 << 16;
  while (SecondsToRun([&] { sink += Burn(iterations); }) < 0.02) {
    iterations *= 2;
  }
  double serial = 1e300;
  double parallel = 1e300;
  for (int round = 0; round < 3; ++round) {
    serial = std::min(serial, SecondsToRun([&] { sink += Burn(iterations); }));
    parallel = std::min(parallel, SecondsToRun([&] {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] { sink += Burn(iterations); });
      }
      for (std::thread& thread : pool) {
        thread.join();
      }
    }));
  }
  return threads * serial / parallel;
}

TEST(SweepRunnerTest, ParallelSpeedupOnMulticoreHost) {
  // The acceptance bar: a 32-repetition sweep at least 2x faster on 4
  // threads.  Skipped unless the host measurably gives 4 threads 3x the
  // throughput of one: the bar needs that headroom over the runner's
  // serial share.
  const double available = MeasuredParallelism(4);
  if (available < 3.0) {
    GTEST_SKIP() << "needs 3x measured parallelism on 4 threads for the 2x bar, have "
                 << available << "x";
  }
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    configs.push_back(ShortMpeg(seed));
  }
  SweepOptions serial;
  serial.threads = 1;
  SweepRunner serial_runner(serial);
  serial_runner.Run(configs);
  const double serial_wall = serial_runner.metrics().wall_seconds;

  SweepOptions parallel;
  parallel.threads = 4;
  SweepRunner parallel_runner(parallel);
  parallel_runner.Run(configs);
  const double parallel_wall = parallel_runner.metrics().wall_seconds;

  EXPECT_GE(serial_wall / parallel_wall, 2.0)
      << "serial " << serial_wall << "s vs parallel " << parallel_wall << "s, measured "
      << available << "x parallelism";
}

}  // namespace
}  // namespace dcs
