// Static-dispatch differential suite.
//
// The kernel ticks the installed governor through a function pointer built
// by the registry from the governor's concrete type (PolicyDispatch::For),
// replacing the per-quantum virtual call.  Devirtualisation must be purely
// mechanical: this suite drives the entire governor slate through both
// dispatch paths — the legacy vtable path (tests/support/virtual_dispatch.h)
// and the static thunk — and asserts the runs are observably identical down
// to the scheduler log, with and without an active fault plan.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/exp/experiment.h"
#include "tests/support/virtual_dispatch.h"

namespace dcs {
namespace {

ExperimentResult RunWithDispatch(const std::string& spec, const std::string& faults,
                                 bool legacy) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = spec;
  config.seed = 23;
  config.duration = SimTime::Seconds(2);
  config.capture_obs = true;
  config.faults = faults;
  return legacy ? testing::RunWithVirtualDispatch(config) : RunExperiment(config);
}

void ExpectIdenticalRuns(const ExperimentResult& legacy, const ExperimentResult& fast,
                         const std::string& label) {
  // Scheduler log: the finest-grained observable — every context switch and
  // clock change with microsecond timestamps must match entry for entry.
  ASSERT_TRUE(legacy.obs.captured) << label;
  ASSERT_TRUE(fast.obs.captured) << label;
  ASSERT_EQ(legacy.obs.sched.size(), fast.obs.sched.size()) << label;
  for (std::size_t i = 0; i < legacy.obs.sched.size(); ++i) {
    ASSERT_EQ(legacy.obs.sched[i].time_us, fast.obs.sched[i].time_us)
        << label << " entry " << i;
    ASSERT_EQ(legacy.obs.sched[i].pid, fast.obs.sched[i].pid) << label << " entry " << i;
    ASSERT_EQ(legacy.obs.sched[i].clock_step, fast.obs.sched[i].clock_step)
        << label << " entry " << i;
  }

  // Energy and scheduling metrics, bit for bit (EXPECT_EQ, not NEAR).
  EXPECT_EQ(legacy.energy_joules, fast.energy_joules) << label;
  EXPECT_EQ(legacy.exact_energy_joules, fast.exact_energy_joules) << label;
  EXPECT_EQ(legacy.average_watts, fast.average_watts) << label;
  EXPECT_EQ(legacy.avg_utilization, fast.avg_utilization) << label;
  EXPECT_EQ(legacy.quanta, fast.quanta) << label;
  EXPECT_EQ(legacy.clock_changes, fast.clock_changes) << label;
  EXPECT_EQ(legacy.voltage_transitions, fast.voltage_transitions) << label;
  EXPECT_EQ(legacy.total_stall, fast.total_stall) << label;
  EXPECT_EQ(legacy.step_residency, fast.step_residency) << label;
  EXPECT_EQ(legacy.governor, fast.governor) << label;

  // Deadline outcomes.
  EXPECT_EQ(legacy.deadline_events, fast.deadline_events) << label;
  EXPECT_EQ(legacy.deadline_misses, fast.deadline_misses) << label;
  EXPECT_EQ(legacy.worst_lateness, fast.worst_lateness) << label;

  // Fault-path bookkeeping (all zero on unfaulted runs).
  EXPECT_EQ(legacy.faults.enabled, fast.faults.enabled) << label;
  EXPECT_EQ(legacy.faults.injected_total, fast.faults.injected_total) << label;
  EXPECT_EQ(legacy.faults.transition_retries, fast.faults.transition_retries) << label;
  EXPECT_EQ(legacy.faults.brownouts, fast.faults.brownouts) << label;
  EXPECT_EQ(legacy.faults.dropped_samples, fast.faults.dropped_samples) << label;
  EXPECT_EQ(legacy.faults.invariant_violations, fast.faults.invariant_violations) << label;
}

class DispatchEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DispatchEquivalenceTest, StaticAndVirtualDispatchAreByteIdentical) {
  const std::string spec = GetParam();
  for (const std::string faults : {std::string(), std::string("storm=0.3")}) {
    const ExperimentResult legacy = RunWithDispatch(spec, faults, /*legacy=*/true);
    const ExperimentResult fast = RunWithDispatch(spec, faults, /*legacy=*/false);
    ExpectIdenticalRuns(legacy, fast,
                        spec + (faults.empty() ? " [no faults]" : " [" + faults + "]"));
  }
}

std::string SpecName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllGovernors, DispatchEquivalenceTest,
                         ::testing::ValuesIn(AllGovernorSpecs()), SpecName);

}  // namespace
}  // namespace dcs
