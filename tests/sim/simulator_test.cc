#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <vector>

namespace dcs {
namespace {

TEST(SimulatorTest, TimeStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, RunAdvancesTimeToEventInstants) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.At(SimTime::Millis(10), [&] { seen.push_back(sim.Now().millis()); });
  sim.At(SimTime::Millis(5), [&] { seen.push_back(sim.Now().millis()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator sim;
  SimTime fired;
  sim.At(SimTime::Millis(3), [&] {
    sim.After(SimTime::Millis(4), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::Millis(7));
}

TEST(SimulatorTest, SchedulingInThePastFiresAtNow) {
  Simulator sim;
  SimTime fired;
  sim.At(SimTime::Millis(10), [&] {
    sim.At(SimTime::Millis(2), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::Millis(10));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::Millis(5), [&] { ++fired; });
  sim.At(SimTime::Millis(15), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilIncludesEventsExactlyAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.At(SimTime::Millis(10), [&] { fired = true; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::Millis(1), [&] { ++fired; });
  sim.At(SimTime::Millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.At(SimTime::Millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RequestStopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::Millis(1), [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.At(SimTime::Millis(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, StopBeforeRunIsStickyUntilObserved) {
  // Regression: Run() used to clear stop_requested_ on entry, silently
  // losing a Stop() issued before the loop started.
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::Millis(1), [&] { ++fired; });
  sim.RequestStop();
  EXPECT_TRUE(sim.StopRequested());
  sim.Run();
  EXPECT_EQ(fired, 0);  // the pending stop halted the run before any event
  EXPECT_FALSE(sim.StopRequested());  // ...and was consumed by it
  sim.Run();
  EXPECT_EQ(fired, 1);  // the next run proceeds normally
}

TEST(SimulatorTest, StopBeforeRunUntilIsStickyAndHoldsClock) {
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::Millis(5), [&] { ++fired; });
  sim.RequestStop();
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), SimTime::Zero());  // a stopped run does not jump the clock
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulatorTest, StopThatEndedARunDoesNotLeakIntoTheNext) {
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::Millis(1), [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.At(SimTime::Millis(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.StopRequested());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.At(SimTime::Millis(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, CascadingEventsRunToCompletion) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      sim.After(SimTime::Micros(1), chain);
    }
  };
  sim.After(SimTime::Micros(1), chain);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), SimTime::Micros(100));
}

TEST(SimulatorTest, RunUntilWithEmptyQueueJustAdvancesTime) {
  Simulator sim;
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

// --- FireInline ---------------------------------------------------------------

TEST(SimulatorTest, FireInlineRunsTheNextEventInPlace) {
  Simulator sim;
  bool fired = false;
  SimTime inline_now;
  sim.At(SimTime::Millis(1), [&] {
    fired = sim.FireInline(SimTime::Millis(1) + SimTime::Micros(6));
    inline_now = sim.Now();
  });
  sim.At(SimTime::Millis(10), [] {});
  sim.RunUntil(SimTime::Millis(20));
  EXPECT_TRUE(fired);
  EXPECT_EQ(inline_now, SimTime::Millis(1) + SimTime::Micros(6));
  // Two queued events plus the one run inline.
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, FireInlineWorksInRunAndOnAnEmptyQueue) {
  Simulator sim;
  bool fired = false;
  sim.At(SimTime::Millis(1), [&] { fired = sim.FireInline(SimTime::Seconds(100)); });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), SimTime::Seconds(100));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, FireInlineAtNowIsAllowed) {
  Simulator sim;
  bool fired = false;
  sim.At(SimTime::Millis(1), [&] { fired = sim.FireInline(sim.Now()); });
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, FireInlineRefusesWhenAnEventIsQueuedAtTheSameInstant) {
  // The queued event holds an earlier sequence number, so it fires first.
  Simulator sim;
  bool fired = true;
  sim.At(SimTime::Millis(1), [&] {
    sim.At(SimTime::Millis(2), [] {});
    fired = sim.FireInline(SimTime::Millis(2));
  });
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, FireInlineRefusesWhenAnEarlierEventIsQueued) {
  Simulator sim;
  bool fired = true;
  sim.At(SimTime::Millis(1), [&] { fired = sim.FireInline(SimTime::Millis(3)); });
  sim.At(SimTime::Millis(2), [] {});
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, FireInlineRefusesPastTheRunUntilDeadline) {
  Simulator sim;
  bool before = false;
  bool at_deadline = false;
  bool past = true;
  sim.At(SimTime::Millis(1), [&] { before = sim.FireInline(SimTime::Millis(2)); });
  sim.At(SimTime::Millis(3), [&] { at_deadline = sim.FireInline(SimTime::Millis(10)); });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_TRUE(before);
  // The deadline instant itself is inside the run, as for queued events.
  EXPECT_TRUE(at_deadline);
  sim.At(SimTime::Millis(20), [&] {
    past = sim.FireInline(SimTime::Millis(20) + SimTime::Nanos(1));
  });
  sim.RunUntil(SimTime::Millis(20));
  EXPECT_FALSE(past);
  EXPECT_EQ(sim.Now(), SimTime::Millis(20));
}

TEST(SimulatorTest, FireInlineRefusesUnderAPendingStop) {
  Simulator sim;
  bool fired = true;
  sim.At(SimTime::Millis(1), [&] {
    sim.RequestStop();
    fired = sim.FireInline(SimTime::Millis(2));
  });
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), SimTime::Millis(1));
}

TEST(SimulatorTest, FireInlineRefusesUnderACancellation) {
  Simulator sim;
  std::atomic<bool> cancel{false};
  sim.BindCancel(&cancel);
  bool fired = true;
  sim.At(SimTime::Millis(1), [&] {
    cancel = true;
    fired = sim.FireInline(SimTime::Millis(2));
  });
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), SimTime::Millis(1));
}

TEST(SimulatorTest, FireInlineRefusesOutsideARunLoop) {
  Simulator sim;
  EXPECT_FALSE(sim.FireInline(SimTime::Millis(1)));
  bool fired = true;
  sim.At(SimTime::Millis(1), [&] { fired = sim.FireInline(SimTime::Millis(2)); });
  // Step() runs exactly one event, so nothing may run inline under it.
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 1u);
  // A finished loop leaves no deadline behind.
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_FALSE(sim.FireInline(SimTime::Millis(6)));
}

TEST(SimulatorTest, FireInlineRefusesAfterACallbackThrewOutOfTheLoop) {
  Simulator sim;
  sim.At(SimTime::Millis(1), [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.RunUntil(SimTime::Millis(5)), std::runtime_error);
  EXPECT_FALSE(sim.FireInline(SimTime::Millis(2)));
}

// Runs a chain of "work" steps, each of which schedules a follow-up and a
// timer; with `use_inline` the follow-up runs through FireInline whenever it
// may, counting the successes in `*inlined`.  Returns the sequence numbers
// of every timer plus the final counters.
std::vector<std::uint64_t> ChainSeqs(bool use_inline, int* inlined) {
  Simulator sim;
  std::vector<std::uint64_t> seqs;
  std::function<void(int)> work = [&](int left) {
    const EventId timer = sim.After(SimTime::Micros(50), [] {});
    seqs.push_back(sim.EventSeq(timer));
    if (left == 0) {
      return;
    }
    const SimTime at = sim.Now() + SimTime::Micros(left % 3 == 0 ? 60 : 6);
    if (use_inline && sim.FireInline(at)) {
      ++*inlined;
      work(left - 1);
    } else {
      sim.At(at, [&work, left] { work(left - 1); });
    }
  };
  sim.At(SimTime::Millis(1), [&] { work(20); });
  sim.RunUntil(SimTime::Millis(10));
  seqs.push_back(sim.events_executed());
  seqs.push_back(static_cast<std::uint64_t>(sim.Now().nanos()));
  return seqs;
}

TEST(SimulatorTest, FireInlineKeepsEventSeqsAndCountsOfTheQueuedPath) {
  int inlined = 0;
  int queued_inlined = 0;
  EXPECT_EQ(ChainSeqs(true, &inlined), ChainSeqs(false, &queued_inlined));
  // The 6 us steps run inline; the 60 us ones lose to the 50 us timer.
  EXPECT_EQ(inlined, 14);
  EXPECT_EQ(queued_inlined, 0);
}

}  // namespace
}  // namespace dcs
