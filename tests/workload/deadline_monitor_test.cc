#include "src/workload/deadline_monitor.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace dcs {
namespace {

TEST(DeadlineMonitorTest, StartsEmpty) {
  DeadlineMonitor monitor;
  EXPECT_EQ(monitor.TotalEvents(), 0);
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_FALSE(monitor.AnyMissed());
  EXPECT_TRUE(monitor.Streams().empty());
}

TEST(DeadlineMonitorTest, OnTimeEventIsNotAMiss) {
  DeadlineMonitor monitor;
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(90));
  EXPECT_EQ(monitor.TotalEvents(), 1);
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Zero());
}

TEST(DeadlineMonitorTest, LateEventIsAMiss) {
  DeadlineMonitor monitor;
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(150));
  EXPECT_EQ(monitor.TotalMissed(), 1);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Millis(50));
  EXPECT_TRUE(monitor.AnyMissed());
}

TEST(DeadlineMonitorTest, ToleranceAbsorbsSmallLateness) {
  DeadlineMonitor monitor;
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(120), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  // Miss counting and lateness share the deadline+tolerance threshold: a
  // tolerated event accumulates no lateness.
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Zero());
  EXPECT_EQ(monitor.Stats("video").total_lateness, SimTime::Zero());
}

TEST(DeadlineMonitorTest, LatenessMeasuredPastTolerance) {
  DeadlineMonitor monitor;
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(150), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 1);
  // 150ms completion vs the 130ms tolerated deadline: 20ms past threshold.
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Millis(20));
  EXPECT_EQ(monitor.Stats("video").total_lateness, SimTime::Millis(20));
}

TEST(DeadlineMonitorTest, OverrunTracksTheBareDeadline) {
  DeadlineMonitor monitor;
  // Tolerated event: no miss, no lateness, but a 20ms overrun past the bare
  // deadline — the margin-erosion signal.
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(120), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Zero());
  EXPECT_EQ(monitor.Stats("video").worst_overrun, SimTime::Millis(20));
  // Early event leaves the overrun untouched.
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(80), SimTime::Millis(30));
  EXPECT_EQ(monitor.Stats("video").worst_overrun, SimTime::Millis(20));
  EXPECT_EQ(monitor.WorstOverrun(), SimTime::Millis(20));
}

TEST(DeadlineMonitorTest, ExactlyAtToleranceBoundaryIsNotAMiss) {
  DeadlineMonitor monitor;
  monitor.Report("s", SimTime::Millis(100), SimTime::Millis(130), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  monitor.Report("s", SimTime::Millis(100), SimTime::Millis(130) + SimTime::Nanos(1),
                 SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 1);
}

TEST(DeadlineMonitorTest, StreamsTrackedSeparately) {
  DeadlineMonitor monitor;
  monitor.Report("video", SimTime::Millis(10), SimTime::Millis(20));
  monitor.Report("audio", SimTime::Millis(10), SimTime::Millis(5));
  EXPECT_EQ(monitor.Stats("video").missed, 1);
  EXPECT_EQ(monitor.Stats("audio").missed, 0);
  EXPECT_EQ(monitor.Streams().size(), 2u);
  EXPECT_EQ(monitor.TotalEvents(), 2);
}

TEST(DeadlineMonitorTest, EverySpellingOfANameHitsTheSameStream) {
  DeadlineMonitor monitor;
  const std::string owned = "video";
  const std::string_view view = owned;
  monitor.Report("video", SimTime::Millis(10), SimTime::Millis(20));
  monitor.Report(owned, SimTime::Millis(10), SimTime::Millis(5));
  monitor.Report(view, SimTime::Millis(10), SimTime::Millis(30));
  monitor.ReportRequest(std::string_view("video"), SimTime::Millis(1), SimTime::Millis(5),
                        SimTime::Millis(3));
  monitor.ReportRejected(view.substr(0, 5), true);
  EXPECT_EQ(monitor.Streams(), std::vector<std::string>{"video"});
  const auto stats = monitor.Stats(view);
  EXPECT_EQ(stats.total, 4);
  EXPECT_EQ(stats.missed, 2);
  EXPECT_EQ(stats.latency_us.count(), 1u);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(monitor.Stats(owned).total, 4);
  EXPECT_EQ(monitor.Stats("video").total, 4);
  // A view into a longer buffer names only its own characters.
  const std::string longer = "video_frame";
  monitor.Report(std::string_view(longer).substr(0, 5), SimTime::Millis(10),
                 SimTime::Millis(5));
  EXPECT_EQ(monitor.Stats("video").total, 5);
  EXPECT_EQ(monitor.Stats("video_frame").total, 0);
}

TEST(DeadlineMonitorTest, StreamsStayInNameOrder) {
  DeadlineMonitor monitor;
  for (const char* name : {"video_frame", "audio", "av_sync", "interactive", "Zulu", "a"}) {
    monitor.Report(name, SimTime::Millis(10), SimTime::Millis(5));
  }
  monitor.ReportRejected(std::string("bronze"));
  EXPECT_EQ(monitor.Streams(),
            (std::vector<std::string>{"Zulu", "a", "audio", "av_sync", "bronze", "interactive",
                                      "video_frame"}));
}

TEST(DeadlineMonitorTest, MissRatePerStream) {
  DeadlineMonitor monitor;
  for (int i = 0; i < 8; ++i) {
    monitor.Report("s", SimTime::Millis(10), SimTime::Millis(i < 2 ? 20 : 5));
  }
  EXPECT_DOUBLE_EQ(monitor.Stats("s").MissRate(), 0.25);
}

TEST(DeadlineMonitorTest, WorstLatenessAcrossStreams) {
  DeadlineMonitor monitor;
  monitor.Report("a", SimTime::Millis(10), SimTime::Millis(14));
  monitor.Report("b", SimTime::Millis(10), SimTime::Millis(35));
  EXPECT_EQ(monitor.WorstLateness(), SimTime::Millis(25));
}

TEST(DeadlineMonitorTest, TotalLatenessAccumulates) {
  DeadlineMonitor monitor;
  monitor.Report("s", SimTime::Millis(10), SimTime::Millis(13));
  monitor.Report("s", SimTime::Millis(10), SimTime::Millis(17));
  monitor.Report("s", SimTime::Millis(10), SimTime::Millis(5));  // early: no lateness
  EXPECT_EQ(monitor.Stats("s").total_lateness, SimTime::Millis(10));
}

TEST(DeadlineMonitorTest, UnknownStreamHasZeroStats) {
  DeadlineMonitor monitor;
  const auto stats = monitor.Stats("nothing");
  EXPECT_EQ(stats.total, 0);
  EXPECT_EQ(stats.missed, 0);
  EXPECT_DOUBLE_EQ(stats.MissRate(), 0.0);
}

TEST(DeadlineMonitorTest, ReportRequestRecordsLatencyHistogram) {
  DeadlineMonitor monitor;
  // Arrival at 10ms, SLO 50ms, completion at 30ms: on time, 20ms latency.
  monitor.ReportRequest("rpc", SimTime::Millis(10), SimTime::Millis(50), SimTime::Millis(30));
  // Arrival at 100ms, completion at 180ms: 30ms past the SLO, 80ms latency.
  monitor.ReportRequest("rpc", SimTime::Millis(100), SimTime::Millis(50), SimTime::Millis(180));
  const auto stats = monitor.Stats("rpc");
  EXPECT_EQ(stats.total, 2);
  EXPECT_EQ(stats.missed, 1);
  EXPECT_EQ(stats.worst_lateness, SimTime::Millis(30));
  ASSERT_EQ(stats.latency_us.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.latency_us.min(), 20000.0);
  EXPECT_DOUBLE_EQ(stats.latency_us.max(), 80000.0);
  EXPECT_DOUBLE_EQ(stats.latency_us.mean(), 50000.0);
}

TEST(DeadlineMonitorTest, ReportRequestToleranceExtendsSlo) {
  DeadlineMonitor monitor;
  monitor.ReportRequest("rpc", SimTime::Zero(), SimTime::Millis(50), SimTime::Millis(60),
                        SimTime::Millis(15));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_EQ(monitor.Stats("rpc").worst_lateness, SimTime::Zero());
}

TEST(DeadlineMonitorTest, BareReportLeavesLatencyHistogramEmpty) {
  DeadlineMonitor monitor;
  monitor.Report("video", SimTime::Millis(100), SimTime::Millis(90));
  EXPECT_EQ(monitor.Stats("video").latency_us.count(), 0u);
}

TEST(DeadlineMonitorTest, ClearResets) {
  DeadlineMonitor monitor;
  monitor.Report("s", SimTime::Millis(10), SimTime::Millis(20));
  monitor.Clear();
  EXPECT_EQ(monitor.TotalEvents(), 0);
  EXPECT_TRUE(monitor.Streams().empty());
}

TEST(DeadlineMonitorTest, RejectedOnlyStreamDegradesToZeroesNotNaN) {
  DeadlineMonitor monitor;
  monitor.ReportRejected("bronze");
  monitor.ReportRejected("bronze", /*shed=*/true);
  const auto stats = monitor.Stats("bronze");
  EXPECT_EQ(stats.total, 0);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.shed, 1);
  // Zero admitted requests: rates and percentiles degrade to 0, never NaN.
  EXPECT_EQ(stats.MissRate(), 0.0);
  EXPECT_EQ(stats.RejectRate(), 1.0);
  EXPECT_EQ(stats.latency_us.count(), 0u);
  EXPECT_EQ(stats.latency_us.ApproxQuantile(0.99), 0.0);
  // The stream is visible even though it never completed a request.
  EXPECT_EQ(monitor.Streams(), std::vector<std::string>{"bronze"});
  EXPECT_EQ(monitor.TotalRejected(), 2);
  EXPECT_EQ(monitor.TotalShed(), 1);
  EXPECT_EQ(monitor.TotalEvents(), 0);
}

TEST(DeadlineMonitorTest, EmptyStreamStatsAreAllZero) {
  DeadlineMonitor monitor;
  const auto stats = monitor.Stats("never-reported");
  EXPECT_EQ(stats.MissRate(), 0.0);
  EXPECT_EQ(stats.RejectRate(), 0.0);
  EXPECT_EQ(stats.latency_us.ApproxQuantile(0.5), 0.0);
}

}  // namespace
}  // namespace dcs
