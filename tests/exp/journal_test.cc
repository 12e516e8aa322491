#include "src/exp/journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/campaign.h"
#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "tests/fault/fingerprint.h"

namespace dcs {
namespace {

namespace fs = std::filesystem;

ExperimentConfig ShortMpeg(std::uint64_t seed, const std::string& governor = "fixed-206.4") {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::Seconds(2);
  return config;
}

std::string MetricsJson(const ExperimentResult& r) {
  std::ostringstream os;
  r.metrics.WriteJson(os);
  return os.str();
}

std::string ResultBytes(const ExperimentResult& r) {
  SnapshotWriter w;
  SerializeResult(r, &w);
  return std::string(w.bytes());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A damaged journal may lose frames but never alter one: its segments and
// records must be a prefix of the intact journal's, result bytes included.
void ExpectPrefixOf(const JournalReadResult& damaged, const JournalReadResult& intact,
                    const std::string& label) {
  ASSERT_LE(damaged.segments.size(), intact.segments.size()) << label;
  for (std::size_t i = 0; i < damaged.segments.size(); ++i) {
    const JournalSegment& got = damaged.segments[i];
    const JournalSegment& want = intact.segments[i];
    EXPECT_EQ(got.header.grid_fingerprint, want.header.grid_fingerprint) << label;
    EXPECT_EQ(got.header.jobs, want.header.jobs) << label;
    EXPECT_EQ(got.header.label, want.header.label) << label;
    ASSERT_LE(got.records.size(), want.records.size()) << label;
    for (std::size_t j = 0; j < got.records.size(); ++j) {
      EXPECT_EQ(got.records[j].slot, want.records[j].slot) << label;
      EXPECT_EQ(got.records[j].config_fingerprint, want.records[j].config_fingerprint) << label;
      EXPECT_EQ(got.records[j].ok, want.records[j].ok) << label;
      EXPECT_EQ(got.records[j].error, want.records[j].error) << label;
      if (got.records[j].ok) {
        EXPECT_EQ(ResultBytes(got.records[j].result), ResultBytes(want.records[j].result))
            << label;
      }
    }
  }
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("dcs_journal_") + info->name() + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "campaign.journal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Writes one header + two records (slot 0 ok with a real result, slot 2
  // failed/quarantined) and returns the serialized result's fingerprint.
  std::string WriteSampleJournal(const std::vector<ExperimentConfig>& grid) {
    const ExperimentResult result = RunExperiment(grid[0]);
    std::string error;
    auto writer = JournalWriter::Create(path_, &error);
    EXPECT_NE(writer, nullptr) << error;
    JournalHeader header;
    header.grid_fingerprint = GridFingerprint(grid);
    header.jobs = static_cast<std::uint32_t>(grid.size());
    header.label = "test";
    EXPECT_TRUE(writer->AppendHeader(header, &error)) << error;

    JournalRecord ok_record;
    ok_record.slot = 0;
    ok_record.config_fingerprint = ConfigFingerprint(grid[0]);
    ok_record.ok = true;
    ok_record.result = result;
    EXPECT_TRUE(writer->AppendRecord(ok_record, &error)) << error;

    JournalRecord bad_record;
    bad_record.slot = 2;
    bad_record.config_fingerprint = ConfigFingerprint(grid[2]);
    bad_record.ok = false;
    bad_record.quarantined = true;
    bad_record.attempts = 3;
    bad_record.error = "watchdog timeout";
    EXPECT_TRUE(writer->AppendRecord(bad_record, &error)) << error;
    return Fingerprint(result);
  }

  fs::path dir_;
  std::string path_;
};

TEST(ByteStreamTest, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.25);
  w.Time(SimTime::Micros(1500));
  w.Str("hello");
  w.Str("");

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Time(), SimTime::Micros(1500));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteStreamTest, ReadingPastTheEndLatchesNotOk) {
  SnapshotWriter w;
  w.U32(1);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, ok() latched false
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(ByteStreamTest, StrRejectsALengthPastTheEnd) {
  for (const std::uint32_t len : {6u, SnapshotReader::kMaxString + 1, 0xFFFFFFFFu}) {
    SnapshotWriter w;
    w.U32(len);
    w.Bytes("hello", 5);
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.Str(), "") << len;
    EXPECT_FALSE(r.ok()) << len;
  }
}

// A config with every optional part present, so every nested field is
// encoded.
ExperimentConfig FullConfig() {
  ExperimentConfig config = ShortMpeg(1);
  config.mpeg.emplace();
  config.server.emplace();
  config.server->streams = {{"interactive", 4.0, 1.0}, {"batch", 1.0, 3.0}};
  config.itsy.battery = BatteryParams{};
  config.faults = "storm=0.3,seed=11";
  return config;
}

struct Perturbation {
  std::string field;
  std::function<void(ExperimentConfig&)> apply;
};

// Sets one field to a value other than FullConfig's.
#define DCS_SET(path, value) \
  Perturbation { #path, [](ExperimentConfig& c) { c.path = value; } }

// One entry per simulation-relevant field of ExperimentConfig and the
// configs nested in it, plus the presence of each optional part.
std::vector<Perturbation> EveryFieldPerturbation() {
  using T = SimTime;
  return {
      DCS_SET(app, "web"),
      DCS_SET(governor, "PAST-peg-peg-93-98"),
      DCS_SET(seed, 2),
      DCS_SET(duration, T::Seconds(3)),
      {"duration absent", [](ExperimentConfig& c) { c.duration.reset(); }},
      DCS_SET(faults, "storm=0.4,seed=11"),

      {"mpeg absent", [](ExperimentConfig& c) { c.mpeg.reset(); }},
      DCS_SET(mpeg->fps, 30.0),
      DCS_SET(mpeg->duration, T::Seconds(5)),
      DCS_SET(mpeg->mean_decode_ms_at_top, 40.0),
      DCS_SET(mpeg->gop_length, 12),
      DCS_SET(mpeg->i_factor, 1.8),
      DCS_SET(mpeg->p_factor, 1.2),
      DCS_SET(mpeg->b_factor, 0.9),
      DCS_SET(mpeg->jitter_stddev, 0.1),
      DCS_SET(mpeg->spin_threshold, T::Millis(20)),
      DCS_SET(mpeg->pacing, MpegPacing::kSpinOnly),
      DCS_SET(mpeg->elastic, true),
      DCS_SET(mpeg->video_profile.word_refs_per_kilocycle, 21.0),
      DCS_SET(mpeg->video_profile.line_fills_per_kilocycle, 9.0),
      DCS_SET(mpeg->audio_profile.word_refs_per_kilocycle, 6.0),
      DCS_SET(mpeg->audio_profile.line_fills_per_kilocycle, 3.0),
      DCS_SET(mpeg->frame_tolerance, T::Millis(40)),
      DCS_SET(mpeg->audio_period, T::Millis(50)),
      DCS_SET(mpeg->audio_refill_ms_at_top, 5.0),
      DCS_SET(mpeg->av_sync_tolerance, T::Millis(80)),

      {"server absent", [](ExperimentConfig& c) { c.server.reset(); }},
      DCS_SET(server->arrivals, ArrivalProcess::kBursty),
      DCS_SET(server->rate_rps, 200.0),
      DCS_SET(server->duration, T::Seconds(3)),
      DCS_SET(server->slo, T::Millis(50)),
      DCS_SET(server->service_ms_at_top, 3.0),
      DCS_SET(server->max_service_factor, 4.0),
      DCS_SET(server->profile.word_refs_per_kilocycle, 13.0),
      DCS_SET(server->profile.line_fills_per_kilocycle, 5.0),
      DCS_SET(server->burst_rate_factor, 2.0),
      DCS_SET(server->calm_dwell_mean, T::Seconds(1)),
      DCS_SET(server->burst_dwell_mean, T::Millis(250)),
      DCS_SET(server->onoff_sources, 4),
      DCS_SET(server->pareto_shape, 1.2),
      DCS_SET(server->pareto_on_min, T::Millis(100)),
      DCS_SET(server->pareto_off_min, T::Millis(300)),
      {"server->streams count", [](ExperimentConfig& c) { c.server->streams.pop_back(); }},
      DCS_SET(server->streams[0].name, "ui"),
      DCS_SET(server->streams[0].value, 2.0),
      DCS_SET(server->streams[1].weight, 2.0),
      DCS_SET(server->admission.policy, AdmissionPolicy::kFeedback),
      DCS_SET(server->admission.utilization_bound, 0.9),
      DCS_SET(server->admission.target_violation_rate, 0.05),
      DCS_SET(server->admission.decrease_factor, 0.5),
      DCS_SET(server->admission.increase_step, 0.1),
      DCS_SET(server->admission.min_bound, 0.1),
      DCS_SET(server->admission.max_bound, 1.5),
      DCS_SET(server->admission.feedback_window, 32),
      DCS_SET(server->admission.demand_ewma_weight, 0.05),
      DCS_SET(server->admission.speed_ewma_weight, 0.2),
      DCS_SET(server->admission.battery_shed_dod, 0.9),
      DCS_SET(server->admission.brownout_shed_hold, T::Millis(250)),
      DCS_SET(server->admission.degraded_bound_factor, 0.25),

      DCS_SET(itsy.power.core_dynamic_mw_per_v2mhz, 1.1),
      DCS_SET(itsy.power.core_static_busy_mw, 280.0),
      DCS_SET(itsy.power.nap_mw_per_v2mhz, 0.3),
      DCS_SET(itsy.power.stall_mw, 140.0),
      DCS_SET(itsy.power.peripherals_mw, 600.0),
      DCS_SET(itsy.power.audio_mw, 120.0),
      DCS_SET(itsy.power.peripherals_display_off_mw, 70.0),
      DCS_SET(itsy.power.peripherals_bus_mw_per_mhz, 0.5),
      DCS_SET(itsy.initial_step, 3),
      DCS_SET(itsy.clock_switch_stall, T::Millis(1)),
      DCS_SET(itsy.initial_voltage, CoreVoltage::kLow),
      {"itsy.battery absent", [](ExperimentConfig& c) { c.itsy.battery.reset(); }},
      DCS_SET(itsy.battery->peukert_capacity, 0.25),
      DCS_SET(itsy.battery->peukert_exponent, 1.5),
      DCS_SET(itsy.battery->reference_current_a, 0.2),
      DCS_SET(itsy.battery->supply_volts, 3.3),
      DCS_SET(itsy.battery->recoverable_fraction, 0.3),
      DCS_SET(itsy.battery->recovery_per_hour, 0.6),

      DCS_SET(kernel.quantum, T::Millis(20)),
      DCS_SET(kernel.tick_overhead, T::Micros(8)),
      DCS_SET(kernel.yield_cost, T::Micros(3)),
      DCS_SET(kernel.sched_log_capacity, 1024),
      DCS_SET(kernel.rng_seed, 2),

      DCS_SET(daq.sample_hz, 2500.0),
      DCS_SET(daq.shunt_ohms, 0.03),
      DCS_SET(daq.supply_volts, 3.3),
      DCS_SET(daq.shunt_range_volts, 0.2),
      DCS_SET(daq.supply_range_volts, 10.0),
      DCS_SET(daq.adc_bits, 12),
      DCS_SET(daq.noise_lsb, 2.0),
      DCS_SET(daq.seed, 7),
  };
}

#undef DCS_SET

TEST(ConfigFingerprintTest, SensitiveToEverySimulationRelevantField) {
  const ExperimentConfig base = FullConfig();
  const std::uint64_t base_fp = ConfigFingerprint(base);
  EXPECT_EQ(ConfigFingerprint(FullConfig()), base_fp);

  const std::vector<Perturbation> perturbations = EveryFieldPerturbation();
  EXPECT_GE(perturbations.size(), 90u);
  std::set<std::uint64_t> seen = {base_fp};
  for (const Perturbation& p : perturbations) {
    ExperimentConfig changed = base;
    p.apply(changed);
    const std::uint64_t fp = ConfigFingerprint(changed);
    EXPECT_NE(fp, base_fp) << p.field;
    EXPECT_TRUE(seen.insert(fp).second) << p.field << " collides with another perturbation";
  }
}

// ConfigFingerprint values computed before EncodeConfig replaced the
// hand-rolled hasher.  Journals already on disk carry these; a change here
// means every old journal silently stops replaying.
TEST(ConfigFingerprintTest, PinnedValuesMatchJournalsOnDisk) {
  ExperimentConfig custom_mpeg;
  custom_mpeg.governor = "PAST-peg-peg-93-98";
  custom_mpeg.seed = 7;
  custom_mpeg.duration = SimTime::Seconds(5);
  MpegConfig m;
  m.fps = 24.0;
  m.gop_length = 12;
  m.pacing = MpegPacing::kSleepOnly;
  m.elastic = true;
  m.video_profile = {25.0, 9.5};
  m.frame_tolerance = SimTime::Millis(40);
  custom_mpeg.mpeg = m;

  ExperimentConfig server;
  server.app = "server";
  server.governor = "pid-vs";
  server.seed = 11;
  ServerConfig s;
  s.arrivals = ArrivalProcess::kBursty;
  s.rate_rps = 320.0;
  s.duration = SimTime::Seconds(3);
  s.streams = {{"interactive", 4.0, 1.0}, {"batch", 1.0, 3.0}};
  s.admission.policy = AdmissionPolicy::kFeedback;
  s.admission.target_violation_rate = 0.05;
  s.admission.feedback_window = 32;
  server.server = s;

  ExperimentConfig battery_faults;
  battery_faults.app = "web";
  battery_faults.governor = "deadline-vs";
  battery_faults.seed = 3;
  battery_faults.faults = "storm=0.3,seed=11";
  battery_faults.itsy.battery = BatteryParams{};
  battery_faults.itsy.battery->peukert_capacity = 0.25;
  battery_faults.kernel.quantum = SimTime::Millis(20);
  battery_faults.daq.noise_lsb = 2.0;

  EXPECT_EQ(ConfigFingerprint(ExperimentConfig{}), 0x26B6727896AF13B3ULL);
  EXPECT_EQ(ConfigFingerprint(custom_mpeg), 0xFEB4D55C9B70D923ULL);
  EXPECT_EQ(ConfigFingerprint(server), 0x9DC1F9E72576DE99ULL);
  EXPECT_EQ(ConfigFingerprint(battery_faults), 0x9E48CED2B3853B25ULL);
  EXPECT_EQ(GridFingerprint({ExperimentConfig{}, custom_mpeg, server, battery_faults}),
            0x9E0066BF6B0577FEULL);
}

TEST(ConfigFingerprintTest, IgnoresHowNotWhatFields) {
  // The cancel token, arena and capture flag change how a job runs, never
  // what it computes — a resumed campaign with a watchdog must still match
  // a journal written without one.
  const ExperimentConfig base = ShortMpeg(1);
  ExperimentConfig with_harness_knobs = base;
  std::atomic<bool> cancel{false};
  Arena arena;
  with_harness_knobs.cancel = &cancel;
  with_harness_knobs.arena = &arena;
  with_harness_knobs.capture_obs = true;
  EXPECT_EQ(ConfigFingerprint(with_harness_knobs), ConfigFingerprint(base));
}

TEST(GridFingerprintTest, OrderAndSizeSensitive) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2)};
  const std::vector<ExperimentConfig> swapped = {ShortMpeg(2), ShortMpeg(1)};
  const std::vector<ExperimentConfig> prefix = {ShortMpeg(1)};
  EXPECT_EQ(GridFingerprint(grid), GridFingerprint({ShortMpeg(1), ShortMpeg(2)}));
  EXPECT_NE(GridFingerprint(grid), GridFingerprint(swapped));
  EXPECT_NE(GridFingerprint(grid), GridFingerprint(prefix));
}

TEST(ResultSerializationTest, RoundTripsByteIdentically) {
  ExperimentConfig config = ShortMpeg(5, "PAST-peg-peg-93-98");
  config.faults = "storm=0.3,seed=11";  // exercises the FaultReport fields too
  const ExperimentResult original = RunExperiment(config);

  SnapshotWriter w;
  SerializeResult(original, &w);
  SnapshotReader r(w.bytes());
  ExperimentResult restored;
  ASSERT_TRUE(DeserializeResult(&r, &restored));

  // The test fingerprint covers every reported number in hexfloat, and the
  // metrics JSON covers the full registry.
  EXPECT_EQ(Fingerprint(restored), Fingerprint(original));
  EXPECT_EQ(MetricsJson(restored), MetricsJson(original));
  ASSERT_EQ(restored.streams.size(), original.streams.size());
}

TEST(ResultSerializationTest, RejectsTruncatedPayload) {
  const ExperimentResult original = RunExperiment(ShortMpeg(1));
  SnapshotWriter w;
  SerializeResult(original, &w);
  const std::string_view whole = w.bytes();
  const std::string_view torn = whole.substr(0, whole.size() / 2);
  SnapshotReader r(torn);
  ExperimentResult restored;
  EXPECT_FALSE(DeserializeResult(&r, &restored));
}

TEST(ResultSerializationTest, MutatedPayloadsAreReadWithinBounds) {
  ExperimentConfig config = ShortMpeg(5, "PAST-peg-peg-93-98");
  config.faults = "storm=0.3,seed=11";
  const std::string bytes = ResultBytes(RunExperiment(config));
  const auto decode = [](std::string_view payload) {
    SnapshotReader r(payload);
    ExperimentResult result;
    return DeserializeResult(&r, &result);
  };
  ASSERT_TRUE(decode(bytes));
  EXPECT_FALSE(decode(bytes + '\0')) << "trailing byte accepted";

  // Fed straight to DeserializeResult, past the journal's CRC: truncations
  // must fail, and flipped bits or saturated counts and lengths must
  // decode (or fail) without reading outside the payload — which the
  // sanitizer build checks.
  Rng rng(20240613);
  const auto last = static_cast<std::int64_t>(bytes.size()) - 1;
  for (int i = 0; i < 1000; ++i) {
    const auto at = static_cast<std::size_t>(rng.UniformInt(0, last));
    EXPECT_FALSE(decode(std::string_view(bytes).substr(0, at))) << "prefix of " << at;

    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << rng.UniformInt(0, 7)));
    decode(flipped);

    std::string saturated = bytes;
    const std::size_t width = std::min<std::size_t>(4, bytes.size() - at);
    saturated.replace(at, width, width, '\xFF');
    decode(saturated);
  }
}

TEST_F(JournalTest, WriteReadRoundTrip) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  const std::string expected_fp = WriteSampleJournal(grid);

  const JournalReadResult journal = ReadJournal(path_);
  EXPECT_TRUE(journal.readable);
  EXPECT_FALSE(journal.truncated);
  EXPECT_TRUE(journal.violations.empty());
  ASSERT_EQ(journal.segments.size(), 1u);
  const JournalSegment& segment = journal.segments[0];
  EXPECT_EQ(segment.header.grid_fingerprint, GridFingerprint(grid));
  EXPECT_EQ(segment.header.jobs, 3u);
  EXPECT_EQ(segment.header.label, "test");
  ASSERT_EQ(segment.records.size(), 2u);

  const JournalRecord& ok_record = segment.records[0];
  EXPECT_TRUE(ok_record.ok);
  EXPECT_EQ(ok_record.slot, 0u);
  EXPECT_EQ(Fingerprint(ok_record.result), expected_fp);

  const JournalRecord& bad_record = segment.records[1];
  EXPECT_FALSE(bad_record.ok);
  EXPECT_TRUE(bad_record.quarantined);
  EXPECT_EQ(bad_record.slot, 2u);
  EXPECT_EQ(bad_record.attempts, 3u);
  EXPECT_EQ(bad_record.error, "watchdog timeout");

  const auto matching = journal.MatchingRecords(GridFingerprint(grid), 3);
  EXPECT_EQ(matching.size(), 2u);
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid) ^ 1, 3).empty());
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid), 4).empty());
}

TEST_F(JournalTest, TruncatedMidFrameKeepsThePrefixAndResumesCleanly) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  WriteSampleJournal(grid);
  const JournalReadResult intact = ReadJournal(path_);
  ASSERT_TRUE(intact.readable);
  ASSERT_EQ(intact.segments[0].records.size(), 2u);

  // A cut at any offset reads back as a prefix: every frame that ends
  // before the cut, and a truncated flag exactly when bytes were dropped.
  const std::string bytes = FileBytes(path_);
  const std::string cut_path = (dir_ / "cut.journal").string();
  Rng rng(20240611);
  for (int i = 0; i < 500; ++i) {
    const auto cut = static_cast<std::size_t>(
        i == 0 ? 0 : rng.UniformInt(1, static_cast<std::int64_t>(bytes.size()) - 1));
    WriteFileBytes(cut_path, std::string_view(bytes).substr(0, cut));
    const JournalReadResult read = ReadJournal(cut_path);
    const std::string label = "cut at " + std::to_string(cut);
    EXPECT_EQ(read.readable, read.valid_bytes > 0) << label;
    EXPECT_LE(read.valid_bytes, cut) << label;
    EXPECT_EQ(read.truncated, read.valid_bytes < cut) << label;
    EXPECT_TRUE(read.violations.empty()) << label;
    ExpectPrefixOf(read, intact, label);
  }

  // Chop the file mid-way through the last frame — the torn-append state a
  // SIGKILL leaves behind.
  const auto full_size = fs::file_size(path_);
  fs::resize_file(path_, full_size - 7);

  const JournalReadResult torn = ReadJournal(path_);
  EXPECT_TRUE(torn.readable);
  EXPECT_TRUE(torn.truncated);
  ASSERT_EQ(torn.segments.size(), 1u);
  ASSERT_EQ(torn.segments[0].records.size(), 1u);  // the ok record survives
  EXPECT_LT(torn.valid_bytes, full_size - 7);

  // Appending through the writer truncates the torn tail first; the re-added
  // record must parse cleanly afterwards.
  std::string error;
  auto writer = JournalWriter::Append(path_, torn.valid_bytes, &error);
  ASSERT_NE(writer, nullptr) << error;
  JournalRecord record;
  record.slot = 1;
  record.config_fingerprint = ConfigFingerprint(grid[1]);
  record.ok = false;
  record.error = "retry later";
  ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;

  const JournalReadResult repaired = ReadJournal(path_);
  EXPECT_TRUE(repaired.readable);
  EXPECT_FALSE(repaired.truncated);
  ASSERT_EQ(repaired.segments.size(), 1u);
  ASSERT_EQ(repaired.segments[0].records.size(), 2u);
  EXPECT_EQ(repaired.segments[0].records[1].slot, 1u);
  EXPECT_EQ(repaired.segments[0].records[1].error, "retry later");
}

TEST_F(JournalTest, CorruptedFrameDropsTheTailWithAViolation) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  WriteSampleJournal(grid);

  // Flip one byte near the end of the file: inside the last frame's payload,
  // so its CRC no longer matches.
  std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(-3, std::ios::end);
  char byte = 0;
  file.get(byte);
  file.seekp(-3, std::ios::end);
  file.put(static_cast<char>(byte ^ 0x5A));
  file.close();

  const JournalReadResult corrupt = ReadJournal(path_);
  EXPECT_TRUE(corrupt.readable);
  EXPECT_TRUE(corrupt.truncated);
  ASSERT_EQ(corrupt.segments.size(), 1u);
  EXPECT_EQ(corrupt.segments[0].records.size(), 1u);
  EXPECT_FALSE(corrupt.violations.empty());

  // One flipped bit anywhere — prologue or payload — drops its frame and
  // everything after it, and never alters a frame that is kept.
  WriteSampleJournal(grid);
  const JournalReadResult intact = ReadJournal(path_);
  ASSERT_FALSE(intact.truncated);
  const std::string bytes = FileBytes(path_);
  const std::string flipped_path = (dir_ / "flipped.journal").string();
  Rng rng(20240612);
  for (int i = 0; i < 500; ++i) {
    const auto offset = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    std::string flipped = bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
    WriteFileBytes(flipped_path, flipped);
    const JournalReadResult read = ReadJournal(flipped_path);
    const std::string label = "bit " + std::to_string(bit) + " of byte " + std::to_string(offset);
    EXPECT_TRUE(read.truncated) << label;
    EXPECT_LE(read.valid_bytes, offset) << label;
    ExpectPrefixOf(read, intact, label);
  }
}

TEST_F(JournalTest, FutureVersionSegmentIsSkippedAndTheGridRunsFresh) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2)};
  {
    // Every slot recorded, but under a header from a later format.
    std::string error;
    auto writer = JournalWriter::Create(path_, &error);
    ASSERT_NE(writer, nullptr) << error;
    JournalHeader header;
    header.version = kJournalVersion + 1;
    header.grid_fingerprint = GridFingerprint(grid);
    header.jobs = static_cast<std::uint32_t>(grid.size());
    ASSERT_TRUE(writer->AppendHeader(header, &error)) << error;
    for (std::uint32_t slot = 0; slot < grid.size(); ++slot) {
      JournalRecord record;
      record.slot = slot;
      record.config_fingerprint = ConfigFingerprint(grid[slot]);
      record.error = "written by a later format";
      ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;
    }
  }

  const JournalReadResult journal = ReadJournal(path_);
  EXPECT_TRUE(journal.readable);
  EXPECT_FALSE(journal.truncated);
  const std::string future = "version " + std::to_string(kJournalVersion + 1);
  bool version_reported = false;
  for (const std::string& v : journal.violations) {
    version_reported = version_reported || v.find(future) != std::string::npos;
  }
  EXPECT_TRUE(version_reported);
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid), 2).empty());

  SweepOptions options;
  options.threads = 1;
  options.campaign.resume = path_;
  CampaignRunner runner(options);
  const std::vector<SweepJobResult> jobs = runner.Run(grid);
  EXPECT_EQ(runner.report().replayed, 0);
  EXPECT_EQ(runner.report().executed, 2);
  EXPECT_TRUE(runner.report().journal_mismatch);
  ASSERT_EQ(jobs.size(), 2u);
  for (const SweepJobResult& job : jobs) {
    EXPECT_TRUE(job.ok()) << job.error;
  }
}

TEST_F(JournalTest, MissingFileIsNotReadable) {
  const JournalReadResult journal = ReadJournal((dir_ / "nope.journal").string());
  EXPECT_FALSE(journal.readable);
  EXPECT_TRUE(journal.segments.empty());
  EXPECT_EQ(journal.valid_bytes, 0u);
}

TEST_F(JournalTest, RecordBeforeAnyHeaderIsAStructuralViolation) {
  std::string error;
  auto writer = JournalWriter::Create(path_, &error);
  ASSERT_NE(writer, nullptr) << error;
  JournalRecord record;
  record.slot = 0;
  record.ok = false;
  record.error = "orphan";
  ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;

  const JournalReadResult journal = ReadJournal(path_);
  EXPECT_FALSE(journal.violations.empty());
  EXPECT_TRUE(journal.segments.empty());
}

TEST_F(JournalTest, MultipleSegmentsKeyedByGridFingerprint) {
  // One journal, two grids — the multi-RunSweep-per-process case (e.g. the
  // Table 2 bench runs five separate grids against one --resume path).
  const std::vector<ExperimentConfig> grid_a = {ShortMpeg(1)};
  const std::vector<ExperimentConfig> grid_b = {ShortMpeg(9), ShortMpeg(10)};
  std::string error;
  auto writer = JournalWriter::Create(path_, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (const auto* grid : {&grid_a, &grid_b}) {
    JournalHeader header;
    header.grid_fingerprint = GridFingerprint(*grid);
    header.jobs = static_cast<std::uint32_t>(grid->size());
    ASSERT_TRUE(writer->AppendHeader(header, &error)) << error;
    JournalRecord record;
    record.slot = 0;
    record.config_fingerprint = ConfigFingerprint((*grid)[0]);
    record.ok = false;
    record.error = "placeholder";
    ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;
  }

  const JournalReadResult journal = ReadJournal(path_);
  ASSERT_EQ(journal.segments.size(), 2u);
  EXPECT_EQ(journal.MatchingRecords(GridFingerprint(grid_a), 1).size(), 1u);
  EXPECT_EQ(journal.MatchingRecords(GridFingerprint(grid_b), 2).size(), 1u);
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid_a), 2).empty());
}

}  // namespace
}  // namespace dcs
