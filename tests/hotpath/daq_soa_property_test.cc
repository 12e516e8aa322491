// Block-kernel-vs-reference differential property suite for the DAQ.
//
// Daq::SampleWindow samples in blocks: a serial draw pass, a branch-free
// kernel that takes its noise's log and cos(2*pi*u) from FastLog and
// FastCos2Pi, and a certify pass that recomputes a reading with glibc only
// when its ADC code is in doubt.  Its contract is *bitwise* equality with
// the one-reading-at-a-time reference pipeline (tests/support/
// daq_reference.h).  This suite hammers that contract across randomized
// power tapes, every noise/rate/resolution combination the experiments use,
// window edge cases (block edges and signed-zero codes among them),
// fault-injected sample drops and readings forced onto the exact path; it
// sweeps FastLog and FastCos2Pi against glibc; and it bounds, and pins,
// how many readings leave the kernel.

#include "src/daq/daq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/hw/power_tape.h"
#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"
#include "tests/support/daq_reference.h"

namespace dcs {
namespace {

using testing::ReferenceDaq;

// A tape with `segments` random power levels at randomly jittered times.
PowerTape RandomTape(std::uint64_t seed, int segments) {
  Rng rng(seed);
  PowerTape tape;
  SimTime t = SimTime::Micros(rng.UniformInt(0, 500));
  for (int i = 0; i < segments; ++i) {
    tape.Set(t, rng.Uniform(0.0, 3.0));
    t = t + SimTime::Micros(rng.UniformInt(1, 4000));
  }
  return tape;
}

// Runs the DAQ and the reference over the same window and asserts bitwise
// equality.  `recomputed`, when given, receives the DAQ's count of readings
// it recomputed with glibc cos.
void ExpectBitwiseEqual(const DaqConfig& config, const PowerTape& tape, SimTime begin,
                        SimTime end, const std::string& label,
                        std::uint64_t* recomputed = nullptr) {
  ReferenceDaq reference(config);
  Daq daq(config);
  const std::span<const double> a = reference.SampleWindow(tape, begin, end);
  const std::span<const double> b = daq.SampleWindow(tape, begin, end);
  if (recomputed != nullptr) {
    *recomputed = daq.recomputed_readings();
  }

  ASSERT_EQ(a.size(), b.size()) << label;
  if (!a.empty()) {
    // memcmp, not ==: the contract is bit-for-bit, not merely value-equal.
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << label << ": Daq diverged from the reference";
  }
}

// Samples a window with a fresh Daq and checks that it holds `samples`
// samples and that the noise stream advanced by exactly
// `draws_per_sample` draws per sample: the Daq's snapshot must equal that
// of a generator at the same seed after as many draws.
void ExpectDraws(const DaqConfig& config, const PowerTape& tape, SimTime begin, SimTime end,
                 std::int64_t samples, std::uint64_t draws_per_sample,
                 const std::string& label) {
  Daq daq(config);
  ASSERT_EQ(daq.SampleWindow(tape, begin, end).size(), static_cast<std::size_t>(samples))
      << label;
  Rng expected(config.seed);
  for (std::uint64_t i = 0; i < draws_per_sample * static_cast<std::uint64_t>(samples); ++i) {
    expected.Next();
  }
  SnapshotWriter want;
  expected.SaveState(&want);
  want.U64(0);  // dropped samples
  SnapshotWriter got;
  daq.SaveState(&got);
  EXPECT_EQ(got.bytes(), want.bytes()) << label << ": noise stream out of step";
}

TEST(DaqSoaPropertyTest, BatchedMatchesScalarAcrossConfigGrid) {
  const double noise_grid[] = {0.0, 0.5, 1.0, 3.0};
  const double rate_grid[] = {1000.0, 5000.0, 44100.0};
  const int bits_grid[] = {8, 12, 16};
  int case_index = 0;
  for (const double noise : noise_grid) {
    for (const double rate : rate_grid) {
      for (const int bits : bits_grid) {
        DaqConfig config;
        config.noise_lsb = noise;
        config.sample_hz = rate;
        config.adc_bits = bits;
        config.seed = 0x0DA05EEDULL + static_cast<std::uint64_t>(case_index);
        const PowerTape tape =
            RandomTape(1000 + static_cast<std::uint64_t>(case_index), 200);
        ExpectBitwiseEqual(config, tape, SimTime::Millis(1), SimTime::Millis(400),
                           "noise=" + std::to_string(noise) + " hz=" + std::to_string(rate) +
                               " bits=" + std::to_string(bits));
        ++case_index;
      }
    }
  }
}

TEST(DaqSoaPropertyTest, NoiseFreeReadingsMatchOnTiesClampsAndZero) {
  // Both channels at sigma 0: every reading takes the inline rounding, never
  // the kernel.  Power levels are searched so that the shunt reading lands
  // exactly on a half-LSB tie (std::round sends it away from zero, a
  // ties-to-even rounding would not), next to levels just off a tie, past
  // the shunt's full scale (clamped), and at zero.
  DaqConfig config;
  config.noise_lsb = 0.0;
  const double lsb = 2.0 * config.shunt_range_volts / std::pow(2.0, config.adc_bits);
  PowerTape tape;
  SimTime t = SimTime::Zero();
  int ties = 0;
  auto level = [&](double watts) {
    tape.Set(t, watts);
    t = t + SimTime::Micros(700);
  };
  for (int k = 0; k < 32768 && ties < 64; k += 97) {
    // Walk the few doubles around the nominal level, lowest first.
    double watts = (k + 0.5) * lsb / config.shunt_ohms * config.supply_volts;
    for (int i = 0; i < 4; ++i) {
      watts = std::nextafter(watts, 0.0);
    }
    for (int i = 0; i < 9; ++i, watts = std::nextafter(watts, HUGE_VAL)) {
      if (watts / config.supply_volts * config.shunt_ohms / lsb == k + 0.5) {
        ++ties;
        level(watts);
        level(std::nextafter(watts, 0.0));
        break;
      }
    }
  }
  ASSERT_GE(ties, 16) << "too few exact ties found to test";
  level(0.0);
  level(1000.0);  // past full scale
  level(1.25);
  ExpectBitwiseEqual(config, tape, SimTime::Zero(), t, "noise-free ties");
}

TEST(DaqSoaPropertyTest, BatchedMatchesScalarOnRandomTapes) {
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    Rng rng(0xC0FFEE00 + trial);
    DaqConfig config;
    config.sample_hz = rng.Uniform(500.0, 20000.0);
    config.noise_lsb = rng.Uniform(0.0, 4.0);
    config.adc_bits = static_cast<int>(rng.UniformInt(6, 16));
    config.seed = rng.Next();
    const PowerTape tape = RandomTape(rng.Next(), static_cast<int>(rng.UniformInt(1, 400)));
    const SimTime begin = SimTime::Micros(rng.UniformInt(0, 2000));
    const SimTime end = begin + SimTime::Micros(rng.UniformInt(1, 300000));
    ExpectBitwiseEqual(config, tape, begin, end, "trial " + std::to_string(trial));
  }
}

TEST(DaqSoaPropertyTest, WindowEdgeCases) {
  const PowerTape tape = RandomTape(7, 50);
  DaqConfig config;
  // Empty window.
  ExpectBitwiseEqual(config, tape, SimTime::Millis(5), SimTime::Millis(5), "empty");
  // Window entirely before the first segment (cursor returns 0.0).
  ExpectBitwiseEqual(config, tape, SimTime::Nanos(0), SimTime::Micros(400), "pre-tape");
  // A zero-watts tape: most shunt codes are 0, with the sign of the noise
  // (std::round gives -0.0 for a small negative value).
  PowerTape zero_watts;
  zero_watts.Set(SimTime::Zero(), 0.0);
  ExpectBitwiseEqual(config, zero_watts, SimTime::Zero(), SimTime::Seconds(1), "zero watts");
  // Window extending far past the last segment.
  ExpectBitwiseEqual(config, tape, SimTime::Millis(10), SimTime::Seconds(2), "post-tape");
  // Exactly one sample.
  const double period_us = 200.0;  // 5 kHz
  ExpectBitwiseEqual(config, tape, SimTime::Millis(1),
                     SimTime::Millis(1) + SimTime::FromMicrosF(period_us * 1.5), "1 sample");
  // Zero-noise and zero-range (sigma==0 on one channel only) variants.
  DaqConfig no_shunt_noise;
  no_shunt_noise.shunt_range_volts = 0.0;
  ExpectBitwiseEqual(no_shunt_noise, tape, SimTime::Millis(1), SimTime::Millis(200),
                     "shunt sigma 0");
  DaqConfig no_supply_noise;
  no_supply_noise.supply_range_volts = 0.0;
  ExpectBitwiseEqual(no_supply_noise, tape, SimTime::Millis(1), SimTime::Millis(200),
                     "supply sigma 0");
  // Windows around the edges of SampleWindow's blocks: one sample short of
  // a block, one block, one sample over, and several blocks plus a partial
  // one.  Each also runs with sigma 0 on either channel, which halves the
  // draws per sample.  A zero-range channel reads NaN, so there the noise
  // stream's position after the window is checked as well.
  struct Variant {
    const char* name;
    DaqConfig config;
    std::uint64_t draws_per_sample;
  };
  const Variant variants[] = {{"both noisy", config, 4},
                              {"shunt sigma 0", no_shunt_noise, 2},
                              {"supply sigma 0", no_supply_noise, 2}};
  for (const std::int64_t samples :
       {Daq::kBlock - 1, Daq::kBlock, Daq::kBlock + 1, 3 * Daq::kBlock + 7}) {
    const SimTime begin = SimTime::Millis(1);
    const SimTime end = begin + SimTime::FromMicrosF(period_us * (samples + 0.5));
    for (const Variant& variant : variants) {
      const std::string label = std::to_string(samples) + " samples, " + variant.name;
      ExpectBitwiseEqual(variant.config, tape, begin, end, label);
      ExpectDraws(variant.config, tape, begin, end, samples, variant.draws_per_sample, label);
    }
  }
}

// Sample drops whose runs span block edges: the drop overlay and its
// interpolation see the whole window, not one block.
TEST(DaqSoaPropertyTest, FaultDropsAcrossBlockEdgesMatchTheReference) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("daq-drop=0.7", &plan, &error)) << error;
  const std::int64_t samples = 3 * Daq::kBlock + 7;
  const SimTime begin = SimTime::Millis(1);
  const SimTime end = begin + SimTime::FromMicrosF(200.0 * (samples + 0.5));

  // The drop decisions, read from a third injector at the same seed: some
  // run of dropped samples must cross a block edge.
  FaultInjector probe(plan, /*seed=*/11);
  std::vector<bool> drops;
  for (std::int64_t i = 0; i < samples; ++i) {
    drops.push_back(probe.DropSample());
  }
  int spanning_edges = 0;
  for (std::int64_t edge = Daq::kBlock; edge < samples; edge += Daq::kBlock) {
    spanning_edges += drops[edge - 1] && drops[edge] ? 1 : 0;
  }
  ASSERT_GT(spanning_edges, 0) << "no dropped run crosses a block edge";

  const PowerTape tape = RandomTape(23, 300);
  DaqConfig config;
  ReferenceDaq reference(config);
  Daq daq(config);
  FaultInjector reference_faults(plan, /*seed=*/11);
  FaultInjector daq_faults(plan, /*seed=*/11);
  reference.BindFaults(&reference_faults);
  daq.BindFaults(&daq_faults);
  const std::span<const double> a = reference.SampleWindow(tape, begin, end);
  const std::span<const double> b = daq.SampleWindow(tape, begin, end);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(samples));
  ASSERT_EQ(b.size(), static_cast<std::size_t>(samples));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(reference.dropped_samples(), daq.dropped_samples());
}

TEST(DaqSoaPropertyTest, BatchedMatchesScalarUnderFaultDrops) {
  for (const char* spec : {"daq-drop=0.05", "daq-drop=0.5", "storm=0.3"}) {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << spec << ": " << error;

    const PowerTape tape = RandomTape(21, 300);
    DaqConfig config;
    ReferenceDaq reference(config);
    Daq daq(config);

    // Each pipeline gets its own injector at the same seed: the drop stream
    // is isolated per fault class, so both see identical drop decisions.
    FaultInjector reference_faults(plan, /*seed=*/11);
    FaultInjector daq_faults(plan, /*seed=*/11);
    reference.BindFaults(&reference_faults);
    daq.BindFaults(&daq_faults);

    const std::span<const double> a =
        reference.SampleWindow(tape, SimTime::Millis(1), SimTime::Millis(500));
    const std::span<const double> b =
        daq.SampleWindow(tape, SimTime::Millis(1), SimTime::Millis(500));
    ASSERT_EQ(a.size(), b.size()) << spec;
    ASSERT_FALSE(a.empty()) << spec;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << spec;
    EXPECT_EQ(reference.dropped_samples(), daq.dropped_samples()) << spec;
    if (std::string(spec) == "daq-drop=0.5") {
      EXPECT_GT(daq.dropped_samples(), 0u) << "drop plan never triggered";
    }
  }
}

TEST(DaqSoaPropertyTest, WrapperAndArenaBindingPreserveSamples) {
  const PowerTape tape = RandomTape(33, 100);
  const SimTime begin = SimTime::Millis(2);
  const SimTime end = SimTime::Millis(300);

  DaqConfig config;
  Daq window_daq(config);
  const std::span<const double> window = window_daq.SampleWindow(tape, begin, end);
  const std::vector<double> window_copy(window.begin(), window.end());

  // SamplePowerWatts is the compatibility wrapper over the same pipeline.
  Daq wrapper_daq(config);
  const std::vector<double> wrapped = wrapper_daq.SamplePowerWatts(tape, begin, end);
  ASSERT_EQ(wrapped.size(), window_copy.size());
  EXPECT_EQ(std::memcmp(wrapped.data(), window_copy.data(),
                        wrapped.size() * sizeof(double)),
            0);

  // Arena-backed sampling is byte-identical to heap-backed sampling.
  Arena arena;
  Daq arena_daq(config, &arena);
  const std::span<const double> arena_samples = arena_daq.SampleWindow(tape, begin, end);
  ASSERT_EQ(arena_samples.size(), window_copy.size());
  EXPECT_EQ(std::memcmp(arena_samples.data(), window_copy.data(),
                        arena_samples.size() * sizeof(double)),
            0);

  // MeasureEnergyJoules integrates the same samples.
  Daq energy_daq(config);
  EXPECT_EQ(energy_daq.MeasureEnergyJoules(tape, begin, end),
            window_daq.EnergyJoules(window_copy));
}

// Constant tapes whose shunt voltage sits on a rounding boundary, under
// noise far below the certificate's margin: on a half-LSB boundary the
// code is in doubt, on zero watts the sign of the zero code is.  No shunt
// reading can be certified, so every one takes the exact glibc-cos path,
// and the samples must still be the reference's.
TEST(DaqSoaPropertyTest, ReadingsOnARoundingBoundaryTakeTheExactPath) {
  DaqConfig config;
  config.noise_lsb = 1e-9;
  const double shunt_lsb = 2.0 * config.shunt_range_volts / std::pow(2.0, config.adc_bits);
  const double half_lsb_watts = 1000.5 * shunt_lsb / config.shunt_ohms * config.supply_volts;
  const double code = (half_lsb_watts / config.supply_volts) * config.shunt_ohms / shunt_lsb;
  ASSERT_LT(std::fabs(code - 1000.5), 1e-9) << "tape misses the boundary";

  for (const double watts : {half_lsb_watts, 0.0}) {
    PowerTape tape;
    tape.Set(SimTime::Zero(), watts);
    std::uint64_t recomputed = 0;
    const std::string label = "constant " + std::to_string(watts) + " W";
    ExpectBitwiseEqual(config, tape, SimTime::Millis(1), SimTime::Millis(201), label,
                       &recomputed);
    // 1000 samples; the supply channel, 0.32 LSB from its nearest boundary,
    // is certified every time.
    EXPECT_EQ(recomputed, 1000u) << label;
  }
}

// FastCos2Pi against glibc's cos(2.0 * M_PI * u) at the ends of [0, 1), one
// ulp either side of every multiple of 1/8, and 10^7 uniform draws: the
// largest error must sit 100 times under the allowance the DAQ's
// certificate assumes.
TEST(DaqSoaPropertyTest, FastCos2PiIsFarInsideItsAllowance) {
  double max_error = 0.0;
  double worst_u = 0.0;
  const auto check = [&](double u) {
    const double error = std::fabs(FastCos2Pi(u) - std::cos(2.0 * M_PI * u));
    if (!(error <= max_error)) {
      max_error = error;
      worst_u = u;
    }
  };
  check(0.0);
  check(std::nextafter(1.0, 0.0));
  for (int j = 0; j <= 8; ++j) {
    const double u = j / 8.0;
    if (u < 1.0) {
      check(u);
      check(std::nextafter(u, 1.0));
    }
    if (u > 0.0) {
      check(std::nextafter(u, 0.0));
    }
  }
  Rng rng(0xC05);
  for (int i = 0; i < 10'000'000; ++i) {
    check(rng.NextDouble());
  }
  EXPECT_LE(max_error, kFastCos2PiMaxError / 100) << "worst at u = " << worst_u;
}

// FastLog against glibc's log at 1e-300 (the smallest u1 Box-Muller takes),
// 2^-53 (the smallest nonzero Rng::NextDouble), just under 1, one ulp
// either side of sqrt(1/2) (where the exponent split turns), every power of
// two from 2^-1 to 2^-996 and one ulp either side, and 10^7 uniform draws:
// the largest relative error must sit 100 times under the allowance the
// DAQ's certificate assumes.
TEST(DaqSoaPropertyTest, FastLogIsFarInsideItsAllowance) {
  double max_error = 0.0;
  double worst_x = 0.0;
  const auto check = [&](double x) {
    const double exact = std::log(x);
    const double error = std::fabs(FastLog(x) - exact) / std::fabs(exact);
    if (!(error <= max_error)) {
      max_error = error;
      worst_x = x;
    }
  };
  check(1e-300);
  check(0x1p-53);
  check(std::nextafter(1.0, 0.0));
  const double sqrt_half = std::sqrt(0.5);
  check(sqrt_half);
  check(std::nextafter(sqrt_half, 0.0));
  check(std::nextafter(sqrt_half, 1.0));
  for (int k = 1; k <= 996; ++k) {
    const double p = std::ldexp(1.0, -k);
    check(p);
    check(std::nextafter(p, 0.0));
    check(std::nextafter(p, 1.0));
  }
  Rng rng(0x106);
  for (int i = 0; i < 10'000'000; ++i) {
    check(std::max(rng.NextDouble(), 1e-300));
  }
  EXPECT_LE(max_error, kFastLogMaxRelError / 100) << "worst at x = " << worst_x;
}

// The fast path itself.  A margin grown too wide, or a kernel that drifted
// from the reference, keeps every sample bit-identical but sends readings
// to glibc; these two checks notice.  At the default config about 2
// readings in 10^6 fall in the margin's band; the bound is 10.
TEST(DaqSoaPropertyTest, FewReadingsLeaveTheKernel) {
  std::uint64_t readings = 0;
  std::uint64_t recomputed = 0;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    DaqConfig config;
    config.seed = 0x5EED0000 + trial;
    Daq daq(config);
    const PowerTape tape = RandomTape(2000 + trial, 4000);
    readings += 2 * daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(8)).size();
    recomputed += daq.recomputed_readings();
  }
  ASSERT_GE(readings, 2'000'000u);
  EXPECT_LE(recomputed * 1'000'000, 10 * readings)
      << recomputed << " of " << readings << " readings recomputed";
}

// The exact count for one fixed seed and tape, 10^7 readings.  The
// kernel's clones compute the same bits (no fused multiply-adds), so the
// count is the same whichever one the host runs.
TEST(DaqSoaPropertyTest, RecomputedCountIsPinned) {
  const PowerTape tape = RandomTape(4242, 4000);
  Daq daq;
  std::uint64_t readings = 0;
  for (int window = 0; window < 10; ++window) {
    const SimTime begin = SimTime::Seconds(100 * window);
    readings += 2 * daq.SampleWindow(tape, begin, begin + SimTime::Seconds(100)).size();
  }
  EXPECT_EQ(readings, 10'000'000u);
  EXPECT_EQ(daq.recomputed_readings(), 14u);
}

}  // namespace
}  // namespace dcs
