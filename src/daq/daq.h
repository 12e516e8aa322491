// The data-acquisition (DAQ) system model.
//
// The paper's measurement rig: "we use a data acquisition (DAQ) system to
// record the current drawn by the Itsy ... and the voltage provided by this
// supply.  We configured the DAQ system to read the voltage 5000 times per
// second, and convert these readings to 16-bit values."  The supply current
// was measured as the voltage drop across a 0.02 ohm precision shunt; a
// GPIO pin wired to the DAQ's external trigger marks the measurement window.
//
// Our DAQ samples the Itsy's ground-truth power tape through the same
// pipeline: shunt voltage -> 16-bit ADC quantisation (+ optional Gaussian
// noise) -> current -> power; energy is integrated with the paper's
// rectangle rule (each sample stands for the following 0.0002 s).

#ifndef SRC_DAQ_DAQ_H_
#define SRC_DAQ_DAQ_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/hw/gpio.h"
#include "src/hw/power_tape.h"
#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

class FaultInjector;

struct DaqConfig {
  double sample_hz = 5000.0;
  double shunt_ohms = 0.02;
  double supply_volts = 3.1;
  // ADC input ranges (full scale) and resolution.
  double shunt_range_volts = 0.1;   // +/- range for the shunt channel
  double supply_range_volts = 5.0;  // 0..range for the supply channel
  int adc_bits = 16;
  // Additive Gaussian noise on each channel, in LSBs.
  double noise_lsb = 1.0;
  std::uint64_t seed = 0x0DA05EEDULL;
};

// cos(2*pi*u) for u in [0, 1): a branch-free odd polynomial in
// r = |u - 1/2| - 1/4, where cos(2*pi*u) = sin(2*pi*r).  It differs from
// glibc's std::cos(2.0 * M_PI * u) by at most kFastCos2PiMaxError (the
// derivation is at the definition; tests/hotpath/daq_soa_property_test.cc
// sweeps it).
double FastCos2Pi(double u);
inline constexpr double kFastCos2PiMaxError = 0x1p-32;

// ln(x) for normal x > 0, branch-free and built from bit operations: the
// exponent split at sqrt(1/2), then the atanh series in s = (m-1)/(m+1).
// It differs from glibc's std::log(x) by at most kFastLogMaxRelError,
// relative (derivation at the definition; the property test sweeps it).
double FastLog(double x);
inline constexpr double kFastLogMaxRelError = 0x1p-40;

// std::round(x), halfway cases away from zero, bit for bit for every
// double (signed zeros, infinities and NaN included) but inline: baseline
// x86-64 has no rounding instruction, so std::round is a libm call.  Below
// 2^52 the shift by 2^52 rounds |x| to nearest, ties to even, exactly; a tie
// it sent down is moved up, and copysign restores the sign, -0.0 included.
// From 2^52 up every double is an integer and passes through.
inline double RoundHalfAway(double x) {
  const double a = std::fabs(x);
  double r = (a + 0x1p52) - 0x1p52;
  r += r - a == -0.5 ? 1.0 : 0.0;
  return std::copysign(a < 0x1p52 ? r : a, x);
}

class Daq {
 public:
  // `arena`, when bound, backs the internal sample buffer so steady-state
  // sampling performs no heap allocation; it must outlive the Daq.
  explicit Daq(const DaqConfig& config = {}, Arena* arena = nullptr);

  // Samples per block of SampleWindow's passes.  The block's scratch lives
  // on the stack (8 arrays of kBlock doubles).
  static constexpr std::int64_t kBlock = 256;

  const DaqConfig& config() const { return config_; }
  SimTime SamplePeriod() const { return SimTime::FromSecondsF(1.0 / config_.sample_hz); }

  // Samples instantaneous power over [begin, end) at sample_hz, applying the
  // shunt/ADC model.  Sample i is taken at begin + i/sample_hz; the tape is
  // read through a PowerTape::Cursor, so a whole window costs amortised O(1)
  // per sample.  Samples the bound fault injector drops are reconstructed by
  // linear interpolation between their surviving neighbours (edge runs copy
  // the nearest survivor); without a bound injector the drop bookkeeping is
  // never materialised.
  //
  // Samples are taken in blocks of kBlock, each in three passes:
  //  - draw: per sample, the timestamp, the tape read and the shunt volts,
  //    then the channels' Box-Muller uniforms in the reference stream order
  //    (shunt pair, then supply pair; none for a channel whose sigma is 0);
  //  - kernel: per noisy channel, one branch-free loop with no libm call
  //    computes the value x in LSBs as Rng::Gaussian noise would leave it,
  //    but with log from FastLog and cos(2*pi*u2) from FastCos2Pi.  This x
  //    differs from the reference's by less than a margin fixed by the
  //    config (see the constructor), so when x lies further than that
  //    margin from every rounding boundary k +/- 1/2, and from zero, the
  //    reference rounds to the same code k with the same sign and k * lsb
  //    is its reading bit for bit;
  //  - certify: every other reading is recomputed with glibc log and cos,
  //    exactly as the reference computes it (about 2 readings in 10^6 at
  //    1 LSB of noise), and each sample's power is formed.
  // So every sample, and every golden, is the one-reading-at-a-time
  // pipeline's bit for bit (tests/support/daq_reference.h is that pipeline;
  // tests/hotpath/daq_soa_property_test.cc compares the two).  Being free of
  // libm calls, the kernel vectorizes; on x86-64 it is built for AVX-512,
  // AVX2 and SSE2 and picked at load time, each computing the same bits.
  //
  // Returns a view into an internal buffer that remains valid until the
  // next SampleWindow/SamplePowerWatts/MeasureEnergyJoules call.
  std::span<const double> SampleWindow(const PowerTape& tape, SimTime begin, SimTime end);

  // Compatibility wrapper around SampleWindow: same samples, copied into a
  // fresh heap vector.
  std::vector<double> SamplePowerWatts(const PowerTape& tape, SimTime begin, SimTime end);

  // Binds the fault injector (non-owning; null unbinds).  Unbound, sampling
  // is byte-identical to the pre-fault DAQ.
  void BindFaults(FaultInjector* faults) { faults_ = faults; }

  // Samples lost to injected drops so far.
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  // Channel readings so far that the kernel could not settle and that were
  // recomputed with glibc log and cos.  A diagnostic: not part of the
  // snapshot.
  std::uint64_t recomputed_readings() const { return recomputed_readings_; }

  // Rectangle-rule energy: sum(p_i * 0.0002 s), exactly as in section 4.1.
  double EnergyJoules(std::span<const double> samples) const;
  double AverageWatts(std::span<const double> samples) const;

  // Convenience: sample + integrate in one call.
  double MeasureEnergyJoules(const PowerTape& tape, SimTime begin, SimTime end);

  // Device-snapshot support (src/sim/snapshot.h): the noise RNG's stream
  // position and drop accounting.  Sample buffers are transient outputs and
  // are not serialized.
  void SaveState(SnapshotWriter* w) const {
    rng_.SaveState(w);
    w->U64(dropped_samples_);
  }
  void LoadState(SnapshotReader* r) {
    rng_.LoadState(r);
    dropped_samples_ = r->U64();
  }

 private:
  // One ADC channel: noise sigma (zero skips the draws), step, clamp range.
  struct Channel {
    double sigma;
    double lsb;
    double lo;
    double hi;
  };

  // The kernel and certify passes for one channel over a block: out[i] is
  // the channel's ADC code for volts[i], with noise from (u1[i], u2[i])
  // unless its sigma is 0, clamped and quantised.
  void ReadChannel(const Channel& channel, const double* volts, const double* u1,
                   const double* u2, std::size_t n, double* out);

  // Drop overlay.  The injector's drop stream is isolated from the DAQ
  // noise stream, so deciding drops after the sampling loop (instead of
  // interleaved per sample) reads both streams in the same per-stream order
  // and yields identical values.
  void ApplyDrops();

  // Reconstructs the samples at `dropped` (sorted indices) in place.
  static void InterpolateDropped(double* samples, std::size_t n,
                                 const std::size_t* dropped, std::size_t dropped_n);

  DaqConfig config_;
  Rng rng_;
  double shunt_lsb_;
  double supply_lsb_;
  // Readings whose value lies within this many LSBs of a rounding boundary
  // or of zero are recomputed with glibc log and cos.
  double code_margin_;
  FaultInjector* faults_ = nullptr;
  std::uint64_t dropped_samples_ = 0;
  std::uint64_t recomputed_readings_ = 0;

  // Sample window output (reused across calls; arena-backed when bound).
  ArenaVector<double> samples_;
  ArenaVector<std::size_t> dropped_;
};

// Latches a measurement window from GPIO edges, as the paper's trigger wire
// did: the first observed edge on `pin` starts the window, the second ends
// it (further edges start new windows).
class GpioTrigger {
 public:
  explicit GpioTrigger(int pin) : pin_(pin) {}

  // Attach to a GPIO bank; observes all subsequent edges.
  void Attach(Gpio& gpio);

  // Completed [start, end) windows so far.
  const std::vector<std::pair<SimTime, SimTime>>& windows() const { return windows_; }
  // Window currently open (started but not yet ended), if any.
  std::optional<SimTime> open_window_start() const { return open_start_; }

  // Device-snapshot support (src/sim/snapshot.h).
  void SaveState(SnapshotWriter* w) const {
    w->Bool(open_start_.has_value());
    w->Time(open_start_.value_or(SimTime::Zero()));
    w->U64(windows_.size());
    for (const auto& [start, end] : windows_) {
      w->Time(start);
      w->Time(end);
    }
  }
  void LoadState(SnapshotReader* r) {
    const bool open = r->Bool();
    const SimTime open_at = r->Time();
    open_start_ = open ? std::optional<SimTime>(open_at) : std::nullopt;
    const std::size_t n = static_cast<std::size_t>(r->U64());
    windows_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime start = r->Time();
      const SimTime end = r->Time();
      windows_.emplace_back(start, end);
    }
  }

 private:
  int pin_;
  std::optional<SimTime> open_start_;
  std::vector<std::pair<SimTime, SimTime>> windows_;
};

}  // namespace dcs

#endif  // SRC_DAQ_DAQ_H_
