#include "src/daq/daq.h"

#include <algorithm>
#include <cmath>

#include "src/fault/fault_injector.h"

namespace dcs {
namespace {

double Clamp(double volts, double lo, double hi) {
  if (volts < lo) {
    volts = lo;
  }
  if (volts > hi) {
    volts = hi;
  }
  return volts;
}

// Quantises `volts` to an ADC step of `lsb`, clamped to [lo, hi].
double Quantise(double volts, double lsb, double lo, double hi) {
  return std::round(Clamp(volts, lo, hi) / lsb) * lsb;
}

}  // namespace

// Error bound, against glibc's cos(2.0 * M_PI * u), summed over four parts:
//  - r: for the u that Rng::NextDouble returns (multiples of 2^-53) both
//    subtractions are exact; for any other u in [0, 1) r is off by at most
//    2^-56, which moves sin(2*pi*r) by under 1e-16.
//  - fit: r * P(r^2) is a Chebyshev fit of sin(2*pi*r) on |r| <= 1/4
//    (P fits sin(2*pi*sqrt(z)) / sqrt(z) on z in [0, 1/16]).  With the
//    coefficients rounded to double, its error in 40-digit arithmetic on
//    a grid of 2001 points peaks at 7.9e-14 (the test's 10^7-point sweep
//    against glibc agrees).
//  - evaluation: each Horner step rounds a partial sum under 80 whose
//    error is scaled down by a power of z <= 1/16 and by r <= 1/4; the sum
//    of all roundings is under 1e-15.
//  - glibc: 2.0 * M_PI * u is within 7e-16 of 2*pi*u (the rounding of
//    2*pi, then half an ulp of a value under 2*pi), and glibc's cos is
//    within 1 ulp of its argument's cosine: under 9e-16 in all.
// The total is under 1e-13, some 2000 times below kFastCos2PiMaxError.
double FastCos2Pi(double u) {
  const double r = std::fabs(u - 0.5) - 0.25;
  const double z = r * r;
  return r * (6.28318530717927 +
              z * (-41.341702239903675 +
                   z * (81.60524914901583 +
                        z * (-76.70584754377326 +
                             z * (42.058134871372054 +
                                  z * (-15.081483206893 + z * 3.6658551595639612))))));
}

Daq::Daq(const DaqConfig& config, Arena* arena)
    : config_(config), rng_(config.seed),
      samples_(ArenaAllocator<double>(arena)),
      dropped_(ArenaAllocator<std::size_t>(arena)) {
  const double steps = std::pow(2.0, config_.adc_bits);
  // Shunt channel is bipolar (+/- range); supply channel unipolar.
  shunt_lsb_ = 2.0 * config_.shunt_range_volts / steps;
  supply_lsb_ = config_.supply_range_volts / steps;
  // A channel's clamped value in LSBs, x = v / lsb, differs between Read's
  // fast path and the reference by the sum of two terms:
  //  - noise: sigma * mag * cos with cos off by at most kFastCos2PiMaxError,
  //    plus the two products' roundings (2^-52 of the noise); in LSBs that
  //    is |noise_lsb| * mag * (kFastCos2PiMaxError + 2^-52), where
  //    mag = sqrt(-2 ln u1) <= sqrt(-2 ln 1e-300) = 37.17 (37.2 leaves room
  //    for the roundings of sigma and mag);
  //  - the add and the divide: each side rounds both once, on values under
  //    2^bits LSB: four half-ulps, under 2^(bits - 50) LSB.  A sum beyond
  //    twice the range clamps to the same bound on both sides, and a clamp
  //    never widens a gap.
  // The second term is floored at 2^-20 LSB, a wide margin over the proof
  // at every resolution up to 30 bits.  It costs a recompute on about 2
  // readings in 10^6 at 1 LSB of noise, the chance that a noisy x lands
  // in the 2 * 2^-20 LSB band around its rounding boundary.
  code_margin_ = std::fabs(config_.noise_lsb) * 37.2 * (kFastCos2PiMaxError + 0x1p-52) +
                 std::ldexp(1.0, std::max(config_.adc_bits, 30) - 50);
}

double Daq::Read(double volts, const Channel& channel) {
  // A zero-sigma Gaussian only ever adds a signed zero, which cannot change
  // any reachable reading, so the draws are skipped entirely when noise is
  // disabled (nothing else observes rng_).
  if (channel.sigma == 0.0) {
    return Quantise(volts, channel.lsb, channel.lo, channel.hi);
  }
  // Rng::Gaussian(0.0, sigma) term for term, up to its cos.
  double u1 = rng_.NextDouble();
  const double u2 = rng_.NextDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double scale = channel.sigma * std::sqrt(-2.0 * std::log(u1));
  const double x =
      Clamp(volts + scale * FastCos2Pi(u2), channel.lo, channel.hi) / channel.lsb;
  // Nearest integer by the 1.5 * 2^52 shift: exact for |x| < 2^51, with
  // ties to even where std::round sends them away from zero.  The test
  // below rejects every tie, and every |x| >= 2^51 (|x| is at most 2^bits,
  // and from 49 bits up the margin is at least 1/2).
  const double k = (x + 0x1.8p52) - 0x1.8p52;
  if (std::fabs(x - k) < 0.5 - code_margin_ && std::fabs(x) > code_margin_) {
    // The reference's x rounds to k too, and has the sign of this x, which
    // copysign gives a zero code as std::round would.
    return std::copysign(k, x) * channel.lsb;
  }
  // Too close to call (or NaN): the reference reading, with glibc cos.
  ++recomputed_readings_;
  return Quantise(volts + (0.0 + scale * std::cos(2.0 * M_PI * u2)), channel.lsb,
                  channel.lo, channel.hi);
}

std::span<const double> Daq::SampleWindow(const PowerTape& tape, SimTime begin,
                                          SimTime end) {
  samples_.clear();
  if (end <= begin) {
    return {};
  }
  const double period_s = 1.0 / config_.sample_hz;
  const std::int64_t count = static_cast<std::int64_t>(
      std::floor((end - begin).ToSeconds() / period_s));
  samples_.resize(static_cast<std::size_t>(count));
  double* const out = samples_.data();
  // Sample times are non-decreasing, so a tape cursor makes each lookup
  // amortised O(1) instead of a fresh binary search per sample.
  PowerTape::Cursor cursor(tape);
  const double supply_volts = config_.supply_volts;
  const double shunt_ohms = config_.shunt_ohms;
  const Channel shunt{config_.noise_lsb * shunt_lsb_, shunt_lsb_,
                      -config_.shunt_range_volts, config_.shunt_range_volts};
  const Channel supply{config_.noise_lsb * supply_lsb_, supply_lsb_, 0.0,
                       config_.supply_range_volts};
  for (std::int64_t i = 0; i < count; ++i) {
    const SimTime t = begin + SimTime::FromSecondsF(i * period_s);
    const double amps = cursor.WattsAt(t) / supply_volts;
    // Channel 1, the shunt voltage drop, draws its noise before channel 2,
    // the supply voltage.
    const double shunt_v = Read(amps * shunt_ohms, shunt);
    const double supply_v = Read(supply_volts, supply);
    // "The current was then calculated by dividing the voltage by the
    // resistance."
    out[i] = (shunt_v / shunt_ohms) * supply_v;
  }
  ApplyDrops();
  return {samples_.data(), samples_.size()};
}

std::vector<double> Daq::SamplePowerWatts(const PowerTape& tape, SimTime begin,
                                          SimTime end) {
  const std::span<const double> window = SampleWindow(tape, begin, end);
  return std::vector<double>(window.begin(), window.end());
}

void Daq::ApplyDrops() {
  if (faults_ == nullptr) {
    return;
  }
  dropped_.clear();
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (faults_->DropSample()) {
      dropped_.push_back(i);
      samples_[i] = 0.0;
    }
  }
  if (!dropped_.empty()) {
    dropped_samples_ += dropped_.size();
    InterpolateDropped(samples_.data(), samples_.size(), dropped_.data(),
                       dropped_.size());
  }
}

void Daq::InterpolateDropped(double* samples, std::size_t n,
                             const std::size_t* dropped, std::size_t dropped_n) {
  for (std::size_t d = 0; d < dropped_n;) {
    // Maximal run of consecutive dropped indices [a, b].
    const std::size_t a = dropped[d];
    std::size_t e = d;
    while (e + 1 < dropped_n && dropped[e + 1] == dropped[e] + 1) {
      ++e;
    }
    const std::size_t b = dropped[e];
    const bool has_left = a > 0;
    const bool has_right = b + 1 < n;
    for (std::size_t i = a; i <= b; ++i) {
      if (has_left && has_right) {
        const double frac = static_cast<double>(i - a + 1) / static_cast<double>(b - a + 2);
        samples[i] = samples[a - 1] + (samples[b + 1] - samples[a - 1]) * frac;
      } else if (has_left) {
        samples[i] = samples[a - 1];
      } else if (has_right) {
        samples[i] = samples[b + 1];
      }
      // A window with every sample dropped stays zero: there is nothing to
      // reconstruct from.
    }
    d = e + 1;
  }
}

double Daq::EnergyJoules(std::span<const double> samples) const {
  double joules = 0.0;
  const double dt = 1.0 / config_.sample_hz;
  for (const double p : samples) {
    joules += p * dt;
  }
  return joules;
}

double Daq::AverageWatts(std::span<const double> samples) const {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double p : samples) {
    sum += p;
  }
  return sum / static_cast<double>(samples.size());
}

double Daq::MeasureEnergyJoules(const PowerTape& tape, SimTime begin, SimTime end) {
  return EnergyJoules(SampleWindow(tape, begin, end));
}

void GpioTrigger::Attach(Gpio& gpio) {
  gpio.Observe([this](int pin, SimTime at, bool /*level*/) {
    if (pin != pin_) {
      return;
    }
    if (!open_start_.has_value()) {
      open_start_ = at;
    } else {
      windows_.emplace_back(*open_start_, at);
      open_start_.reset();
    }
  });
}

}  // namespace dcs
