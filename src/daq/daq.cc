#include "src/daq/daq.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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

// The ADC code of `volts` at a step of `lsb`, clamped to [lo, hi]; the
// reading is the code times lsb.
double Code(double volts, double lsb, double lo, double hi) {
  return RoundHalfAway(Clamp(volts, lo, hi) / lsb);
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

// Error bound, relative to glibc's log(x), for normal x > 0:
//  - split: x = 2^e * m with m in [sqrt(1/2), sqrt(2)).  Adding the bits of
//    1 less those of sqrt(1/2) carries into the exponent field exactly when
//    x's mantissa reaches sqrt(1/2)'s, so the field then holds e + 1023 and
//    the low bits hold m's mantissa less sqrt(1/2)'s; both are exact.
//  - series: ln m = 2 atanh(s), s = (m - 1) / (m + 1), |s| <= 0.1716.  m - 1
//    is exact (Sterbenz) and s is off by at most two roundings, 2^-52
//    relative.  Truncating 2(s + s^3/3 + ... + s^19/19) leaves the
//    remainder's s^20/21 < 3e-17 relative.  The Horner steps round terms
//    that are at most z <= 0.0295 of the leading 2s, under 1e-17 in all,
//    and the final add rounds once more: ln m is within 2^-51 relative.
//  - assembly: e * ln2_hi is exact (ln2_hi ends in 21 zero bits and
//    |e| <= 1074), e * ln2_lo and the two adds round three times, and the
//    sum has |ln x| >= ln(2) / 2 whenever e != 0, so cancellation costs at
//    most a factor of 2.
//  - glibc: log is within 1 ulp, 2^-52 relative.
// The total is under 2^-48, 256 times below kFastLogMaxRelError; the
// test's sweep measures 3.3e-16.  Only 64-bit adds, ands, ors and logical
// shifts touch the bits, so even SSE2 vectorizes it.
double FastLog(double x) {
  constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;
  constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
  constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kTwoTo52Bits = 0x4330000000000000ULL;
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  const std::uint64_t shifted = std::bit_cast<std::uint64_t>(x) + (kOneBits - kSqrtHalfBits);
  const double m = std::bit_cast<double>((shifted & kMantissaMask) + kSqrtHalfBits);
  // e as a double: e + 1023 placed in the mantissa of 2^52, then both taken
  // off (all exact).
  const double e = std::bit_cast<double>((shifted >> 52) | kTwoTo52Bits) - (0x1p52 + 1023.0);
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  const double series =
      z * (2.0 / 3 +
           z * (2.0 / 5 +
                z * (2.0 / 7 +
                     z * (2.0 / 9 +
                          z * (2.0 / 11 +
                               z * (2.0 / 13 +
                                    z * (2.0 / 15 + z * (2.0 / 17 + z * (2.0 / 19)))))))));
  const double ln_m = 2.0 * s + s * series;
  return e * kLn2Hi + (ln_m + e * kLn2Lo);
}

namespace {

// GCC on x86-64 Linux compiles the kernel three times, for AVX-512
// (x86-64-v4, 8 lanes), AVX2 (x86-64-v3, 4 lanes) and the SSE2 baseline
// (2 lanes), and an ifunc picks one when the program loads.  All compute
// the same bits: every operation in it is a correctly rounded IEEE add,
// multiply, divide or square root, a compare, or a bit operation, and
// -ffp-contract=off (src/daq/CMakeLists.txt) keeps the v3 and v4 clones
// from fusing a multiply and an add.  Under ThreadSanitizer GCC instruments
// the ifunc resolver, which runs before the sanitizer's runtime is up, so
// that build keeps the plain function.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define DCS_DAQ_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define DCS_DAQ_KERNEL_CLONES
#endif

// The kernel pass for one noisy channel over n samples: out[i] is the
// channel's ADC code for volts[i] plus the Box-Muller noise of (u1[i],
// u2[i]), or NaN when that code is in doubt (see Daq::SampleWindow).
// Branch-free and free of libm calls (flatten inlines FastLog and
// FastCos2Pi into each clone), so it vectorizes, even for SSE2.  It
// returns codes, not readings, so that its one select has no
// floating-point operation in either arm: GCC does not if-convert one that
// does under the default -ftrapping-math, short of AVX-512's masking.
DCS_DAQ_KERNEL_CLONES __attribute__((flatten))
void CertifiedCodes(const double* volts, const double* u1, const double* u2, std::size_t n,
                       double sigma, double lsb, double lo, double hi, double margin,
                       double* out) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < n; ++i) {
    // Rng::Gaussian(0.0, sigma) term for term, up to its log and cos (u1
    // was clamped when it was drawn).
    const double scale = sigma * std::sqrt(-2.0 * FastLog(u1[i]));
    double v = volts[i] + scale * FastCos2Pi(u2[i]);
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    // Scaled by the rounded reciprocal, where the reference divides: the
    // margin covers the two extra roundings (see the constructor).
    const double x = v * (1.0 / lsb);
    // Nearest integer by the 1.5 * 2^52 shift: exact for |x| < 2^51, with
    // ties to even where std::round sends them away from zero.  The test
    // below rejects every tie, and every |x| >= 2^51 (|x| is at most
    // 2^bits, and from 49 bits up the margin is at least 1/2).
    const double k = (x + 0x1.8p52) - 0x1.8p52;
    // The reference's x rounds to k too, and has the sign of this x, which
    // copysign gives a zero code as std::round would.
    const bool certain = (std::fabs(x - k) < 0.5 - margin) & (std::fabs(x) > margin);
    out[i] = certain ? std::copysign(k, x) : kNaN;
  }
}

}  // namespace

Daq::Daq(const DaqConfig& config, Arena* arena)
    : config_(config), rng_(config.seed),
      samples_(ArenaAllocator<double>(arena)),
      dropped_(ArenaAllocator<std::size_t>(arena)) {
  const double steps = std::pow(2.0, config_.adc_bits);
  // Shunt channel is bipolar (+/- range); supply channel unipolar.
  shunt_lsb_ = 2.0 * config_.shunt_range_volts / steps;
  supply_lsb_ = config_.supply_range_volts / steps;
  // A channel's clamped value in LSBs, x = v / lsb, differs between the
  // kernel and the reference by the sum of two terms:
  //  - noise: sigma * mag * cos with cos off by at most kFastCos2PiMaxError
  //    and mag = sqrt(-2 ln u1) off by at most half of kFastLogMaxRelError
  //    plus the square root's rounding, relative; plus the two products'
  //    roundings (2^-52 of the noise).  In LSBs that is under
  //    |noise_lsb| * mag * (kFastCos2PiMaxError + kFastLogMaxRelError +
  //    2^-52), where mag <= sqrt(-2 ln 1e-300) = 37.17 (37.2 leaves room
  //    for the roundings of sigma and mag);
  //  - the add and the scaling to LSBs: each side rounds its add once; the
  //    reference rounds v / lsb once, the kernel rounds 1 / lsb and then
  //    v * (1 / lsb).  On values under 2^bits LSB that is five half-ulps,
  //    under 2^(bits - 50) LSB.  A sum beyond twice the range clamps to the
  //    same bound on both sides, and a clamp never widens a gap.
  // The second term is floored at 2^-20 LSB, a wide margin over the proof
  // at every resolution up to 30 bits.  It costs a recompute on about 2
  // readings in 10^6 at 1 LSB of noise, the chance that a noisy x lands
  // in the 2 * 2^-20 LSB band around its rounding boundary.
  code_margin_ = std::fabs(config_.noise_lsb) * 37.2 *
                     (kFastCos2PiMaxError + kFastLogMaxRelError + 0x1p-52) +
                 std::ldexp(1.0, std::max(config_.adc_bits, 30) - 50);
}

void Daq::ReadChannel(const Channel& channel, const double* volts, const double* u1,
                      const double* u2, std::size_t n, double* out) {
  // A zero-sigma Gaussian only ever adds a signed zero, which cannot change
  // any reachable reading, so the draws are skipped entirely when noise is
  // disabled (nothing else observes rng_).
  if (channel.sigma == 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = Code(volts[i], channel.lsb, channel.lo, channel.hi);
    }
    return;
  }
  CertifiedCodes(volts, u1, u2, n, channel.sigma, channel.lsb, channel.lo, channel.hi,
                 code_margin_, out);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(out[i])) {
      // Too close to call (or NaN): the reference's code, with glibc log
      // and cos.
      ++recomputed_readings_;
      const double scale = channel.sigma * std::sqrt(-2.0 * std::log(u1[i]));
      out[i] = Code(volts[i] + (0.0 + scale * std::cos(2.0 * M_PI * u2[i])), channel.lsb,
                    channel.lo, channel.hi);
    }
  }
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
  alignas(64) double shunt_in[kBlock];
  alignas(64) double supply_in[kBlock];
  alignas(64) double shunt_u1[kBlock];
  alignas(64) double shunt_u2[kBlock];
  alignas(64) double supply_u1[kBlock];
  alignas(64) double supply_u2[kBlock];
  alignas(64) double shunt_code[kBlock];
  alignas(64) double supply_code[kBlock];
  // The supply channel reads the same voltage at every sample.
  std::fill(supply_in, supply_in + kBlock, supply_volts);
  for (std::int64_t first = 0; first < count; first += kBlock) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::int64_t>(kBlock, count - first));
    // Draw pass: the tape read, then the channels' draws in the reference
    // stream order, the shunt pair before the supply pair.  As in
    // Rng::Gaussian, u1 is kept away from 0 so its log stays finite.
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t i = first + static_cast<std::int64_t>(j);
      const SimTime t = begin + SimTime::FromSecondsF(i * period_s);
      shunt_in[j] = cursor.WattsAt(t) / supply_volts * shunt_ohms;
      if (shunt.sigma != 0.0) {
        shunt_u1[j] = std::max(rng_.NextDouble(), 1e-300);
        shunt_u2[j] = rng_.NextDouble();
      }
      if (supply.sigma != 0.0) {
        supply_u1[j] = std::max(rng_.NextDouble(), 1e-300);
        supply_u2[j] = rng_.NextDouble();
      }
    }
    // Kernel and certify passes, one channel at a time.
    ReadChannel(shunt, shunt_in, shunt_u1, shunt_u2, n, shunt_code);
    ReadChannel(supply, supply_in, supply_u1, supply_u2, n, supply_code);
    // Each channel's reading is its code times its step.  "The current was
    // then calculated by dividing the voltage by the resistance."
    double* const block_out = out + first;
    for (std::size_t j = 0; j < n; ++j) {
      block_out[j] =
          (shunt_code[j] * shunt.lsb / shunt_ohms) * (supply_code[j] * supply.lsb);
    }
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
