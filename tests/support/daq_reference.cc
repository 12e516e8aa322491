#include "tests/support/daq_reference.h"

#include <cmath>

namespace dcs::testing {
namespace {

// Quantises `volts` to an ADC step of `lsb`, clamped to [lo, hi].
double Quantise(double volts, double lsb, double lo, double hi) {
  if (volts < lo) {
    volts = lo;
  }
  if (volts > hi) {
    volts = hi;
  }
  return std::round(volts / lsb) * lsb;
}

}  // namespace

ReferenceDaq::ReferenceDaq(const DaqConfig& config) : config_(config), rng_(config.seed) {
  const double steps = std::pow(2.0, config_.adc_bits);
  shunt_lsb_ = 2.0 * config_.shunt_range_volts / steps;
  supply_lsb_ = config_.supply_range_volts / steps;
}

double ReferenceDaq::ReadPower(double watts) {
  const double sigma_shunt = config_.noise_lsb * shunt_lsb_;
  const double sigma_supply = config_.noise_lsb * supply_lsb_;
  const double amps = watts / config_.supply_volts;
  // Channel 1: shunt voltage drop.  A channel with zero sigma draws nothing.
  double shunt_v = amps * config_.shunt_ohms;
  if (sigma_shunt != 0.0) {
    shunt_v += rng_.Gaussian(0.0, sigma_shunt);
  }
  shunt_v = Quantise(shunt_v, shunt_lsb_, -config_.shunt_range_volts,
                     config_.shunt_range_volts);
  // Channel 2: supply voltage.
  double supply_v = config_.supply_volts;
  if (sigma_supply != 0.0) {
    supply_v += rng_.Gaussian(0.0, sigma_supply);
  }
  supply_v = Quantise(supply_v, supply_lsb_, 0.0, config_.supply_range_volts);
  return (shunt_v / config_.shunt_ohms) * supply_v;
}

std::span<const double> ReferenceDaq::SampleWindow(const PowerTape& tape, SimTime begin,
                                                   SimTime end) {
  samples_.clear();
  if (end <= begin) {
    return {};
  }
  const double period_s = 1.0 / config_.sample_hz;
  const std::int64_t count = static_cast<std::int64_t>(
      std::floor((end - begin).ToSeconds() / period_s));
  PowerTape::Cursor cursor(tape);
  std::vector<std::size_t> dropped;
  for (std::int64_t i = 0; i < count; ++i) {
    const SimTime t = begin + SimTime::FromSecondsF(i * period_s);
    // The reading is always taken (the ADC ran; its noise stream must not
    // shift); a drop loses the value on the way to the host.
    const double reading = ReadPower(cursor.WattsAt(t));
    if (faults_ != nullptr && faults_->DropSample()) {
      dropped.push_back(samples_.size());
      samples_.push_back(0.0);
    } else {
      samples_.push_back(reading);
    }
  }
  dropped_samples_ += dropped.size();
  // Each maximal run [a, b] of dropped samples is interpolated linearly
  // between its surviving neighbours; a run at an edge copies the one
  // neighbour it has, and a window with no survivor stays zero.
  const std::size_t n = samples_.size();
  for (std::size_t d = 0; d < dropped.size();) {
    std::size_t e = d;
    while (e + 1 < dropped.size() && dropped[e + 1] == dropped[e] + 1) {
      ++e;
    }
    const std::size_t a = dropped[d];
    const std::size_t b = dropped[e];
    for (std::size_t i = a; i <= b; ++i) {
      if (a > 0 && b + 1 < n) {
        const double frac = static_cast<double>(i - a + 1) / static_cast<double>(b - a + 2);
        samples_[i] = samples_[a - 1] + (samples_[b + 1] - samples_[a - 1]) * frac;
      } else if (a > 0) {
        samples_[i] = samples_[a - 1];
      } else if (b + 1 < n) {
        samples_[i] = samples_[b + 1];
      }
    }
    d = e + 1;
  }
  return {samples_.data(), samples_.size()};
}

}  // namespace dcs::testing
