#include "src/sim/rng.h"

#include <cmath>

namespace dcs {

Rng::Rng(std::uint64_t seed) {
  // The state words are splitmix64's first four outputs from `seed`.
  for (auto& word : s_) {
    word = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  double u = NextDouble();
  if (u < 1e-300) {
    u = 1e-300;
  }
  return -mean * std::log(u);
}

double Rng::TruncatedGaussian(double mean, double stddev, double lo, double hi) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double draw = Gaussian(mean, stddev);
    if (draw >= lo && draw <= hi) {
      return draw;
    }
  }
  const double draw = Gaussian(mean, stddev);
  if (draw < lo) {
    return lo;
  }
  if (draw > hi) {
    return hi;
  }
  return draw;
}

Rng Rng::Fork() {
  // Derive a child seed from two draws; advancing this stream by two ensures
  // successive forks are decorrelated.
  const std::uint64_t a = Next();
  const std::uint64_t b = Next();
  return Rng(a ^ Rotl(b, 32) ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace dcs
