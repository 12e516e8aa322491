// The DAQ's one-reading-at-a-time reference pipeline, kept for tests only.
//
// This is the model in its original form, built from glibc alone: per
// sample, a tape read, Rng::Gaussian noise on each channel (glibc log and
// cos), std::round quantisation, and the fault injector's drop decision
// taken right after the reading.  Daq::SampleWindow computes the same
// window in blocks — a draw pass, a vectorized kernel with certified log
// and cos polynomials, and a glibc recompute of the readings the kernel
// cannot certify — and must match this pipeline bit for bit.
// tests/hotpath/daq_soa_property_test.cc holds the two to that contract.

#ifndef TESTS_SUPPORT_DAQ_REFERENCE_H_
#define TESTS_SUPPORT_DAQ_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/daq/daq.h"
#include "src/fault/fault_injector.h"
#include "src/hw/power_tape.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace dcs::testing {

// Same construction, fault binding and window semantics as Daq.
class ReferenceDaq {
 public:
  explicit ReferenceDaq(const DaqConfig& config);

  void BindFaults(FaultInjector* faults) { faults_ = faults; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  // The view stays valid until the next call.
  std::span<const double> SampleWindow(const PowerTape& tape, SimTime begin, SimTime end);

 private:
  // One power reading of true power `watts` through the ADC pipeline.
  double ReadPower(double watts);

  DaqConfig config_;
  Rng rng_;
  double shunt_lsb_;
  double supply_lsb_;
  FaultInjector* faults_ = nullptr;
  std::uint64_t dropped_samples_ = 0;
  std::vector<double> samples_;
};

}  // namespace dcs::testing

#endif  // TESTS_SUPPORT_DAQ_REFERENCE_H_
