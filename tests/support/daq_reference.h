// The DAQ's one-reading-at-a-time reference pipeline, kept for tests only.
//
// Daq::SampleWindow fuses each sample into one loop and takes its noise's
// cos from a certified polynomial; its contract is bitwise equality with
// this pipeline, the original form of the model: per sample, a tape read,
// Rng::Gaussian noise on each channel, std::round quantisation, and the
// fault injector's drop decision taken right after the reading.
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
