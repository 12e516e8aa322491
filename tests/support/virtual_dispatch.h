// The kernel's virtual-call governor dispatch, kept for tests only.
//
// Devices install their governor through the static PolicyDispatch thunk the
// registry builds; Kernel::InstallPolicy(ClockPolicy*) is the original
// vtable path.  tests/hotpath/dispatch_equivalence_test.cc holds the two to
// bitwise equality through this helper.

#ifndef TESTS_SUPPORT_VIRTUAL_DISPATCH_H_
#define TESTS_SUPPORT_VIRTUAL_DISPATCH_H_

#include "src/exp/experiment.h"

namespace dcs::testing {

// RunExperiment(config), except that the device's governor is re-installed
// through the virtual-call path before the run starts (every governor's
// OnInstall is re-entrant).
ExperimentResult RunWithVirtualDispatch(const ExperimentConfig& config);

}  // namespace dcs::testing

#endif  // TESTS_SUPPORT_VIRTUAL_DISPATCH_H_
