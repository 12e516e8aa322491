#include "tests/support/virtual_dispatch.h"

#include "src/exp/device_sim.h"

namespace dcs::testing {

ExperimentResult RunWithVirtualDispatch(const ExperimentConfig& config) {
  DeviceSim device(config);
  if (device.governor() != nullptr) {
    device.kernel().InstallPolicy(device.governor());
  }
  return device.Run();
}

}  // namespace dcs::testing
