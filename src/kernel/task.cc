#include "src/kernel/task.h"

#include <utility>

namespace dcs {

Task::Task(Pid pid, std::unique_ptr<Workload> workload, Rng rng)
    : pid_(pid), workload_(std::move(workload)), rates_(workload_->Profile()), rng_(rng) {}

}  // namespace dcs
