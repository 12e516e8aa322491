// One single-cell fleet shard re-composed from DeviceSim's public phases, the
// way FleetRunner::RunShard drives it: build the cell's device, warm it up,
// snapshot it, then restore / diverge / run / fold each device.
//
// FleetRunner gives no handle on a shard's phases, so the traced fleet run
// re-drives each shard here, and the fold it returns must equal the fleet
// report's exact integer aggregates; that equality is what shows this drive
// simulates what the shard simulates and that the timed governor wrapper
// changed nothing.  It is a re-composition, not the program's RunShard: it
// leaves out the shard's histogram observes and metrics export, so its
// times are the traced per-layer figures only, never an end-to-end one.

#ifndef PERFBENCH_SRC_FLEET_DRIVE_H_
#define PERFBENCH_SRC_FLEET_DRIVE_H_

#include <cstdint>

#include "perfbench/src/trace.h"
#include "src/exp/fleet.h"

namespace perfbench {

// The exact per-fleet aggregates of FleetRunner's report (its fleet.*
// counters; the squared-energy sum is kept as its two 64-bit halves).
struct FleetFold {
  std::uint64_t devices = 0, energy_uj = 0, energy_uj_sq_hi = 0, energy_uj_sq_lo = 0;
  std::uint64_t deadline_events = 0, deadline_misses = 0, deadline_rejected = 0;
  std::uint64_t deadline_shed = 0, battery_deaths = 0, quanta = 0, clock_changes = 0;
};

// Reads the fold out of a fleet report.
FleetFold FoldOf(const dcs::FleetReport& report);

// Drives the single shard of `spec` (whose one cell is `cell`; spec must
// hold exactly one app and one shard), traced: every phase is a span, the
// governor is wrapped in a TimedPolicy, and the shard's last device is also
// run through Finish and the journal codec so that the layers a fleet never
// calls are still timed on a fleet device.  Merges the shard's totals into
// ctx->totals and copies them to *shard_totals.
FleetFold DriveFleetShard(const dcs::FleetSpec& spec, const dcs::FleetCell& cell,
                          std::int64_t job, TraceContext* ctx, LayerTotals* shard_totals);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_FLEET_DRIVE_H_
