#include "perfbench/src/fleet_drive.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "src/exp/device_sim.h"
#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"

namespace perfbench {
namespace {

__extension__ typedef unsigned __int128 U128;

// FleetRunner's battery-capacity jitter stream tag (src/exp/fleet.cc).  Its
// jitter base is Mix64(fleet seed ^ tag); a change there changes every fleet
// digest, so the fold check below cannot drift silently.
constexpr std::uint64_t kBatteryJitterTag = 0xba77e21fULL;

}  // namespace

FleetFold FoldOf(const dcs::FleetReport& report) {
  const dcs::MetricsRegistry& m = report.merged;
  FleetFold f;
  f.devices = CounterOf(m, "fleet.devices");
  f.energy_uj = CounterOf(m, "fleet.energy_uj");
  f.energy_uj_sq_hi = CounterOf(m, "fleet.energy_uj_sq_hi");
  f.energy_uj_sq_lo = CounterOf(m, "fleet.energy_uj_sq_lo");
  f.deadline_events = CounterOf(m, "fleet.deadline_events");
  f.deadline_misses = CounterOf(m, "fleet.deadline_misses");
  f.deadline_rejected = CounterOf(m, "fleet.deadline_rejected");
  f.deadline_shed = CounterOf(m, "fleet.deadline_shed");
  f.battery_deaths = CounterOf(m, "fleet.battery_deaths");
  f.quanta = CounterOf(m, "fleet.quanta");
  f.clock_changes = CounterOf(m, "fleet.clock_changes");
  return f;
}

FleetFold DriveFleetShard(const dcs::FleetSpec& spec, const dcs::FleetCell& cell,
                          std::int64_t job, TraceContext* ctx, LayerTotals* shard_totals) {
  // The cell's device config, as FleetRunner builds it for the cell's shards.
  dcs::ExperimentConfig config = spec.base;
  config.app = cell.app;
  config.duration = spec.duration;
  config.seed = cell.cell_seed;
  if (cell.app == "server") {
    if (!config.server.has_value()) {
      config.server.emplace();
    }
    config.server->rate_rps *= cell.rate_scale;
    config.server->duration = spec.duration;
  }
  // A campaign worker's arena, reset per job, as the fleet's runner binds it.
  static thread_local dcs::Arena arena;
  arena.Reset();
  config.arena = &arena;

  Tracer* tr = ctx->tracer;
  const auto timed = [&](const char* name, auto&& fn) { return tr->Time(name, job, fn); };
  LayerTotals t;
  const int root = tr->Open("job", job);

  std::optional<dcs::DeviceSim> dev;
  std::optional<TimedPolicy> policy;
  t.build_ns = timed("exp.device_build", [&] {
    dev.emplace(config);
    if (dev->governor() != nullptr) {
      policy.emplace(dev->governor());
      dev->kernel().InstallPolicy(&*policy);
    }
  });
  t.builds = 1;

  // Runs the device to `until` as one sim.run_until span with the governor
  // time inside it split out.
  const auto run_until = [&](dcs::SimTime until) {
    const double core_before = policy ? policy->ns() : 0.0;
    const int run = tr->Open("sim.run_until", job);
    dev->RunUntil(until);
    const double run_ns = tr->Close(run);
    const double core_ns = policy ? policy->ns() - core_before : 0.0;
    tr->Aggregate(run, "core.on_quantum", core_ns);
    t.run_ns += run_ns;
    t.run_self_ns += run_ns - core_ns;
    t.core_ns += core_ns;
    t.runs += 1;
  };

  dev->Start();
  run_until(spec.warmup);
  AddCounts(CountsOf(*dev), DeviceCounts{}, &t);
  t.decisions = policy ? policy->decisions() : 0;
  dcs::SnapshotWriter image;
  t.save_ns = timed("sim.snapshot_save", [&] { dev->SaveState(&image); });
  t.saves = 1;
  t.snapshot_bytes = image.size();

  const dcs::Rng battery_jitter_base(Mix64(spec.seed ^ kBatteryJitterTag));
  const bool jitter_battery =
      spec.jitter.battery_capacity > 0.0 && config.itsy.battery.has_value();

  FleetFold fold;
  U128 energy_sq = 0;
  for (std::uint64_t d = 0; d < cell.count; ++d) {
    const std::uint64_t device_id = cell.first_device + d;
    bool restored = false;
    t.load_ns += timed("sim.snapshot_load", [&] {
      dcs::SnapshotReader reader(image);
      dev->LoadState(&reader);
      restored = reader.ok();
    });
    t.loads += 1;
    Require(restored, "device image failed to restore");
    dev->kernel().ForkRngs(device_id);
    if (jitter_battery) {
      dcs::Rng jitter_rng = battery_jitter_base.Fork(device_id);
      const double j = spec.jitter.battery_capacity;
      dcs::BatteryParams params = *config.itsy.battery;
      params.peukert_capacity *= 1.0 + jitter_rng.Uniform(-j, j);
      dev->itsy().battery()->SetParams(params);
    }

    const DeviceCounts before = CountsOf(*dev);
    const std::uint64_t decisions_before = CounterOf(dev->metrics(), "governor.decisions");
    const std::uint64_t wrapped_before = policy ? policy->decisions() : 0;
    run_until(dev->duration());
    dev->itsy().SyncBattery();
    double energy_j = 0.0;
    t.tape_ns += timed("hw.tape_energy", [&] {
      energy_j = dev->itsy().tape().EnergyJoules(dcs::SimTime::Zero(), dev->sim().Now());
    });
    t.tape_calls += 1;
    AddCounts(CountsOf(*dev), before, &t);
    Require(CounterOf(dev->metrics(), "kernel.quanta") == dev->kernel().quanta_elapsed(),
            "kernel.quanta");
    if (policy) {
      const std::uint64_t decisions =
          CounterOf(dev->metrics(), "governor.decisions") - decisions_before;
      Require(decisions == policy->decisions() - wrapped_before, "core.decisions");
      t.decisions += decisions;
    }

    const std::uint64_t energy_uj = static_cast<std::uint64_t>(std::llround(energy_j * 1e6));
    fold.devices += 1;
    fold.energy_uj += energy_uj;
    energy_sq += static_cast<U128>(energy_uj) * static_cast<U128>(energy_uj);
    fold.deadline_events += static_cast<std::uint64_t>(dev->deadlines().TotalEvents());
    fold.deadline_misses += static_cast<std::uint64_t>(dev->deadlines().TotalMissed());
    fold.deadline_rejected += static_cast<std::uint64_t>(dev->deadlines().TotalRejected());
    fold.deadline_shed += static_cast<std::uint64_t>(dev->deadlines().TotalShed());
    fold.quanta += dev->kernel().quanta_elapsed();
    fold.clock_changes += static_cast<std::uint64_t>(dev->itsy().clock_changes());
    if (const dcs::Battery* battery = dev->itsy().battery();
        battery != nullptr && battery->Died()) {
      fold.battery_deaths += 1;
    }
  }
  fold.energy_uj_sq_hi = static_cast<std::uint64_t>(energy_sq >> 64);
  fold.energy_uj_sq_lo = static_cast<std::uint64_t>(energy_sq);

  // What the fleet itself runs, by layer; the probe below is off its path.
  t.units = fold.devices;
  t.step_changes = policy ? policy->step_changes() : 0;
  t.on_path_ns[kExp] = t.build_ns;
  t.on_path_ns[kSim] = t.run_self_ns + t.save_ns + t.load_ns;
  t.on_path_ns[kCore] = t.core_ns;
  t.on_path_ns[kHw] = t.tape_ns;
  for (const double ns : t.on_path_ns) {
    t.comparable_ns += ns;
  }
  // Probe: the layers a fleet never calls, timed on the shard's last device.
  TracedFinish(*dev, config, CounterOf(dev->metrics(), "governor.decisions"), job, ctx, &t);
  tr->Close(root);
  *shard_totals = t;
  const std::lock_guard<std::mutex> lock(ctx->mutex);
  ctx->totals.Merge(t);
  return fold;
}

}  // namespace perfbench
