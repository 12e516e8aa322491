// google-benchmark microbenchmarks of the per-tick hot paths: the paper
// measured ~6 us of kernel overhead per 10 ms quantum on the 206 MHz
// StrongARM; our governor decision logic must be (and is) orders of
// magnitude cheaper than that budget on a modern host.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/analysis/filters.h"
#include "src/analysis/fourier.h"
#include "src/core/cycle_count_governor.h"
#include "src/core/interval_governor.h"
#include "src/core/modern_governors.h"
#include "src/exp/experiment.h"
#include "src/exp/sweep.h"
#include "src/hw/memory_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/workload/synthetic.h"

namespace dcs {
namespace {

UtilizationSample MakeSample(double utilization, int step) {
  UtilizationSample s;
  s.utilization = utilization;
  s.step = step;
  return s;
}

void BM_PastPegPegOnQuantum(benchmark::State& state) {
  auto governor = MakePastPegPeg(0.93, 0.98, false);
  double u = 0.0;
  for (auto _ : state) {
    u = u < 0.5 ? 1.0 : 0.0;
    benchmark::DoNotOptimize(governor->OnQuantum(MakeSample(u, 5)));
  }
}
BENCHMARK(BM_PastPegPegOnQuantum);

void BM_AvgNOnQuantum(benchmark::State& state) {
  IntervalGovernorConfig config;
  config.thresholds = Thresholds{0.50, 0.70};
  IntervalGovernor governor(std::make_unique<AvgNPredictor>(static_cast<int>(state.range(0))),
                            MakeSpeedPolicy("one"), MakeSpeedPolicy("one"), config);
  double u = 0.0;
  for (auto _ : state) {
    u = u < 0.5 ? 1.0 : 0.0;
    benchmark::DoNotOptimize(governor.OnQuantum(MakeSample(u, 5)));
  }
}
BENCHMARK(BM_AvgNOnQuantum)->Arg(1)->Arg(9);

void BM_CycleCountOnQuantum(benchmark::State& state) {
  CycleCountGovernor governor(4);
  double u = 0.0;
  for (auto _ : state) {
    u = u < 0.5 ? 1.0 : 0.0;
    benchmark::DoNotOptimize(governor.OnQuantum(MakeSample(u, 5)));
  }
}
BENCHMARK(BM_CycleCountOnQuantum);

void BM_OndemandOnQuantum(benchmark::State& state) {
  OndemandGovernor governor;
  double u = 0.0;
  for (auto _ : state) {
    u = u < 0.5 ? 1.0 : 0.0;
    benchmark::DoNotOptimize(governor.OnQuantum(MakeSample(u, 5)));
  }
}
BENCHMARK(BM_OndemandOnQuantum);

void BM_SchedutilOnQuantum(benchmark::State& state) {
  SchedutilGovernor governor;
  double u = 0.0;
  for (auto _ : state) {
    u = u < 0.5 ? 1.0 : 0.0;
    benchmark::DoNotOptimize(governor.OnQuantum(MakeSample(u, 5)));
  }
}
BENCHMARK(BM_SchedutilOnQuantum);

void BM_MemoryModelWallTime(benchmark::State& state) {
  const MemoryProfile profile{20.0, 8.0};
  int step = 0;
  for (auto _ : state) {
    step = (step + 1) % kNumClockSteps;
    benchmark::DoNotOptimize(
        MemoryModel::WallTimeForWork(1e6, MemoryModel::EffectiveBaseHz(step, profile)));
  }
}
BENCHMARK(BM_MemoryModelWallTime);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue queue;
  std::int64_t t = 0;
  for (auto _ : state) {
    queue.Push(SimTime::Micros(t % 1000), [] {});
    ++t;
    if (queue.Size() > 64) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_AvgNFilter800(benchmark::State& state) {
  const auto wave = RectangleWaveSamples(9, 1, 800);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AvgNFilter(wave, 3));
  }
}
BENCHMARK(BM_AvgNFilter800);

void BM_Fft4096(benchmark::State& state) {
  const auto samples = DecayingExponential(0.05, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fft(samples));
  }
}
BENCHMARK(BM_Fft4096);

void BM_FullMpegSecondOfSimulation(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = "PAST-peg-peg-93-98";
    config.seed = 3;
    config.duration = SimTime::Seconds(1);
    benchmark::DoNotOptimize(RunExperiment(config));
  }
}
BENCHMARK(BM_FullMpegSecondOfSimulation)->Unit(benchmark::kMillisecond);

// The parallel sweep engine over an 8-job MPEG grid, at 1 / 2 / 4 worker
// threads: the per-thread times show how close the fan-out gets to linear
// scaling on the host (results are bit-identical across all three).
void BM_ParallelSweep8Jobs(benchmark::State& state) {
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < 8; ++i) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = "PAST-peg-peg-93-98";
    config.seed = Rng(100).Fork(static_cast<std::uint64_t>(i)).Next();
    config.duration = SimTime::Seconds(1);
    configs.push_back(config);
  }
  SweepOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSweep(configs, options));
  }
}
BENCHMARK(BM_ParallelSweep8Jobs)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dcs
