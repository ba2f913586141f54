/**
 * @file
 * Micro-benchmarks of the per-tick simulation hot path.
 *
 * Guards the memory-hierarchy optimizations (structure-of-arrays cache
 * probing, O(1) occupancy counters, allocation-free tick scratch
 * buffers): google-benchmark timings for the cache access path and the
 * full Simulator::step(), plus a machine-readable HOTPATH_TICKS_PER_SEC
 * line that scripts/run_benches.sh records so tick-rate regressions are
 * visible across checkouts. Needs no trained models.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>

#include "common/exact_ticks.hh"
#include "mem/cache_model.hh"
#include "obs/trace.hh"
#include "power/device_power.hh"
#include "runner/workload.hh"
#include "sim/simulator.hh"
#include "workloads/corun_task.hh"

using namespace dora;

namespace
{

/** Cheap deterministic address stream (xorshift64). */
struct AddrGen
{
    uint64_t state = 0x9E3779B97F4A7C15ull;

    uint64_t next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state;
    }
};

/** The shared-L2 geometry of the modeled MSM8974. */
CacheConfig
l2Config()
{
    CacheConfig c;
    c.name = "bench-l2";
    c.sizeBytes = 2 * 1024 * 1024;
    c.associativity = 8;
    c.lineBytes = 64;
    c.numRequestors = 4;
    return c;
}

void
BM_CacheAccessLru(benchmark::State &state)
{
    CacheModel cache(l2Config());
    AddrGen gen;
    // Working set of 2x the cache so both hits and LRU victim scans
    // are exercised.
    const uint64_t lines = 2 * (2 * 1024 * 1024 / 64);
    uint32_t requestor = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(gen.next() % lines, requestor));
        requestor = (requestor + 1) & 3;
    }
}
BENCHMARK(BM_CacheAccessLru);

void
BM_CacheOccupancyCounter(benchmark::State &state)
{
    CacheModel cache(l2Config());
    AddrGen gen;
    const uint64_t lines = 2 * (2 * 1024 * 1024 / 64);
    for (int i = 0; i < 100000; ++i)
        cache.access(gen.next() % lines, i & 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.occupancyFraction(1));
}
BENCHMARK(BM_CacheOccupancyCounter);

void
BM_CacheOccupancyScan(benchmark::State &state)
{
    CacheModel cache(l2Config());
    AddrGen gen;
    const uint64_t lines = 2 * (2 * 1024 * 1024 / 64);
    for (int i = 0; i < 100000; ++i)
        cache.access(gen.next() % lines, i & 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.occupancyFractionScan(1));
}
BENCHMARK(BM_CacheOccupancyScan);

/** A simulator with a memory-heavy co-runner bound to core 2. */
struct SimFixture
{
    Soc soc = Soc::nexus5();
    DevicePower power{DevicePowerConfig{}, LeakageModel::msm8974Truth()};
    Simulator sim;
    std::unique_ptr<CorunTask> corun;

    SimFixture() : sim(soc, power, SimConfig{})
    {
        for (const auto &w : WorkloadSets::paperCombinations()) {
            if (w.kernel) {
                corun = std::make_unique<CorunTask>(*w.kernel, 0);
                break;
            }
        }
        if (corun)
            sim.bindTask(2, corun.get());
    }
};

void
BM_SimulatorStep(benchmark::State &state)
{
    SimFixture f;
    for (auto _ : state)
        benchmark::DoNotOptimize(&f.sim.step());
}
BENCHMARK(BM_SimulatorStep);

/** Sustained tick rate over a fresh 20k-tick run (20 simulated s). */
void
printTickRate()
{
    SimFixture f;
    constexpr int kTicks = 20000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTicks; ++i)
        f.sim.step();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count();
    std::cout << "HOTPATH_MODE "
              << (exactTicksMode() ? "exact" : "adaptive") << "\n"
              << "HOTPATH_TICKS_PER_SEC "
              << static_cast<uint64_t>(kTicks / sec) << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Before benchmark::Initialize so --trace and --exact-ticks are
    // seen pre-filtering (ObsGuard parses both).
    ObsGuard obs(argc, argv);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printTickRate();
    return 0;
}
