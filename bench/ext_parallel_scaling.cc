/**
 * @file
 * Self-checking scaling study of the parallel experiment engine.
 *
 * Runs a small Fig. 7-style slice (a handful of workloads under the
 * kernel governors) twice through ComparisonHarness::runAll — once at
 * jobs=1 (the exact legacy serial path) and once at jobs=N — and
 *
 *   1. asserts that every measurement is BYTE-IDENTICAL between the
 *      two (via runMeasurementText, which renders all doubles as hex
 *      floats), exiting non-zero on any mismatch;
 *   2. reports the wall-clock speedup, and on hosts with >= 4 hardware
 *      threads enforces the >= 2x acceptance target.
 *
 * Uses only model-free governors so it runs out of the box with no
 * trained bundle. Machine-readable SCALING lines are consumed by
 * scripts/run_benches.sh.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "harness/comparison.hh"

using namespace dora;

namespace
{

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Scaling self-check: serial, thread and process tiers "
                  "must give byte-identical comparisons.",
                  {});
    ObsGuard obs(argc, argv);
    unsigned jobs = jobCountFromArgs(argc, argv);
    if (jobs < 2)
        jobs = std::min(4u, hardwareJobs());
    std::cerr << "[bench] comparing jobs=1 vs jobs=" << jobs << "\n";

    const std::pair<const char *, MemIntensity> picks[] = {
        {"amazon", MemIntensity::Medium},
        {"reddit", MemIntensity::High},
        {"espn", MemIntensity::Medium},
        {"msn", MemIntensity::Low},
    };
    std::vector<WorkloadSpec> workloads;
    for (const auto &[page, cls] : picks)
        workloads.push_back(
            WorkloadSets::combo(PageCorpus::byName(page), cls));
    // Model-free governors: the comparison engine is identical, but no
    // training campaign is needed to run this check.
    const std::vector<std::string> governors = {
        "interactive", "performance", "ondemand"};

    ComparisonHarness serial(ExperimentConfig{}, nullptr, 1);
    auto t0 = std::chrono::steady_clock::now();
    const auto serial_records = serial.runAll(workloads, governors);
    const double serial_sec = wallSeconds(t0);
    std::printf("SCALING jobs=1 wall=%.3f\n", serial_sec);

    ComparisonHarness parallel(ExperimentConfig{}, nullptr, jobs);
    t0 = std::chrono::steady_clock::now();
    const auto parallel_records = parallel.runAll(workloads, governors);
    const double parallel_sec = wallSeconds(t0);
    std::printf("SCALING jobs=%u wall=%.3f\n", jobs, parallel_sec);

    // Process tier (exec/proc): same campaign sharded across worker
    // subprocesses — the crash-resilient path used by --workers=N.
    const unsigned workers = std::min(jobs, 4u);
    ComparisonHarness proc(ExperimentConfig{}, nullptr, 1);
    proc.setWorkers(workers);
    t0 = std::chrono::steady_clock::now();
    const auto proc_records = proc.runAll(workloads, governors);
    const double proc_sec = wallSeconds(t0);
    std::printf("SCALING workers=%u wall=%.3f\n", workers, proc_sec);

    // --- 1. byte-identity of every cell, across all tiers. ---
    bool identical = serial_records.size() == parallel_records.size() &&
        serial_records.size() == proc_records.size();
    for (size_t w = 0; identical && w < serial_records.size(); ++w) {
        for (const auto &name : governors) {
            const std::string a = runMeasurementText(
                serial_records[w].measurement(name));
            const std::string b = runMeasurementText(
                parallel_records[w].measurement(name));
            const std::string c = runMeasurementText(
                proc_records[w].measurement(name));
            if (a != b) {
                identical = false;
                std::cerr << "MISMATCH " << workloads[w].label() << " x "
                          << name << "\n  jobs=1: " << a
                          << "\n  jobs=" << jobs << ": " << b << "\n";
            }
            if (a != c) {
                identical = false;
                std::cerr << "MISMATCH " << workloads[w].label() << " x "
                          << name << "\n  jobs=1: " << a
                          << "\n  workers=" << workers << ": " << c
                          << "\n";
            }
        }
    }

    const double speedup =
        parallel_sec > 0.0 ? serial_sec / parallel_sec : 0.0;
    std::printf("SCALING speedup=%.2f identical=%d\n", speedup,
                identical ? 1 : 0);

    if (!identical) {
        std::cerr << "FAIL: parallel results are not bit-identical to "
                     "serial\n";
        return 1;
    }
    std::cout << "parallel results bit-identical to serial across "
              << serial_records.size() * governors.size() << " cells\n";

    // --- 2. speedup target (only meaningful with real cores). ---
    if (hardwareJobs() < 2) {
        // On a single-thread host jobs=N serializes onto one core, so
        // any "speedup" is pure scheduling noise — asserting on it
        // would be vacuous at best and flaky at worst. Shout so CI
        // logs show the gate did NOT run, and keep the byte-identity
        // verdict above as the enforced contract.
        std::cerr
            << "**********************************************************\n"
            << "NOTICE: host has " << hardwareJobs()
            << " hardware thread(s) — the >= 2x parallel speedup\n"
            << "target CANNOT be validated here and was SKIPPED.\n"
            << "Byte-identity across jobs/workers tiers was\n"
            << "still enforced. Re-run on a multi-core host to check\n"
            << "scaling.\n"
            << "**********************************************************\n";
    } else if (hardwareJobs() >= 4 && jobs >= 4) {
        if (speedup < 2.0) {
            std::cerr << "FAIL: speedup " << speedup
                      << "x below the 2x target with " << jobs
                      << " workers on a " << hardwareJobs()
                      << "-thread host\n";
            return 1;
        }
        std::cout << "speedup " << speedup << "x with " << jobs
                  << " workers (target >= 2x): ok\n";
    } else {
        std::cout << "speedup " << speedup << "x (host has only "
                  << hardwareJobs()
                  << " hardware threads; >= 2x target needs >= 4 — "
                     "identity check still enforced)\n";
    }
    return 0;
}
