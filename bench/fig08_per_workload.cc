/**
 * @file
 * Figure 8: per-workload energy efficiency, all 54 combinations,
 * sorted by DORA's improvement over interactive.
 *
 * Paper shape: for the first ~19 workloads (fE < fD) DORA follows the
 * DL/fD curve; beyond the crossover DORA follows EE/fE. EE exceeds
 * DORA's PPW on the early workloads only by violating the deadline.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "harness/comparison.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Figure 8: per-workload PPW of every governor, sorted "
                  "by DORA's gain.",
                  {});
    ObsGuard obs(argc, argv);
    const unsigned jobs = benchJobs(argc, argv);
    const unsigned workers = benchWorkers(argc, argv);
    auto bundle = benchBundle();
    ComparisonHarness harness(ExperimentConfig{}, bundle, jobs);
    if (workers > 0) {
        harness.setWorkers(workers);
        harness.setProcJournalStem("fig08.journal");
    }

    const auto workloads = WorkloadSets::paperCombinations();
    std::cerr << "[bench] running " << workloads.size()
              << " workloads x 5 governors...\n";
    auto records = harness.runAll(workloads);

    std::sort(records.begin(), records.end(),
              [](const ComparisonRecord &a, const ComparisonRecord &b) {
                  return a.normalizedPpw("DORA") <
                      b.normalizedPpw("DORA");
              });

    TextTable t({"#", "workload", "perf", "DL(fD)", "EE(fE)", "DORA",
                 "DORA meets", "EE meets", "regime"});
    int crossover = -1;
    int idx = 1;
    for (const auto &r : records) {
        const bool ee_meets = r.measurement("EE").meetsDeadline;
        const bool follows_dl =
            std::abs(r.normalizedPpw("DORA") - r.normalizedPpw("DL")) <=
            std::abs(r.normalizedPpw("DORA") - r.normalizedPpw("EE"));
        if (crossover < 0 && ee_meets)
            crossover = idx;
        t.beginRow();
        t.add(static_cast<int64_t>(idx));
        t.add(r.workload.label());
        t.add(r.normalizedPpw("performance"), 3);
        t.add(r.normalizedPpw("DL"), 3);
        t.add(r.normalizedPpw("EE"), 3);
        t.add(r.normalizedPpw("DORA"), 3);
        t.add(std::string(
            r.measurement("DORA").meetsDeadline ? "yes" : "no"));
        t.add(std::string(ee_meets ? "yes" : "no"));
        t.add(std::string(follows_dl ? "fE<fD (DL-like)"
                                     : "fE>=fD (EE-like)"));
        ++idx;
    }
    emitTable("fig08", "Fig. 8 — per-workload PPW normalized to "
                       "interactive (sorted by DORA)", t);

    std::cout << "\nmean DORA gain: "
              << formatFixed(
                     100.0 * (meanNormalizedPpw(records, "DORA") - 1.0),
                     1)
              << "%  (paper: 16% average, up to 35%)\n";
    std::cout << "max DORA gain: "
              << formatFixed(
                     100.0 *
                         (records.back().normalizedPpw("DORA") - 1.0),
                     1)
              << "%\n";
    std::cout << "\nExpected shape: early (low-gain) workloads are the "
                 "deadline-constrained fE<fD regime where DORA follows "
                 "DL; later workloads follow EE.\n";
    return 0;
}
