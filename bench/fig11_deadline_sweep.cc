/**
 * @file
 * Figure 11 + Section V-G: DORA under varying QoS deadlines.
 *
 * MSN loading beside a high-intensity co-runner, with the deadline
 * swept from 1 to 10 seconds. No retraining is needed — the deadline
 * is only a constraint in Algorithm 1. Paper shape: flat out for 1-2 s
 * targets, then fopt = fD falls as the deadline relaxes, and once
 * fD <= fE the choice parks at the deadline-independent fE.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "harness/comparison.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Figure 11: DORA under varying QoS deadlines.",
                  {});
    ObsGuard obs(argc, argv);
    auto bundle = benchBundle();
    const WorkloadSpec w = WorkloadSets::combo(
        PageCorpus::byName("msn"), MemIntensity::High);

    TextTable t({"deadline s", "DORA mean GHz", "load time s",
                 "meets deadline", "regime"});
    double prev_ghz = 99.0;
    double fe_ghz = 0.0;
    for (int deadline = 1; deadline <= 10; ++deadline) {
        ExperimentConfig config;
        config.deadlineSec = deadline;
        ComparisonHarness harness(config, bundle);
        const RunMeasurement m = harness.runOne(w, "DORA");
        const double ghz = m.meanFreqMhz / 1000.0;
        if (deadline == 10)
            fe_ghz = ghz;  // by 10 s the choice is deadline-free = fE
        t.beginRow();
        t.add(static_cast<int64_t>(deadline));
        t.add(ghz, 2);
        t.add(m.loadTimeSec, 3);
        t.add(std::string(m.meetsDeadline ? "yes" : "no"));
        t.add(std::string(ghz > prev_ghz + 0.05
                              ? "NON-MONOTONE"
                              : (deadline <= 2 ? "fopt = fD (tight)"
                                               : "")));
        prev_ghz = ghz;
    }
    emitTable("fig11", "Fig. 11 — DORA frequency selection vs deadline "
                       "(MSN + high intensity)", t);
    std::cout << "\ndeadline-free operating point (fE) ~ "
              << formatFixed(fe_ghz, 2) << " GHz\n";
    std::cout << "Expected shape: monotonically non-increasing "
                 "frequency; a tight-deadline fD plateau at the top, "
                 "then a switch to the constant fE plateau.\n";
    return 0;
}
