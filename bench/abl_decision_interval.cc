/**
 * @file
 * Ablation (Section IV-C): DORA's decision interval.
 *
 * The paper evaluated 50 ms, 100 ms, and 250 ms and found 50/100 ms
 * comparable while 250 ms is too slow to track web-page phases; 100 ms
 * was chosen as the less intrusive of the two. This bench reruns that
 * study on a handful of phase-diverse workloads.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "dora/predictive_governor.hh"
#include "runner/experiment.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Ablation (Section IV-C): DORA's decision interval.",
                  {});
    ObsGuard obs(argc, argv);
    const unsigned jobs = benchJobs(argc, argv);
    auto bundle = benchBundle();

    const std::pair<const char *, MemIntensity> picks[] = {
        {"amazon", MemIntensity::Medium},
        {"reddit", MemIntensity::High},
        {"espn", MemIntensity::Medium},
        {"youtube", MemIntensity::High},
        {"msn", MemIntensity::Low},
    };
    const double intervals[] = {0.05, 0.10, 0.25};

    // All interval x workload cells are independent runs; fan the full
    // grid out and aggregate per interval afterwards.
    const size_t cells = std::size(intervals) * std::size(picks);
    const auto measurements = parallelMap<RunMeasurement>(
        cells,
        [&](size_t i) {
            const double interval = intervals[i / std::size(picks)];
            const auto &[page, cls] = picks[i % std::size(picks)];
            const WorkloadSpec w =
                WorkloadSets::combo(PageCorpus::byName(page), cls);
            PredictiveGovernor dora = makeDora(bundle, interval);
            ExperimentRunner runner;
            return runner.run(w, dora);
        },
        jobs);

    TextTable t({"interval ms", "mean PPW 1/J", "deadline met",
                 "mean switches/run"});
    for (size_t iv = 0; iv < std::size(intervals); ++iv) {
        double ppw_sum = 0.0;
        int met = 0;
        double switches = 0.0;
        for (size_t p = 0; p < std::size(picks); ++p) {
            const RunMeasurement &m =
                measurements[iv * std::size(picks) + p];
            ppw_sum += m.ppw;
            met += m.meetsDeadline ? 1 : 0;
            switches += static_cast<double>(m.freqSwitches);
        }
        t.beginRow();
        t.add(intervals[iv] * 1000.0, 0);
        t.add(ppw_sum / std::size(picks), 4);
        t.add(std::string(std::to_string(met) + "/" +
                          std::to_string(std::size(picks))));
        t.add(switches / std::size(picks), 1);
    }
    emitTable("abl_interval",
              "Ablation — DORA decision interval (Section IV-C)", t);
    std::cout << "\nExpected shape: 50 ms and 100 ms within noise of "
                 "each other (100 ms switches less); 250 ms loses PPW "
                 "or deadline robustness by reacting late to phases.\n";
    return 0;
}
