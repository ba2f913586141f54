/**
 * @file
 * Figure 1: impact of memory interference on web page load time at
 * different frequencies, for Reddit.
 *
 * Paper shape: load time falls with core frequency; at every frequency
 * the spread between no interference and a high-intensity co-runner is
 * large enough to move the page across a 2/3/4-second deadline — the
 * motivating observation for an interference-aware governor.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "runner/experiment.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Figure 1: impact of memory interference on Reddit's load "
                  "time at each frequency.",
                  {});
    ObsGuard obs(argc, argv);
    ExperimentRunner runner;
    const FreqTable &table = runner.freqTable();
    const WebPage &reddit = PageCorpus::byName("reddit");

    const char *corunners[] = {"", "kmeans", "srad2", "backprop"};

    TextTable t({"core GHz", "alone s", "+low (kmeans) s",
                 "+medium (srad2) s", "+high (backprop) s",
                 "spread %", "meets 2s/3s/4s (worst case)"});
    for (size_t f : table.paperSweepIndices()) {
        t.beginRow();
        t.add(table.opp(f).coreMhz / 1000.0, 2);
        double lo = 1e9, hi = 0.0;
        for (const char *k : corunners) {
            WorkloadSpec w;
            w.page = &reddit;
            if (*k)
                w.kernel = &KernelCatalog::byName(k);
            const RunMeasurement m = runner.runAtFrequency(w, f);
            t.add(m.loadTimeSec, 3);
            lo = std::min(lo, m.loadTimeSec);
            hi = std::max(hi, m.loadTimeSec);
        }
        t.add(100.0 * (hi - lo) / lo, 1);
        std::string verdict;
        for (double deadline : {2.0, 3.0, 4.0}) {
            if (!verdict.empty())
                verdict += "/";
            verdict += hi <= deadline ? "yes" : "no";
        }
        t.add(verdict);
    }
    emitTable("fig01", "Fig. 1 — Reddit load time vs frequency under "
                       "interference", t);

    std::cout << "\nExpected shape: load time decreases with frequency;"
                 "\nthe interference spread moves deadline verdicts at "
                 "mid frequencies.\n";
    return 0;
}
