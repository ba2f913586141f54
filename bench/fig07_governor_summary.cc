/**
 * @file
 * Figure 7: headline comparison across all 54 workload combinations.
 *
 * (a) Mean energy efficiency (PPW) normalized to the interactive
 *     baseline, for performance / DL / EE / DORA, split into
 *     Webpage-Inclusive, Webpage-Neutral, and All (paper: DORA +16%
 *     overall, +18% inclusive, +10% neutral; EE +19% but with QoS
 *     violations).
 * (b) Load-time distribution per governor (paper: EE misses the 3 s
 *     target for ~21% of workloads; DORA misses only the infeasible
 *     ~18%, where even flat out cannot make the deadline).
 *
 * Also reports Offline_opt on ten workloads (paper Section V-C): DORA
 * matches the statically optimal single frequency.
 */

#include <iostream>

#include "bench_util.hh"
#include "harness/comparison.hh"
#include "stats/cdf.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Figure 7: mean PPW and load times of every governor "
                  "over the 54 workloads.",
                  {});
    ObsGuard obs(argc, argv);
    const unsigned jobs = benchJobs(argc, argv);
    const unsigned workers = benchWorkers(argc, argv);
    auto bundle = benchBundle();
    ComparisonHarness harness(ExperimentConfig{}, bundle, jobs);
    if (workers > 0) {
        // Process tier: campaigns shard across worker subprocesses and
        // journal completed cells, so an interrupted/crashed bench run
        // resumes instead of restarting (results stay bit-identical).
        harness.setWorkers(workers);
        harness.setProcJournalStem("fig07.journal");
    }

    const auto workloads = WorkloadSets::paperCombinations();
    std::cerr << "[bench] running " << workloads.size()
              << " workloads x 5 governors...\n";
    const auto records = harness.runAll(workloads);

    std::vector<ComparisonRecord> inclusive, neutral;
    for (const auto &r : records)
        (r.workload.isWebpageInclusive() ? inclusive : neutral)
            .push_back(r);

    // --- (a) normalized PPW summary. ---
    // Censored runs (page never finished inside the wall) are counted,
    // never averaged: their PPW of 0 is a flag, and folding it into the
    // mean would rank a governor that fails a page above one that
    // finishes late.
    TextTable a({"governor", "inclusive", "neutral", "all",
                 "deadline met %", "censored"});
    for (const auto &name : ComparisonHarness::paperGovernors()) {
        a.beginRow();
        a.add(name);
        a.add(meanNormalizedPpw(inclusive, name), 3);
        a.add(meanNormalizedPpw(neutral, name), 3);
        a.add(meanNormalizedPpw(records, name), 3);
        a.add(100.0 * deadlineMeetRate(records, name), 1);
        a.add(std::to_string(censoredCount(records, name)));
    }
    emitTable("fig07a", "Fig. 7(a) — mean PPW normalized to "
                        "interactive", a);

    // --- (b) load-time distribution per governor. ---
    // The CDF covers finished loads only; a censored load time is the
    // window length (a lower bound), which would bias every quantile
    // downward if pushed.
    TextTable b({"governor", "p10 s", "p50 s", "p90 s", "max s",
                 "frac <= 3 s", "censored"});
    for (const auto &name : ComparisonHarness::paperGovernors()) {
        EmpiricalCdf cdf;
        size_t censored = 0;
        for (const auto &r : records) {
            const RunMeasurement &m = r.measurement(name);
            if (m.censored)
                ++censored;
            else
                cdf.push(m.loadTimeSec);
        }
        cdf.seal();
        b.beginRow();
        b.add(name);
        b.add(cdf.quantile(0.10), 3);
        b.add(cdf.quantile(0.50), 3);
        b.add(cdf.quantile(0.90), 3);
        b.add(cdf.max(), 3);
        b.add(cdf.fractionAtOrBelow(3.0), 3);
        b.add(std::to_string(censored));
    }
    emitTable("fig07b", "Fig. 7(b) — load-time distribution "
                        "(finished loads; censored counted)", b);

    // --- Offline_opt on ten spread-out workloads. ---
    // The workload x frequency grid is fanned out jointly, so the
    // sweep parallelizes beyond the OPP count of a single workload.
    std::vector<const ComparisonRecord *> picked;
    std::vector<WorkloadSpec> opt_workloads;
    for (size_t i = 0; i < records.size(); i += 5) {
        picked.push_back(&records[i]);
        opt_workloads.push_back(records[i].workload);
    }
    const auto opts = harness.offlineOptMany(opt_workloads);

    TextTable c({"workload", "offline_opt PPW/interactive",
                 "DORA PPW/interactive"});
    double opt_sum = 0.0, dora_sum = 0.0;
    int n = 0;
    for (size_t i = 0; i < picked.size(); ++i) {
        const auto &r = *picked[i];
        const RunMeasurement &opt = opts[i];
        const double base = r.measurement("interactive").ppw;
        c.beginRow();
        c.add(r.workload.label());
        if (base <= 0.0 || opt.censored ||
            r.measurement("DORA").censored) {
            // Censored somewhere in the triple: no PPW ratio exists.
            c.add("censored");
            c.add("censored");
            continue;
        }
        c.add(opt.ppw / base, 3);
        c.add(r.normalizedPpw("DORA"), 3);
        opt_sum += opt.ppw / base;
        dora_sum += r.normalizedPpw("DORA");
        ++n;
    }
    emitTable("fig07_offline", "Offline_opt vs DORA (10 workloads)", c);
    std::cout << "mean: offline_opt "
              << formatFixed(n ? opt_sum / n : 0.0, 3) << ", DORA "
              << formatFixed(n ? dora_sum / n : 0.0, 3) << "\n";

    std::cout << "\nExpected shape: DORA in the +10..20% band over "
                 "interactive; EE slightly higher PPW but misses "
                 "deadlines; DL meets deadlines at lower PPW; DORA "
                 "tracks offline_opt.\n";
    return 0;
}
