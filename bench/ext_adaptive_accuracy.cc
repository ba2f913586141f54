/**
 * @file
 * Self-checking accuracy gate for the adaptive sampling + macro-tick
 * fast path.
 *
 * Runs a small Fig. 7-style slice (four pages x three model-free
 * governors) twice — once in exact-ticks mode (every tick walks the
 * sampled caches, legacy one-tick stepping) and once on the default
 * adaptive path (converged-phase reuse + event-horizon batching) — and
 * enforces the acceptance contract of the fast path:
 *
 *   1. per-workload governor ranking by PPW is preserved for every
 *      pair with a real gap (exact-mode PPWs differing by > 1 %) —
 *      pairs inside that band are statistical ties whose order no
 *      sampling schedule can pin down;
 *   2. per-cell load-time and PPW deltas are <= 1 % (uncensored cells);
 *   3. deadline-meet verdicts and censored flags are identical per cell.
 *
 * Exits non-zero on any violation; machine-readable ACCURACY lines are
 * consumed by scripts/ci.sh. Model-free governors only, so no trained
 * bundle is needed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "harness/comparison.hh"

using namespace dora;

namespace
{

/**
 * Every governor pair separated by more than @p tie_tol in exact mode
 * must keep its order on the adaptive path. Returns the names of the
 * first violated pair, or an empty string.
 */
std::string
rankingViolation(const ComparisonRecord &exact,
                 const ComparisonRecord &adaptive,
                 const std::vector<std::string> &governors,
                 double tie_tol)
{
    for (size_t a = 0; a < governors.size(); ++a) {
        for (size_t b = a + 1; b < governors.size(); ++b) {
            const double ea = exact.measurement(governors[a]).ppw;
            const double eb = exact.measurement(governors[b]).ppw;
            const double gap = std::abs(ea - eb);
            if (gap <= tie_tol * std::max(std::abs(ea), std::abs(eb)))
                continue;  // statistical tie; order carries no signal
            const double aa = adaptive.measurement(governors[a]).ppw;
            const double ab = adaptive.measurement(governors[b]).ppw;
            if ((ea > eb) != (aa > ab))
                return governors[a] + " vs " + governors[b];
        }
    }
    return {};
}

double
relDelta(double exact, double adaptive)
{
    if (exact == 0.0)
        return adaptive == 0.0 ? 0.0 : 1.0;
    return std::abs(adaptive - exact) / std::abs(exact);
}

} // namespace

int
main(int argc, char **argv)
{
    cliCheckFlags(argc, argv,
                  "Self-checking accuracy gate for the adaptive sampling and "
                  "macro-tick fast path.",
                  {});
    ObsGuard obs(argc, argv);
    const unsigned jobs = benchJobs(argc, argv);

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
    const std::vector<std::string> governors = {
        "interactive", "performance", "ondemand"};

    setExactTicksMode(true);
    ComparisonHarness exact_harness(ExperimentConfig{}, nullptr, jobs);
    const auto exact = exact_harness.runAll(workloads, governors);

    setExactTicksMode(false);
    ComparisonHarness adaptive_harness(ExperimentConfig{}, nullptr, jobs);
    const auto adaptive = adaptive_harness.runAll(workloads, governors);

    constexpr double kTolerance = 0.01;
    bool ok = true;
    double max_load_delta = 0.0;
    double max_ppw_delta = 0.0;

    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string flipped = rankingViolation(
            exact[w], adaptive[w], governors, kTolerance);
        if (!flipped.empty()) {
            ok = false;
            std::cerr << "FAIL: governor PPW ranking differs on "
                      << workloads[w].label() << " (" << flipped
                      << ")\n";
        }
        for (size_t g = 0; g < governors.size(); ++g) {
            const RunMeasurement &e = exact[w].measurement(governors[g]);
            const RunMeasurement &a =
                adaptive[w].measurement(governors[g]);
            if (e.censored != a.censored ||
                e.meetsDeadline != a.meetsDeadline) {
                ok = false;
                std::cerr << "FAIL: " << workloads[w].label() << " x "
                          << governors[g]
                          << ": censored/deadline verdict differs "
                          << "(exact censored=" << e.censored
                          << " meets=" << e.meetsDeadline
                          << ", adaptive censored=" << a.censored
                          << " meets=" << a.meetsDeadline << ")\n";
                continue;
            }
            if (e.censored)
                continue;  // ppw is 0 and loadTime is a bound, not data
            const double dl = relDelta(e.loadTimeSec, a.loadTimeSec);
            const double dp = relDelta(e.ppw, a.ppw);
            max_load_delta = std::max(max_load_delta, dl);
            max_ppw_delta = std::max(max_ppw_delta, dp);
            if (dl > kTolerance || dp > kTolerance) {
                ok = false;
                std::cerr << "FAIL: " << workloads[w].label() << " x "
                          << governors[g] << ": load delta "
                          << dl * 100 << " %, ppw delta " << dp * 100
                          << " % exceed " << kTolerance * 100 << " %\n";
            }
        }
    }

    std::printf("ACCURACY max_load_delta_pct=%.4f "
                "max_ppw_delta_pct=%.4f ok=%d\n",
                max_load_delta * 100, max_ppw_delta * 100, ok ? 1 : 0);
    if (!ok) {
        std::cerr << "FAIL: adaptive fast path violates the exact-mode "
                     "accuracy contract\n";
        return 1;
    }
    std::cout << "adaptive fast path matches exact mode across "
              << workloads.size() * governors.size()
              << " cells (rankings identical, deltas <= 1 %)\n";
    return 0;
}
