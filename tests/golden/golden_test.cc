/**
 * @file
 * Absolute behaviour pins: digests of fixed simulations compared with
 * the values checked in under tests/golden/<compiler>-<arch>.txt.
 *
 * The determinism suites compare one tier with another inside a single
 * process, so a change that moves every tier the same way passes them.
 * These digests catch it. The file is keyed by compiler and
 * architecture because libm differences legitimately change the bits.
 * A missing key fails and prints the line to record; changing a
 * recorded digest needs a CHANGES.md line saying why.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "common/rng.hh"
#include "dora/sample_io.hh"
#include "dora/trainer.hh"
#include "fleet/campaign.hh"
#include "harness/comparison.hh"
#include "obs/trace.hh"
#include "runner/experiment.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

/** "gcc12-x86_64"-style name of this build's golden file. */
std::string
goldenName()
{
#if defined(__clang__)
    std::string name = "clang" + std::to_string(__clang_major__);
#elif defined(__GNUC__)
    std::string name = "gcc" + std::to_string(__GNUC__);
#else
    std::string name = "unknown";
#endif
#if defined(__x86_64__)
    return name + "-x86_64";
#elif defined(__aarch64__)
    return name + "-aarch64";
#else
    return name + "-unknown";
#endif
}

/** Check @p digest against the recorded `<key> <hex>` line. */
void
expectGolden(const std::string &key, uint64_t digest)
{
    const std::string rel = "tests/golden/" + goldenName() + ".txt";
    std::ifstream in(std::string(DORA_SOURCE_DIR) + "/" + rel);
    std::map<std::string, std::string> recorded;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string k, v;
        if (line.empty() || line[0] == '#' || !(fields >> k >> v))
            continue;
        recorded[k] = v;
    }
    const auto it = recorded.find(key);
    if (it == recorded.end()) {
        ADD_FAILURE() << "no golden digest for key '" << key << "' in "
                      << rel << "; record the line\n"
                      << key << " " << hexU64(digest);
        return;
    }
    EXPECT_EQ(it->second, hexU64(digest))
        << "golden digest '" << key << "' changed (" << rel
        << "); if intended, update it and say why in CHANGES.md";
}

TEST(GoldenDigest, SmallFleetPopulation)
{
    // The tests/fleet smallCampaign(1, 0) configuration.
    FleetCampaignConfig config;
    config.spec.seed = 7;
    config.spec.devices = 5;
    config.spec.faultIncidence = 0.4;
    config.governors = {"interactive", "ondemand"};
    config.base.maxLoadSec = 1.0;
    FleetEngine engine(config);
    expectGolden("fleet.small_campaign.population_digest",
                 engine.run().populationDigest);
}

/**
 * Chained measurement digest of the fig01 cells: Reddit at every
 * paper-sweep frequency, alone and under a low/medium/high co-runner;
 * fixed frequency, no trained models.
 */
uint64_t
fig01Chain()
{
    ExperimentRunner runner;
    const WebPage &reddit = PageCorpus::byName("reddit");
    uint64_t chain = hashLabel("golden:fig01");
    for (size_t f : runner.freqTable().paperSweepIndices())
        for (const char *k : {"", "kmeans", "srad2", "backprop"}) {
            WorkloadSpec w;
            w.page = &reddit;
            if (*k)
                w.kernel = &KernelCatalog::byName(k);
            chain = hashLabel(
                hexU64(chain) + ":" +
                hexU64(runMeasurementDigest(runner.runAtFrequency(w, f))));
        }
    return chain;
}

TEST(GoldenDigest, Fig01SweepMeasurementChain)
{
    expectGolden("fig01.sweep.measurement_chain", fig01Chain());
}

TEST(GoldenDigest, Fig01ExactTicksMeasurementChain)
{
    // Exact-ticks mode walks the sampled caches on every tick, so this
    // chain pins the walk kernel itself, not just the estimator's
    // reuse of it. The mode is process-wide: restore it afterwards.
    const bool was_exact = exactTicksMode();
    setExactTicksMode(true);
    const uint64_t chain = fig01Chain();
    setExactTicksMode(was_exact);
    expectGolden("fig01.sweep.exact_ticks_measurement_chain", chain);
}

TEST(GoldenDigest, FleetRollout120Population)
{
    // The CI fleet_rollout configuration: 120 devices of the default
    // seed under two model-free governors with a 1 s load wall. The
    // report is byte-identical at any job count; 4 jobs keep it short.
    FleetCampaignConfig config;
    config.spec.devices = 120;
    config.spec.faultIncidence = 0.05;
    config.governors = {"interactive", "ondemand"};
    config.base.maxLoadSec = 1.0;
    config.jobs = 4;
    FleetEngine engine(config);
    expectGolden("fleet.rollout_120.population_digest",
                 engine.run().populationDigest);
}

/** Chain @p digest onto @p chain (order-sensitive). */
uint64_t
chainDigest(uint64_t chain, uint64_t digest)
{
    return hashLabel(hexU64(chain) + ":" + hexU64(digest));
}

/** The ext_parallel_scaling slice: four page + co-runner combos. */
std::vector<WorkloadSpec>
scalingSlice()
{
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
    return workloads;
}

TEST(GoldenDigest, TrainerCollectSamplesChain)
{
    // A short training grid: three Webpage-Inclusive workloads at three
    // OPPs spanning the bus groups, under a 1 s load wall.
    TrainerConfig tc;
    tc.experiment.maxLoadSec = 1.0;
    tc.jobs = 2;
    Trainer trainer(tc);
    auto workloads = WorkloadSets::webpageInclusive();
    workloads.resize(3);
    uint64_t chain = hashLabel("golden:trainer");
    for (const TrainingSample &s :
         trainer.collectSamples(workloads, {0, 6, 13}))
        chain = chainDigest(chain,
                            hashLabel(serializeTrainingSample(s)));
    expectGolden("trainer.collect_samples.sample_chain", chain);
}

TEST(GoldenDigest, HarnessRunAllScalingSliceChain)
{
    // The ext_parallel_scaling comparison: four workloads under the
    // model-free governors, chained in record (workload-major) order.
    const std::vector<std::string> governors = {
        "interactive", "performance", "ondemand"};
    ComparisonHarness harness(ExperimentConfig{}, nullptr, 4);
    uint64_t chain = hashLabel("golden:harness.runAll");
    for (const ComparisonRecord &r :
         harness.runAll(scalingSlice(), governors))
        for (const std::string &g : governors)
            chain = chainDigest(chain,
                                runMeasurementDigest(r.measurement(g)));
    expectGolden("harness.run_all.scaling_slice_chain", chain);
}

TEST(GoldenDigest, HarnessOfflineOptManyChain)
{
    // Offline_opt over the scaling slice: the whole workload x OPP grid
    // in one fan-out, reduced to one winner per workload.
    ComparisonHarness harness(ExperimentConfig{}, nullptr, 4);
    uint64_t chain = hashLabel("golden:harness.offlineOptMany");
    for (const RunMeasurement &m : harness.offlineOptMany(scalingSlice()))
        chain = chainDigest(chain, runMeasurementDigest(m));
    expectGolden("harness.offline_opt_many.scaling_slice_chain", chain);
}

} // namespace
} // namespace dora
