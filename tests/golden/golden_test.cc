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
#include "common/rng.hh"
#include "fleet/campaign.hh"
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
    // The tests/fleet smallCampaign(1, 0, 1) configuration.
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

TEST(GoldenDigest, Fig01SweepMeasurementChain)
{
    // The fig01 cells: Reddit at every paper-sweep frequency, alone
    // and under a low/medium/high co-runner; fixed frequency, no
    // trained models.
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
    expectGolden("fig01.sweep.measurement_chain", chain);
}

} // namespace
} // namespace dora
