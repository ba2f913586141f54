/**
 * @file
 * Tier identity of the training sweep: Trainer::collectSamples() must
 * return byte-identical samples serially, on the thread tier and on
 * the process tier (exec/cell_map.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dora/sample_io.hh"
#include "dora/trainer.hh"

namespace dora
{
namespace
{

TEST(Trainer, CollectSamplesBitIdenticalAcrossTiers)
{
    // Two paged workloads x two OPPs; a short load wall keeps the
    // sweep cheap (a censored page is still a deterministic
    // measurement).
    auto workloads = WorkloadSets::webpageInclusive();
    workloads.resize(2);
    const std::vector<size_t> freqs = {0, 5};

    const auto texts = [&](unsigned jobs, unsigned workers) {
        TrainerConfig tc;
        tc.experiment.maxLoadSec = 1.0;
        tc.jobs = jobs;
        tc.workers = workers;
        Trainer trainer(tc);
        std::vector<std::string> out;
        for (const auto &s : trainer.collectSamples(workloads, freqs))
            out.push_back(serializeTrainingSample(s));
        return out;
    };

    const auto serial = texts(1, 0);
    ASSERT_EQ(serial.size(), workloads.size() * freqs.size());
    struct Tier
    {
        unsigned jobs, workers;
    };
    for (const Tier &t : {Tier{2, 0}, Tier{1, 2}}) {
        const auto other = texts(t.jobs, t.workers);
        ASSERT_EQ(serial.size(), other.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(serial[i], other[i])
                << "jobs=" << t.jobs << " workers=" << t.workers
                << " cell " << i;
    }
}

} // namespace
} // namespace dora
