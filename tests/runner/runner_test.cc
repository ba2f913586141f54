/**
 * @file
 * Tests for the workload sets and the ExperimentRunner measurement
 * protocol.
 */

#include <gtest/gtest.h>

#include <set>

#include "browser/page_corpus.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "governor/governor.hh"
#include "runner/experiment.hh"
#include "runner/run_context.hh"
#include "runner/workload.hh"
#include "workloads/corun_task.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

TEST(WorkloadSets, FiftyFourPaperCombinations)
{
    const auto all = WorkloadSets::paperCombinations();
    EXPECT_EQ(all.size(), 54u);  // 18 pages x 3 intensity classes
    for (const auto &w : all) {
        ASSERT_NE(w.page, nullptr);
        ASSERT_NE(w.kernel, nullptr);
    }
}

TEST(WorkloadSets, InclusiveNeutralSplit)
{
    EXPECT_EQ(WorkloadSets::webpageInclusive().size(), 42u);
    EXPECT_EQ(WorkloadSets::webpageNeutral().size(), 12u);
}

TEST(WorkloadSets, EachPageGetsOneKernelPerClass)
{
    for (const auto &page : PageCorpus::all()) {
        std::set<MemIntensity> classes;
        for (const auto &w : WorkloadSets::paperCombinations())
            if (w.page == &page)
                classes.insert(w.kernel->expectedClass);
        EXPECT_EQ(classes.size(), 3u) << page.name;
    }
}

TEST(WorkloadSets, RotationCoversMultipleKernels)
{
    std::set<std::string> used;
    for (const auto &w : WorkloadSets::paperCombinations())
        used.insert(w.kernel->name);
    // The hash rotation should pull in most of the 9 kernels.
    EXPECT_GE(used.size(), 6u);
}

TEST(WorkloadSets, LabelsAreDescriptive)
{
    const auto w =
        WorkloadSets::combo(PageCorpus::byName("amazon"),
                            MemIntensity::High);
    EXPECT_NE(w.label().find("amazon+"), std::string::npos);
    EXPECT_EQ(WorkloadSets::alone(PageCorpus::byName("msn")).label(),
              "msn+alone");
}

TEST(WorkloadSets, ComboIsDeterministic)
{
    const auto a =
        WorkloadSets::combo(PageCorpus::byName("cnn"),
                            MemIntensity::Medium);
    const auto b =
        WorkloadSets::combo(PageCorpus::byName("cnn"),
                            MemIntensity::Medium);
    EXPECT_EQ(a.kernel, b.kernel);
}

class RunnerTest : public ::testing::Test
{
  protected:
    ExperimentRunner runner_;
};

TEST_F(RunnerTest, FixedFrequencyRunProducesFullMeasurement)
{
    const auto w = WorkloadSets::combo(PageCorpus::byName("alipay"),
                                       MemIntensity::Low);
    const RunMeasurement m =
        runner_.runAtFrequency(w, runner_.freqTable().maxIndex());
    EXPECT_TRUE(m.pageFinished);
    EXPECT_TRUE(m.meetsDeadline);
    EXPECT_GT(m.loadTimeSec, 0.05);
    EXPECT_GT(m.meanPowerW, 1.0);
    EXPECT_GT(m.energyJ, 0.0);
    EXPECT_NEAR(m.ppw, 1.0 / (m.loadTimeSec * m.meanPowerW), 1e-9);
    EXPECT_GT(m.meanTempC, runner_.config().ambientC);
    EXPECT_NEAR(m.meanFreqMhz, 2265.6, 1.0);
    EXPECT_EQ(m.governor, "fixed");
}

TEST_F(RunnerTest, RunsAreDeterministic)
{
    const auto w = WorkloadSets::combo(PageCorpus::byName("alipay"),
                                       MemIntensity::Medium);
    const RunMeasurement a = runner_.runAtFrequency(w, 10);
    const RunMeasurement b = runner_.runAtFrequency(w, 10);
    EXPECT_DOUBLE_EQ(a.loadTimeSec, b.loadTimeSec);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
    EXPECT_DOUBLE_EQ(a.meanL2Mpki, b.meanL2Mpki);
}

TEST_F(RunnerTest, InterferenceShowsUpInMeasurements)
{
    const WebPage &page = PageCorpus::byName("reddit");
    const RunMeasurement alone = runner_.runAtFrequency(
        WorkloadSets::alone(page), runner_.freqTable().maxIndex());
    const RunMeasurement high = runner_.runAtFrequency(
        WorkloadSets::combo(page, MemIntensity::High),
        runner_.freqTable().maxIndex());
    EXPECT_GT(high.loadTimeSec, 1.05 * alone.loadTimeSec);
    EXPECT_GT(high.meanL2Mpki, alone.meanL2Mpki + 1.0);
    EXPECT_GT(high.meanCorunUtil, 0.5);
    EXPECT_LT(alone.meanCorunUtil, 0.05);
}

TEST_F(RunnerTest, DeadlineFlagRespectsConfig)
{
    const auto w = WorkloadSets::combo(
        PageCorpus::byName("aliexpress"), MemIntensity::High);
    ExperimentConfig config;
    config.deadlineSec = 3.0;
    ExperimentRunner strict(config);
    const RunMeasurement m =
        strict.runAtFrequency(w, strict.freqTable().maxIndex());
    EXPECT_TRUE(m.pageFinished);
    EXPECT_FALSE(m.meetsDeadline);  // aliexpress+high misses 3 s
}

TEST_F(RunnerTest, UnfinishedPageIsCensoredWithZeroPpw)
{
    // A load wall far shorter than any real load time: the page
    // cannot finish, so the measurement is censored — loadTimeSec is
    // the window (a lower bound), PPW is the 0 flag, and the deadline
    // provably cannot have been met.
    const auto w = WorkloadSets::combo(PageCorpus::byName("espn"),
                                       MemIntensity::High);
    ExperimentConfig config;
    config.maxLoadSec = 0.05;
    ExperimentRunner walled(config);
    const RunMeasurement m =
        walled.runAtFrequency(w, walled.freqTable().maxIndex());
    EXPECT_FALSE(m.pageFinished);
    EXPECT_TRUE(m.censored);
    EXPECT_DOUBLE_EQ(m.ppw, 0.0);
    EXPECT_NEAR(m.loadTimeSec, config.maxLoadSec,
                2.0 * config.dtSec);
    EXPECT_FALSE(m.meetsDeadline);
    EXPECT_GT(m.meanPowerW, 0.0);  // energy was still spent
    // The censored flag is part of the measurement identity.
    RunMeasurement uncensored = m;
    uncensored.censored = false;
    EXPECT_NE(runMeasurementDigest(m),
              runMeasurementDigest(uncensored));
}

TEST_F(RunnerTest, KernelOnlyRunIsNotCensored)
{
    // No page means nothing to censor: the fixed measurement window
    // ending with pageFinished == false is the intended design.
    const auto w = WorkloadSets::kernelOnly(
        KernelCatalog::byName("backprop"));
    const RunMeasurement m =
        runner_.runAtFrequency(w, runner_.freqTable().maxIndex());
    EXPECT_FALSE(m.pageFinished);
    EXPECT_FALSE(m.censored);
    EXPECT_GT(m.ppw, 0.0);
}

TEST_F(RunnerTest, GovernorSwitchesAreCounted)
{
    const auto w = WorkloadSets::combo(PageCorpus::byName("amazon"),
                                       MemIntensity::Medium);
    InteractiveGovernor g;
    const RunMeasurement m = runner_.run(w, g);
    EXPECT_GT(m.freqSwitches, 0u);
    EXPECT_EQ(m.governor, "interactive");
}

TEST_F(RunnerTest, KernelOnlyRunUsesMeasureWindow)
{
    const auto w = WorkloadSets::kernelOnly(
        KernelCatalog::byName("backprop"));
    const RunMeasurement m =
        runner_.runAtFrequency(w, runner_.freqTable().maxIndex());
    EXPECT_FALSE(m.pageFinished);
    EXPECT_NEAR(m.loadTimeSec, runner_.config().measureSec,
                2.0 * runner_.config().dtSec);
    EXPECT_GT(m.meanL2Mpki, 7.0);
}

TEST_F(RunnerTest, IdleCharacterizationSpansConditions)
{
    const auto samples =
        runner_.idleCharacterization({15.0, 45.0}, 0.5, 0.3);
    EXPECT_GE(samples.size(), 28u);  // >= one per ambient x OPP
    double min_v = 1e9, max_v = 0.0, min_t = 1e9, max_t = 0.0;
    for (const auto &s : samples) {
        min_v = std::min(min_v, s.voltage);
        max_v = std::max(max_v, s.voltage);
        min_t = std::min(min_t, s.tempC);
        max_t = std::max(max_t, s.tempC);
        EXPECT_GT(s.powerW, 1.0);  // baseline is always there
    }
    EXPECT_LT(min_v, 0.82);
    EXPECT_GT(max_v, 1.0);
    EXPECT_GT(max_t - min_t, 20.0);  // ambient sweep visible
}

TEST(RunContext, SnapshotRewindMidRunBitIdentical)
{
    // Snapshot a run mid-flight through common/snapshot, run it to
    // completion, rewind it, and replay: the replayed measurement must
    // be bit-identical to the first pass.
    const WorkloadSpec spec =
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans"));
    // Same corun salt recipe as ExperimentRunner::run().
    const uint64_t salt = hashLabel("corun:" + spec.label()) % 4096;
    CorunTask corun(*spec.kernel, salt);
    InteractiveGovernor governor;
    RunContext::Params params;
    params.corun = &corun;
    params.label = spec.label();
    params.governor = &governor;
    RunContext run(ExperimentConfig{}, params);

    for (int quantum = 0; quantum < 10; ++quantum) {
        ASSERT_FALSE(run.done());
        run.advance();
    }
    ASSERT_FALSE(run.done());

    SnapshotWriter w;
    run.snapshot(w);
    const std::string bytes = w.finish();

    while (!run.done())
        run.advance();
    const RunMeasurement first = run.finish();

    SnapshotReader r(bytes);
    ASSERT_TRUE(r.checksumOk());
    ASSERT_TRUE(run.tryRestore(r));
    ASSERT_FALSE(run.done());
    while (!run.done())
        run.advance();
    const RunMeasurement replay = run.finish();

    EXPECT_EQ(runMeasurementText(first), runMeasurementText(replay));
}

} // namespace
} // namespace dora
