/**
 * @file
 * Fleet campaign determinism suite (DESIGN.md §5h):
 *
 *  - sampleDevice() is deterministic, order-independent, in-range,
 *    and stable against faultIncidence flips;
 *  - the same FleetSpec produces a byte-identical population and
 *    aggregate report at every (jobs, workers) combination;
 *  - replayDevice() reproduces an in-campaign cell bit-exactly;
 *  - a supervisor SIGKILLed mid-campaign resumes from the journal to
 *    a byte-identical report;
 *  - cohort device counts conserve the population.
 *
 * Identity is checked through fleetReportText() and the population
 * digest (hex-float rendering underneath), so any single-ULP
 * divergence fails. The campaigns here are tiny (5 devices, short
 * load wall); bench/fleet_rollout.cc runs the 10k-device version of
 * the same checks.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/campaign.hh"
#include "fleet/fleet_spec.hh"
#include "obs/metrics.hh"
#include "runner/experiment.hh"

namespace fs = std::filesystem;

namespace dora
{
namespace
{

/**
 * A tiny campaign: 5 devices x 2 model-free governors, a short load
 * wall (a censored page is still a deterministic measurement), and a
 * fault incidence high enough that the fault path is exercised.
 */
FleetCampaignConfig
smallCampaign(unsigned jobs, unsigned workers,
              const std::string &stem = "")
{
    FleetCampaignConfig config;
    config.spec.seed = 7;
    config.spec.devices = 5;
    config.spec.faultIncidence = 0.4;
    config.governors = {"interactive", "ondemand"};
    config.base.maxLoadSec = 1.0;
    config.jobs = jobs;
    config.workers = workers;
    config.journalStem = stem;
    return config;
}

/** Remove journal files left by a previous run of @p stem. */
void
clearJournals(const std::string &stem)
{
    const fs::path dir = fs::path(stem).parent_path();
    const std::string prefix = fs::path(stem).filename().string();
    if (!fs::exists(dir))
        return;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            fs::remove(entry.path());
}

/** The @p stem file with @p ext ("jrn"/"ckpt"), or "" if absent. */
std::string
findResumeFile(const std::string &stem, const std::string &ext)
{
    const fs::path dir = fs::path(stem).parent_path();
    const std::string prefix = fs::path(stem).filename().string();
    if (fs::exists(dir))
        for (const auto &entry : fs::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind(prefix, 0) == 0 &&
                entry.path().extension() == "." + ext)
                return entry.path().string();
        }
    return "";
}

bool
sameDevice(const DeviceSpec &a, const DeviceSpec &b)
{
    return a.index == b.index && a.page == b.page &&
        a.corun == b.corun && a.freqScale == b.freqScale &&
        a.voltageScale == b.voltageScale &&
        a.thermalResistanceScale == b.thermalResistanceScale &&
        a.ambientC == b.ambientC;
}

TEST(FleetSpec, SamplerIsDeterministicAndInRange)
{
    FleetSpec spec;
    spec.devices = 64;
    std::set<std::string> cohorts;
    for (size_t i = 0; i < spec.devices; ++i) {
        const DeviceSpec a = sampleDevice(spec, i);
        const DeviceSpec b = sampleDevice(spec, i);
        EXPECT_TRUE(sameDevice(a, b)) << "device " << i;
        EXPECT_EQ(a.faulty, b.faulty);
        EXPECT_EQ(a.faultSeed, b.faultSeed);

        EXPECT_FALSE(a.page.empty());
        EXPECT_GE(a.freqScale, 0.85);
        EXPECT_LE(a.freqScale, 1.20);
        EXPECT_GE(a.voltageScale, 0.90);
        EXPECT_LE(a.voltageScale, 1.12);
        EXPECT_GE(a.thermalResistanceScale, 0.60);
        EXPECT_LE(a.thermalResistanceScale, 1.80);
        EXPECT_GE(a.ambientC, spec.ambientMinC);
        EXPECT_LE(a.ambientC, spec.ambientMaxC);
        cohorts.insert(a.cohort());
    }
    // 64 devices across a 24-bucket space: expect real diversity.
    EXPECT_GT(cohorts.size(), 3u);
    EXPECT_LE(cohorts.size(), fleetCohortCount());
}

TEST(FleetSpec, SamplerIsOrderIndependent)
{
    // Guard against hidden global state: sampling backwards must
    // reproduce the forward pass exactly (workers visit devices in
    // arbitrary order).
    FleetSpec spec;
    spec.devices = 16;
    std::vector<DeviceSpec> forward;
    for (size_t i = 0; i < spec.devices; ++i)
        forward.push_back(sampleDevice(spec, i));
    for (size_t i = spec.devices; i-- > 0;)
        EXPECT_TRUE(sameDevice(forward[i], sampleDevice(spec, i)))
            << "device " << i;
}

TEST(FleetSpec, HashCoversEveryField)
{
    const FleetSpec base;
    EXPECT_EQ(fleetSpecHash(base), fleetSpecHash(FleetSpec{}));

    FleetSpec seed = base;
    seed.seed = 2;
    FleetSpec devices = base;
    devices.devices = 5;
    FleetSpec sd = base;
    sd.freqScaleSd = 0.05;
    FleetSpec fault = base;
    fault.faultIncidence = 0.5;
    const uint64_t h = fleetSpecHash(base);
    EXPECT_NE(fleetSpecHash(seed), h);
    EXPECT_NE(fleetSpecHash(devices), h);
    EXPECT_NE(fleetSpecHash(sd), h);
    EXPECT_NE(fleetSpecHash(fault), h);
}

TEST(FleetSpec, FaultIncidenceFlipPerturbsNoOtherDraw)
{
    // Turning faults on must only set the faulty bit: every other
    // draw — and the schedule seed itself — stays stable, so fault
    // studies compare the same underlying population.
    FleetSpec off;
    off.devices = 32;
    off.faultIncidence = 0.0;
    FleetSpec on = off;
    on.faultIncidence = 1.0;
    for (size_t i = 0; i < off.devices; ++i) {
        const DeviceSpec a = sampleDevice(off, i);
        const DeviceSpec b = sampleDevice(on, i);
        EXPECT_TRUE(sameDevice(a, b)) << "device " << i;
        EXPECT_FALSE(a.faulty);
        EXPECT_TRUE(b.faulty);
        EXPECT_EQ(a.faultSeed, b.faultSeed) << "device " << i;
    }
}

TEST(FleetDeterminism, TierCombinationsAreByteIdentical)
{
    // One chunk of all 5 devices, and chunks of 2 devices, which
    // leave an uneven tail chunk of one device.
    for (const unsigned chunk_devices : {32u, 2u}) {
        FleetCampaignConfig base = smallCampaign(1, 0);
        base.chunkDevices = chunk_devices;
        const FleetReport ref = FleetEngine(base).run();
        const std::string ref_text = fleetReportText(ref);
        ASSERT_FALSE(ref_text.empty());

        struct Combo
        {
            unsigned jobs, workers;
        };
        // Thread tier and process tier.
        for (const Combo &c : {Combo{2, 0}, Combo{1, 2}}) {
            FleetCampaignConfig config = base;
            config.jobs = c.jobs;
            config.workers = c.workers;
            const FleetReport report = FleetEngine(config).run();
            EXPECT_EQ(report.populationDigest, ref.populationDigest)
                << "jobs=" << c.jobs << " workers=" << c.workers
                << " chunk=" << chunk_devices;
            EXPECT_EQ(fleetReportText(report), ref_text)
                << "jobs=" << c.jobs << " workers=" << c.workers
                << " chunk=" << chunk_devices;
        }
    }
}

TEST(FleetDeterminism, ReplayMatchesInCampaignCell)
{
    FleetEngine engine(smallCampaign(1, 0));
    const FleetReport report = engine.run();
    const auto &governors = engine.config().governors;
    const size_t devices = engine.config().spec.devices;

    // Replay every cell alone and fold the replays the way the
    // campaign folds its one chunk: the digest chain over the cells'
    // measurement digests must come out bit-identical.
    FleetShardAggregate chunk =
        FleetShardAggregate::forChunk(governors.size(), 0);
    for (size_t device = 0; device < devices; ++device) {
        const std::string cohort =
            sampleDevice(engine.config().spec, device).cohort();
        for (size_t g = 0; g < governors.size(); ++g)
            chunk.pushCell(g, cohort, g == 0,
                           engine.replayDevice(device, governors[g]));
    }
    FleetShardAggregate campaign =
        FleetShardAggregate::forCampaign(governors.size());
    campaign.merge(chunk);
    EXPECT_EQ(campaign.digest(), report.populationDigest);
}

TEST(FleetDeterminism, CohortCountsConserveThePopulation)
{
    FleetEngine engine(smallCampaign(1, 0));
    const FleetReport report = engine.run();
    ASSERT_EQ(report.byGovernor.size(), 2u);

    size_t cohort_devices = 0;
    for (const FleetCohortStats &c : report.cohorts) {
        EXPECT_GT(c.devices, 0u) << c.cohort;
        cohort_devices += c.devices;
    }
    EXPECT_EQ(cohort_devices, report.devices);
    EXPECT_LE(report.cohorts.size(), fleetCohortCount());

    for (const FleetGovernorStats &g : report.byGovernor) {
        EXPECT_EQ(g.devices, report.devices);
        EXPECT_EQ(g.ppw.count() + g.censored, g.devices);
        EXPECT_GE(g.meetRate, 0.0);
        EXPECT_LE(g.meetRate, 1.0);
    }
}

TEST(FleetDeterminism, CampaignHashSeparatesCampaigns)
{
    const FleetCampaignConfig a = smallCampaign(1, 0);
    FleetCampaignConfig b = a;
    b.spec.seed = 8;
    FleetCampaignConfig c = a;
    c.governors = {"interactive"};
    // jobs/workers are pure throughput policy — never identity.
    FleetCampaignConfig e = a;
    e.jobs = 8;
    e.workers = 3;
    // Chunk width defines the journal's unit space — identity.
    FleetCampaignConfig f = a;
    f.chunkDevices = 4;
    EXPECT_NE(fleetCampaignHash(a), fleetCampaignHash(b));
    EXPECT_NE(fleetCampaignHash(a), fleetCampaignHash(c));
    EXPECT_EQ(fleetCampaignHash(a), fleetCampaignHash(e));
    EXPECT_NE(fleetCampaignHash(a), fleetCampaignHash(f));
}

TEST(FleetDeterminism, ChunkWidthChangesIdentityNotStatistics)
{
    // Different chunk widths are different campaigns (digest chains
    // chunk digests, compensated sums fold per chunk) but the same
    // population: counts are equal outright and the sketches — whose
    // compacted state is defined as "pushed one-by-one in global
    // cell order" — agree on every quantile bit-for-bit.
    FleetCampaignConfig wide = smallCampaign(1, 0);
    FleetCampaignConfig narrow = wide;
    narrow.chunkDevices = 2;  // 5 devices -> 3 chunks, one short
    const FleetReport a = FleetEngine(wide).run();
    const FleetReport b = FleetEngine(narrow).run();
    ASSERT_EQ(a.byGovernor.size(), b.byGovernor.size());
    for (size_t g = 0; g < a.byGovernor.size(); ++g) {
        const FleetGovernorStats &x = a.byGovernor[g];
        const FleetGovernorStats &y = b.byGovernor[g];
        EXPECT_EQ(x.devices, y.devices);
        EXPECT_EQ(x.censored, y.censored);
        EXPECT_EQ(x.deadlineMet, y.deadlineMet);
        EXPECT_EQ(x.ppw.count(), y.ppw.count());
        if (x.ppw.count() > 0) {
            EXPECT_EQ(x.p50Ppw, y.p50Ppw);
            EXPECT_EQ(x.p95Ppw, y.p95Ppw);
            EXPECT_EQ(x.p99Ppw, y.p99Ppw);
            EXPECT_EQ(x.p50LoadSec, y.p50LoadSec);
            EXPECT_NEAR(x.meanPpw, y.meanPpw,
                        1e-12 * std::abs(x.meanPpw));
        }
    }
}

TEST(FleetAggregate, SerializeRoundTripIsBitExact)
{
    FleetShardAggregate chunk = FleetShardAggregate::forChunk(2, 0);
    for (size_t device = 0; device < 3; ++device)
        for (size_t g = 0; g < 2; ++g) {
            RunMeasurement m;
            m.ppw = 1.5 + static_cast<double>(device) + 0.1 * g;
            m.loadTimeSec = 0.5 + 0.25 * static_cast<double>(device);
            m.meetsDeadline = (device + g) % 2 == 0;
            m.censored = device == 2 && g == 1;
            chunk.pushCell(g, device % 2 ? "hot/big" : "cool/small",
                           g == 0, m);
        }

    const std::string bytes = chunk.serialize();
    FleetShardAggregate restored;
    ASSERT_TRUE(restored.tryDeserialize(bytes));
    EXPECT_EQ(restored.serialize(), bytes);
    EXPECT_EQ(restored.digest(), chunk.digest());
    EXPECT_EQ(restored.cellCount(), 6u);
    EXPECT_FALSE(restored.tryDeserialize("garbage"));

    // Chunks fold into a campaign accumulator in cell order only:
    // a gap (or out-of-order merge) is a campaign-logic bug.
    FleetShardAggregate campaign =
        FleetShardAggregate::forCampaign(2);
    campaign.merge(chunk);
    EXPECT_EQ(campaign.cellCount(), 6u);
    FleetShardAggregate gap = FleetShardAggregate::forChunk(2, 8);
    EXPECT_DEATH(campaign.merge(gap), "chunk-index order");
}

TEST(FleetDeath, UnknownGovernorIsFatal)
{
    FleetCampaignConfig config = smallCampaign(1, 0);
    config.governors = {"warp-drive"};
    FleetEngine engine(config);
    EXPECT_EXIT(engine.replayDevice(0, "warp-drive"),
                ::testing::ExitedWithCode(1), "unknown governor");
}

TEST(FleetDeath, LanesOtherThanOneIsFatal)
{
    FleetCampaignConfig config = smallCampaign(1, 0);
    config.lanes = 4;
    EXPECT_EXIT(FleetEngine{config}, ::testing::ExitedWithCode(1),
                "lanes must be 1");
}

TEST(FleetKillResume, SupervisorSigkillThenResumeByteIdentical)
{
    const std::string stem =
        ::testing::TempDir() + "fleet_resume_test";
    clearJournals(stem);

    // One device per chunk (5 journal units) and an interval too
    // large to ever checkpoint: this leg isolates the journal-replay
    // resume path; the checkpoint path has its own test below.
    const auto cfg = [&](unsigned workers, const std::string &s) {
        FleetCampaignConfig config = smallCampaign(1, workers, s);
        config.chunkDevices = 1;
        config.checkpointIntervalChunks = 1000;
        return config;
    };

    FleetEngine baseline(cfg(0, ""));
    const std::string ref_text = fleetReportText(baseline.run());

    // First attempt runs in a forked child so SIGKILL models a hard
    // supervisor death (no destructors, no drain).
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FleetEngine engine(cfg(1, stem));
        engine.run();
        ::_exit(0);
    }

    // Kill as soon as the journal holds at least one record (header
    // is 36 bytes), i.e. mid-campaign with real progress on disk.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    std::string journal;
    while (std::chrono::steady_clock::now() < deadline) {
        journal = findResumeFile(stem, "jrn");
        std::error_code ec;
        if (!journal.empty() && fs::file_size(journal, ec) > 36 && !ec)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_FALSE(journal.empty()) << "campaign never journaled";
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    // Resume in-process: the journal must contribute completed
    // chunks and the resumed report must match the uninterrupted
    // baseline byte-for-byte.
    const uint64_t resumed_before =
        MetricsRegistry::global().counter("proc.units_resumed").value();
    FleetEngine resumed(cfg(1, stem));
    const std::string resumed_text = fleetReportText(resumed.run());
    const uint64_t resumed_after =
        MetricsRegistry::global().counter("proc.units_resumed").value();

    EXPECT_GE(resumed_after, resumed_before + 1)
        << "rerun recomputed everything instead of resuming";
    EXPECT_EQ(resumed_text, ref_text);
    clearJournals(stem);
}

TEST(FleetKillResume, CheckpointSigkillThenResumeByteIdentical)
{
    const std::string stem =
        ::testing::TempDir() + "fleet_ckpt_test";
    clearJournals(stem);

    // One device per chunk, checkpoint after every chunk: the
    // aggregate checkpoint (not journal replay) carries the resumed
    // prefix, and the journal is truncated beneath it.
    const auto cfg = [&](unsigned workers, const std::string &s) {
        FleetCampaignConfig config = smallCampaign(1, workers, s);
        config.chunkDevices = 1;
        config.checkpointIntervalChunks = 1;
        return config;
    };

    FleetEngine baseline(cfg(0, ""));
    const std::string ref_text = fleetReportText(baseline.run());

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FleetEngine engine(cfg(1, stem));
        engine.run();
        ::_exit(0);
    }

    // Kill as soon as an aggregate checkpoint exists.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    std::string ckpt;
    while (std::chrono::steady_clock::now() < deadline) {
        ckpt = findResumeFile(stem, "ckpt");
        if (!ckpt.empty())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_FALSE(ckpt.empty()) << "campaign never checkpointed";
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    const uint64_t pre_before = MetricsRegistry::global()
                                    .counter("proc.units_precompleted")
                                    .value();
    FleetEngine resumed(cfg(1, stem));
    const std::string resumed_text = fleetReportText(resumed.run());
    const uint64_t pre_after = MetricsRegistry::global()
                                   .counter("proc.units_precompleted")
                                   .value();

    EXPECT_GE(pre_after, pre_before + 1)
        << "rerun replayed the journal instead of loading the "
           "checkpoint";
    EXPECT_EQ(resumed_text, ref_text);
    clearJournals(stem);
}

} // namespace
} // namespace dora
