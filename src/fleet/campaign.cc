#include "fleet/campaign.hh"

#include <algorithm>
#include <cstdio>

#include "browser/page_corpus.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "exec/cell_map.hh"
#include "exec/file_io.hh"
#include "fault/fault_injector.hh"
#include "harness/comparison.hh"
#include "obs/trace.hh"
#include "runner/run_context.hh"
#include "workloads/corun_task.hh"

namespace dora
{

namespace
{

void
appendHexDouble(std::string &text, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", value);
    text += buf;
}

/**
 * Campaign aggregate checkpoint: the absorbed-prefix FleetShardAggregate
 * plus enough identity (campaign hash, chunk geometry) to refuse a
 * checkpoint from any other campaign. Versioned snapshot section.
 */
std::string
checkpointBytes(uint64_t hash, uint64_t chunk_count,
                uint32_t chunk_devices, uint64_t absorbed,
                const FleetShardAggregate &campaign)
{
    SnapshotWriter w;
    w.beginSection("fckp", 1);
    w.putU64(hash);
    w.putU64(chunk_count);
    w.putU32(chunk_devices);
    w.putU64(absorbed);
    w.putString(campaign.serialize());
    return w.finish();
}

bool
tryLoadCheckpoint(const std::string &path, uint64_t hash,
                  uint64_t chunk_count, uint32_t chunk_devices,
                  uint64_t device_total, size_t gcount,
                  uint64_t *absorbed, FleetShardAggregate *campaign)
{
    std::string bytes;
    if (!readFile(path, &bytes))
        return false;  // no checkpoint yet: a fresh campaign
    SnapshotReader r(bytes);
    uint64_t h = 0, chunks = 0, a = 0;
    uint32_t cd = 0;
    std::string agg;
    if (!r.checksumOk() || !r.beginSection("fckp", 1) ||
        !r.getU64(&h) || !r.getU64(&chunks) || !r.getU32(&cd) ||
        !r.getU64(&a) || !r.getString(&agg) || !r.atEnd() ||
        h != hash || chunks != chunk_count || cd != chunk_devices ||
        a > chunk_count) {
        warn("fleet: ignoring checkpoint %s (different campaign, "
             "torn write, or newer format); the journal still covers "
             "completed chunks",
             path.c_str());
        return false;
    }
    FleetShardAggregate loaded;
    const uint64_t expect_cells =
        std::min<uint64_t>(a * chunk_devices, device_total) * gcount;
    if (!loaded.tryDeserialize(agg) || loaded.firstCell() != 0 ||
        loaded.cellCount() != expect_cells) {
        warn("fleet: ignoring checkpoint %s (aggregate does not match "
             "the stated chunk prefix)",
             path.c_str());
        return false;
    }
    *absorbed = a;
    *campaign = std::move(loaded);
    return true;
}

} // namespace

uint64_t
fleetCampaignHash(const FleetCampaignConfig &config)
{
    // "rev2": bump on any change to the cell grid layout or the unit
    // payload format — the hash names resume journals and checkpoints.
    // rev2 units are chunk aggregates (rev1 shipped raw measurements),
    // so the chunk width is part of the identity.
    std::string text = "fleet-campaign-rev2 " +
        fleetSpecText(config.spec) + " protocol " +
        hexU64(experimentConfigHash(config.base)) + " governors";
    for (const auto &governor : config.governors)
        text += " " + governor;
    text += " chunk " + std::to_string(config.chunkDevices);
    return hashLabel(text);
}

/** Owned per-cell objects — the cell's device in a box. */
struct FleetEngine::DeviceCell
{
    ExperimentConfig config;
    const WebPage *page = nullptr;
    std::string label;
    std::unique_ptr<CorunTask> corun;
    std::unique_ptr<Governor> governor;
    std::unique_ptr<FaultInjector> fault;
};

FleetEngine::FleetEngine(FleetCampaignConfig config)
    : config_(std::move(config))
{
    validateFleetSpec(config_.spec);
    if (config_.governors.empty())
        fatal("FleetEngine: empty governor list");
    if (config_.lanes != 1)
        fatal("FleetEngine: lanes must be 1, got %u (lane batching "
              "was removed; every cell runs alone)",
              config_.lanes);
    if (config_.chunkDevices == 0)
        config_.chunkDevices = 1;
    if (config_.checkpointIntervalChunks == 0)
        config_.checkpointIntervalChunks = 1;
}

size_t
FleetEngine::cellCount() const
{
    return config_.spec.devices * config_.governors.size();
}

size_t
FleetEngine::chunkCount() const
{
    const size_t per = config_.chunkDevices;
    return (config_.spec.devices + per - 1) / per;
}

FleetEngine::DeviceCell
FleetEngine::makeCell(size_t cell_index, const DeviceSpec &sampled) const
{
    const size_t gcount = config_.governors.size();
    const std::string &governor = config_.governors[cell_index % gcount];

    DeviceCell cell;
    cell.config = config_.base;
    cell.config.freqScale = sampled.freqScale;
    cell.config.voltageScale = sampled.voltageScale;
    cell.config.thermalResistanceScale = sampled.thermalResistanceScale;
    cell.config.ambientC = sampled.ambientC;

    cell.page = &PageCorpus::byName(sampled.page);
    // The label omits the governor on purpose: it salts the page and
    // co-runner RNG streams, and every governor must see the same
    // device behaving the same way (exactly like the harness labels).
    cell.label = sampled.label(config_.spec.seed);
    if (sampled.corun != MemIntensity::None) {
        const KernelSpec &kernel =
            KernelCatalog::representative(sampled.corun);
        // Same "corun:" decorrelation recipe as ExperimentRunner.
        // dora:stream-tag-shared(same workload, same corun stream)
        const uint64_t salt = hashLabel("corun:" + cell.label) % 4096;
        cell.corun = std::make_unique<CorunTask>(kernel, salt);
    }
    cell.governor = makeNamedGovernor(governor, config_.models);
    if (sampled.faulty)
        cell.fault = std::make_unique<FaultInjector>(
            FaultSchedule::combined(sampled.faultSeed));
    return cell;
}

RunMeasurement
FleetEngine::runCell(size_t cell_index, const DeviceSpec &sampled) const
{
    const DeviceCell cell = makeCell(cell_index, sampled);
    RunContext::Params params;
    params.page = cell.page;
    params.corun = cell.corun.get();
    params.label = cell.label;
    params.governor = cell.governor.get();
    params.fault = cell.fault.get();
    RunContext run(cell.config, params);
    while (!run.done())
        run.advance();
    return run.finish();
}

FleetShardAggregate
FleetEngine::runChunk(size_t chunk_index) const
{
    const size_t gcount = config_.governors.size();
    const size_t chunk_cells =
        static_cast<size_t>(config_.chunkDevices) * gcount;
    const size_t n = cellCount();
    const size_t first = chunk_index * chunk_cells;
    const size_t count = std::min(chunk_cells, n - first);
    const size_t first_device = first / gcount;
    const size_t device_count = count / gcount;  // whole devices

    // Per-cell setup amortization: sample each device ONCE per chunk
    // (spec + cohort were previously re-derived for every governor
    // cell and again at aggregation time) and reuse the spec for all
    // of its cells.
    std::vector<DeviceSpec> devices;
    std::vector<std::string> cohorts;
    devices.reserve(device_count);
    cohorts.reserve(device_count);
    for (size_t d = 0; d < device_count; ++d) {
        devices.push_back(sampleDevice(config_.spec, first_device + d));
        cohorts.push_back(devices.back().cohort());
    }

    FleetShardAggregate agg =
        FleetShardAggregate::forChunk(gcount, first);
    for (size_t cell = first; cell < first + count; ++cell) {
        const size_t d = cell / gcount - first_device;
        const size_t g = cell % gcount;
        agg.pushCell(g, cohorts[d], g == 0, runCell(cell, devices[d]));
    }
    return agg;
}

FleetReport
FleetEngine::buildReport(const FleetShardAggregate &campaign) const
{
    const size_t gcount = config_.governors.size();
    FleetReport report;
    report.devices = config_.spec.devices;
    report.populationDigest = campaign.digest();
    report.byGovernor.resize(gcount);

    for (size_t g = 0; g < gcount; ++g) {
        const FleetShardAggregate::GovernorAcc &acc =
            campaign.governors()[g];
        FleetGovernorStats &stats = report.byGovernor[g];
        stats.governor = config_.governors[g];
        stats.devices = acc.devices;
        stats.censored = acc.censored;
        stats.deadlineMet = acc.met;
        if (acc.devices > 0)
            stats.meetRate = static_cast<double>(acc.met) /
                static_cast<double>(acc.devices);
        stats.ppw = acc.ppw;
        stats.loadTime = acc.loadTime;
        if (acc.uncensored > 0) {
            stats.meanPpw = acc.ppwSum.value() /
                static_cast<double>(acc.uncensored);
            stats.p50Ppw = stats.ppw.quantile(0.50);
            stats.p95Ppw = stats.ppw.quantile(0.95);
            stats.p99Ppw = stats.ppw.quantile(0.99);
            stats.p50LoadSec = stats.loadTime.quantile(0.50);
            stats.p95LoadSec = stats.loadTime.quantile(0.95);
            stats.p99LoadSec = stats.loadTime.quantile(0.99);
        }
    }

    report.cohorts.reserve(campaign.cohorts().size());
    for (const auto &[name, acc] : campaign.cohorts()) {
        FleetCohortStats c;
        c.cohort = name;
        c.devices = acc.devices;
        c.meanPpw.resize(gcount, 0.0);
        c.meetRate.resize(gcount, 0.0);
        c.censored.resize(gcount, 0);
        for (size_t g = 0; g < gcount; ++g) {
            if (acc.uncensored[g] > 0)
                c.meanPpw[g] = acc.ppwSum[g].value() /
                    static_cast<double>(acc.uncensored[g]);
            if (acc.devices > 0)
                c.meetRate[g] = static_cast<double>(acc.met[g]) /
                    static_cast<double>(acc.devices);
            c.censored[g] = acc.censored[g];
        }
        report.cohorts.push_back(std::move(c));
    }
    return report;
}

FleetReport
FleetEngine::run()
{
    const size_t gcount = config_.governors.size();
    const uint64_t chunks = chunkCount();
    const uint64_t hash = fleetCampaignHash(config_);
    CellMapConfig map;
    map.jobs = config_.jobs;
    map.workers = config_.workers;
    map.campaignHash = hash;
    map.journalStem = config_.journalStem;
    map.who = "fleet chunks";

    // The fold's cells are chunk aggregates, merged in chunk order.
    FleetShardAggregate campaign =
        FleetShardAggregate::forCampaign(gcount);
    FoldCheckpoint checkpoint;
    const std::string ckpt_path =
        config_.workers > 0 && !config_.journalStem.empty()
        ? config_.journalStem + "." + hexU64(hash) + ".ckpt"
        : "";
    size_t durable = 0, since_ckpt = 0;
    if (!ckpt_path.empty()) {
        uint64_t absorbed = 0;
        if (tryLoadCheckpoint(ckpt_path, hash, chunks,
                              config_.chunkDevices, config_.spec.devices,
                              gcount, &absorbed, &campaign)) {
            checkpoint.prefix = durable = absorbed;
            inform("fleet: checkpoint %s covers %llu/%llu chunks; "
                   "resuming past them",
                   ckpt_path.c_str(),
                   static_cast<unsigned long long>(absorbed),
                   static_cast<unsigned long long>(chunks));
        }
        checkpoint.save = [&](size_t folded) {
            if (++since_ckpt < config_.checkpointIntervalChunks)
                return durable;
            since_ckpt = 0;
            if (writeFileAtomic(ckpt_path,
                                checkpointBytes(hash, chunks,
                                                config_.chunkDevices,
                                                folded, campaign)))
                durable = folded;
            else
                warn("fleet: checkpoint write to %s failed; the "
                     "journal keeps the full history",
                     ckpt_path.c_str());
            return durable;
        };
    }

    foldCells<FleetShardAggregate>(
        chunks, map,
        {[](const FleetShardAggregate &chunk) { return chunk.serialize(); },
         [](std::string_view bytes, FleetShardAggregate *chunk) {
             return chunk->tryDeserialize(bytes);
         }},
        [this](size_t c) { return runChunk(c); },
        [&](size_t, FleetShardAggregate &&chunk) { campaign.merge(chunk); },
        checkpoint);
    return buildReport(campaign);
}

RunMeasurement
FleetEngine::replayDevice(size_t device_index,
                          const std::string &governor) const
{
    if (device_index >= config_.spec.devices)
        fatal("FleetEngine::replayDevice: device %zu beyond "
              "population of %zu",
              device_index, config_.spec.devices);
    const size_t gcount = config_.governors.size();
    for (size_t g = 0; g < gcount; ++g)
        if (config_.governors[g] == governor)
            return runCell(device_index * gcount + g,
                           sampleDevice(config_.spec, device_index));
    fatal("FleetEngine::replayDevice: governor '%s' is not in this "
          "campaign",
          governor.c_str());
}

std::string
fleetReportText(const FleetReport &report)
{
    std::string text = "FLEET devices=" +
        std::to_string(report.devices) +
        " digest=" + hexU64(report.populationDigest) + "\n";
    for (const FleetGovernorStats &g : report.byGovernor) {
        text += "GOV " + g.governor +
            " devices=" + std::to_string(g.devices) +
            " censored=" + std::to_string(g.censored) +
            " met=" + std::to_string(g.deadlineMet) + " meet=";
        appendHexDouble(text, g.meetRate);
        text += " mean_ppw=";
        appendHexDouble(text, g.meanPpw);
        text += " p50_ppw=";
        appendHexDouble(text, g.p50Ppw);
        text += " p95_ppw=";
        appendHexDouble(text, g.p95Ppw);
        text += " p99_ppw=";
        appendHexDouble(text, g.p99Ppw);
        text += " p50_load=";
        appendHexDouble(text, g.p50LoadSec);
        text += " p95_load=";
        appendHexDouble(text, g.p95LoadSec);
        text += " p99_load=";
        appendHexDouble(text, g.p99LoadSec);
        text += "\n";
    }
    for (const FleetCohortStats &c : report.cohorts) {
        text += "COHORT [" + c.cohort +
            "] devices=" + std::to_string(c.devices);
        for (size_t g = 0; g < c.meanPpw.size(); ++g) {
            text += " g" + std::to_string(g) + "_mean_ppw=";
            appendHexDouble(text, c.meanPpw[g]);
            text += " g" + std::to_string(g) + "_meet=";
            appendHexDouble(text, c.meetRate[g]);
            text += " g" + std::to_string(g) +
                "_censored=" + std::to_string(c.censored[g]);
        }
        text += "\n";
    }
    return text;
}

} // namespace dora
