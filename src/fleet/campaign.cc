#include "fleet/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>

#include <fcntl.h>
#include <unistd.h>

#include "browser/page_corpus.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "exec/proc/supervisor.hh"
#include "exec/thread_pool.hh"
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

bool
writeAllFd(int fd, const char *p, size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Whole-file read; false when the file is absent or unreadable. */
bool
readFile(const std::string &path, std::string *out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    char buf[64 * 1024];
    for (;;) {
        const ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        if (r == 0)
            break;
        out->append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return true;
}

/** Temp + fsync + rename: a kill leaves the old file or the new one. */
bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    if (!writeAllFd(fd, bytes.data(), bytes.size()) ||
        ::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
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

FleetShardAggregate
FleetEngine::runCampaignInProcess() const
{
    const size_t chunks = chunkCount();
    FleetShardAggregate campaign =
        FleetShardAggregate::forCampaign(config_.governors.size());
    if (config_.jobs <= 1 || chunks <= 1) {
        // Pure streaming: one chunk of state live at a time.
        for (size_t c = 0; c < chunks; ++c)
            campaign.merge(runChunk(c));
        return campaign;
    }
    // Thread tier: chunks evaluate in parallel, then fold in chunk
    // order (the canonical fold). A chunk aggregate is fixed-size, so
    // holding all of them is O(chunks), not O(devices).
    const std::vector<FleetShardAggregate> per_chunk =
        parallelMap<FleetShardAggregate>(
            chunks, [this](size_t c) { return runChunk(c); },
            config_.jobs);
    for (const FleetShardAggregate &chunk : per_chunk)
        campaign.merge(chunk);
    return campaign;
}

FleetShardAggregate
FleetEngine::runCampaignWithWorkers() const
{
    const size_t gcount = config_.governors.size();
    const uint64_t chunks = chunkCount();
    const uint64_t hash = fleetCampaignHash(config_);

    ProcSweepConfig proc;
    proc.workers = config_.workers;
    proc.campaignHash = hash;
    // The streaming hook below is the consumer: the supervisor keeps
    // no per-unit payloads, so its memory is O(workers + reorder
    // window), independent of the fleet size.
    proc.discardResults = true;

    std::string ckpt_path;
    if (!config_.journalStem.empty()) {
        const std::string stem =
            config_.journalStem + "." + hexU64(hash);
        proc.journalPath = stem + ".jrn";
        ckpt_path = stem + ".ckpt";
    }

    FleetShardAggregate campaign =
        FleetShardAggregate::forCampaign(gcount);
    uint64_t absorbed = 0;      // chunks folded into the prefix
    uint64_t durable_floor = 0; // chunks durable in the checkpoint
    if (!ckpt_path.empty() &&
        tryLoadCheckpoint(ckpt_path, hash, chunks,
                          config_.chunkDevices, config_.spec.devices,
                          gcount, &absorbed, &campaign)) {
        durable_floor = absorbed;
        inform("fleet: checkpoint %s covers %llu/%llu chunks; "
               "resuming past them",
               ckpt_path.c_str(),
               static_cast<unsigned long long>(absorbed),
               static_cast<unsigned long long>(chunks));
    }
    proc.precompletedPrefix = absorbed;

    // Chunks complete in any order; fold stays canonical by parking
    // out-of-order arrivals until the next-in-line chunk lands.
    std::map<uint64_t, FleetShardAggregate> pending;
    uint64_t since_ckpt = 0;
    proc.onUnitComplete = [&](uint64_t unit,
                              const std::string &payload) -> uint64_t {
        FleetShardAggregate chunk;
        if (!chunk.tryDeserialize(payload))
            fatal("fleet: chunk %llu payload from the process tier "
                  "does not deserialize (journal from an older "
                  "build?); delete %s and re-run",
                  static_cast<unsigned long long>(unit),
                  proc.journalPath.c_str());
        pending.emplace(unit, std::move(chunk));
        while (!pending.empty() &&
               pending.begin()->first == absorbed) {
            campaign.merge(pending.begin()->second);
            pending.erase(pending.begin());
            ++absorbed;
            ++since_ckpt;
        }
        if (!ckpt_path.empty() &&
            since_ckpt >= config_.checkpointIntervalChunks) {
            if (writeFileAtomic(
                    ckpt_path,
                    checkpointBytes(hash, chunks,
                                    config_.chunkDevices, absorbed,
                                    campaign)))
                durable_floor = absorbed;
            else
                warn("fleet: checkpoint write to %s failed; the "
                     "journal keeps the full history",
                     ckpt_path.c_str());
            since_ckpt = 0;
        }
        return durable_floor;
    };

    const ProcSweepReport report =
        runProcSweep(proc, chunks, [this](uint64_t c) {
            return runChunk(static_cast<size_t>(c)).serialize();
        });

    if (report.drained) {
        // Progress (if journaled) is durable; die by the original
        // signal so scripts see the conventional status, and a rerun
        // resumes from the checkpoint + journal.
        warn("fleet: campaign interrupted by signal %d with %llu "
             "chunks durable; re-run to resume",
             report.drainSignal,
             static_cast<unsigned long long>(
                 report.unitsRun + report.unitsResumed +
                 report.unitsPrecompleted));
        ::raise(report.drainSignal);
        fatal("fleet: campaign interrupted"); // signal was ignored
    }

    // Quarantined chunks leave holes; recompute them in-process so
    // the fold stays canonical and the campaign still completes.
    while (absorbed < chunks) {
        const auto it = pending.find(absorbed);
        if (it != pending.end()) {
            campaign.merge(it->second);
            pending.erase(it);
        } else {
            warn("fleet: chunk %llu was quarantined by the process "
                 "tier; recomputing in-process",
                 static_cast<unsigned long long>(absorbed));
            campaign.merge(runChunk(absorbed));
        }
        ++absorbed;
    }
    return campaign;
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
    const FleetShardAggregate campaign = config_.workers > 0
        ? runCampaignWithWorkers()
        : runCampaignInProcess();
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
