#include "harness/comparison.hh"

#include <iterator>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/cell_map.hh"
#include "exec/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "obs/metrics.hh"
#include "runner/measurement_io.hh"

namespace dora
{

namespace
{

/**
 * Canonical governor registry. Order is the dense id; interactive is
 * id 0 because it is the normalization baseline.
 */
const std::vector<std::string> &
governorRegistry()
{
    static const std::vector<std::string> names = {
        "interactive", "performance", "powersave", "ondemand",
        "DL", "EE", "DORA", "DORA_no_lkg", "offline_opt",
    };
    return names;
}

constexpr size_t kInteractiveId = 0;

} // namespace

size_t
governorCount()
{
    return governorRegistry().size();
}

size_t
governorIndex(const std::string &name)
{
    const auto &names = governorRegistry();
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return i;
    fatal("governorIndex: unknown governor '%s'", name.c_str());
}

const std::string &
governorName(size_t index)
{
    const auto &names = governorRegistry();
    if (index >= names.size())
        fatal("governorName: id %zu out of range (%zu governors)",
              index, names.size());
    return names[index];
}

void
ComparisonRecord::setMeasurement(size_t index, RunMeasurement m)
{
    if (index >= governorCount())
        fatal("ComparisonRecord: governor id %zu out of range", index);
    if (slots_.size() <= index)
        slots_.resize(index + 1);
    slots_[index] = std::move(m);
    presentMask_ |= 1u << index;
}

void
ComparisonRecord::setMeasurement(const std::string &governor,
                                 RunMeasurement m)
{
    setMeasurement(governorIndex(governor), std::move(m));
}

bool
ComparisonRecord::hasMeasurement(size_t index) const
{
    return index < 32 && (presentMask_ & (1u << index));
}

const RunMeasurement &
ComparisonRecord::measurement(size_t index) const
{
    if (!hasMeasurement(index))
        panic("ComparisonRecord: no measurement for governor '%s'",
              governorName(index).c_str());
    return slots_[index];
}

const RunMeasurement &
ComparisonRecord::measurement(const std::string &governor) const
{
    return measurement(governorIndex(governor));
}

double
ComparisonRecord::normalizedPpw(size_t index) const
{
    const RunMeasurement &base = measurement(kInteractiveId);
    const RunMeasurement &m = measurement(index);
    if (base.ppw <= 0.0)
        panic("ComparisonRecord: zero baseline PPW for %s",
              workload.label().c_str());
    return m.ppw / base.ppw;
}

double
ComparisonRecord::normalizedPpw(const std::string &governor) const
{
    return normalizedPpw(governorIndex(governor));
}

ComparisonHarness::ComparisonHarness(
    const ExperimentConfig &config,
    std::shared_ptr<const ModelBundle> models, unsigned jobs)
    : runner_(config), models_(std::move(models)),
      jobs_(jobs ? jobs : defaultJobCount())
{
}

const std::vector<std::string> &
ComparisonHarness::paperGovernors()
{
    static const std::vector<std::string> names = {
        "interactive", "performance", "DL", "EE", "DORA",
    };
    return names;
}

std::unique_ptr<Governor>
ComparisonHarness::makeGovernor(const std::string &governor) const
{
    return makeNamedGovernor(governor, models_);
}

std::unique_ptr<Governor>
makeNamedGovernor(const std::string &governor,
                  const std::shared_ptr<const ModelBundle> &models)
{
    if (governor == "interactive")
        return std::make_unique<InteractiveGovernor>();
    if (governor == "performance")
        return std::make_unique<PerformanceGovernor>();
    if (governor == "powersave")
        return std::make_unique<PowersaveGovernor>();
    if (governor == "ondemand")
        return std::make_unique<OndemandGovernor>();
    if (governor == "DL")
        return std::make_unique<PredictiveGovernor>(makeDl(models));
    if (governor == "EE")
        return std::make_unique<PredictiveGovernor>(makeEe(models));
    if (governor == "DORA")
        return std::make_unique<PredictiveGovernor>(makeDora(models));
    if (governor == "DORA_no_lkg")
        return std::make_unique<PredictiveGovernor>(
            makeDoraNoLeakage(models));
    fatal("makeNamedGovernor: unknown governor '%s'", governor.c_str());
}

RunMeasurement
ComparisonHarness::runOneWith(ExperimentRunner &runner,
                              const WorkloadSpec &workload,
                              const std::string &governor)
{
    const std::unique_ptr<Governor> g = makeGovernor(governor);
    return runner.run(workload, *g);
}

RunMeasurement
ComparisonHarness::runOne(const WorkloadSpec &workload,
                          const std::string &governor)
{
    return runOneWith(runner_, workload, governor);
}

namespace
{

/**
 * Identity of one process-tier campaign: everything that shapes its
 * results (measurement protocol + fault schedule) and its shape
 * (cell count + the caller's grid salt). Journals are keyed by this,
 * so a journal can only resume the exact campaign that wrote it.
 */
uint64_t
procCampaignHash(const ExperimentConfig &config,
                 const FaultInjector *injector, size_t n,
                 uint64_t campaign_salt)
{
    std::ostringstream text;
    text.precision(17);
    text << "proc-campaign " << experimentConfigHash(config)
         << " cells " << n << " salt " << campaign_salt;
    if (injector) {
        const FaultSchedule &s = injector->schedule();
        text << " fault " << s.seed << " " << s.sensorDropProb << " "
             << s.sensorStuckProb << " " << s.sensorNoiseSd << " "
             << s.sensorStuckDurationSec << " " << s.sensorStalenessSec
             << " " << s.actuatorRejectProb << " " << s.actuatorLatchProb
             << " " << s.actuatorLatchDurationSec << " "
             << s.thermalSpikeProb << " " << s.thermalSpikeDeltaC << " "
             << s.thermalSpikeDurationSec;
    }
    return hashLabel(text.str());
}

} // namespace

std::vector<RunMeasurement>
ComparisonHarness::mapWithRunners(
    size_t n, uint64_t campaign_salt,
    const std::function<RunMeasurement(ExperimentRunner &, size_t)> &fn)
{
    const ExperimentConfig config = runner_.config();
    const FaultInjector *shared_injector = runner_.faultInjector();
    CellMapConfig map;
    map.jobs = jobs_;
    map.workers = workers_;
    map.campaignHash =
        procCampaignHash(config, shared_injector, n, campaign_salt);
    map.journalStem = procJournalStem_;
    map.who = "harness";

    static MetricCounter &cells_queued =
        MetricsRegistry::global().counter("harness.cells_queued");
    static MetricCounter &cells_done =
        MetricsRegistry::global().counter("harness.cells_done");
    cells_queued.add(n);
    return mapCells<RunMeasurement>(
        n, map, {serializeRunMeasurement, tryDeserializeRunMeasurement},
        [&](size_t i) {
            ExperimentRunner local(config);
            std::optional<FaultInjector> injector;
            if (shared_injector) {
                injector.emplace(shared_injector->schedule());
                local.setFaultInjector(&*injector);
            }
            RunMeasurement m = fn(local, i);
            cells_done.add();
            return m;
        });
}

std::vector<ComparisonRecord>
ComparisonHarness::runAll(const std::vector<WorkloadSpec> &workloads,
                          const std::vector<std::string> &governors)
{
    const auto &names = governors.empty() ? paperGovernors() : governors;
    const size_t cells = workloads.size() * names.size();
    std::ostringstream salt;
    salt << "runAll";
    for (const auto &w : workloads)
        salt << " " << w.label();
    for (const auto &g : names)
        salt << " " << g;
    std::vector<RunMeasurement> flat = mapWithRunners(
        cells, hashLabel(salt.str()),
        [&](ExperimentRunner &runner, size_t i) {
            const WorkloadSpec &workload = workloads[i / names.size()];
            const std::string &name = names[i % names.size()];
            return runOneWith(runner, workload, name);
        });

    std::vector<ComparisonRecord> records;
    records.reserve(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        ComparisonRecord record;
        record.workload = workloads[w];
        for (size_t g = 0; g < names.size(); ++g)
            record.setMeasurement(names[g],
                                  std::move(flat[w * names.size() + g]));
        records.push_back(std::move(record));
    }
    return records;
}

RunMeasurement
ComparisonHarness::pickOfflineOpt(std::vector<RunMeasurement> sweep) const
{
    const FreqTable &table = runner_.freqTable();
    // A short sweep used to fall through to a default-constructed
    // RunMeasurement (governor "", PPW 0) that silently polluted
    // downstream aggregates; it is a caller bug, so fail loudly.
    if (sweep.size() < table.size())
        fatal("pickOfflineOpt: sweep covers %zu OPPs but the table has "
              "%zu; the offline-optimal search needs every OPP",
              sweep.size(), table.size());
    RunMeasurement best;
    RunMeasurement fastest;
    bool have_meeting = false;
    for (size_t f = 0; f < sweep.size(); ++f) {
        RunMeasurement &m = sweep[f];
        m.governor = "offline_opt";
        if (f == table.maxIndex())
            fastest = m;
        if (m.meetsDeadline && (!have_meeting || m.ppw > best.ppw)) {
            best = m;
            have_meeting = true;
        }
    }
    // Like DORA, fall back to flat-out when no OPP meets the deadline.
    return have_meeting ? best : fastest;
}

RunMeasurement
ComparisonHarness::offlineOpt(const WorkloadSpec &workload)
{
    const size_t freqs = runner_.freqTable().size();
    return pickOfflineOpt(mapWithRunners(
        freqs, hashLabel("offlineOpt " + workload.label()),
        [&](ExperimentRunner &runner, size_t f) {
            return runner.runAtFrequency(workload, f);
        }));
}

std::vector<RunMeasurement>
ComparisonHarness::offlineOptMany(
    const std::vector<WorkloadSpec> &workloads)
{
    const size_t freqs = runner_.freqTable().size();
    std::ostringstream salt;
    salt << "offlineOptMany";
    for (const auto &w : workloads)
        salt << " " << w.label();
    std::vector<RunMeasurement> flat = mapWithRunners(
        workloads.size() * freqs, hashLabel(salt.str()),
        [&](ExperimentRunner &runner, size_t i) {
            return runner.runAtFrequency(workloads[i / freqs], i % freqs);
        });

    std::vector<RunMeasurement> results;
    results.reserve(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        std::vector<RunMeasurement> sweep(
            std::make_move_iterator(flat.begin() + w * freqs),
            std::make_move_iterator(flat.begin() + (w + 1) * freqs));
        results.push_back(pickOfflineOpt(std::move(sweep)));
    }
    return results;
}

namespace
{

/** True when @p record's @p id run or its baseline is censored. */
bool
recordCensored(const ComparisonRecord &record, size_t id)
{
    return record.measurement(id).censored ||
        record.measurement(kInteractiveId).censored;
}

} // namespace

double
meanNormalizedPpw(const std::vector<ComparisonRecord> &records,
                  const std::string &governor)
{
    const size_t id = governorIndex(governor);
    double sum = 0.0;
    size_t counted = 0;
    for (const auto &r : records) {
        // A censored run's PPW of 0 is a flag, not an observation:
        // averaging it would reward governors that fail pages outright
        // over governors that finish them late.
        if (recordCensored(r, id))
            continue;
        sum += r.normalizedPpw(id);
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

size_t
censoredCount(const std::vector<ComparisonRecord> &records,
              const std::string &governor)
{
    const size_t id = governorIndex(governor);
    size_t censored = 0;
    for (const auto &r : records)
        if (recordCensored(r, id))
            ++censored;
    return censored;
}

double
deadlineMeetRate(const std::vector<ComparisonRecord> &records,
                 const std::string &governor)
{
    if (records.empty())
        return 0.0;
    const size_t id = governorIndex(governor);
    double met = 0.0;
    for (const auto &r : records)
        if (r.measurement(id).meetsDeadline)
            met += 1.0;
    return met / static_cast<double>(records.size());
}

} // namespace dora
