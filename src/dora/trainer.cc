#include "dora/trainer.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dora/features.hh"
#include "dora/sample_io.hh"
#include "exec/cell_map.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "power/leakage.hh"

namespace dora
{

Trainer::Trainer(const TrainerConfig &config)
    : config_(config), runner_(config.experiment)
{
    if (config_.trainingFreqIndices.empty())
        config_.trainingFreqIndices =
            defaultTrainingFreqs(runner_.freqTable());
}

uint64_t
trainingConfigHash(const TrainerConfig &config)
{
    std::ostringstream text;
    text.precision(17);
    const ExperimentConfig &e = config.experiment;
    // experimentConfigHash() carries the measurement-protocol revision
    // token, so cached bundles retrain whenever the run recipe changes
    // results (e.g. the rev2 RNG-salt decorrelation).
    text << "protocol " << experimentConfigHash(e);
    text << " deadline " << e.deadlineSec << " warmup " << e.warmupSec
         << " dt " << e.dtSec << " maxload " << e.maxLoadSec
         << " measure " << e.measureSec << " ambient " << e.ambientC
         << " warmdie " << e.warmDieDeltaC;
    text << " freqs";
    for (size_t f : config.trainingFreqIndices)
        text << " " << f;
    text << " chamber";
    for (double a : config.chamberAmbientsC)
        text << " " << a;
    text << " timeridge " << config.timeRidge << " powerridge "
         << config.powerRidge << " maxworkloads "
         << config.maxTrainingWorkloads;
    // config.jobs, config.workers, and config.procJournalStem are
    // deliberately not hashed: parallel and process-tier collection
    // are bit-identical to serial, so the execution tier does not
    // shape the trained coefficients and must not invalidate cached
    // bundles.
    return hashLabel(text.str());
}

std::vector<size_t>
Trainer::defaultTrainingFreqs(const FreqTable &table)
{
    // Ten OPPs spanning all four memory-bus groups (MHz targets).
    const double targets[] = {300.0,  422.4,  729.6,  883.2,  960.0,
                              1190.4, 1497.6, 1728.0, 1958.4, 2265.6};
    std::vector<size_t> indices;
    for (double mhz : targets) {
        const size_t idx = table.nearestIndex(mhz);
        if (indices.empty() || indices.back() != idx)
            indices.push_back(idx);
    }
    return indices;
}

std::vector<TrainingSample>
Trainer::collectSamples(const std::vector<WorkloadSpec> &workloads,
                        const std::vector<size_t> &freq_indices)
{
    for (const auto &workload : workloads)
        if (workload.page == nullptr)
            fatal("Trainer::collectSamples: workload without a page");

    // One cell per (workload, OPP) pair, fanned out through the cell
    // map. Every run constructs its own simulated device, so any tier
    // is bit-identical to the serial loop; results are assembled in
    // grid order (workload-major).
    static MetricCounter &samples_collected =
        MetricsRegistry::global().counter("trainer.samples_collected");
    const size_t freqs = freq_indices.size();
    const size_t cells = workloads.size() * freqs;
    const ExperimentConfig experiment = runner_.config();

    CellMapConfig map;
    map.jobs = config_.jobs ? config_.jobs : defaultJobCount();
    map.workers = config_.workers;
    std::ostringstream salt;
    salt << "collectSamples " << trainingConfigHash(config_)
         << " cells " << cells;
    for (const auto &w : workloads)
        salt << " " << w.label();
    for (size_t f : freq_indices)
        salt << " " << f;
    map.campaignHash = hashLabel(salt.str());
    map.journalStem = config_.procJournalStem;
    map.who = "trainer";

    return mapCells<TrainingSample>(
        cells, map,
        {serializeTrainingSample, tryDeserializeTrainingSample},
        [&](size_t cell) {
            const WorkloadSpec &workload = workloads[cell / freqs];
            const size_t f = freq_indices[cell % freqs];
            ExperimentRunner runner(experiment);
            const RunMeasurement m = runner.runAtFrequency(workload, f);
            samples_collected.add();
            const OperatingPoint &opp = runner.freqTable().opp(f);
            TrainingSample s;
            s.x = buildFeatureVector(workload.page->features,
                                     m.meanL2Mpki, opp.coreMhz,
                                     opp.busMhz, m.meanCorunUtil);
            s.busMhz = opp.busMhz;
            s.voltage = opp.voltage;
            s.loadTimeSec = m.loadTimeSec;
            s.meanPowerW = m.meanPowerW;
            s.meanTempC = m.meanTempC;
            return s;
        });
}

GaussNewtonResult
Trainer::fitLeakage(const std::vector<IdleSample> &samples,
                    double floor_w)
{
    if (samples.size() < 8)
        fatal("Trainer::fitLeakage: need >= 8 idle samples, got %zu",
              samples.size());

    // Six Liao parameters against (idle power - SoC-collapsed floor).
    // The small voltage-dependent uncore clock-tree power remaining in
    // the target is legitimately absorbed by the k2*e^(gamma*v+delta)
    // term.
    auto residual = [&samples, floor_w](const std::vector<double> &p,
                                        size_t i) {
        std::array<double, 6> liao{p[0], p[1], p[2], p[3], p[4], p[5]};
        const LeakageModel model(LeakageParams::fromArray(liao));
        const IdleSample &s = samples[i];
        return (s.powerW - floor_w) - model.power(s.voltage, s.tempC);
    };

    GaussNewtonOptions options;
    options.maxIterations = 400;
    const std::vector<double> initial = {0.30, 0.05, 600.0, -4200.0,
                                         2.5,  -2.5};
    return fitGaussNewton(residual, samples.size(), initial, options);
}

std::vector<std::pair<double, Dataset>>
Trainer::datasetsByBus(const std::vector<TrainingSample> &samples,
                       int target, const LeakageParams *leakage)
{
    std::vector<std::pair<double, Dataset>> groups;
    auto find = [&groups](double bus) -> Dataset & {
        for (auto &g : groups)
            if (g.first == bus)
                return g.second;
        groups.emplace_back(bus, Dataset());
        return groups.back().second;
    };
    for (const auto &s : samples) {
        double y = 0.0;
        switch (target) {
          case 0:
            y = s.loadTimeSec;
            break;
          case 1:
            y = s.meanPowerW;
            break;
          case 2: {
              if (leakage == nullptr)
                  fatal("datasetsByBus: target 2 needs leakage params");
              const LeakageModel model(*leakage);
              y = s.meanPowerW - model.power(s.voltage, s.meanTempC);
              break;
          }
          default:
            fatal("datasetsByBus: unknown target %d", target);
        }
        find(s.busMhz).add(s.x, y);
    }
    return groups;
}

ModelBundle
Trainer::train()
{
    report_ = TrainingReport();
    ModelBundle bundle;

    // Step 1: leakage characterization and fit.
    inform("trainer: idle leakage characterization (%zu ambients)",
           config_.chamberAmbientsC.size());
    const auto idle = runner_.idleCharacterization(
        config_.chamberAmbientsC, 2.0, 0.5,
        config_.jobs ? config_.jobs : defaultJobCount());
    report_.numIdleSamples = idle.size();
    const GaussNewtonResult leak_fit =
        fitLeakage(idle, runner_.socCollapsedFloorW());
    report_.leakageIterations = leak_fit.iterations;
    report_.leakageConverged = leak_fit.converged;
    report_.leakageRmseW = std::sqrt(
        leak_fit.sse / static_cast<double>(idle.size()));
    std::array<double, 6> liao{leak_fit.params[0], leak_fit.params[1],
                               leak_fit.params[2], leak_fit.params[3],
                               leak_fit.params[4], leak_fit.params[5]};
    bundle.leakage = LeakageParams::fromArray(liao);
    bundle.leakageFitted = true;
    inform("trainer: leakage fit rmse %.4f W over %zu samples "
           "(%zu iterations)",
           report_.leakageRmseW, idle.size(), leak_fit.iterations);

    // Step 2: measurement campaign over Webpage-Inclusive workloads.
    auto workloads = WorkloadSets::webpageInclusive();
    if (config_.maxTrainingWorkloads > 0 &&
        workloads.size() > config_.maxTrainingWorkloads)
        workloads.resize(config_.maxTrainingWorkloads);
    inform("trainer: measuring %zu workloads x %zu frequencies",
           workloads.size(), config_.trainingFreqIndices.size());
    samples_ = collectSamples(workloads, config_.trainingFreqIndices);
    report_.numMeasurements = samples_.size();

    // Step 3: piece-wise surface fits.
    double time_err_sum = 0.0, power_err_sum = 0.0;
    size_t time_n = 0, power_n = 0;
    for (const auto &[bus, data] : datasetsByBus(samples_, 0)) {
        if (!bundle.timeModel.fitGroup(bus, data, config_.timeRidge))
            fatal("trainer: singular time fit for bus %g MHz", bus);
        const FitMetrics m = bundle.timeModel.groupFor(bus).evaluate(data);
        time_err_sum += m.meanAbsPctError * static_cast<double>(m.count);
        time_n += m.count;
    }
    for (const auto &[bus, data] :
         datasetsByBus(samples_, 2, &bundle.leakage)) {
        if (!bundle.powerModel.fitGroup(bus, data, config_.powerRidge))
            fatal("trainer: singular power fit for bus %g MHz", bus);
    }
    // Training error of the *total* power prediction (surface plus
    // recomposed leakage) — the quantity DORA actually uses.
    for (const auto &s : samples_) {
        const double pred = bundle.predictTotalPower(
            s.x, s.busMhz, s.voltage, s.meanTempC);
        power_err_sum += std::abs(pred - s.meanPowerW) /
            std::max(1e-9, s.meanPowerW);
        ++power_n;
    }
    report_.timeTrainMeanPctErr =
        time_n ? time_err_sum / static_cast<double>(time_n) : 0.0;
    report_.powerTrainMeanPctErr =
        power_n ? power_err_sum / static_cast<double>(power_n) : 0.0;
    inform("trainer: time fit mean err %.2f%%, power (non-leakage) fit "
           "mean err %.2f%% over %zu measurements",
           100.0 * report_.timeTrainMeanPctErr,
           100.0 * report_.powerTrainMeanPctErr,
           report_.numMeasurements);
    bundle.configHash = trainingConfigHash(config_);
    return bundle;
}

ModelBundle
Trainer::trainCached(const std::string &path)
{
    const uint64_t want_hash = trainingConfigHash(config_);
    ModelBundle cached = ModelBundle::tryLoad(path);
    if (cached.ready()) {
        if (cached.configHash == want_hash) {
            inform("trainer: loaded cached models from %s",
                   path.c_str());
            return cached;
        }
        inform("trainer: %s was trained under a different configuration "
               "(hash %llx != %llx); retraining",
               path.c_str(),
               static_cast<unsigned long long>(cached.configHash),
               static_cast<unsigned long long>(want_hash));
    }
    ModelBundle fresh = train();
    std::string why;
    if (!fresh.validate(&why))
        warn("trainer: freshly trained bundle failed validation (%s); "
             "downstream governors will degrade to their fallback",
             why.c_str());
    if (fresh.save(path))
        inform("trainer: cached models to %s", path.c_str());
    return fresh;
}

} // namespace dora
