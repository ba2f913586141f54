/**
 * @file
 * Governor-comparison harness behind Figures 7, 8, and 9: runs a set of
 * workloads under every governor the paper compares (interactive,
 * performance, DL, EE, DORA) and normalizes energy efficiency to the
 * interactive baseline.
 *
 * Every cell of a comparison (workload x governor) is an independent
 * simulation on a freshly constructed device, so the harness fans the
 * cells out through the cell map (exec/cell_map.hh): threads, or
 * worker processes with a resume journal. Results are bit-identical
 * to the serial order at any job or worker count.
 */

#ifndef DORA_HARNESS_COMPARISON_HH
#define DORA_HARNESS_COMPARISON_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dora/model_bundle.hh"
#include "dora/predictive_governor.hh"
#include "runner/experiment.hh"

namespace dora
{

class FaultInjector;

/**
 * Registry of governor names the harness can run. The index of a name
 * is its storage key inside ComparisonRecord (a small dense id, stable
 * for the life of the process).
 */
size_t governorCount();

/** Dense id of @p name; fatal() on an unknown governor. */
size_t governorIndex(const std::string &name);

/** Name of the governor with dense id @p index; fatal() out of range. */
const std::string &governorName(size_t index);

/**
 * Fresh governor instance by registry name; fatal() on an unknown
 * name. The predictive governors (DL, EE, DORA, DORA_no_lkg) require
 * a trained @p models bundle; the kernel governors ignore it. Shared
 * by the comparison harness and the fleet campaign engine.
 */
std::unique_ptr<Governor>
makeNamedGovernor(const std::string &name,
                  const std::shared_ptr<const ModelBundle> &models);

/** Results of one workload under every compared governor. */
struct ComparisonRecord
{
    WorkloadSpec workload;

    /** Store @p m as the measurement of governor @p index. */
    void setMeasurement(size_t index, RunMeasurement m);

    /** String-keyed shim for setMeasurement(governorIndex(name), m). */
    void setMeasurement(const std::string &governor, RunMeasurement m);

    /** Whether governor @p index has a stored measurement. */
    bool hasMeasurement(size_t index) const;

    /** Measurement of governor @p index; fatal() if missing. */
    const RunMeasurement &measurement(size_t index) const;

    /** String-keyed shim for measurement(governorIndex(governor)). */
    const RunMeasurement &measurement(const std::string &governor) const;

    /** PPW of governor @p index normalized to interactive. */
    double normalizedPpw(size_t index) const;

    /** String-keyed shim for normalizedPpw(governorIndex(governor)). */
    double normalizedPpw(const std::string &governor) const;

  private:
    /**
     * Flat per-governor storage, indexed by the dense registry id.
     * Grown lazily to the highest stored id; presence is a bitmask so
     * lookups on the bench hot loop are two array reads, not a
     * string-keyed tree walk.
     */
    std::vector<RunMeasurement> slots_;
    uint32_t presentMask_ = 0;
};

/**
 * Owns the governor set and runs comparisons.
 */
class ComparisonHarness
{
  public:
    /**
     * @param config  per-run configuration (deadline etc.)
     * @param models  trained bundle for the predictive governors
     * @param jobs    parallelism for runAll()/offlineOpt() fan-outs
     *                (0 = defaultJobCount(); 1 = serial loop)
     */
    ComparisonHarness(const ExperimentConfig &config,
                      std::shared_ptr<const ModelBundle> models,
                      unsigned jobs = 0);

    /** Parallelism used for comparison fan-outs. */
    unsigned jobs() const { return jobs_; }

    /**
     * Route fan-outs through the crash-resilient process tier
     * (exec/proc): @p workers worker subprocesses per campaign.
     * 0 (the default) keeps everything in-process on the thread
     * pool. Results under
     * any worker count are bit-identical to workers=0: cells are
     * keyed by grid index and every cell constructs its own device.
     */
    void setWorkers(unsigned workers) { workers_ = workers; }
    unsigned workers() const { return workers_; }

    /**
     * Enable checkpoint/resume for process-tier campaigns: completed
     * cells are journaled to `<stem>.<campaign-hash>.jrn` and a rerun
     * resumes from the journal instead of recomputing them. The hash
     * covers the experiment config, fault schedule, and campaign
     * shape, so a stale journal from a different sweep is refused.
     * Empty (the default) disables journaling. No effect at workers=0.
     */
    void setProcJournalStem(std::string stem)
    {
        procJournalStem_ = std::move(stem);
    }

    /**
     * Run @p workloads under every governor in the comparison set.
     * @param governors subset of {"interactive", "performance", "DL",
     *        "EE", "DORA", "DORA_no_lkg", "powersave"}; empty = the
     *        paper's five.
     */
    std::vector<ComparisonRecord>
    runAll(const std::vector<WorkloadSpec> &workloads,
           const std::vector<std::string> &governors = {});

    /** Run one workload under one named governor. */
    RunMeasurement runOne(const WorkloadSpec &workload,
                          const std::string &governor);

    /**
     * Offline-optimal search: the single pinned OPP maximizing PPW
     * subject to the deadline (the paper's Offline_opt reference).
     * @return the best measurement (pinned-frequency run)
     */
    RunMeasurement offlineOpt(const WorkloadSpec &workload);

    /**
     * offlineOpt() for a batch of workloads. The whole workload x
     * frequency grid is fanned out jointly, so parallelism is not
     * limited by the OPP count of a single sweep. Result i corresponds
     * to workloads[i].
     */
    std::vector<RunMeasurement>
    offlineOptMany(const std::vector<WorkloadSpec> &workloads);

    /** The underlying runner (for config access). */
    ExperimentRunner &runner() { return runner_; }

    /** Default governor list used when runAll() gets an empty set. */
    static const std::vector<std::string> &paperGovernors();

    /**
     * Select the offline-opt winner from an ascending-OPP sweep. The
     * sweep must cover the full OPP table (fatal() otherwise — a short
     * sweep once yielded a silent default-constructed result). Public
     * so tests and custom sweep drivers can reuse the selection rule.
     */
    RunMeasurement pickOfflineOpt(std::vector<RunMeasurement> sweep) const;

  private:
    /** runOne() against an explicit runner (per-cell runners). */
    RunMeasurement runOneWith(ExperimentRunner &runner,
                              const WorkloadSpec &workload,
                              const std::string &governor);

    /** Fresh governor instance by registry name; fatal() on unknown. */
    std::unique_ptr<Governor> makeGovernor(const std::string &name) const;

    /**
     * Run fn(runner, i) for i in [0, n) through the cell map
     * (exec/cell_map.hh) at this harness's jobs/workers. Every cell
     * gets a runner cloned from runner_: same config and, when a fault
     * injector is attached, a private injector built from the same
     * schedule. Injectors reset at the start of every run, so a clone
     * reproduces the member injector's per-run fault stream exactly.
     * @p campaign_salt distinguishes campaigns of the same size for
     * the journal identity.
     */
    std::vector<RunMeasurement> mapWithRunners(
        size_t n, uint64_t campaign_salt,
        const std::function<RunMeasurement(ExperimentRunner &, size_t)>
            &fn);

    ExperimentRunner runner_;
    std::shared_ptr<const ModelBundle> models_;
    unsigned jobs_;
    unsigned workers_ = 0;
    std::string procJournalStem_;
};

/**
 * Mean of normalized PPW for @p governor over @p records. Censored
 * records — the governor's run or its interactive baseline never
 * finished the page — are excluded from the mean (their PPW of 0 is a
 * flag, not a score); report them via censoredCount() alongside.
 * Returns 0 when every record is censored.
 */
double meanNormalizedPpw(const std::vector<ComparisonRecord> &records,
                         const std::string &governor);

/**
 * Fraction of records whose @p governor run met the deadline. Censored
 * runs count as misses (the page provably did not finish in time), so
 * the denominator is all records.
 */
double deadlineMeetRate(const std::vector<ComparisonRecord> &records,
                        const std::string &governor);

/**
 * Number of records excluded from meanNormalizedPpw() for @p governor:
 * the governor's own run or its interactive baseline is censored.
 */
size_t censoredCount(const std::vector<ComparisonRecord> &records,
                     const std::string &governor);

} // namespace dora

#endif // DORA_HARNESS_COMPARISON_HH
