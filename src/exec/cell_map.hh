/**
 * @file
 * One executor for every cell grid of the evaluation: the governor
 * comparison and Offline_opt grids (harness/comparison), the training
 * sweep (dora/trainer) and the fleet campaign, whose cells are chunk
 * aggregates (fleet/campaign).
 *
 * A grid is n independent, deterministic cells keyed by index. Each
 * cell builds its own simulated device, so the results are the same
 * at any tier:
 *
 *   - in-process: the serial loop in the calling thread (jobs = 1), or
 *     parallelMap() over @c jobs threads;
 *   - process tier (@c workers > 0): runProcSweep() shards the cells
 *     across worker subprocesses. Payloads cross the pipe and the
 *     resume journal `<journalStem>.<campaignHash>.jrn` through the
 *     caller's codec. A quarantined cell is recomputed in-process, so
 *     a deterministic crash surfaces in a debuggable process, and a
 *     payload that does not decode is fatal.
 *
 * foldCells() hands every result to the caller's absorb in index
 * order at every tier; mapCells() is the fold into a vector. A fold
 * may carry a checkpoint of its prefix (FoldCheckpoint), which the
 * process tier never dispatches and whose durable floor compacts the
 * journal.
 */

#ifndef DORA_EXEC_CELL_MAP_HH
#define DORA_EXEC_CELL_MAP_HH

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "exec/proc/supervisor.hh"
#include "exec/thread_pool.hh"
#include "obs/trace.hh"

namespace dora
{

/** Bit-exact encode/decode of one cell result for the process tier. */
template <typename R>
struct CellCodec
{
    std::string (*encode)(const R &);
    bool (*decode)(std::string_view, R *);
};

/** Tier and identity of one cell map. */
struct CellMapConfig
{
    unsigned jobs = 1;     //!< thread tier width (resolved, >= 1)
    unsigned workers = 0;  //!< process tier width (0 = in-process)
    /** Identity of the campaign; names and guards its journal. */
    uint64_t campaignHash = 0;
    /** Journal stem (process tier); empty disables journaling. */
    std::string journalStem;
    /** Prefix of the map's diagnostics ("harness", "trainer"). */
    const char *who = "cells";
};

/**
 * A fold's checkpoint of its own prefix, held outside the journal
 * (the fleet's aggregate checkpoint).
 */
struct FoldCheckpoint
{
    /** Cells [0, prefix) are already folded: never run or absorbed. */
    size_t prefix = 0;
    /**
     * Called after each absorb with the folded prefix length; returns
     * the durable floor, below which the journal drops its records.
     */
    std::function<size_t(size_t folded)> save;
};

/**
 * absorb(i, cell(i)) for i in [checkpoint.prefix, n), each index once
 * and in index order, at any tier of @p config. The cell must not
 * touch shared mutable state; under the process tier it runs in a
 * forked worker while absorb runs in the supervisor as results land.
 */
template <typename R>
void
foldCells(size_t n, const CellMapConfig &config, const CellCodec<R> &codec,
          const std::function<R(size_t)> &cell,
          const std::function<void(size_t, R &&)> &absorb,
          const FoldCheckpoint &checkpoint = {})
{
    size_t next = std::min(checkpoint.prefix, n);  // next index to absorb
    size_t durable = next;  // the caller's durable floor
    const auto fold = [&](R &&result) {
        absorb(next, std::move(result));
        ++next;
        if (checkpoint.save)
            durable = checkpoint.save(next);
    };

    if (config.workers == 0 || n == 0) {
        if (config.jobs <= 1 || n - next <= 1) {
            while (next < n)
                fold(cell(next));
            return;
        }
        const size_t first = next;
        std::vector<R> results = parallelMap<R>(
            n - first, [&](size_t i) { return cell(first + i); },
            config.jobs);
        for (R &result : results)
            fold(std::move(result));
        return;
    }

    ProcSweepConfig proc;
    proc.workers = config.workers;
    proc.campaignHash = config.campaignHash;
    proc.precompletedPrefix = next;
    if (!config.journalStem.empty())
        proc.journalPath = config.journalStem + "." +
            hexU64(config.campaignHash) + ".jrn";

    // Cells land in any order; an early one waits here for its turn.
    std::map<size_t, R> parked;
    const auto foldParked = [&] {
        while (!parked.empty() && parked.begin()->first == next) {
            fold(std::move(parked.begin()->second));
            parked.erase(parked.begin());
        }
    };
    proc.onUnitComplete = [&](uint64_t unit,
                              const std::string &payload) -> uint64_t {
        R result;
        if (!codec.decode(payload, &result))
            fatal("%s: cell %llu payload from the process tier does not "
                  "decode (journal from an older build?); delete the "
                  "journal and re-run",
                  config.who, static_cast<unsigned long long>(unit));
        parked.emplace(static_cast<size_t>(unit), std::move(result));
        foldParked();
        return durable;
    };

    const ProcSweepReport report =
        runProcSweep(proc, n, [&](uint64_t unit) {
            return codec.encode(cell(static_cast<size_t>(unit)));
        });

    if (report.drained) {
        // Progress (if journaled) is durable; exit the way a Ctrl-C'd
        // process should so callers/scripts see the conventional
        // signal status. A rerun resumes from the journal.
        warn("%s: campaign interrupted by signal %d with %llu cells "
             "durable; re-run to resume",
             config.who, report.drainSignal,
             static_cast<unsigned long long>(report.unitsRun +
                                             report.unitsResumed +
                                             report.unitsPrecompleted));
        ::raise(report.drainSignal);
        fatal("%s: campaign interrupted", config.who);
    }

    // Quarantined cells leave holes; recompute them in order.
    for (foldParked(); next < n; foldParked()) {
        warn("%s: cell %zu was quarantined by the process tier; "
             "recomputing in-process",
             config.who, next);
        fold(cell(next));
    }
}

/** results[i] == cell(i) for i in [0, n), at any tier of @p config. */
template <typename R>
std::vector<R>
mapCells(size_t n, const CellMapConfig &config, const CellCodec<R> &codec,
         const std::function<R(size_t)> &cell)
{
    std::vector<R> results(n);
    foldCells<R>(n, config, codec, cell, [&](size_t i, R &&result) {
        results[i] = std::move(result);
    });
    return results;
}

} // namespace dora

#endif // DORA_EXEC_CELL_MAP_HH
