/**
 * @file
 * One executor for every cell grid of the evaluation: the governor
 * comparison and Offline_opt grids (harness/comparison) and the
 * training sweep (dora/trainer).
 *
 * A grid is n independent, deterministic cells keyed by index. Each
 * cell builds its own simulated device, so the results are the same
 * at any tier:
 *
 *   - in-process: parallelMap() over @c jobs threads (jobs = 1 is the
 *     plain serial loop in the calling thread);
 *   - process tier (@c workers > 0): runProcSweep() shards the cells
 *     across worker subprocesses. Payloads cross the pipe and the
 *     resume journal `<journalStem>.<campaignHash>.jrn` through the
 *     caller's codec. A quarantined cell is recomputed in-process, so
 *     a deterministic crash surfaces in a debuggable process, and a
 *     payload that does not decode is fatal.
 *
 * The fleet engine keeps its own chunk executor: its units are chunk
 * aggregates folded in a streaming checkpointed prefix, not cells.
 */

#ifndef DORA_EXEC_CELL_MAP_HH
#define DORA_EXEC_CELL_MAP_HH

#include <csignal>
#include <cstdint>
#include <functional>
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
 * results[i] == cell(i) for i in [0, n), at any tier of @p config.
 * The cell must not touch shared mutable state; under the process
 * tier it runs in a forked worker.
 */
template <typename R>
std::vector<R>
mapCells(size_t n, const CellMapConfig &config, const CellCodec<R> &codec,
         const std::function<R(size_t)> &cell)
{
    if (config.workers == 0 || n == 0)
        return parallelMap<R>(n, cell, config.jobs);

    ProcSweepConfig proc;
    proc.workers = config.workers;
    proc.campaignHash = config.campaignHash;
    if (!config.journalStem.empty())
        proc.journalPath = config.journalStem + "." +
            hexU64(config.campaignHash) + ".jrn";

    const ProcSweepReport report =
        runProcSweep(proc, n, [&](uint64_t unit) {
            return codec.encode(cell(static_cast<size_t>(unit)));
        });

    if (report.drained) {
        // Progress (if journaled) is durable; exit the way a Ctrl-C'd
        // process should so callers/scripts see the conventional
        // signal status. A rerun resumes from the journal.
        warn("%s: campaign interrupted by signal %d with %llu cells "
             "journaled; re-run to resume",
             config.who, report.drainSignal,
             static_cast<unsigned long long>(report.unitsRun +
                                             report.unitsResumed));
        ::raise(report.drainSignal);
        fatal("%s: campaign interrupted", config.who);
    }

    std::vector<R> results(n);
    for (size_t i = 0; i < n; ++i) {
        if (!report.completed[i]) {
            warn("%s: cell %zu was quarantined by the process tier; "
                 "recomputing in-process",
                 config.who, i);
            results[i] = cell(i);
            continue;
        }
        if (!codec.decode(report.results[i], &results[i]))
            fatal("%s: cell %zu payload from the process tier does not "
                  "decode (journal from an older build?); delete the "
                  "journal and re-run",
                  config.who, i);
    }
    return results;
}

} // namespace dora

#endif // DORA_EXEC_CELL_MAP_HH
