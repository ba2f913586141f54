#include "soc/soc.hh"

#include <algorithm>

#include "common/exact_ticks.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace dora
{

namespace
{

MemSystemConfig
withCoreCount(MemSystemConfig mem, uint32_t cores)
{
    mem.numCores = cores;
    return mem;
}

} // namespace

Soc::Soc(const SocConfig &config, FreqTable freq_table)
    : config_(config), freqTable_(std::move(freq_table)),
      mem_(withCoreCount(config.mem, config.numCores)),
      sampling_(config.sampling, exactTicksMode()),
      freqIndex_(freqTable_.maxIndex())
{
    if (config.numCores == 0)
        fatal("Soc: need at least one core");
    sampling_.setL2Lines(mem_.config().l2.sizeBytes /
                         mem_.config().l2.lineBytes);
    cores_.reserve(config.numCores);
    for (uint32_t c = 0; c < config.numCores; ++c)
        cores_.emplace_back(c, config.coreTiming);
}

Soc
Soc::nexus5(const SocConfig &config)
{
    return Soc(config, FreqTable::msm8974());
}

SocTickSummary
Soc::tick(const std::vector<TaskDemand> &demands, double dt_sec)
{
    SocTickSummary summary;
    tick(demands, dt_sec, summary);
    return summary;
}

void
Soc::tick(const std::vector<TaskDemand> &demands, double dt_sec,
          SocTickSummary &summary)
{
    if (tickBegin(demands, dt_sec))
        tickWalkLocal();
    tickFinish(dt_sec, summary);
}

bool
Soc::tickBegin(const std::vector<TaskDemand> &demands, double dt_sec)
{
    if (demands.size() != cores_.size())
        panic("Soc::tick: %zu demands for %zu cores", demands.size(),
              cores_.size());
    if (dt_sec <= 0.0)
        panic("Soc::tick: non-positive dt");

    const OperatingPoint &opp = freqTable_.opp(freqIndex_);

    // Apply any pending DVFS transition stall as a duty-cycle haircut on
    // this tick (transitions are much shorter than a tick).
    double stall_fraction = 0.0;
    if (pendingSwitchStallSec_ > 0.0) {
        stall_fraction = std::min(1.0, pendingSwitchStallSec_ / dt_sec);
        pendingSwitchStallSec_ = 0.0;
    }

    auto &effective = effectiveScratch_;
    effective.assign(demands.begin(), demands.end());
    if (stall_fraction > 0.0)
        for (auto &demand : effective)
            demand.dutyCycle *= (1.0 - stall_fraction);

    // Phase 1: size each core's address sample.
    auto &requests = requestScratch_;
    requests.clear();
    requests.reserve(cores_.size());
    for (uint32_t c = 0; c < cores_.size(); ++c)
        requests.push_back(
            cores_[c].planTick(effective[c], dt_sec, opp.coreMhz));

    // Phase 2: interleaved shared-hierarchy walk — or, in adaptive
    // mode, reuse of the converged rates cached for this phase
    // signature (stream identities/generations + OPP + interleaving).
    if (sampling_.beginTick(requests, freqIndex_,
                            mem_.config().interleaveChunk))
        return true;
    sampling_.fill(resultScratch_);
    return false;
}

void
Soc::tickWalkLocal()
{
    mem_.tickSample(requestScratch_, resultScratch_);
    sampling_.store(resultScratch_);
}

void
Soc::tickFinish(double dt_sec, SocTickSummary &summary)
{
    const OperatingPoint &opp = freqTable_.opp(freqIndex_);
    const auto &effective = effectiveScratch_;
    const auto &sample_results = resultScratch_;

    // Phase 3: timing + accounting.
    summary.perCore.clear();
    summary.perCore.reserve(cores_.size());
    summary.busMhz = opp.busMhz;
    summary.coreMhz = opp.coreMhz;
    summary.voltage = opp.voltage;
    for (uint32_t c = 0; c < cores_.size(); ++c)
        summary.perCore.push_back(cores_[c].finishTick(
            effective[c], sample_results[c], dt_sec, opp.coreMhz, mem_));

    mem_.endTick(dt_sec, opp.busMhz);
    summary.dramEnergyJ = mem_.dramLastTickEnergyJ();
    summary.dramUtilization = mem_.dramUtilization();
    summary.switchEnergyJ = pendingSwitchEnergyJ_;
    pendingSwitchEnergyJ_ = 0.0;

    elapsedSeconds_ += dt_sec;
}

void
Soc::setFrequencyIndex(size_t idx)
{
    if (idx >= freqTable_.size())
        panic("Soc::setFrequencyIndex: index %zu out of range", idx);
    if (idx == freqIndex_)
        return;
    freqIndex_ = idx;
    ++switchCount_;
    pendingSwitchStallSec_ += config_.freqSwitchPenaltySec;
    pendingSwitchEnergyJ_ += config_.freqSwitchEnergyJ;
    switchStallSeconds_ += config_.freqSwitchPenaltySec;
}

const OperatingPoint &
Soc::operatingPoint() const
{
    return freqTable_.opp(freqIndex_);
}

const CoreModel &
Soc::core(uint32_t idx) const
{
    if (idx >= cores_.size())
        panic("Soc::core: index %u out of range", idx);
    return cores_[idx];
}

PerfSnapshot
Soc::perfSnapshot() const
{
    PerfSnapshot snap;
    snap.seconds = elapsedSeconds_;
    snap.coreInstructions.reserve(cores_.size());
    snap.coreBusySeconds.reserve(cores_.size());
    for (const auto &core : cores_) {
        snap.coreInstructions.push_back(core.totalInstructions());
        snap.coreBusySeconds.push_back(core.totalBusySeconds());
        snap.totalInstructions += core.totalInstructions();
    }
    snap.totalL2Misses = mem_.totalCounters().l2Misses;
    return snap;
}

void
Soc::reset()
{
    mem_.reset();
    sampling_.reset();
    for (auto &core : cores_)
        core.reset();
    freqIndex_ = freqTable_.maxIndex();
    pendingSwitchStallSec_ = 0.0;
    pendingSwitchEnergyJ_ = 0.0;
    switchCount_ = 0;
    switchStallSeconds_ = 0.0;
    elapsedSeconds_ = 0.0;
}

void
Soc::snapshot(SnapshotWriter &w) const
{
    w.beginSection("soc ", 1);
    w.putSize(freqIndex_);
    w.putDouble(pendingSwitchStallSec_);
    w.putDouble(pendingSwitchEnergyJ_);
    w.putU64(switchCount_);
    w.putDouble(switchStallSeconds_);
    w.putDouble(elapsedSeconds_);
    w.putSize(cores_.size());
    for (const auto &core : cores_)
        core.snapshot(w);
    mem_.snapshot(w);
    sampling_.snapshot(w);
}

bool
Soc::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("soc ", 1))
        return false;
    size_t freq_index;
    double pending_stall, pending_energy, switch_stall, elapsed;
    uint64_t switch_count;
    size_t core_count;
    if (!r.getSize(&freq_index) || freq_index >= freqTable_.size() ||
        !r.getDouble(&pending_stall) || !r.getDouble(&pending_energy) ||
        !r.getU64(&switch_count) || !r.getDouble(&switch_stall) ||
        !r.getDouble(&elapsed) || !r.getSize(&core_count) ||
        core_count != cores_.size())
        return false;
    for (auto &core : cores_)
        if (!core.tryRestore(r))
            return false;
    if (!mem_.tryRestore(r) || !sampling_.tryRestore(r))
        return false;
    freqIndex_ = freq_index;
    pendingSwitchStallSec_ = pending_stall;
    pendingSwitchEnergyJ_ = pending_energy;
    switchCount_ = switch_count;
    switchStallSeconds_ = switch_stall;
    elapsedSeconds_ = elapsed;
    return true;
}

} // namespace dora
