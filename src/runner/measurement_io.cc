#include "runner/measurement_io.hh"

#include <utility>

#include "common/snapshot.hh"

namespace dora
{

namespace
{

constexpr std::string_view kTag = "meas";
constexpr uint32_t kVersion = 1;

} // namespace

std::string
serializeRunMeasurement(const RunMeasurement &m)
{
    SnapshotWriter w;
    w.beginSection(kTag, kVersion);
    w.putString(m.workload);
    w.putString(m.governor);
    w.putDouble(m.loadTimeSec);
    w.putBool(m.pageFinished);
    w.putBool(m.meetsDeadline);
    w.putBool(m.censored);
    w.putDouble(m.energyJ);
    w.putDouble(m.meanPowerW);
    w.putDouble(m.ppw);
    w.putDouble(m.meanL2Mpki);
    w.putDouble(m.meanCorunUtil);
    w.putDouble(m.meanTempC);
    w.putDouble(m.peakTempC);
    w.putDouble(m.meanFreqMhz);
    w.putU64(m.freqSwitches);
    w.putDoubles(m.freqResidencySec);
    w.putSize(m.decisions.size());
    for (const DecisionRecord &d : m.decisions) {
        w.putDouble(d.tSec);
        w.putSize(d.freqIndex);
        w.putSize(d.requestedFreqIndex);
        w.putDouble(d.l2Mpki);
        w.putDouble(d.corunUtil);
        w.putDouble(d.temperatureC);
    }
    w.putDouble(m.meanBreakdown.baseline);
    w.putDouble(m.meanBreakdown.coreDynamic);
    w.putDouble(m.meanBreakdown.l2Traffic);
    w.putDouble(m.meanBreakdown.dram);
    w.putDouble(m.meanBreakdown.leakage);
    w.putDouble(m.meanBreakdown.dvfsSwitch);
    return w.finish();
}

bool
tryDeserializeRunMeasurement(std::string_view bytes,
                             RunMeasurement *out)
{
    SnapshotReader r(bytes);
    if (!r.checksumOk() || !r.beginSection(kTag, kVersion))
        return false;

    RunMeasurement m;
    size_t decisions = 0;
    if (!r.getString(&m.workload) || !r.getString(&m.governor) ||
        !r.getDouble(&m.loadTimeSec) || !r.getBool(&m.pageFinished) ||
        !r.getBool(&m.meetsDeadline) || !r.getBool(&m.censored) ||
        !r.getDouble(&m.energyJ) || !r.getDouble(&m.meanPowerW) ||
        !r.getDouble(&m.ppw) || !r.getDouble(&m.meanL2Mpki) ||
        !r.getDouble(&m.meanCorunUtil) || !r.getDouble(&m.meanTempC) ||
        !r.getDouble(&m.peakTempC) || !r.getDouble(&m.meanFreqMhz) ||
        !r.getU64(&m.freqSwitches) ||
        !r.getDoubles(&m.freqResidencySec) || !r.getSize(&decisions))
        return false;
    m.decisions.resize(decisions);
    for (DecisionRecord &d : m.decisions) {
        if (!r.getDouble(&d.tSec) || !r.getSize(&d.freqIndex) ||
            !r.getSize(&d.requestedFreqIndex) ||
            !r.getDouble(&d.l2Mpki) || !r.getDouble(&d.corunUtil) ||
            !r.getDouble(&d.temperatureC))
            return false;
    }
    PowerBreakdown &b = m.meanBreakdown;
    if (!r.getDouble(&b.baseline) || !r.getDouble(&b.coreDynamic) ||
        !r.getDouble(&b.l2Traffic) || !r.getDouble(&b.dram) ||
        !r.getDouble(&b.leakage) || !r.getDouble(&b.dvfsSwitch))
        return false;
    if (!r.atEnd())
        return false;
    *out = std::move(m);
    return true;
}

} // namespace dora
