#include "mem/address_stream.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/units.hh"

namespace dora
{

namespace
{

/**
 * Process-wide stream-id source. Ids are compared only for equality
 * (phase-change detection), so the allocation order dependence of the
 * raw values is harmless — two live streams never share an id.
 */
uint64_t
nextStreamId()
{
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

ExactModulo::ExactModulo(uint64_t d)
    // ceil(2^128 / d) == floor((2^128 - 1) / d) + 1, wrapping to 0 at
    // d = 1; a zero divisor has no remainder to compute.
    : c_(d ? ~Uint128(0) / d + 1 : 0), d_(d)
{
    if (d == 0)
        panic("ExactModulo: zero divisor");
}

uint64_t
chanceThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return uint64_t(1) << 53;
    // p * 2^53 only moves the exponent, so it is exact, and so is ceil.
    return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

AddressStream::AddressStream(const AddressStreamSpec &spec,
                             uint64_t base_line, Rng rng)
    : spec_(spec), baseLine_(base_line), rng_(rng),
      streamId_(nextStreamId())
{
    reshape(spec);
    generation_ = 0;  // construction is generation 0, not a reshape
}

void
AddressStream::reshape(const AddressStreamSpec &spec)
{
    if (spec.workingSetBytes < kCacheLineBytes)
        panic("AddressStream: working set smaller than one line");
    if (spec.hotSetFraction <= 0.0 || spec.hotSetFraction > 1.0)
        panic("AddressStream: hotSetFraction %g out of (0,1]",
              spec.hotSetFraction);
    spec_ = spec;
    wsLines_ = std::max<uint64_t>(1, spec.workingSetBytes / kCacheLineBytes);
    hotLines_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(wsLines_) * spec.hotSetFraction));
    burstLeft_ = 0;
    cursor_ = 0;
    ++generation_;
    derive();
}

void
AddressStream::derive()
{
    hotMod_ = ExactModulo(hotLines_);
    wsMod_ = ExactModulo(wsLines_);
    hotThreshold_ = chanceThreshold(spec_.hotFraction);
    burstThreshold_ = chanceThreshold(spec_.burstContinueProb);
}

uint64_t
AddressStream::next()
{
    if (burstLeft_ == 0) {
        // Start a new burst: draw the region and the burst length up
        // front, then pick a random line within the region. The draw
        // is < span <= wsLines_, so the cursor invariant holds.
        const bool hot = rng_.chance(spec_.hotFraction);
        const uint64_t span = hot ? hotLines_ : wsLines_;
        cursor_ = rng_.below(span);
        burstLeft_ = rng_.burstLength(spec_.burstContinueProb,
                                      spec_.burstCap);
    }
    --burstLeft_;
    // cursor_ < wsLines_ by invariant; a conditional wrap keeps it so,
    // emitting the same base + ((start + k) mod wsLines) sequence the
    // old per-access modulo produced without the divide.
    const uint64_t line = baseLine_ + cursor_;
    if (++cursor_ == wsLines_)
        cursor_ = 0;
    return line;
}

void
AddressStream::nextRuns(uint64_t *out, uint32_t n)
{
    // Mirrors next() exactly: a new burst draws region, start line, and
    // length in the same order from the same generator, and the burst
    // then advances the cursor one line per access (wrapping at the
    // working-set edge, with the burst continuing across the wrap).
    // The draws are Rng::chance/below/burstLength in integer form:
    // `(x >> 11) < threshold` for `uniform() < p` and the precomputed
    // reciprocal for `x % span`. A new burst emits each line as the
    // draw that extends it succeeds, so drawing the length and filling
    // the lines is one loop with one unpredictable exit per burst. If
    // the request ends first, the remaining continue draws are still
    // made, as next() makes them all up front, and the lines not yet
    // emitted carry over in burstLeft_. The generator is a local copy
    // so its words stay in registers across the stores to @p out.
    Rng rng = rng_;
    uint64_t cur = cursor_;
    uint64_t left = burstLeft_;
    const uint64_t ws = wsLines_;
    const uint64_t base = baseLine_;
    const uint64_t cap = spec_.burstCap;
    const uint64_t hot_threshold = hotThreshold_;
    const uint64_t burst_threshold = burstThreshold_;
    const ExactModulo hot_mod = hotMod_;
    const ExactModulo ws_mod = wsMod_;
    uint32_t i = 0;
    // dora:lane-kernel-begin
    // The rest of a burst an earlier call drew: sequential fills capped
    // by the burst, the request and the lines left before the wrap.
    while (left > 0 && i < n) {
        uint64_t k = left;
        if (k > n - i)
            k = n - i;
        if (k > ws - cur)
            k = ws - cur;
        const uint64_t first = base + cur;
        for (uint64_t j = 0; j < k; ++j)
            out[i + j] = first + j;
        i += static_cast<uint32_t>(k);
        cur += k;
        left -= k;
        if (cur == ws)
            cur = 0;
    }
    while (i < n) {
        const bool hot = (rng.next() >> 11) < hot_threshold;
        const uint64_t draw = rng.next();
        cur = hot ? hot_mod(draw) : ws_mod(draw);
        uint64_t len = 0;
        do {
            ++len;
            if (i < n) {
                out[i++] = base + cur;
                cur = cur + 1 == ws ? 0 : cur + 1;
            } else {
                ++left;
            }
        } while (len < cap && (rng.next() >> 11) < burst_threshold);
    }
    // dora:lane-kernel-end
    rng_ = rng;
    cursor_ = cur;
    burstLeft_ = left;
}

void
AddressStream::snapshot(SnapshotWriter &w) const
{
    w.beginSection("astr", 1);
    w.putU64(streamId_);
    w.putU64(spec_.workingSetBytes);
    w.putDouble(spec_.hotFraction);
    w.putDouble(spec_.hotSetFraction);
    w.putDouble(spec_.burstContinueProb);
    w.putU64(spec_.burstCap);
    w.putU64(baseLine_);
    w.putU64(wsLines_);
    w.putU64(hotLines_);
    const Rng::State rng = rng_.state();
    for (uint64_t word : rng.s)
        w.putU64(word);
    w.putU64(generation_);
    w.putU64(cursor_);
    w.putU64(burstLeft_);
}

bool
AddressStream::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("astr", 1))
        return false;
    uint64_t stream_id;
    AddressStreamSpec spec;
    uint64_t base_line, ws_lines, hot_lines;
    Rng::State rng;
    uint64_t generation, cursor, burst_left;
    if (!r.getU64(&stream_id) || stream_id != streamId_ ||
        !r.getU64(&spec.workingSetBytes) ||
        !r.getDouble(&spec.hotFraction) ||
        !r.getDouble(&spec.hotSetFraction) ||
        !r.getDouble(&spec.burstContinueProb) ||
        !r.getU64(&spec.burstCap) || !r.getU64(&base_line) ||
        !r.getU64(&ws_lines) || !r.getU64(&hot_lines))
        return false;
    for (uint64_t &word : rng.s)
        if (!r.getU64(&word))
            return false;
    // Zero spans never occur in a real snapshot; rejecting them keeps
    // derive() from dividing by zero on a corrupt one.
    if (!r.getU64(&generation) || !r.getU64(&cursor) ||
        !r.getU64(&burst_left) || ws_lines == 0 || hot_lines == 0)
        return false;
    spec_ = spec;
    baseLine_ = base_line;
    wsLines_ = ws_lines;
    hotLines_ = hot_lines;
    rng_.setState(rng);
    generation_ = generation;
    cursor_ = cursor;
    burstLeft_ = burst_left;
    derive();
    return true;
}

} // namespace dora
