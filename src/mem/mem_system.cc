#include "mem/mem_system.hh"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/units.hh"
#include "mem/address_stream.hh"

namespace dora
{

namespace
{

/** Geometry the batched walk kernel covers (batchedWalkEligible()). */
constexpr uint32_t kL1Ways = 4;
constexpr uint32_t kL2Ways = 8;

/**
 * Bitmask of the ways in an 8-way tag row whose tag equals @p tag
 * (validity is the caller's problem). Baseline SSE2 has no 64-bit
 * equality, so each 128-bit lane pair is compared as 32-bit lanes and
 * a 64-bit way matches iff both of its movemask byte-halves are full.
 */
inline uint32_t
tagMatchMask8(const uint64_t *row, uint64_t tag)
{
    uint32_t mask = 0;
#if defined(__SSE2__)
    const __m128i t = _mm_set1_epi64x(static_cast<long long>(tag));
    for (int i = 0; i < 4; ++i) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + 2 * i));
        const int m = _mm_movemask_epi8(_mm_cmpeq_epi32(v, t));
        mask |= static_cast<uint32_t>((m & 0xFF) == 0xFF) << (2 * i);
        mask |= static_cast<uint32_t>((m >> 8) == 0xFF) << (2 * i + 1);
    }
#else
    for (uint32_t w = 0; w < kL2Ways; ++w)
        mask |= static_cast<uint32_t>(row[w] == tag) << w;
#endif
    return mask;
}

/**
 * Probe a private 4-way LRU L1 with a stream's whole sample, leaving
 * the arrays as CacheModel::access() would, access i stamped
 * clock0 + i. Writes the indices that missed to @p miss, returns their
 * count and sets @p invalid_fills to how many filled an invalid way.
 * Branch-free: hits, misses and hit ways are random, so every probe
 * computes the match mask and the LRU victim and stores to one of
 * them; at most one valid way can match, as a line is filled only
 * after a miss. With @p kFull every way holds a valid line, so the
 * match needs no validity test and no fill is invalid (DESIGN.md §5g).
 */
template <bool kFull>
inline uint32_t
probeL1(const uint64_t *lines, uint32_t samples, uint32_t set_mask,
        uint64_t *tags, uint64_t *use, uint64_t clock0, uint32_t *miss,
        uint64_t &invalid_fills)
{
    uint64_t invalid = 0;
    uint32_t miss_count = 0;
    // dora:walk-kernel-begin
    for (uint32_t i = 0; i < samples; ++i) {
        const uint64_t line = lines[i];
        const size_t base = (static_cast<uint32_t>(line) & set_mask) *
            static_cast<size_t>(kL1Ways);
        uint64_t *t = &tags[base];
        uint64_t *u = &use[base];
        const uint64_t u0 = u[0], u1 = u[1], u2 = u[2], u3 = u[3];
        uint32_t match = static_cast<uint32_t>(t[0] == line) |
            static_cast<uint32_t>(t[1] == line) << 1 |
            static_cast<uint32_t>(t[2] == line) << 2 |
            static_cast<uint32_t>(t[3] == line) << 3;
        if constexpr (!kFull)
            match &= static_cast<uint32_t>(u0 != 0) |
                static_cast<uint32_t>(u1 != 0) << 1 |
                static_cast<uint32_t>(u2 != 0) << 2 |
                static_cast<uint32_t>(u3 != 0) << 3;
        // LRU victim as a tournament: strict < keeps the lower way on
        // ties, as the linear scan of chooseVictim() does, and invalid
        // ways (stamp 0) rank below every live one. The picks are bit
        // arithmetic, so the compiler has no select to turn back into
        // a branch.
        const uint32_t pick1 = u1 < u0;
        const uint32_t pick3 = u3 < u2;
        const uint64_t best01 = pick1 ? u1 : u0;
        const uint64_t best23 = pick3 ? u3 : u2;
        const uint32_t pick23 = best23 < best01;
        const uint32_t victim =
            pick23 << 1 | (pick23 & pick3) | (~pick23 & pick1);
        const uint32_t missed = match == 0;
        // Without a match the sentinel bit 4 + victim is the lowest
        // set bit, so one count of trailing zeros gives the hit way or
        // else the victim. A hit rewrites the tag it matched.
        const uint32_t way =
            static_cast<uint32_t>(__builtin_ctz(match | 16u << victim)) & 3;
        t[way] = line;
        u[way] = clock0 + i;
        if constexpr (!kFull)
            invalid += missed & ((best01 == 0) | (best23 == 0));
        // miss_count <= i, so the slot is inside this slice.
        miss[miss_count] = i;
        miss_count += missed;
    }
    // dora:walk-kernel-end
    invalid_fills = invalid;
    return miss_count;
}

} // namespace

MemSystemConfig::MemSystemConfig()
{
    // Defaults mirror the Nexus 5 / MSM8974 (paper Table II).
    l1.name = "l1d";
    l1.sizeBytes = 16 * 1024;
    l1.associativity = 4;
    l1.lineBytes = kCacheLineBytes;

    l2.name = "l2";
    l2.sizeBytes = 2 * 1024 * 1024;
    l2.associativity = 8;
    l2.lineBytes = kCacheLineBytes;
}

namespace
{

CacheConfig
makeL1Config(const MemSystemConfig &config, uint32_t core)
{
    CacheConfig c = config.l1;
    c.name = config.l1.name + std::to_string(core);
    c.numRequestors = 1;
    return c;
}

CacheConfig
makeL2Config(const MemSystemConfig &config)
{
    CacheConfig c = config.l2;
    c.numRequestors = config.numCores;
    return c;
}

} // namespace

MemSystem::MemSystem(const MemSystemConfig &config)
    : config_(config), l2_(makeL2Config(config)), dram_(config.dram),
      counters_(config.numCores)
{
    if (config.numCores == 0)
        fatal("MemSystem: need at least one core");
    l1s_.reserve(config.numCores);
    for (uint32_t c = 0; c < config.numCores; ++c)
        l1s_.emplace_back(makeL1Config(config, c));
}

std::vector<MemSampleResult>
MemSystem::tickSample(const std::vector<MemSampleRequest> &requests)
{
    std::vector<MemSampleResult> results;
    tickSample(requests, results);
    return results;
}

void
MemSystem::tickSample(const std::vector<MemSampleRequest> &requests,
                      std::vector<MemSampleResult> &results)
{
    // One walk-state slot per request, index-parallel: zero-sample
    // requests keep a dead slot (remaining == 0) so the result pairing
    // below is a direct index lookup, not a pointer search.
    auto &live = liveScratch_;
    live.clear();
    live.reserve(requests.size());
    bool any = false;
    for (const auto &req : requests) {
        if (req.core >= config_.numCores)
            panic("MemSystem::tickSample: core %u out of range", req.core);
        if (req.samples > 0 && req.stream == nullptr)
            panic("MemSystem::tickSample: null stream with samples");
        live.push_back(LiveStream{&req, req.samples, 0, 0});
        any = any || req.samples > 0;
    }
    if (any) {
        if (batchedWalk_ && batchedWalkEligible(requests))
            walkBatched(live);
        else
            walkInterleaved(live);
    }

    results.clear();
    results.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const MemSampleRequest &req = requests[i];
        const LiveStream &lv = live[i];
        MemSampleResult res;
        res.core = req.core;
        res.samplesIssued = req.samples;
        if (req.samples > 0) {
            res.l1MissRate = static_cast<double>(lv.l1Misses) /
                static_cast<double>(req.samples);
            res.l2LocalMissRate = lv.l1Misses
                ? static_cast<double>(lv.l2Misses) /
                    static_cast<double>(lv.l1Misses)
                : 0.0;
        }
        results.push_back(res);
    }
}

void
MemSystem::walkInterleaved(std::vector<LiveStream> &live)
{
    // Weighted round-robin in chunks: each pass, every still-live stream
    // issues up to interleaveChunk accesses. This approximates the
    // fine-grained interleaving of concurrently executing cores.
    const uint32_t chunk = std::max<uint32_t>(1, config_.interleaveChunk);
    bool any = true;
    while (any) {
        any = false;
        for (auto &lv : live) {
            if (lv.remaining == 0)
                continue;
            const uint32_t n = std::min(chunk, lv.remaining);
            for (uint32_t i = 0; i < n; ++i) {
                const uint64_t line = lv.req->stream->next();
                const uint32_t core = lv.req->core;
                if (!l1s_[core].access(line, 0)) {
                    ++lv.l1Misses;
                    if (!l2_.access(line, core))
                        ++lv.l2Misses;
                }
            }
            lv.remaining -= n;
            any = any || lv.remaining > 0;
        }
    }
}

bool
MemSystem::batchedWalkEligible(
    const std::vector<MemSampleRequest> &requests) const
{
    // The kernel's phase split assumes private L1s (one stream per
    // core, so requestor cores are strictly increasing, as Soc submits
    // them); its probes are written for the shipped geometry, a 4-way
    // LRU L1 and an 8-way LRU L2. Anything else takes the reference
    // walk.
    if (config_.l1.policy != ReplacementPolicy::Lru ||
        config_.l2.policy != ReplacementPolicy::Lru ||
        config_.l1.associativity != kL1Ways ||
        config_.l2.associativity != kL2Ways)
        return false;
    for (size_t i = 1; i < requests.size(); ++i)
        if (requests[i].core <= requests[i - 1].core)
            return false;
    return true;
}

void
MemSystem::walkBatched(std::vector<LiveStream> &live)
{
    // Phase-separated replay of walkInterleaved() with identical
    // results (DESIGN.md §5g). Stream by stream, phase A draws the
    // whole sample up front (burst-run fills, same RNG draw order) and
    // phase B probes the private L1 — legal because an L1 is touched
    // only by its own core, so the interleaved schedule restricted to
    // one L1 *is* stream order — collecting the L1-miss indices. Phase
    // C drains those misses into the shared L2 along the reference's
    // round-robin chunk schedule, so the shared-state access order is
    // untouched. Inner loops run over hoisted raw pointers (enforced
    // by the dora-perf-walk-alias rule).
    size_t total = 0;
    for (const LiveStream &lv : live)
        total += lv.req->samples;
    if (walkLines_.size() < total) {
        walkLines_.resize(total);
        walkMiss_.resize(total);
    }

    // Phases A and B; each request's lines and miss indices sit at the
    // same offset of walkLines_ and walkMiss_.
    auto &drain = walkDrain_;
    drain.clear();
    size_t offset = 0;
    uint64_t last_miss = 0;  // largest sample index that missed an L1
    for (size_t r = 0; r < live.size(); ++r) {
        const uint32_t samples = live[r].req->samples;
        if (samples == 0)
            continue;
        const uint32_t core = live[r].req->core;
        uint64_t *lines = &walkLines_[offset];
        uint32_t *miss = &walkMiss_[offset];
        offset += samples;
        live[r].req->stream->nextRuns(lines, samples);

        CacheModel &l1 = l1s_[core];
        const uint32_t set_mask = l1.numSets_ - 1;
        // access() pre-increments the clock, so access i stamps
        // clock0 + i.
        const uint64_t clock0 = l1.accessClock_ + 1;
        uint64_t invalid_fills = 0;
        // A walk never invalidates a line, so once the sole requestor
        // owns every line, every way stays valid.
        const uint32_t misses = l1.owned_[0] == l1.tags_.size()
            ? probeL1<true>(lines, samples, set_mask, l1.tags_.data(),
                            l1.lastUse_.data(), clock0, miss,
                            invalid_fills)
            : probeL1<false>(lines, samples, set_mask, l1.tags_.data(),
                             l1.lastUse_.data(), clock0, miss,
                             invalid_fills);
        l1.accessClock_ += samples;
        CacheStats &st = l1.stats_[0];
        st.accesses += samples;
        st.misses += misses;
        // Every valid L1 victim belongs to the sole requestor, and a
        // valid-victim fill leaves its owned-line count unchanged.
        st.selfEvictions += misses - invalid_fills;
        l1.owned_[0] += invalid_fills;
        live[r].l1Misses = misses;
        if (misses > 0) {
            drain.push_back(DrainStream{lines, miss, misses, 0, core, r});
            last_miss = std::max<uint64_t>(last_miss, miss[misses - 1]);
        }
    }

    // Phase C: pass p admits each stream's sample indices below
    // (p+1)*window, in request order — exactly the subsequence of the
    // interleaved schedule that reached the L2. Only streams that
    // missed take part, and the passes stop after the last miss. With
    // one such stream the schedule is its own miss order, so it drains
    // in one pass whose window covers every miss.
    const uint64_t window = drain.size() == 1
        ? last_miss + 1
        : std::max<uint32_t>(1, config_.interleaveChunk);
    const uint64_t passes = last_miss / window + 1;
    const uint32_t set_mask2 = l2_.numSets_ - 1;
    uint64_t *tags2 = l2_.tags_.data();
    uint64_t *use2 = l2_.lastUse_.data();
    uint32_t *owners2 = l2_.owners_.data();
    uint64_t *owned2 = l2_.owned_.data();
    CacheStats *stats2 = l2_.stats_.data();
    uint64_t clock2 = l2_.accessClock_;
    constexpr uint32_t kPrefetchDist = 8;

    for (uint64_t p = 0; p < passes; ++p) {
        const uint64_t window_end = (p + 1) * window;
        for (DrainStream &d : drain) {
            const uint32_t core = d.core;
            const uint64_t *lines = d.lines;
            const uint32_t *miss = d.miss;
            const uint32_t miss_count = d.missCount;
            uint32_t cur = d.cursor;
            uint64_t l2_misses = 0;
            // dora:walk-kernel-begin
            while (cur < miss_count && miss[cur] < window_end) {
                const uint64_t line = lines[miss[cur]];
                ++cur;
                if (cur + kPrefetchDist < miss_count) {
                    const uint64_t pf = lines[miss[cur + kPrefetchDist]];
                    const size_t pb =
                        (static_cast<uint32_t>(pf) & set_mask2) *
                        static_cast<size_t>(kL2Ways);
                    __builtin_prefetch(&tags2[pb]);
                    __builtin_prefetch(&use2[pb]);
                    __builtin_prefetch(&owners2[pb]);
                }
                ++clock2;
                const size_t base =
                    (static_cast<uint32_t>(line) & set_mask2) *
                    static_cast<size_t>(kL2Ways);
                uint32_t way = kL2Ways;
                uint32_t m = tagMatchMask8(&tags2[base], line);
                while (m) {
                    const uint32_t w =
                        static_cast<uint32_t>(__builtin_ctz(m));
                    if (use2[base + w] != 0) {
                        way = w;
                        break;
                    }
                    m &= m - 1;
                }
                if (way < kL2Ways) {
                    const uint32_t owner = owners2[base + way];
                    if (owner != core) {
                        --owned2[owner];
                        ++owned2[core];
                        owners2[base + way] = core;
                    }
                    use2[base + way] = clock2;
                    continue;
                }
                ++l2_misses;
                uint32_t victim = 0;
                uint64_t best = use2[base];
                for (uint32_t v = 1; v < kL2Ways; ++v) {
                    const bool better = use2[base + v] < best;
                    best = better ? use2[base + v] : best;
                    victim = better ? v : victim;
                }
                if (best != 0) {
                    const uint32_t vo = owners2[base + victim];
                    if (vo == core)
                        ++stats2[vo].selfEvictions;
                    else
                        ++stats2[vo].interferenceEvictions;
                    --owned2[vo];
                }
                ++owned2[core];
                tags2[base + victim] = line;
                owners2[base + victim] = core;
                use2[base + victim] = clock2;
            }
            // dora:walk-kernel-end
            d.cursor = cur;
            live[d.request].l2Misses += l2_misses;
        }
    }
    l2_.accessClock_ = clock2;
    for (const DrainStream &d : drain) {
        stats2[d.core].accesses += d.missCount;
        stats2[d.core].misses += live[d.request].l2Misses;
    }
}

void
MemSystem::commitScaled(uint32_t core, double real_accesses,
                        const MemSampleResult &result)
{
    if (core >= config_.numCores)
        panic("MemSystem::commitScaled: core %u out of range", core);
    if (real_accesses < 0.0)
        panic("MemSystem::commitScaled: negative access count");

    auto &ctr = counters_[core];
    const double l1_misses = real_accesses * result.l1MissRate;
    const double l2_misses = l1_misses * result.l2LocalMissRate;
    ctr.l1Accesses += real_accesses;
    ctr.l1Misses += l1_misses;
    ctr.l2Accesses += l1_misses;
    ctr.l2Misses += l2_misses;

    dram_.addDemand(l2_misses * kCacheLineBytes);
}

void
MemSystem::endTick(double dt_sec, double bus_mhz)
{
    dram_.endTick(dt_sec, bus_mhz);
}

const CoreMemCounters &
MemSystem::coreCounters(uint32_t core) const
{
    if (core >= counters_.size())
        panic("MemSystem::coreCounters: core %u out of range", core);
    return counters_[core];
}

CoreMemCounters
MemSystem::totalCounters() const
{
    CoreMemCounters total;
    for (const auto &ctr : counters_) {
        total.l1Accesses += ctr.l1Accesses;
        total.l1Misses += ctr.l1Misses;
        total.l2Accesses += ctr.l2Accesses;
        total.l2Misses += ctr.l2Misses;
    }
    return total;
}

const CacheModel &
MemSystem::l1(uint32_t core) const
{
    if (core >= l1s_.size())
        panic("MemSystem::l1: core %u out of range", core);
    return l1s_[core];
}

void
MemSystem::reset()
{
    for (auto &l1 : l1s_) {
        l1.flush();
        l1.resetStats();
    }
    l2_.flush();
    l2_.resetStats();
    dram_.reset();
    std::fill(counters_.begin(), counters_.end(), CoreMemCounters());
}

void
MemSystem::snapshot(SnapshotWriter &w) const
{
    w.beginSection("mems", 1);
    w.putSize(l1s_.size());
    for (const auto &l1 : l1s_)
        l1.snapshot(w);
    l2_.snapshot(w);
    dram_.snapshot(w);
    w.putSize(counters_.size());
    for (const auto &c : counters_) {
        w.putDouble(c.l1Accesses);
        w.putDouble(c.l1Misses);
        w.putDouble(c.l2Accesses);
        w.putDouble(c.l2Misses);
    }
}

bool
MemSystem::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("mems", 1))
        return false;
    size_t l1_count;
    if (!r.getSize(&l1_count) || l1_count != l1s_.size())
        return false;
    for (auto &l1 : l1s_)
        if (!l1.tryRestore(r))
            return false;
    if (!l2_.tryRestore(r) || !dram_.tryRestore(r))
        return false;
    size_t counter_count;
    if (!r.getSize(&counter_count) || counter_count != counters_.size())
        return false;
    std::vector<CoreMemCounters> counters(counters_.size());
    for (auto &c : counters)
        if (!r.getDouble(&c.l1Accesses) || !r.getDouble(&c.l1Misses) ||
            !r.getDouble(&c.l2Accesses) || !r.getDouble(&c.l2Misses))
            return false;
    counters_ = std::move(counters);
    return true;
}

} // namespace dora
