/**
 * @file
 * Property tests for the pieces of the batched walk kernel (DESIGN.md
 * §5g): the reciprocal modulo and integer chance thresholds behind
 * AddressStream::nextRuns(), and a randomized batched-vs-reference
 * walk that compares results, cache stats, owned lines and the full
 * MemSystem/AddressStream snapshot bytes tick by tick.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "browser/page_corpus.hh"
#include "browser/render_cost.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "mem/address_stream.hh"
#include "mem/mem_system.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

/** The hot and working-set spans of every corpus page phase and kernel. */
std::vector<uint64_t>
corpusSpans()
{
    std::vector<uint64_t> spans;
    auto add = [&](const AddressStreamSpec &spec) {
        AddressStream s(spec, 0, Rng(1u));
        spans.push_back(s.wsLines());
        spans.push_back(std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(s.wsLines()) *
                                     spec.hotSetFraction)));
    };
    const RenderCostModel cost;
    for (const WebPage &page : PageCorpus::all())
        for (const RenderPhase &phase : cost.phases(page))
            add(phase.stream);
    for (const KernelSpec &kernel : KernelCatalog::all())
        add(kernel.stream);
    return spans;
}

TEST(ExactModulo, EqualsRemainderForEdgeAndCorpusDivisors)
{
    std::vector<uint64_t> divisors = {1,
                                      2,
                                      3,
                                      7,
                                      (uint64_t(1) << 32) - 1,
                                      uint64_t(1) << 32,
                                      (uint64_t(1) << 32) + 1,
                                      kMax - 1,
                                      kMax};
    for (int k = 0; k < 64; ++k)
        divisors.push_back(uint64_t(1) << k);
    const std::vector<uint64_t> spans = corpusSpans();
    ASSERT_GT(spans.size(), 100u);
    divisors.insert(divisors.end(), spans.begin(), spans.end());

    Rng rng(0xD1CEu);
    for (uint64_t d : divisors) {
        const ExactModulo mod(d);
        std::vector<uint64_t> numerators = {0, 1, d - 1, d, d + 1,
                                            2 * d - 1, kMax - 1, kMax};
        for (int i = 0; i < 200; ++i)
            numerators.push_back(rng.next());
        for (uint64_t n : numerators)
            ASSERT_EQ(mod(n), n % d) << n << " % " << d;
    }
}

TEST(ExactModulo, EqualsRemainderForRandomDivisors)
{
    Rng rng(0xFEEDu);
    for (int i = 0; i < 2000; ++i) {
        // Spread divisors over every magnitude, not just near 2^64.
        const uint64_t d = std::max<uint64_t>(
            1, rng.next() >> rng.below(64));
        const ExactModulo mod(d);
        for (int j = 0; j < 50; ++j) {
            const uint64_t n = rng.next();
            ASSERT_EQ(mod(n), n % d) << n << " % " << d;
        }
    }
}

/** The reference predicate: Rng::uniform() of draw @p x below @p p. */
bool
uniformBelow(uint64_t x, double p)
{
    return (x >> 11) * 0x1.0p-53 < p;
}

TEST(ChanceThreshold, EqualsUniformComparison)
{
    const double ps[] = {0.0,
                         0x1.0p-53,
                         0.15,
                         0.5,
                         0.9,
                         1.0 - 0x1.0p-53,
                         1.0,
                         1.5,
                         std::numeric_limits<double>::infinity(),
                         -0.25,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::quiet_NaN()};
    Rng rng(0xC0DEu);
    for (double p : ps) {
        const uint64_t t = chanceThreshold(p);
        EXPECT_LE(t, uint64_t(1) << 53) << p;
        // Draws straddling the threshold, the range ends, and random.
        std::vector<uint64_t> draws = {0, kMax, uint64_t(1) << 11};
        for (uint64_t k : {t - 1, t, t + 1})
            if (k < (uint64_t(1) << 53))
                for (uint64_t low : {uint64_t(0), uint64_t(0x7FF)})
                    draws.push_back(k << 11 | low);
        for (int i = 0; i < 5000; ++i)
            draws.push_back(rng.next());
        for (uint64_t x : draws)
            ASSERT_EQ((x >> 11) < t, uniformBelow(x, p))
                << "p=" << p << " x=" << x;
    }
    EXPECT_EQ(chanceThreshold(0.0), 0u);
    EXPECT_EQ(chanceThreshold(1.0), uint64_t(1) << 53);
    EXPECT_EQ(chanceThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(chanceThreshold(std::nan("")), 0u);
}

TEST(ChanceThreshold, MatchesRngChanceDrawForDraw)
{
    for (double p : {0.15, 0.5, 0.9, 0.93}) {
        Rng a(42u), b(42u);
        const uint64_t t = chanceThreshold(p);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.chance(p), (b.next() >> 11) < t) << p;
    }
}

/** A random stream shape covering the kernel's edge cases. */
AddressStreamSpec
randomSpec(Rng &rng)
{
    AddressStreamSpec spec;
    switch (rng.below(4)) {
      case 0:
        spec.workingSetBytes = 64;  // a 1-line working set
        break;
      case 1:
        spec.workingSetBytes = 64 * (1 + rng.below(16));  // tiny: wraps
        break;
      default:
        spec.workingSetBytes = 64 * (1 + rng.below(1 << 14));
        break;
    }
    const uint64_t hot_kind = rng.below(4);
    spec.hotFraction = hot_kind == 0 ? 0.0
        : hot_kind == 1              ? 1.0
                                     : rng.uniform();
    spec.hotSetFraction = 1.0 - rng.uniform();  // (0, 1]
    const uint64_t burst_kind = rng.below(4);
    spec.burstContinueProb = burst_kind == 0 ? 0.0
        : burst_kind == 1                    ? 0.97
                                             : rng.uniform();
    spec.burstCap = rng.below(3) == 0 ? 1 : 1 + rng.below(96);
    return spec;
}

/** Serialized state of the hierarchy and every stream. */
std::string
stateBytes(const MemSystem &mem,
           const std::vector<std::unique_ptr<AddressStream>> &streams)
{
    SnapshotWriter w;
    mem.snapshot(w);
    for (const auto &s : streams)
        s->snapshot(w);
    return w.finish();
}

using Streams = std::vector<std::unique_ptr<AddressStream>>;

/**
 * Run one tick of @p reqs twice on the same objects: batched from a
 * snapshot, then restored and walked by the reference path. Sharing
 * the objects keeps stream ids equal, so the snapshot bytes compare
 * whole. Results, L1/L2 stats and owned lines must agree too. The
 * hierarchy is left as the reference walk leaves it.
 */
void
expectTickMatches(MemSystem &mem, const Streams &streams,
                  const std::vector<MemSampleRequest> &reqs,
                  const std::string &where)
{
    SCOPED_TRACE(where);
    const uint32_t cores = mem.config().numCores;
    ASSERT_TRUE(mem.batchedWalkEligible(reqs));
    std::vector<MemSampleResult> batched, reference;

    const std::string before = stateBytes(mem, streams);
    mem.setBatchedWalk(true);
    mem.tickSample(reqs, batched);
    const std::string after_batched = stateBytes(mem, streams);
    std::vector<CacheStats> l1_stats, l2_stats;
    std::vector<uint64_t> l1_owned, l2_owned;
    for (uint32_t c = 0; c < cores; ++c) {
        l1_stats.push_back(mem.l1(c).stats(0));
        l1_owned.push_back(mem.l1(c).ownedLines(0));
        l2_stats.push_back(mem.l2().stats(c));
        l2_owned.push_back(mem.l2().ownedLines(c));
    }

    SnapshotReader r(before);
    ASSERT_TRUE(mem.tryRestore(r));
    for (const auto &s : streams)
        ASSERT_TRUE(s->tryRestore(r));
    mem.setBatchedWalk(false);
    mem.tickSample(reqs, reference);

    ASSERT_EQ(batched.size(), reference.size());
    for (size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].l1MissRate, reference[i].l1MissRate);
        EXPECT_EQ(batched[i].l2LocalMissRate,
                  reference[i].l2LocalMissRate);
        EXPECT_EQ(batched[i].samplesIssued, reference[i].samplesIssued);
    }
    for (uint32_t c = 0; c < cores; ++c) {
        const CacheStats &a1 = mem.l1(c).stats(0);
        EXPECT_EQ(a1.accesses, l1_stats[c].accesses);
        EXPECT_EQ(a1.misses, l1_stats[c].misses);
        EXPECT_EQ(a1.selfEvictions, l1_stats[c].selfEvictions);
        EXPECT_EQ(mem.l1(c).ownedLines(0), l1_owned[c]);
        const CacheStats &a2 = mem.l2().stats(c);
        EXPECT_EQ(a2.accesses, l2_stats[c].accesses);
        EXPECT_EQ(a2.misses, l2_stats[c].misses);
        EXPECT_EQ(a2.selfEvictions, l2_stats[c].selfEvictions);
        EXPECT_EQ(a2.interferenceEvictions,
                  l2_stats[c].interferenceEvictions);
        EXPECT_EQ(mem.l2().ownedLines(c), l2_owned[c]);
    }
    ASSERT_EQ(stateBytes(mem, streams), after_batched);
}

/** Random ticks on a random geometry, batched against reference. */
void
expectRandomWalksMatch(uint64_t seed)
{
    Rng rng(seed);
    MemSystemConfig config;
    config.numCores = static_cast<uint32_t>(1 + rng.below(4));
    config.l1.sizeBytes = 64 * 4 * (uint64_t(1) << rng.below(7));
    config.l2.sizeBytes = 64 * 8 * (uint64_t(1) << (2 + rng.below(8)));
    config.interleaveChunk = static_cast<uint32_t>(1 + rng.below(16));
    MemSystem mem(config);

    Streams streams;
    for (uint32_t c = 0; c < config.numCores; ++c)
        streams.push_back(std::make_unique<AddressStream>(
            randomSpec(rng), (c + 1) * (uint64_t(1) << 24), rng.fork("s")));

    std::vector<MemSampleRequest> reqs(config.numCores);
    for (int tick = 0; tick < 24; ++tick) {
        if (rng.below(6) == 0)
            streams[rng.below(config.numCores)]->reshape(randomSpec(rng));
        for (uint32_t c = 0; c < config.numCores; ++c) {
            const uint64_t kind = rng.below(5);
            const uint32_t samples = kind == 0 ? 0
                : kind == 1 ? static_cast<uint32_t>(1 + rng.below(4))
                            : static_cast<uint32_t>(rng.below(3000));
            reqs[c] = MemSampleRequest{c, streams[c].get(), samples};
        }
        expectTickMatches(mem, streams, reqs,
                          "seed " + std::to_string(seed) + " tick " +
                              std::to_string(tick));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(WalkKernelProperty, RandomizedBatchedWalkMatchesReference)
{
    for (uint64_t seed = 1; seed <= 40; ++seed)
        expectRandomWalksMatch(seed);
}

TEST(WalkKernelProperty, NextRunsMatchesNextOnEdgeShapes)
{
    Rng rng(0xABCDu);
    for (int trial = 0; trial < 200; ++trial) {
        const AddressStreamSpec spec = randomSpec(rng);
        const Rng seed = rng.fork("stream");
        AddressStream a(spec, 4096, seed);
        AddressStream b(spec, 4096, seed);
        std::vector<uint64_t> got(512);
        for (int chunk = 0; chunk < 4; ++chunk) {
            const uint32_t n = static_cast<uint32_t>(rng.below(513));
            a.nextRuns(got.data(), n);
            for (uint32_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], b.next()) << "trial " << trial;
        }
        // The residual draw state continues alike.
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(a.next(), b.next());
    }
}

/** A stream over a working set of @p lines lines, @p hot hot. */
std::unique_ptr<AddressStream>
makeStream(uint64_t lines, double hot, uint64_t base_line, Rng rng)
{
    AddressStreamSpec spec;
    spec.workingSetBytes = 64 * lines;
    spec.hotFraction = hot;
    return std::make_unique<AddressStream>(spec, base_line, rng);
}

TEST(WalkKernelProperty, WalksCrossingIntoAFullL1MatchReference)
{
    // The batched walk takes its full-L1 probe only when every line of
    // the L1 is owned at walk start. Walk each L1 up to a set fill one
    // reference access at a time — cold, partly filled, and one or two
    // lines short of full — then batched ticks cross into a full L1
    // mid-walk and go on from there.
    Rng rng(0xF111u);
    for (uint32_t l1_lines : {4u, 16u, 256u}) {
        for (uint32_t short_by : {l1_lines, l1_lines / 2, 2u, 1u}) {
            MemSystemConfig config;
            config.numCores = 2;
            config.l1.sizeBytes = 64 * l1_lines;
            config.l2.sizeBytes = 64 * 8 * 16;
            config.interleaveChunk =
                static_cast<uint32_t>(1 + rng.below(8));
            MemSystem mem(config);
            Streams streams;
            for (uint32_t c = 0; c < 2; ++c)
                streams.push_back(makeStream(4 * l1_lines, 0.5,
                                             (c + 1) << 20, rng.fork("s")));
            const std::string where =
                std::to_string(l1_lines) + "-line L1, " +
                std::to_string(short_by) + " short";

            // One reference access at a time until the fill is reached.
            const uint64_t target = l1_lines - short_by;
            mem.setBatchedWalk(false);
            std::vector<MemSampleResult> results;
            for (uint32_t c = 0; c < 2; ++c)
                while (mem.l1(c).ownedLines(0) < target)
                    mem.tickSample({{c, streams[c].get(), 1}}, results);
            ASSERT_EQ(mem.l1(0).ownedLines(0), target) << where;
            ASSERT_EQ(mem.l1(1).ownedLines(0), target) << where;

            for (int tick = 0; tick < 4; ++tick) {
                const uint32_t samples =
                    static_cast<uint32_t>(1 + rng.below(4 * l1_lines));
                expectTickMatches(mem, streams,
                                  {{0, streams[0].get(), samples},
                                   {1, streams[1].get(), samples / 2}},
                                  where + " tick " + std::to_string(tick));
                if (HasFatalFailure())
                    return;
            }
            EXPECT_EQ(mem.l1(0).ownedLines(0), l1_lines) << where;
        }
    }
}

TEST(WalkKernelProperty, FullL1RestoredFromSnapshotMatchesReference)
{
    // Fill every L1, snapshot, and restore into a fresh hierarchy: the
    // restored owned-line counts must select the full-L1 probe and give
    // the reference results.
    MemSystemConfig config;
    config.numCores = 3;
    config.l1.sizeBytes = 64 * 64;
    config.l2.sizeBytes = 64 * 8 * 32;
    config.interleaveChunk = 5;
    Rng rng(0x5A75u);
    Streams streams;
    for (uint32_t c = 0; c < config.numCores; ++c)
        streams.push_back(
            makeStream(1024, 0.6, (c + 1) << 20, rng.fork("s")));
    std::vector<MemSampleRequest> reqs;
    for (uint32_t c = 0; c < config.numCores; ++c)
        reqs.push_back({c, streams[c].get(), 2000});

    MemSystem warm(config);
    std::vector<MemSampleResult> results;
    warm.tickSample(reqs, results);
    for (uint32_t c = 0; c < config.numCores; ++c)
        ASSERT_EQ(warm.l1(c).ownedLines(0), 64u);
    SnapshotWriter w;
    warm.snapshot(w);
    const std::string bytes = w.finish();

    MemSystem mem(config);
    SnapshotReader r(bytes);
    ASSERT_TRUE(mem.tryRestore(r));
    for (uint32_t c = 0; c < config.numCores; ++c)
        ASSERT_EQ(mem.l1(c).ownedLines(0), 64u);
    for (int tick = 0; tick < 6; ++tick) {
        for (auto &req : reqs)
            req.samples = static_cast<uint32_t>(rng.below(1500));
        expectTickMatches(mem, streams, reqs,
                          "restored tick " + std::to_string(tick));
        if (HasFatalFailure())
            return;
    }
}

TEST(WalkKernelProperty, DrainWithZeroOneOrSeveralMissingStreams)
{
    // The shared-L2 drain takes only the streams that missed their L1,
    // and a lone such stream in one pass. A one-line working set hits
    // its warm L1 on every probe; a large one misses. Every subset of
    // four such streams, with a small contended L2 and streams of
    // different lengths, covers zero, one and several missing streams,
    // all-hit streams between missing ones, and misses running past
    // the other streams' last pass.
    Rng rng(0xD8A1u);
    for (uint32_t chunk : {1u, 3u, 8u}) {
        MemSystemConfig config;
        config.numCores = 4;
        config.l1.sizeBytes = 64 * 16;
        config.l2.sizeBytes = 64 * 8 * 4;
        config.interleaveChunk = chunk;
        MemSystem mem(config);
        // all[2c] is core c's all-hit stream, all[2c + 1] its missing one.
        Streams all;
        for (uint32_t c = 0; c < 4; ++c) {
            all.push_back(makeStream(1, 0.0, (c + 1) << 20,
                                     rng.fork("hit")));
            all.push_back(makeStream(4096, 0.3, (c + 8) << 20,
                                     rng.fork("miss")));
        }
        std::vector<MemSampleResult> results;
        for (uint32_t mask = 0; mask < 16; ++mask) {
            // Re-warm each all-hit core with its one line: a missing
            // stream on that core may have evicted it.
            std::vector<MemSampleRequest> reqs;
            std::vector<uint64_t> l1_misses;
            for (uint32_t c = 0; c < 4; ++c) {
                const bool missing = mask >> c & 1;
                if (!missing)
                    mem.tickSample({{c, all[2 * c].get(), 1}}, results);
                l1_misses.push_back(mem.l1(c).stats(0).misses);
                const uint32_t samples =
                    static_cast<uint32_t>(1 + rng.below(200));
                reqs.push_back(
                    {c, all[2 * c + (missing ? 1 : 0)].get(), samples});
            }
            const std::string where = "chunk " + std::to_string(chunk) +
                " missing-stream mask " + std::to_string(mask);
            expectTickMatches(mem, all, reqs, where);
            if (HasFatalFailure())
                return;
            for (uint32_t c = 0; c < 4; ++c) {
                const uint64_t missed =
                    mem.l1(c).stats(0).misses - l1_misses[c];
                if (mask >> c & 1)
                    EXPECT_GT(missed, 0u) << where << " core " << c;
                else
                    EXPECT_EQ(missed, 0u) << where << " core " << c;
            }
        }
    }
}

TEST(WalkKernelProperty, OnlyTheShippedGeometryTakesTheKernel)
{
    const std::vector<MemSampleRequest> reqs = {{0, nullptr, 0},
                                                {1, nullptr, 0}};
    MemSystemConfig shipped;
    EXPECT_TRUE(MemSystem(shipped).batchedWalkEligible(reqs));
    for (uint32_t ways : {1u, 2u, 8u}) {
        MemSystemConfig config;
        config.l1.associativity = ways;
        EXPECT_FALSE(MemSystem(config).batchedWalkEligible(reqs))
            << ways << "-way L1";
    }
    MemSystemConfig l2_16;
    l2_16.l2.associativity = 16;
    EXPECT_FALSE(MemSystem(l2_16).batchedWalkEligible(reqs));
    const std::vector<MemSampleRequest> unordered = {{1, nullptr, 0},
                                                     {0, nullptr, 0}};
    EXPECT_FALSE(MemSystem(shipped).batchedWalkEligible(unordered));
}

} // namespace
} // namespace dora
