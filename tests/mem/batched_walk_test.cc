/**
 * @file
 * Bit-identity proof for the batched walk kernel (DESIGN.md §5g): a
 * MemSystem running walkBatched() must be indistinguishable — rates,
 * stats, cache arrays, stream RNG state, everything — from one running
 * the per-access reference walk on the same request sequence.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "mem/address_stream.hh"
#include "mem/mem_system.hh"

namespace dora
{
namespace
{

AddressStreamSpec
burstySpec(uint64_t ws_bytes)
{
    AddressStreamSpec spec;
    spec.workingSetBytes = ws_bytes;
    spec.hotFraction = 0.6;
    spec.hotSetFraction = 0.05;
    spec.burstContinueProb = 0.7;
    spec.burstCap = 32;
    return spec;
}

/** Full serialized state: caches, DRAM, counters, and both streams. */
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

struct Rig
{
    MemSystem mem;
    std::vector<std::unique_ptr<AddressStream>> streams;

    explicit Rig(const MemSystemConfig &config, bool batched)
        : mem(config)
    {
        mem.setBatchedWalk(batched);
        for (uint32_t c = 0; c < config.numCores; ++c)
            streams.push_back(std::make_unique<AddressStream>(
                burstySpec((c + 1) * 48 * 1024), c * (1u << 20),
                Rng(1234567u + c)));
    }
};

void
expectIdenticalWalks(const MemSystemConfig &config)
{
    Rig legacy(config, false);
    Rig batched(config, true);

    // Stream ids differ between the rigs (process-global counter), so
    // compare snapshots against a same-rig baseline through an id-free
    // probe: rates + per-requestor stats + owned lines, every tick,
    // plus RNG/cursor state via each stream's own draw continuation.
    std::vector<MemSampleRequest> reqs_a(config.numCores);
    std::vector<MemSampleRequest> reqs_b(config.numCores);
    std::vector<MemSampleResult> res_a;
    std::vector<MemSampleResult> res_b;
    // Varying per-core sample counts, including idle (0) cores and a
    // tail where only one stream stays live deep into the round-robin.
    const uint32_t plans[6][4] = {{400, 333, 0, 57},  {0, 0, 0, 0},
                                  {900, 11, 222, 64}, {8, 8, 8, 8},
                                  {1, 1000, 3, 0},    {511, 0, 513, 129}};
    for (const auto &plan : plans) {
        for (uint32_t c = 0; c < config.numCores; ++c) {
            reqs_a[c] = MemSampleRequest{c, legacy.streams[c].get(),
                                         plan[c % 4]};
            reqs_b[c] = MemSampleRequest{c, batched.streams[c].get(),
                                         plan[c % 4]};
        }
        legacy.mem.tickSample(reqs_a, res_a);
        batched.mem.tickSample(reqs_b, res_b);
        ASSERT_EQ(res_a.size(), res_b.size());
        for (size_t i = 0; i < res_a.size(); ++i) {
            EXPECT_EQ(res_a[i].l1MissRate, res_b[i].l1MissRate);
            EXPECT_EQ(res_a[i].l2LocalMissRate,
                      res_b[i].l2LocalMissRate);
            EXPECT_EQ(res_a[i].samplesIssued, res_b[i].samplesIssued);
        }
        for (uint32_t c = 0; c < config.numCores; ++c) {
            const CacheStats &a1 = legacy.mem.l1(c).stats(0);
            const CacheStats &b1 = batched.mem.l1(c).stats(0);
            EXPECT_EQ(a1.accesses, b1.accesses);
            EXPECT_EQ(a1.misses, b1.misses);
            EXPECT_EQ(a1.selfEvictions, b1.selfEvictions);
            EXPECT_EQ(a1.interferenceEvictions,
                      b1.interferenceEvictions);
            EXPECT_EQ(legacy.mem.l1(c).ownedLines(0),
                      batched.mem.l1(c).ownedLines(0));
            const CacheStats &a2 = legacy.mem.l2().stats(c);
            const CacheStats &b2 = batched.mem.l2().stats(c);
            EXPECT_EQ(a2.accesses, b2.accesses);
            EXPECT_EQ(a2.misses, b2.misses);
            EXPECT_EQ(a2.selfEvictions, b2.selfEvictions);
            EXPECT_EQ(a2.interferenceEvictions,
                      b2.interferenceEvictions);
            EXPECT_EQ(legacy.mem.l2().ownedLines(c),
                      batched.mem.l2().ownedLines(c));
        }
    }
    // Generator states must have advanced identically: the next draws
    // from each pair of streams agree.
    for (uint32_t c = 0; c < config.numCores; ++c)
        for (int i = 0; i < 64; ++i)
            EXPECT_EQ(legacy.streams[c]->next(),
                      batched.streams[c]->next());
}

TEST(BatchedWalk, BitIdenticalToReferenceWalkDefaultGeometry)
{
    MemSystemConfig config;  // MSM8974 defaults: 8-way L2 (SIMD probe)
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    expectIdenticalWalks(config);
}

TEST(BatchedWalk, BitIdenticalToReferenceWalkScalarGeometry)
{
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 48 * 1024;
    config.l2.associativity = 6;  // non-8-way: the reference walk
    expectIdenticalWalks(config);
}

TEST(BatchedWalk, NonLruPolicyFallsBackToReferenceWalk)
{
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    config.l2.policy = ReplacementPolicy::Random;
    // Identical because the batched rig silently takes the reference
    // path — the point is that enabling the knob is always safe.
    expectIdenticalWalks(config);
}

TEST(BatchedWalk, NextRunsMatchesPerAccessNext)
{
    AddressStream a(burstySpec(96 * 1024), 7000, Rng(99u));
    AddressStream b(burstySpec(96 * 1024), 7000, Rng(99u));
    std::vector<uint64_t> got(4096);
    // Mixed chunk sizes so run boundaries land mid-burst, at burst
    // starts, and across working-set wraps.
    const uint32_t chunks[] = {1, 7, 64, 1000, 3, 3021};
    size_t off = 0;
    for (uint32_t n : chunks) {
        a.nextRuns(got.data() + off, n);
        off += n;
    }
    for (size_t i = 0; i < off; ++i)
        EXPECT_EQ(got[i], b.next()) << "index " << i;
    // Residual state identical too: next draws continue in lockstep.
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

/** Snapshot round-trip still byte-stable with the kernel enabled. */
TEST(BatchedWalk, SnapshotAgreesAfterBatchedTicks)
{
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    Rig rig(config, true);
    std::vector<MemSampleRequest> reqs(config.numCores);
    for (uint32_t c = 0; c < config.numCores; ++c)
        reqs[c] = MemSampleRequest{c, rig.streams[c].get(), 700};
    std::vector<MemSampleResult> res;
    rig.mem.tickSample(reqs, res);
    const std::string bytes = stateBytes(rig.mem, rig.streams);

    SnapshotReader r(bytes);
    MemSystem restored(config);
    ASSERT_TRUE(restored.tryRestore(r));
    SnapshotWriter w;
    restored.snapshot(w);
    for (const auto &s : rig.streams)
        ASSERT_TRUE(s->tryRestore(r));
    for (const auto &s : rig.streams)
        s->snapshot(w);
    EXPECT_EQ(w.finish(), bytes);
}

} // namespace
} // namespace dora
