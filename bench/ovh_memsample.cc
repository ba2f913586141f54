/**
 * @file
 * Micro-benchmarks of the Monte-Carlo memory-sampling walk.
 *
 * Guards the two hot loops behind the adaptive-sampling layer:
 *
 *   - MemSystem::tickSample — the interleaved multi-stream cache walk
 *     (the cost a reused tick skips entirely), measured per sampled
 *     access at paper-typical per-tick sample sizes;
 *   - AddressStream::next — the address generator inside that walk
 *     (conditional wrap, no modulo on the emitted line).
 *
 * Two walk fixtures: a 4 x 8192-sample co-run mix, which is L2-bound,
 * and a fleet-shaped one built from the corpus render-phase and
 * kernel stream specs at the traffic a serial fleet rollout measures
 * per walk (about 1,250 samples per live stream, 1.64 live streams,
 * a roughly 10 % L1 miss rate), where generation and the private-L1
 * probe dominate. For the fleet fixture the address generation
 * (AddressStream::nextRuns) is also timed alone, so the split between
 * generation and the cache probes shows without a profiler.
 *
 * Prints machine-readable MEMSAMPLE_* lines; scripts/run_benches.sh
 * records MEMSAMPLE_WALK_NS_PER_SAMPLE and MEMSAMPLE_STREAM_NEXT_NS in
 * BENCH_parallel.json. Needs no trained models.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "browser/page_corpus.hh"
#include "browser/render_cost.hh"
#include "common/cli.hh"
#include "mem/address_stream.hh"
#include "mem/mem_system.hh"
#include "obs/trace.hh"
#include "workloads/kernel.hh"

using namespace dora;

namespace
{

/** Streams shaped like the paper's co-run mix: one browser-like stream
 *  plus Low/Medium/High Rodinia-class kernels sharing the L2. */
struct WalkFixture
{
    MemSystem mem{MemSystemConfig{}};
    std::vector<std::unique_ptr<AddressStream>> streams;
    std::vector<MemSampleRequest> requests;
    std::vector<MemSampleResult> results;

    explicit WalkFixture(uint32_t samples_per_core)
    {
        const struct
        {
            uint64_t wsBytes;
            double hot;
        } shapes[4] = {
            {1ull << 20, 0.900},        // browser render phase
            {512ull * 1024, 0.960},     // Low-class kernel (kmeans)
            {2816ull * 1024, 0.948},    // Medium-class kernel (bfs)
            {8ull << 20, 0.915},        // High-class kernel (backprop)
        };
        uint64_t base = 0;
        for (uint32_t c = 0; c < 4; ++c) {
            AddressStreamSpec spec;
            spec.workingSetBytes = shapes[c].wsBytes;
            spec.hotFraction = shapes[c].hot;
            streams.push_back(std::make_unique<AddressStream>(
                spec, base, Rng(0x1234 + c)));
            base += 2 * (spec.workingSetBytes / 64);
            MemSampleRequest req;
            req.core = c;
            req.stream = streams.back().get();
            req.samples = samples_per_core;
            requests.push_back(req);
        }
    }
};

/**
 * Fleet-shaped walk traffic. Every corpus page runs its render phases
 * in order, kWalksPerPhase walks each, with its main thread on core 0;
 * a co-run kernel (the catalog in turn, one per page) is live on
 * core 2 in 16 of every 25 walks, giving 1.64 live streams per walk.
 * Cores 1 and 3 submit zero-sample requests, as idle cores do.
 */
struct FleetFixture
{
    static constexpr uint32_t kSamples = 1250;
    static constexpr int kWalksPerPhase = 5;

    MemSystem mem{MemSystemConfig{}};
    std::vector<std::unique_ptr<AddressStream>> streams;
    /** One 4-core request list per walk, in schedule order. */
    std::vector<std::vector<MemSampleRequest>> walks;
    std::vector<MemSampleResult> results;
    uint64_t samplesPerPass = 0;

    FleetFixture()
    {
        const RenderCostModel cost;
        const auto &pages = PageCorpus::all();
        const auto &kernels = KernelCatalog::all();
        size_t w = 0;
        for (size_t p = 0; p < pages.size(); ++p) {
            const KernelSpec &kernel = kernels[p % kernels.size()];
            streams.push_back(std::make_unique<AddressStream>(
                kernel.stream, (64 + p) << 28, Rng("memsample-kernel:" +
                                                   kernel.name)));
            AddressStream *corun = streams.back().get();
            for (const RenderPhase &phase : cost.phases(pages[p])) {
                streams.push_back(std::make_unique<AddressStream>(
                    phase.stream, (1 + p) << 28,
                    Rng("memsample-page:" + pages[p].name + "/" +
                        phase.name)));
                for (int k = 0; k < kWalksPerPhase; ++k, ++w) {
                    const bool with_kernel = w % 25 < 16;
                    walks.push_back(
                        {{0, streams.back().get(), kSamples},
                         {1, nullptr, 0},
                         {2, corun, with_kernel ? kSamples : 0},
                         {3, nullptr, 0}});
                    samplesPerPass += with_kernel ? 2 * kSamples
                                                  : kSamples;
                }
            }
        }
    }

    /** Walk the whole schedule once through the cache hierarchy. */
    void walkPass()
    {
        for (const auto &reqs : walks)
            mem.tickSample(reqs, results);
    }

    /** Generate the whole schedule's addresses once, no caches. */
    void generatePass(std::vector<uint64_t> &buf)
    {
        for (const auto &reqs : walks)
            for (const MemSampleRequest &r : reqs)
                if (r.samples > 0)
                    r.stream->nextRuns(buf.data(), r.samples);
    }
};

void
BM_TickSampleWalk(benchmark::State &state)
{
    const uint32_t samples = static_cast<uint32_t>(state.range(0));
    WalkFixture f(samples);
    for (auto _ : state) {
        f.mem.tickSample(f.requests, f.results);
        benchmark::DoNotOptimize(f.results.data());
    }
    state.SetItemsProcessed(state.iterations() * 4 * samples);
}
BENCHMARK(BM_TickSampleWalk)->Arg(256)->Arg(2048)->Arg(8192);

void
BM_AddressStreamNext(benchmark::State &state)
{
    AddressStreamSpec spec;
    spec.workingSetBytes = 2816ull * 1024;
    spec.hotFraction = 0.948;
    AddressStream stream(spec, 0, Rng(0x5678));
    for (auto _ : state)
        benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_AddressStreamNext);

/** Machine-readable summary for scripts/run_benches.sh. */
void
printSummary()
{
    constexpr uint32_t kSamples = 2048;
    constexpr int kRepeats = 200;
    WalkFixture f(kSamples);
    // Warm the modeled caches so the steady-state path is measured.
    for (int i = 0; i < 50; ++i)
        f.mem.tickSample(f.requests, f.results);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRepeats; ++i)
        f.mem.tickSample(f.requests, f.results);
    auto t1 = std::chrono::steady_clock::now();
    const double walk_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        (static_cast<double>(kRepeats) * 4 * kSamples);

    AddressStreamSpec spec;
    spec.workingSetBytes = 2816ull * 1024;
    spec.hotFraction = 0.948;
    AddressStream stream(spec, 0, Rng(0x5678));
    constexpr int kDraws = 2000000;
    uint64_t sink = 0;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kDraws; ++i)
        sink ^= stream.next();
    t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    const double next_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        kDraws;

    // Fleet-shaped traffic: the whole walk, then generation alone on
    // an identical fixture (same seeds, same draw sequence).
    constexpr int kPasses = 5;
    FleetFixture walk_f;
    walk_f.walkPass();  // warm the caches
    uint64_t l1_accesses = 0, l1_misses = 0;
    for (uint32_t c = 0; c < 4; ++c) {
        l1_accesses -= walk_f.mem.l1(c).stats(0).accesses;
        l1_misses -= walk_f.mem.l1(c).stats(0).misses;
    }
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPasses; ++i)
        walk_f.walkPass();
    t1 = std::chrono::steady_clock::now();
    for (uint32_t c = 0; c < 4; ++c) {
        l1_accesses += walk_f.mem.l1(c).stats(0).accesses;
        l1_misses += walk_f.mem.l1(c).stats(0).misses;
    }
    const double fleet_samples =
        static_cast<double>(kPasses) *
        static_cast<double>(walk_f.samplesPerPass);
    const double fleet_walk_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        fleet_samples;

    FleetFixture gen_f;
    std::vector<uint64_t> buf(FleetFixture::kSamples);
    gen_f.generatePass(buf);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPasses; ++i)
        gen_f.generatePass(buf);
    t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(buf.data());
    const double gen_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        fleet_samples;

    std::cout << "MEMSAMPLE_WALK_NS_PER_SAMPLE " << walk_ns << "\n"
              << "MEMSAMPLE_STREAM_NEXT_NS " << next_ns << "\n"
              << "MEMSAMPLE_FLEET_WALK_NS_PER_SAMPLE " << fleet_walk_ns
              << "\n"
              << "MEMSAMPLE_GEN_NS_PER_SAMPLE " << gen_ns << "\n"
              << "MEMSAMPLE_FLEET_PROBE_NS_PER_SAMPLE "
              << fleet_walk_ns - gen_ns << "\n"
              << "MEMSAMPLE_FLEET_STREAMS_PER_WALK "
              << static_cast<double>(walk_f.samplesPerPass) /
                     (FleetFixture::kSamples *
                      static_cast<double>(walk_f.walks.size()))
              << "\n"
              << "MEMSAMPLE_FLEET_L1_MISS_RATE "
              << static_cast<double>(l1_misses) /
                     static_cast<double>(l1_accesses)
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ObsGuard obs(argc, argv);
    benchmark::Initialize(&argc, argv);
    // After Initialize, which removes every --benchmark_* flag it
    // parsed. One it could not parse (google-benchmark 1.7 reads
    // --benchmark_min_time only as a plain number, so "0.1s" stays)
    // or a misspelled one is left in argv and is fatal here.
    cliCheckFlags(argc, argv,
                  "Micro-benchmarks of the sampled memory walk. "
                  "--benchmark_* flags go to google-benchmark.",
                  {});
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printSummary();
    return 0;
}
