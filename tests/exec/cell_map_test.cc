/**
 * @file
 * Tests for the cell map (exec/cell_map.hh): every tier returns the
 * same grid, the fold absorbs every index once and in order however
 * the workers finish, a checkpointed prefix is skipped and its durable
 * floor compacts the journal, the process tier journals under
 * `<stem>.<hash>.jrn`, a cell that dies only inside a worker is
 * quarantined and recomputed in-process, a payload that does not
 * decode is fatal, and a journal written by an earlier build resumes
 * (tests/exec/fixtures/).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "exec/cell_map.hh"
#include "obs/metrics.hh"

namespace dora
{
namespace
{

std::string
encodeU64(const uint64_t &value)
{
    return std::to_string(value);
}

bool
decodeU64(std::string_view bytes, uint64_t *out)
{
    if (bytes.empty() || bytes.size() > 20)
        return false;
    uint64_t value = 0;
    for (const char c : bytes) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = value;
    return true;
}

bool
decodeNever(std::string_view, uint64_t *)
{
    return false;
}

const CellCodec<uint64_t> kCodec{encodeU64, decodeU64};

uint64_t
cellValue(size_t i)
{
    return 1000003u * i * i + 17u;
}

CellMapConfig
tier(unsigned jobs, unsigned workers)
{
    CellMapConfig config;
    config.jobs = jobs;
    config.workers = workers;
    config.campaignHash = 0x5eedu;
    config.who = "cell-map-test";
    return config;
}

TEST(CellMap, EveryTierReturnsTheSameGrid)
{
    const size_t n = 7;
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < n; ++i)
        expected.push_back(cellValue(i));

    for (const CellMapConfig &config :
         {tier(1, 0), tier(3, 0), tier(1, 2)})
        EXPECT_EQ(mapCells<uint64_t>(n, config, kCodec, cellValue),
                  expected)
            << "jobs=" << config.jobs << " workers=" << config.workers;
    EXPECT_TRUE(
        mapCells<uint64_t>(0, tier(1, 2), kCodec, cellValue).empty());
}

/** The indices a fold absorbed, checked against cellValue. */
std::vector<size_t>
foldOrder(size_t n, const CellMapConfig &config,
          const std::function<uint64_t(size_t)> &cell,
          const FoldCheckpoint &checkpoint = {})
{
    std::vector<size_t> order;
    foldCells<uint64_t>(
        n, config, kCodec, cell,
        [&](size_t i, uint64_t &&value) {
            EXPECT_EQ(value, cellValue(i)) << "cell " << i;
            order.push_back(i);
        },
        checkpoint);
    return order;
}

std::vector<size_t>
indices(size_t first, size_t n)
{
    std::vector<size_t> out;
    for (size_t i = first; i < n; ++i)
        out.push_back(i);
    return out;
}

TEST(CellMap, OutOfOrderCompletionIsAbsorbedInOrder)
{
    // Cell 0 is the slowest, so the other worker finishes every later
    // cell first; absorb must still see 0, 1, ..., n-1, each once.
    const pid_t supervisor = ::getpid();
    const auto cell = [supervisor](size_t i) {
        if (i == 0 && ::getpid() != supervisor)
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return cellValue(i);
    };
    EXPECT_EQ(foldOrder(6, tier(1, 2), cell), indices(0, 6));
}

TEST(CellMap, QuarantinedMiddleCellIsRecomputedInOrder)
{
    const pid_t supervisor = ::getpid();
    const auto cell = [supervisor](size_t i) {
        if (i == 2 && ::getpid() != supervisor)
            std::abort();
        return cellValue(i);
    };
    ::testing::internal::CaptureStderr();
    const std::vector<size_t> order = foldOrder(5, tier(1, 2), cell);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(order, indices(0, 5));
    EXPECT_NE(err.find("cell-map-test: cell 2 was quarantined by the "
                       "process tier; recomputing in-process"),
              std::string::npos)
        << err;
}

TEST(CellMap, CheckpointedPrefixIsNeverRunOrAbsorbed)
{
    FoldCheckpoint checkpoint;
    checkpoint.prefix = 3;
    const auto cell = [](size_t i) {
        if (i < 3)
            std::abort();
        return cellValue(i);
    };
    for (const CellMapConfig &config :
         {tier(1, 0), tier(3, 0), tier(1, 2)})
        EXPECT_EQ(foldOrder(7, config, cell, checkpoint), indices(3, 7))
            << "jobs=" << config.jobs << " workers=" << config.workers;
}

TEST(CellMap, DurableFloorCompactsTheJournalToItsHeader)
{
    namespace fs = std::filesystem;
    const std::string stem = ::testing::TempDir() + "cell_map_floor";
    const std::string journal = stem + ".0x0000000000005eed.jrn";
    fs::remove(journal);

    // Every folded cell is durable outside the journal at once, so
    // each completion compacts its record away.
    CellMapConfig config = tier(1, 2);
    config.journalStem = stem;
    FoldCheckpoint checkpoint;
    std::vector<size_t> saved;
    checkpoint.save = [&](size_t folded) {
        saved.push_back(folded);
        return folded;
    };
    EXPECT_EQ(foldOrder(5, config, cellValue, checkpoint), indices(0, 5));
    EXPECT_EQ(saved, indices(1, 6));
    EXPECT_EQ(fs::file_size(journal), 36u);  // the header alone
    fs::remove(journal);
}

TEST(CellMap, ProcessTierJournalsUnderStemAndHash)
{
    namespace fs = std::filesystem;
    const std::string stem = ::testing::TempDir() + "cell_map_test";
    const std::string journal = stem + ".0x0000000000005eed.jrn";
    fs::remove(journal);

    CellMapConfig config = tier(1, 2);
    config.journalStem = stem;
    const auto first = mapCells<uint64_t>(5, config, kCodec, cellValue);
    EXPECT_TRUE(fs::exists(journal)) << journal;
    // A rerun resumes every cell from the journal.
    const auto resumed = mapCells<uint64_t>(
        5, config, kCodec, [](size_t) -> uint64_t { std::abort(); });
    EXPECT_EQ(resumed, first);
    fs::remove(journal);
}

TEST(CellMap, WorkerOnlyCrashIsQuarantinedAndRecomputed)
{
    // Cell 3 aborts in every worker attempt but computes normally in
    // the supervisor, so the map must quarantine it and recompute it
    // in-process to the value the serial loop gives.
    const pid_t supervisor = ::getpid();
    const auto cell = [supervisor](size_t i) {
        if (i == 3 && ::getpid() != supervisor)
            std::abort();
        return cellValue(i);
    };
    ::testing::internal::CaptureStderr();
    const auto results = mapCells<uint64_t>(6, tier(1, 2), kCodec, cell);
    const std::string err = ::testing::internal::GetCapturedStderr();

    ASSERT_EQ(results.size(), 6u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], cellValue(i)) << "cell " << i;
    EXPECT_NE(err.find("cell 3 was quarantined"), std::string::npos)
        << err;
}

TEST(CellMap, FixtureJournalResumesToRecordedGrid)
{
    // The fixture is the journal of a one-worker map of six cells
    // whose supervisor was SIGKILLed while cell 3 ran: cells 0-2 are
    // journaled. A resume from a copy must take them from the journal
    // (computing one would abort) and return the recorded grid.
    namespace fs = std::filesystem;
    const std::string fixtures =
        std::string(DORA_SOURCE_DIR) + "/tests/exec/fixtures/";
    const std::string stem = ::testing::TempDir() + "cell_map_fixture";
    const std::string journal = stem + ".0x0000000000005eed.jrn";
    fs::remove(journal);
    fs::copy_file(fixtures + "cell_map.0x0000000000005eed.jrn", journal);

    std::vector<uint64_t> recorded;
    std::ifstream grid(fixtures + "cell_map_grid.txt");
    for (uint64_t value; grid >> value;)
        recorded.push_back(value);
    ASSERT_EQ(recorded.size(), 6u);

    CellMapConfig config = tier(1, 1);
    config.journalStem = stem;
    MetricCounter &resumed =
        MetricsRegistry::global().counter("proc.units_resumed");
    const uint64_t resumed0 = resumed.value();
    const auto results =
        mapCells<uint64_t>(6, config, kCodec, [](size_t i) {
            if (i < 3)
                std::abort();
            return cellValue(i);
        });
    EXPECT_EQ(results, recorded);
    EXPECT_EQ(resumed.value() - resumed0, 3u);
    fs::remove(journal);
}

TEST(CellMapDeath, UndecodablePayloadIsFatal)
{
    const CellCodec<uint64_t> broken{encodeU64, decodeNever};
    EXPECT_EXIT(mapCells<uint64_t>(2, tier(1, 1), broken, cellValue),
                ::testing::ExitedWithCode(1),
                "cell-map-test: cell 0 payload .* does not decode");
}

} // namespace
} // namespace dora
