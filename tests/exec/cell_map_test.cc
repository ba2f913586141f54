/**
 * @file
 * Tests for the cell map (exec/cell_map.hh): every tier returns the
 * same grid, the process tier journals under `<stem>.<hash>.jrn`, a
 * cell that dies only inside a worker is quarantined and recomputed
 * in-process, and a payload that does not decode is fatal.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/cell_map.hh"

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

TEST(CellMapDeath, UndecodablePayloadIsFatal)
{
    const CellCodec<uint64_t> broken{encodeU64, decodeNever};
    EXPECT_EXIT(mapCells<uint64_t>(2, tier(1, 1), broken, cellValue),
                ::testing::ExitedWithCode(1),
                "cell-map-test: cell 0 payload .* does not decode");
}

} // namespace
} // namespace dora
