/**
 * @file
 * Tests for the shared CLI/env parsing helpers (common/cli.hh) and
 * the silent-misconfiguration regressions they fix:
 *
 *  - a trailing flag with a missing value (`bench --jobs`) used to be
 *    silently ignored by the --jobs/--trace parsers; it must now exit
 *    fatally with a diagnostic naming the flag;
 *  - an empty-but-set environment variable (`export DORA_JOBS=`) used
 *    to behave exactly like an unset one; it must now warn (once,
 *    rate-limited) and then fall back;
 *  - an undeclared flag, such as the removed `--lanes`, used to be
 *    ignored; it must now exit fatally with the usage listing.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/trace.hh"

namespace dora
{
namespace
{

/** Owns argv storage so tests can write literal command lines. */
class Argv
{
  public:
    explicit Argv(std::initializer_list<const char *> args)
        : strings_(args.begin(), args.end())
    {
        for (auto &s : strings_)
            pointers_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char **argv() { return pointers_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> pointers_;
};

/** Scoped setenv/unsetenv that restores the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

TEST(CliFlagValue, AbsentFlagReturnsNullopt)
{
    Argv args({"bench", "--other", "7"});
    EXPECT_FALSE(
        cliFlagValue(args.argc(), args.argv(), "--workers").has_value());
}

TEST(CliFlagValue, SeparatedAndInlineSpellings)
{
    Argv separated({"bench", "--workers", "8"});
    EXPECT_EQ(cliFlagValue(separated.argc(), separated.argv(),
                           "--workers"),
              "8");

    Argv inlined({"bench", "--workers=16"});
    EXPECT_EQ(cliFlagValue(inlined.argc(), inlined.argv(), "--workers"),
              "16");
}

TEST(CliFlagValue, LastOccurrenceWins)
{
    // Wrapper scripts append overrides, so later flags must shadow
    // earlier ones in both spellings.
    Argv args(
        {"bench", "--workers", "2", "--workers=4", "--workers", "6"});
    EXPECT_EQ(cliFlagValue(args.argc(), args.argv(), "--workers"), "6");
}

TEST(CliFlagValue, PrefixIsNotAMatch)
{
    // --workers must not swallow --workers-foo (and vice versa).
    Argv args({"bench", "--workers-foo", "3"});
    EXPECT_FALSE(
        cliFlagValue(args.argc(), args.argv(), "--workers").has_value());
}

using CliDeath = ::testing::Test;

TEST(CliDeath, TrailingFlagWithoutValueIsFatal)
{
    Argv args({"bench", "--workers"});
    EXPECT_EXIT(cliFlagValue(args.argc(), args.argv(), "--workers"),
                ::testing::ExitedWithCode(1), "--workers: missing value");
}

// The historical offenders: each parser silently ignored a
// trailing flag before they were routed through cliFlagValue().

TEST(CliDeath, TrailingJobsFlagIsFatal)
{
    Argv args({"bench", "--jobs"});
    EXPECT_EXIT(jobCountFromArgs(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1), "--jobs: missing value");
}

TEST(CliDeath, TrailingTraceFlagIsFatal)
{
    Argv args({"bench", "--trace"});
    EXPECT_EXIT(ObsGuard(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1), "--trace: missing value");
}

TEST(CliDeath, MalformedIntIsFatal)
{
    EXPECT_EXIT(cliParseInt("4x", "--workers", 1, 4096),
                ::testing::ExitedWithCode(1), "--workers");
    EXPECT_EXIT(cliParseInt("", "--jobs", 1, 1024),
                ::testing::ExitedWithCode(1), "--jobs");
}

TEST(CliDeath, OutOfRangeIntIsFatal)
{
    EXPECT_EXIT(cliParseInt("0", "--workers", 1, 4096),
                ::testing::ExitedWithCode(1), "--workers");
    EXPECT_EXIT(cliParseInt("5000", "--workers", 1, 4096),
                ::testing::ExitedWithCode(1), "--workers");
}

TEST(CliDeath, MalformedDoubleIsFatal)
{
    EXPECT_EXIT(cliParseDouble("fast", "--fleet-fault-incidence", 0.0,
                               1.0),
                ::testing::ExitedWithCode(1), "--fleet-fault-incidence");
    EXPECT_EXIT(cliParseDouble("1.5", "--fleet-fault-incidence", 0.0,
                               1.0),
                ::testing::ExitedWithCode(1), "--fleet-fault-incidence");
}

/** The declared flag set of a dora-fleet-like binary. */
void
checkFleetFlags(Argv &args)
{
    cliCheckFlags(args.argc(), args.argv(), "Run a fleet campaign.",
                  {{"--fleet-devices", "N", "devices to sample"},
                   {"--fleet-journal", "STEM", "journal stem"},
                   {"--verbose", nullptr, "say more"}});
}

TEST(CliCheckFlags, DeclaredAndSharedFlagsPass)
{
    Argv args({"dora-fleet", "--fleet-devices", "3", "--fleet-journal=j",
               "--verbose", "--jobs", "2", "--workers=1", "--trace", "dir",
               "--exact-ticks"});
    checkFleetFlags(args);
}

TEST(CliCheckFlags, SeparatedValueIsNotCheckedAsAFlag)
{
    Argv args({"dora-fleet", "--fleet-journal", "--odd-stem"});
    checkFleetFlags(args);
}

TEST(CliDeath, UndeclaredFlagIsFatalWithUsage)
{
    // The ROADMAP regression: a typo and a bogus flag used to start
    // the default campaign silently.
    Argv args({"dora-fleet", "--fleet-devicez", "3", "--bogus"});
    EXPECT_EXIT(checkFleetFlags(args), ::testing::ExitedWithCode(1),
                "usage: dora-fleet.*--fleet-devices N.*--jobs N.*"
                "unknown flag '--fleet-devicez'");
}

TEST(CliDeath, RemovedLanesFlagIsFatal)
{
    // Lane batching is gone; a script still passing --lanes must
    // fail loudly instead of silently running without it.
    Argv args({"dora-fleet", "--lanes", "8"});
    EXPECT_EXIT(checkFleetFlags(args), ::testing::ExitedWithCode(1),
                "usage: dora-fleet.*unknown flag '--lanes'");
}

TEST(CliDeath, UndeclaredInlineFlagIsFatal)
{
    Argv args({"dora-fleet", "--fleet-devicez=3"});
    EXPECT_EXIT(checkFleetFlags(args), ::testing::ExitedWithCode(1),
                "unknown flag '--fleet-devicez=3'");
}

TEST(CliDeath, StrayPositionalArgumentIsFatal)
{
    Argv args({"dora-fleet", "--fleet-devices", "3", "4"});
    EXPECT_EXIT(checkFleetFlags(args), ::testing::ExitedWithCode(1),
                "unexpected argument '4'");
}

TEST(CliDeath, HelpPrintsUsageAndExitsZero)
{
    // --help wins wherever it appears; the listing goes to stdout,
    // sent to stderr here so the death-test matcher sees it.
    for (const char *help : {"--help", "-h"}) {
        Argv args({"/bin/dir/dora-fleet", "--bogus", help});
        EXPECT_EXIT(
            {
                ::dup2(STDERR_FILENO, STDOUT_FILENO);
                checkFleetFlags(args);
            },
            ::testing::ExitedWithCode(0),
            "usage: dora-fleet \\[flags\\].*Run a fleet campaign.*"
            "--fleet-journal STEM +journal stem.*--verbose +say more.*"
            "shared flags:.*--exact-ticks.*--help");
    }
}

TEST(CliParse, AcceptsValuesInsideRange)
{
    EXPECT_EQ(cliParseInt("8", "--workers", 1, 4096), 8);
    EXPECT_EQ(cliParseInt("1", "--jobs", 1, 1024), 1);
    EXPECT_DOUBLE_EQ(cliParseDouble("0.25", "--x", 0.0, 1.0), 0.25);
}

TEST(EnvNonEmpty, SetValuePassesThrough)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", "17");
    const char *value = envNonEmpty("DORA_CLI_TEST_VAR");
    ASSERT_NE(value, nullptr);
    EXPECT_STREQ(value, "17");
}

TEST(EnvNonEmpty, UnsetReturnsNullWithoutWarning)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", nullptr);
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(envNonEmpty("DORA_CLI_TEST_VAR"), nullptr);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(EnvNonEmpty, EmptyButSetWarnsAndFallsBack)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(envNonEmpty("DORA_CLI_TEST_VAR"), nullptr);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DORA_CLI_TEST_VAR"), std::string::npos) << err;
    EXPECT_NE(err.find("empty"), std::string::npos) << err;
}

TEST(EnvNonEmpty, EmptyWarningIsRateLimited)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    for (uint64_t i = 0; i < warnEmitLimit() + 10; ++i)
        EXPECT_EQ(envNonEmpty("DORA_CLI_TEST_VAR"), nullptr);
    const std::string err = ::testing::internal::GetCapturedStderr();
    size_t lines = 0;
    for (char c : err)
        lines += (c == '\n');
    // The sink prints warnEmitLimit() warnings plus one final
    // "suppressing further repeats" notice.
    EXPECT_LE(lines, warnEmitLimit() + 1);
    EXPECT_GE(warnSuppressedTotal(), 10u);
    resetWarnSuppression();
}

TEST(EnvNonEmpty, EmptyJobsVarFallsBackToHardware)
{
    ScopedEnv env("DORA_JOBS", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_GE(defaultJobCount(), 1u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DORA_JOBS"), std::string::npos) << err;
    resetWarnSuppression();
}

} // namespace
} // namespace dora
