/**
 * @file
 * Shared command-line and environment parsing helpers.
 *
 * Every binary in the tree accepts a small set of long flags
 * (`--jobs`, `--workers`, `--trace`, `--fleet-*`). Before this helper
 * existed each parser open-coded the scan and silently ignored a
 * trailing flag with a missing value (`dora-fleet --jobs` fell through
 * to the default job count). Routing every flag through
 * cliFlagValue() makes a missing value a fatal diagnostic instead of
 * a silent misconfiguration, and cliCheckFlags() does the same for a
 * misspelled or unknown flag.
 */

#ifndef DORA_COMMON_CLI_HH
#define DORA_COMMON_CLI_HH

#include <optional>
#include <string>
#include <vector>

namespace dora
{

/**
 * Value of the last occurrence of @p flag in argv, accepting both the
 * separated (`--flag value`) and inline (`--flag=value`) spellings.
 *
 * Returns std::nullopt when the flag never appears. A separated
 * occurrence with no following argument (`... --flag`) is a user
 * error and fatal()s — it used to be silently ignored. The last
 * occurrence wins so wrapper scripts can append overrides.
 */
std::optional<std::string> cliFlagValue(int argc, char **argv,
                                        const std::string &flag);

/**
 * True when boolean @p flag appears in argv (exact match — a value
 * spelling like `--flag=x` is a user error and fatal()s, because a
 * boolean flag that silently accepted `--exact-ticks=0` would read as
 * disabling the mode while actually enabling it).
 */
bool cliHasFlag(int argc, char **argv, const std::string &flag);

/** One flag a binary declares to cliCheckFlags(). */
struct CliFlag
{
    const char *name;   //!< e.g. "--fleet-devices"
    const char *value;  //!< value placeholder ("N"); nullptr: boolean
    const char *help;   //!< one line for the usage listing
};

/**
 * Reject every argument a binary does not declare. Each argument must
 * be one of @p flags, one of the shared flags every binary accepts
 * (`--jobs N`, `--workers N`, `--trace DIR`, `--exact-ticks`), or
 * the value of a separated `--flag value`.
 * `--help` (or `-h`) prints the usage listing, headed by @p about, to
 * stdout and exits 0; anything undeclared is fatal, with the listing
 * on stderr. Call it first in main(), before any flag is read; value
 * checks stay with cliFlagValue() and cliParseInt().
 */
void cliCheckFlags(int argc, char **argv, const char *about,
                   const std::vector<CliFlag> &flags);

/**
 * Parse @p text as a decimal integer in [@p min, @p max]; fatal()s
 * with @p origin (e.g. "--workers" or "$DORA_WORKERS") in the
 * diagnostic on malformed or out-of-range input.
 */
long cliParseInt(const std::string &text, const char *origin, long min,
                 long max);

/** Like cliParseInt but for a finite double in [@p min, @p max]. */
double cliParseDouble(const std::string &text, const char *origin,
                      double min, double max);

/**
 * getenv() that treats an empty-but-set variable as unset — loudly.
 *
 * `export DORA_WORKERS=` in a CI matrix used to behave exactly like
 * the variable being absent, hiding the misconfiguration. This helper
 * warns (rate-limited via warn()) the first few times an empty-but-set
 * variable is consulted, then falls back to nullptr.
 */
const char *envNonEmpty(const char *name);

} // namespace dora

#endif // DORA_COMMON_CLI_HH
