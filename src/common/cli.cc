#include "common/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/logging.hh"

namespace dora
{

namespace
{

/** Flags the shared helpers read in every binary (bench_util.hh). */
const std::vector<CliFlag> &
sharedFlags()
{
    static const std::vector<CliFlag> shared = {
        {"--jobs", "N", "threads (default $DORA_JOBS, else all cores)"},
        {"--workers", "N",
         "worker processes (default $DORA_WORKERS, else 0)"},
        {"--trace", "DIR", "write per-run traces under DIR"},
        {"--exact-ticks", nullptr, "walk the caches on every tick"},
    };
    return shared;
}

const CliFlag *
findFlag(const std::vector<CliFlag> &flags, std::string_view name)
{
    for (const std::vector<CliFlag> *set : {&flags, &sharedFlags()})
        for (const CliFlag &f : *set)
            if (name == f.name)
                return &f;
    return nullptr;
}

void
appendFlagLines(std::string &out, const std::vector<CliFlag> &flags)
{
    for (const CliFlag &f : flags) {
        std::string left = std::string("  ") + f.name;
        if (f.value)
            left += std::string(" ") + f.value;
        left.resize(std::max<size_t>(left.size() + 2, 34), ' ');
        out += left + f.help + "\n";
    }
}

std::string
usageText(const char *prog, const char *about,
          const std::vector<CliFlag> &flags)
{
    std::string out = std::string("usage: ") + prog + " [flags]\n" +
        about + "\n\nflags:\n";
    appendFlagLines(out, flags);
    out += "\nshared flags:\n";
    appendFlagLines(out, sharedFlags());
    out += "  --help                          print this listing\n";
    return out;
}

} // namespace

std::optional<std::string>
cliFlagValue(int argc, char **argv, const std::string &flag)
{
    std::optional<std::string> value;
    const std::string inlinePrefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg == nullptr)
            continue;
        if (std::strncmp(arg, inlinePrefix.c_str(),
                         inlinePrefix.size()) == 0) {
            value = arg + inlinePrefix.size();
        } else if (flag == arg) {
            if (i + 1 >= argc || argv[i + 1] == nullptr)
                fatal("%s: missing value (want '%s <value>' or "
                      "'%s=<value>')",
                      flag.c_str(), flag.c_str(), flag.c_str());
            value = argv[++i];
        }
    }
    return value;
}

bool
cliHasFlag(int argc, char **argv, const std::string &flag)
{
    bool present = false;
    const std::string inlinePrefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg == nullptr)
            continue;
        if (flag == arg)
            present = true;
        else if (std::strncmp(arg, inlinePrefix.c_str(),
                              inlinePrefix.size()) == 0)
            fatal("%s: takes no value (got '%s')", flag.c_str(), arg);
    }
    return present;
}

void
cliCheckFlags(int argc, char **argv, const char *about,
              const std::vector<CliFlag> &flags)
{
    const char *prog = argc > 0 && argv[0] ? argv[0] : "program";
    if (const char *slash = std::strrchr(prog, '/'))
        prog = slash + 1;
    for (int i = 1; i < argc; ++i)
        if (argv[i] && (std::strcmp(argv[i], "--help") == 0 ||
                        std::strcmp(argv[i], "-h") == 0)) {
            // The listing is the program's output here, not a log
            // line, and it is multi-line.
            // NOLINTNEXTLINE(dora-hyg-stream)
            std::fputs(usageText(prog, about, flags).c_str(), stdout);
            std::exit(0);
        }
    for (int i = 1; i < argc; ++i) {
        if (argv[i] == nullptr)
            continue;
        const std::string_view arg(argv[i]);
        const size_t eq = arg.find('=');
        const CliFlag *flag = arg.rfind("--", 0) == 0
            ? findFlag(flags, arg.substr(0, eq))
            : nullptr;
        if (flag == nullptr) {
            // NOLINTNEXTLINE(dora-hyg-stream)
            std::fputs(usageText(prog, about, flags).c_str(), stderr);
            fatal("%s: %s '%s' (see the listing above)", prog,
                  arg.rfind("--", 0) == 0 ? "unknown flag"
                                          : "unexpected argument",
                  argv[i]);
        }
        // Skip a separated value; cliFlagValue() diagnoses a missing
        // one, cliHasFlag() a value given to a boolean flag.
        if (flag->value && eq == std::string_view::npos)
            ++i;
    }
}

long
cliParseInt(const std::string &text, const char *origin, long min,
            long max)
{
    char *end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: malformed integer '%s'", origin, text.c_str());
    if (value < min || value > max)
        fatal("%s: %ld out of range [%ld, %ld]", origin, value, min,
              max);
    return value;
}

double
cliParseDouble(const std::string &text, const char *origin, double min,
               double max)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: malformed number '%s'", origin, text.c_str());
    if (!(value >= min && value <= max))
        fatal("%s: %g out of range [%g, %g]", origin, value, min, max);
    return value;
}

const char *
envNonEmpty(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return nullptr;
    if (*env == '\0') {
        warn("$%s is set but empty; treating it as unset", name);
        return nullptr;
    }
    return env;
}

} // namespace dora
