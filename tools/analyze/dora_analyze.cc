/**
 * @file
 * dora-analyze command-line driver.
 *
 *   dora-analyze [--repo DIR] [--json FILE] [--list-rules]
 *                [--regen-manifest [--allow-same-version]]
 *                [subdirs...]
 *
 * Walks src/ tests/ bench/ tools/ (or the given subdirs) under the
 * repo root, applies every rule of analyze_engine.hh (line rules per
 * file, model rules over the cross-TU structural model), prints
 * findings as `path:line: [rule-id] message`, optionally writes the
 * JSON report, and exits 1 if anything was found — which is how
 * scripts/ci.sh turns the rule set into a gate.
 *
 * --regen-manifest recomputes tools/analyze/serialized_layouts.json
 * from the tree. It refuses to bless a layout that changed while its
 * version token did not (that is exactly the bug the rule exists to
 * catch); pass --allow-same-version for cosmetic rewrites (e.g. a
 * renamed local fed to the same put calls) after review.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyze_engine.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--repo DIR] [--json FILE] [--list-rules]\n"
        "          [--regen-manifest [--allow-same-version]] "
        "[subdirs...]\n"
        "  --repo DIR          repository root to scan (default: .)\n"
        "  --json FILE         also write findings as a JSON report\n"
        "  --list-rules        print the rule catalog and exit\n"
        "  --regen-manifest    rewrite "
        "tools/analyze/serialized_layouts.json\n"
        "  --allow-same-version  bless a layout rewrite that kept its "
        "version\n"
        "  subdirs             repo-relative roots (default: src "
        "tests bench tools)\n",
        argv0);
    return 2;
}

std::string
readFile(const std::filesystem::path &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    *ok = in.good();
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

int
regenManifest(const std::string &repo,
              const std::vector<std::string> &subdirs,
              bool allow_same_version)
{
    namespace fs = std::filesystem;
    using dora::analyze::LayoutRecord;

    std::vector<dora::analyze::Finding> problems;
    const dora::analyze::TreeModel model =
        dora::analyze::loadTree(repo, subdirs);
    const std::vector<LayoutRecord> computed =
        dora::analyze::computeLayouts(model, &problems);
    if (!problems.empty()) {
        std::fputs(dora::analyze::renderText(problems).c_str(),
                   stderr);
        std::fprintf(stderr,
                     "dora-analyze: cannot regenerate the manifest "
                     "while format anchors are broken\n");
        return 2;
    }

    const fs::path manifest_path =
        fs::path(repo) / dora::analyze::manifestRelPath();
    if (fs::exists(manifest_path) && !allow_same_version) {
        bool ok = false;
        const std::string old_json = readFile(manifest_path, &ok);
        std::vector<LayoutRecord> recorded;
        std::string error;
        if (ok && dora::analyze::parseManifest(old_json, &recorded,
                                               &error)) {
            std::map<std::string, const LayoutRecord *> by_name;
            for (const LayoutRecord &rec : recorded)
                by_name[rec.name] = &rec;
            bool refused = false;
            for (const LayoutRecord &c : computed) {
                const auto it = by_name.find(c.name);
                if (it == by_name.end())
                    continue;
                if (c.layout != it->second->layout &&
                    c.version == it->second->version) {
                    std::fprintf(
                        stderr,
                        "dora-analyze: refusing to bless '%s': the "
                        "layout changed but the version token is "
                        "still %s\n",
                        c.name.c_str(), c.version.c_str());
                    refused = true;
                }
            }
            if (refused) {
                std::fprintf(
                    stderr,
                    "dora-analyze: bump the version token(s) first, "
                    "or pass --allow-same-version for a reviewed "
                    "cosmetic rewrite\n");
                return 2;
            }
        }
    }

    fs::create_directories(manifest_path.parent_path());
    std::ofstream out(manifest_path, std::ios::trunc);
    out << dora::analyze::renderManifest(computed);
    if (!out.good()) {
        std::fprintf(stderr,
                     "dora-analyze: cannot write manifest %s\n",
                     manifest_path.string().c_str());
        return 2;
    }
    std::fprintf(stderr,
                 "dora-analyze: wrote %zu format%s to %s\n",
                 computed.size(), computed.size() == 1 ? "" : "s",
                 manifest_path.string().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string repo = ".";
    std::string json_path;
    std::vector<std::string> subdirs;
    bool list_rules = false;
    bool regen = false;
    bool allow_same_version = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--repo" && i + 1 < argc) {
            repo = argv[++i];
        } else if (arg.rfind("--repo=", 0) == 0) {
            repo = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--regen-manifest") {
            regen = true;
        } else if (arg == "--allow-same-version") {
            allow_same_version = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "dora-analyze: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            subdirs.push_back(arg);
        }
    }

    if (list_rules) {
        for (const auto &rule : dora::analyze::ruleCatalog())
            std::printf("%-28s %s\n", rule.id, rule.summary);
        return 0;
    }

    if (subdirs.empty())
        subdirs = dora::analyze::defaultSubdirs();

    if (regen)
        return regenManifest(repo, subdirs, allow_same_version);

    std::vector<std::string> scanned;
    const std::vector<dora::analyze::Finding> findings =
        dora::analyze::analyzeTree(repo, subdirs, &scanned);

    std::fputs(dora::analyze::renderText(findings).c_str(), stdout);

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::trunc);
        out << dora::analyze::renderJson(findings);
        if (!out.good()) {
            std::fprintf(
                stderr,
                "dora-analyze: cannot write JSON report to %s\n",
                json_path.c_str());
            return 2;
        }
    }

    std::fprintf(stderr, "dora-analyze: %zu finding%s in %zu files\n",
                 findings.size(), findings.size() == 1 ? "" : "s",
                 scanned.size());
    return findings.empty() ? 0 : 1;
}
