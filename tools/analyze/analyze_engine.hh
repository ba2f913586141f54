/**
 * @file
 * dora-analyze: the project-invariant checker for the DORA tree.
 *
 * The simulator's headline results are only reproducible while a set
 * of cross-cutting invariants holds: seeded randomness only, no wall
 * clock in simulation code, guards that survive Release builds,
 * config hashes and snapshots that cover every field, and serialized
 * layouts that change only together with their version token. This
 * engine turns those conventions (DESIGN.md §5e) into sixteen
 * machine-checked rules over one comment/string-aware scan of each
 * file (scanUnit):
 *
 *   - line rules (`dora-det-*`, `dora-conc-*`, `dora-hyg-*`,
 *     `dora-rob-*`, `dora-perf-*`) match one file's code view line by
 *     line, scoped by path prefix with per-rule allowlists;
 *   - model rules (`dora-cov-hash`, `dora-cov-snapshot`,
 *     `dora-det-streamtag`, `dora-ser-version`, `dora-cli-flag`) run
 *     over a structural model joined across translation units: struct
 *     declarations with member lists and function definitions with
 *     captured bodies (buildModel), plus the checked-in layout
 *     manifest tools/analyze/serialized_layouts.json.
 *
 * A finding is suppressed in place with
 *
 *     code;  // NOLINT(dora-rule-id): justification
 *     // NOLINTNEXTLINE(dora-rule-id): justification
 *
 * (a bare `NOLINT` suppresses every rule on that line), and the model
 * rules honour `// dora:<annotation>(<reason>)` exclusions. Matching
 * is plain token/character scanning: libstdc++'s std::regex trips GCC
 * 12's -Wmaybe-uninitialized under -fsanitize, which broke the
 * -Werror sanitizer build. The library has no dependency on
 * dora_common, so the binary and the tests/analyze golden tests share
 * it.
 */

#ifndef DORA_TOOLS_ANALYZE_ENGINE_HH
#define DORA_TOOLS_ANALYZE_ENGINE_HH

#include <set>
#include <string>
#include <vector>

namespace dora::analyze
{

/** One rule violation at a specific source line. */
struct Finding
{
    std::string path;     //!< repo-relative, '/'-separated
    int line = 0;         //!< 1-based
    std::string rule;     //!< rule id, e.g. "dora-cov-hash"
    std::string message;  //!< human-readable explanation
};

/** Catalog entry for --list-rules and the docs table. */
struct RuleInfo
{
    const char *id;
    const char *summary;
    bool lineRule;  //!< per-file line rule (else a cross-TU model rule)
};

/** Every rule the engine knows, in stable (documentation) order. */
const std::vector<RuleInfo> &ruleCatalog();

/** A string literal with its position (for tags and layout args). */
struct StringLit
{
    int line = 0;       //!< 1-based
    size_t col = 0;     //!< 0-based column of the opening quote
    std::string value;  //!< raw source chars between the delimiters
};

/** A `dora:<name>(<arg>)` annotation found in a comment. */
struct Annotation
{
    std::string name;  //!< e.g. "hash-exclude"
    std::string arg;   //!< the reason text inside the parentheses
};

/**
 * A source file prepared for structural parsing: parallel per-line
 * views (identical lengths by construction) where `code` blanks both
 * comments and string contents while `text` blanks only comments —
 * rules that must *read* literals (stream tags, section tags) use
 * `text`, everything else matches against `code`. String literals and
 * comment annotations are indexed per line.
 */
struct ScannedUnit
{
    std::string path;
    std::vector<std::string> code;
    std::vector<std::string> text;
    std::vector<std::vector<StringLit>> strings;
    std::vector<std::vector<Annotation>> notes;
    /** Rule ids suppressed on each line; "*" suppresses all rules. */
    std::vector<std::set<std::string>> nolint;
    /**
     * Per-line flag: inside a `// dora:lane-kernel-begin` ..
     * `// dora:lane-kernel-end` region (the SIMD-friendly hot loops
     * of the batched walk kernel, DESIGN.md §5g). Marker lines are
     * included.
     */
    std::vector<char> laneKernel;

    /**
     * True when @p line (1-based) carries annotation @p name with a
     * non-empty reason, on the line itself or the line above — the
     * two documented placements (trailing comment / preceding line).
     */
    bool hasAnnotation(int line, const std::string &name) const;
};

/** Scan one file. @p path must be repo-relative (rules scope by it). */
ScannedUnit scanUnit(std::string path, const std::string &content);

/** One data member of a struct/class declaration. */
struct MemberDecl
{
    std::string name;
    int line = 0;     //!< first line of the declaration statement
    int endLine = 0;  //!< line of the terminating ';'
};

/** One struct/class declaration with its member list. */
struct StructDecl
{
    std::string name;  //!< nesting-qualified, e.g. "Outer::Inner"
    std::string path;
    int line = 0;
    std::vector<MemberDecl> members;
    /** Names of member functions declared or defined in-class. */
    std::set<std::string> methods;
};

/** One function definition with its captured body. */
struct FunctionDef
{
    std::string className;  //!< "" for free functions
    std::string name;
    std::string path;
    int line = 0;          //!< line of the opening brace's statement
    std::string body;      //!< code view: strings blanked
    std::string bodyText;  //!< text view: strings preserved
};

/** The joined cross-TU model the rules run over. */
struct TreeModel
{
    std::vector<ScannedUnit> units;
    std::vector<StructDecl> structs;
    std::vector<FunctionDef> functions;
};

/**
 * Parse the scanned units under src/, bench/ and tools/ into the
 * cross-TU structural model; every unit stays in `units` for the line
 * rules and NOLINT filtering.
 */
TreeModel buildModel(std::vector<ScannedUnit> units);

/**
 * One serialized format's recorded shape: the ordered serialization
 * calls (or statements, for function-anchored formats) plus the
 * version token guarding them. `name` is the stable manifest key.
 */
struct LayoutRecord
{
    std::string name;      //!< "section:<tag>" or a format name
    std::string file;
    std::string function;  //!< qualified writer function
    std::string version;   //!< version token text (e.g. "1", "0x...")
    std::vector<std::string> layout;  //!< normalized ordered ops
    int line = 0;  //!< writer anchor in the current tree (not stored)
};

/**
 * Recompute every serialized layout in the model: snapshot-section
 * writers are auto-discovered (a function that calls
 * beginSection("tag", v) and at least one put*), and the wire-frame /
 * journal / model-bundle writers are anchored by a built-in table.
 * Records are sorted by name; table anchors that no longer resolve
 * append findings to @p problems.
 */
std::vector<LayoutRecord> computeLayouts(const TreeModel &model,
                                         std::vector<Finding> *problems);

/** Render records as the canonical serialized_layouts.json text. */
std::string renderManifest(const std::vector<LayoutRecord> &records);

/**
 * Parse a manifest previously written by renderManifest (a strict
 * JSON subset). Returns false and sets @p error on malformed input.
 */
bool parseManifest(const std::string &json,
                   std::vector<LayoutRecord> *records,
                   std::string *error);

/**
 * Run every rule: the line rules over each unit under src/, tests/,
 * bench/ or tools/fleet/, the model rules over the model.
 * @p manifestJson is the content of serialized_layouts.json, or
 * nullptr when the file is absent (only a finding if the tree actually
 * contains serialized formats). Findings are NOLINT-filtered and
 * sorted by (path, line, rule).
 */
std::vector<Finding> analyzeModel(const TreeModel &model,
                                  const std::string *manifestJson);

/**
 * Walk @p subdirs (repo-relative) under @p repoRoot and scan every
 * *.cc / *.hh file into a model. Paths containing a `fixtures`
 * component are skipped — they are deliberate violations used by the
 * golden tests. When @p scannedPaths is non-null the repo-relative
 * path of every scanned file is appended (sorted).
 */
TreeModel loadTree(const std::string &repoRoot,
                   const std::vector<std::string> &subdirs,
                   std::vector<std::string> *scannedPaths = nullptr);

/** Default scan roots: {"src", "tests", "bench", "tools"}. */
const std::vector<std::string> &defaultSubdirs();

/** Repo-relative manifest location. */
const char *manifestRelPath();

/**
 * loadTree + manifest load + analyzeModel: the whole gate in one
 * call, as scripts/ci.sh and the self-scan test run it.
 */
std::vector<Finding>
analyzeTree(const std::string &repoRoot,
            const std::vector<std::string> &subdirs,
            std::vector<std::string> *scannedPaths = nullptr);

/** `path:line: [rule] message` lines, one per finding. */
std::string renderText(const std::vector<Finding> &findings);

/** Machine-readable report: a JSON array of finding objects. */
std::string renderJson(const std::vector<Finding> &findings);

} // namespace dora::analyze

#endif // DORA_TOOLS_ANALYZE_ENGINE_HH
