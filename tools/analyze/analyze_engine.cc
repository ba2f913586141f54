#include "analyze_engine.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace dora::analyze
{

namespace
{

// ---------------------------------------------------------------- //
// Small string helpers                                             //
// ---------------------------------------------------------------- //

bool
wordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool
isUpper(char c)
{
    return c >= 'A' && c <= 'Z';
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** First index at or after @p i that is not whitespace. */
size_t
skipWs(const std::string &s, size_t i)
{
    while (i < s.size() && isSpace(s[i]))
        ++i;
    return i;
}

/** End of the identifier-character run starting at @p i. */
size_t
wordEnd(const std::string &s, size_t i)
{
    while (i < s.size() && wordChar(s[i]))
        ++i;
    return i;
}

/** Trim both ends and collapse internal whitespace runs to one ' '. */
std::string
collapseWs(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    bool pending = false;
    for (const char c : s) {
        if (isSpace(c)) {
            pending = !out.empty();
            continue;
        }
        if (pending) {
            out += ' ';
            pending = false;
        }
        out += c;
    }
    return out;
}

std::string
lastComponent(const std::string &qualified)
{
    const size_t pos = qualified.rfind("::");
    return pos == std::string::npos ? qualified
                                    : qualified.substr(pos + 2);
}

bool
hasPrefix(const std::string &path, const char *prefix)
{
    return path.rfind(prefix, 0) == 0;
}

bool
anyPrefix(const std::string &path,
          std::initializer_list<const char *> prefixes)
{
    for (const char *p : prefixes)
        if (hasPrefix(path, p))
            return true;
    return false;
}

bool
containsAny(const std::string &s,
            std::initializer_list<const char *> needles)
{
    for (const char *needle : needles)
        if (s.find(needle) != std::string::npos)
            return true;
    return false;
}

/** `\b<name>\b` membership test without building a regex per query. */
bool
referencesIdentifier(const std::string &haystack, const std::string &id)
{
    size_t pos = 0;
    while ((pos = haystack.find(id, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !wordChar(haystack[pos - 1]);
        const size_t end = pos + id.size();
        const bool right_ok =
            end >= haystack.size() || !wordChar(haystack[end]);
        if (left_ok && right_ok)
            return true;
        pos = end;
    }
    return false;
}

// ---------------------------------------------------------------- //
// Scanner directives                                               //
// ---------------------------------------------------------------- //

/**
 * Collect `NOLINT[NEXTLINE][(id, id...)]` directives from comment
 * text. An unclosed rule list counts as a bare NOLINT.
 */
void
applyNolintDirectives(const std::string &comment_text, size_t line_idx,
                      ScannedUnit &unit)
{
    size_t pos = 0;
    while ((pos = comment_text.find("NOLINT", pos)) != std::string::npos) {
        pos += 6;
        const bool next_line =
            comment_text.compare(pos, 8, "NEXTLINE") == 0;
        if (next_line)
            pos += 8;
        const size_t close = pos < comment_text.size() &&
                comment_text[pos] == '('
            ? comment_text.find(')', pos)
            : std::string::npos;
        const std::string ids = close == std::string::npos
            ? ""
            : comment_text.substr(pos + 1, close - pos - 1);
        if (close != std::string::npos)
            pos = close + 1;
        const size_t target = line_idx + (next_line ? 1 : 0);
        if (target >= unit.nolint.size())
            continue;
        if (close == std::string::npos) {
            unit.nolint[target].insert("*");
            continue;
        }
        std::string id;
        std::istringstream stream(ids);
        while (std::getline(stream, id, ',')) {
            const size_t b = id.find_first_not_of(" \t");
            const size_t e = id.find_last_not_of(" \t");
            if (b == std::string::npos)
                continue;
            unit.nolint[target].insert(id.substr(b, e - b + 1));
        }
    }
}

/** Collect `dora:<name>(<reason>)` annotations from comment text. */
void
applyAnnotations(const std::string &comment_text, size_t line_idx,
                 ScannedUnit &unit)
{
    const std::string &t = comment_text;
    size_t pos = 0;
    while ((pos = t.find("dora:", pos)) != std::string::npos) {
        pos += 5;
        size_t end = pos;
        while (end < t.size() &&
               (std::isalnum(static_cast<unsigned char>(t[end])) ||
                (end > pos && t[end] == '-')))
            ++end;
        if (end == pos || isDigit(t[pos]) || end >= t.size() ||
            t[end] != '(')
            continue;
        const size_t close = t.find(')', end);
        if (close == std::string::npos)
            continue;
        if (line_idx < unit.notes.size())
            unit.notes[line_idx].push_back(
                Annotation{t.substr(pos, end - pos),
                           collapseWs(t.substr(end + 1, close - end - 1))});
        pos = close + 1;
    }
}

} // namespace

bool
ScannedUnit::hasAnnotation(int line, const std::string &name) const
{
    for (int probe = line - 1; probe >= line - 2; --probe) {
        if (probe < 0 || static_cast<size_t>(probe) >= notes.size())
            continue;
        // The line above only counts when it is comment-only:
        // otherwise a trailing annotation on one member declaration
        // would silently bless the member declared right below it.
        if (probe == line - 2 &&
            static_cast<size_t>(probe) < code.size()) {
            const std::string &above = code[static_cast<size_t>(probe)];
            if (above.find_first_not_of(" \t") != std::string::npos)
                continue;
        }
        for (const Annotation &note : notes[probe])
            if (note.name == name && !note.arg.empty())
                return true;
    }
    return false;
}

ScannedUnit
scanUnit(std::string path, const std::string &content)
{
    ScannedUnit unit;
    unit.path = std::move(path);

    const size_t line_count = 1 +
        static_cast<size_t>(
            std::count(content.begin(), content.end(), '\n'));
    unit.code.reserve(line_count);
    unit.text.reserve(line_count);
    unit.nolint.assign(line_count + 1, {});
    unit.notes.assign(line_count + 1, {});
    unit.strings.assign(line_count + 1, {});

    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Code;
    std::string code_line, text_line, comment_line, raw_delim;
    size_t line_idx = 0;
    bool walk_region = false;
    // In-flight string literal (may span lines for raw strings).
    size_t lit_line = 0, lit_col = 0;
    std::string lit_value;

    auto flush_line = [&]() {
        applyNolintDirectives(comment_line, line_idx, unit);
        applyAnnotations(comment_line, line_idx, unit);
        if (comment_line.find("dora:walk-kernel-begin") !=
            std::string::npos)
            walk_region = true;
        unit.walkKernel.push_back(walk_region ? 1 : 0);
        if (comment_line.find("dora:walk-kernel-end") != std::string::npos)
            walk_region = false;
        unit.code.push_back(code_line);
        unit.text.push_back(text_line);
        code_line.clear();
        text_line.clear();
        comment_line.clear();
        ++line_idx;
    };
    // One source char: @p code_c to the code view, @p text_c to text.
    auto put = [&](char code_c, char text_c) {
        code_line += code_c;
        text_line += text_c;
    };
    auto begin_literal = [&]() {
        lit_line = line_idx;
        lit_col = code_line.size();
        lit_value.clear();
    };
    auto end_literal = [&]() {
        if (lit_line < unit.strings.size())
            unit.strings[lit_line].push_back(StringLit{
                static_cast<int>(lit_line + 1), lit_col, lit_value});
    };

    const size_t n = content.size();
    for (size_t i = 0; i < n; ++i) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        if (c == '\n') {
            if (state == State::LineComment)
                state = State::Code;
            flush_line();
            continue;
        }
        switch (state) {
          case State::Code:
            if (c == '/' && (next == '/' || next == '*')) {
                state = next == '/' ? State::LineComment
                                    : State::BlockComment;
                put(' ', ' ');
                put(' ', ' ');
                ++i;
            } else if (c == '"' && i > 0 && content[i - 1] == 'R' &&
                       (i < 2 || !wordChar(content[i - 2]) ||
                        std::strchr("uUL8", content[i - 2]))) {
                // R"delim( ... )delim" — capture the delimiter.
                state = State::RawString;
                begin_literal();
                put('"', '"');
                raw_delim.clear();
                while (i + 1 < n && content[i + 1] != '(' &&
                       content[i + 1] != '\n') {
                    raw_delim += content[i + 1];
                    ++i;
                }
                if (i + 1 < n && content[i + 1] == '(')
                    ++i;
            } else {
                if (c == '"' || c == '\'')
                    state = c == '"' ? State::String : State::Char;
                if (c == '"')
                    begin_literal();
                put(c, c);
            }
            break;
          case State::LineComment:
          case State::BlockComment:
            if (state == State::BlockComment && c == '*' && next == '/') {
                state = State::Code;
                put(' ', ' ');
                put(' ', ' ');
                ++i;
            } else {
                comment_line += c;
                put(' ', ' ');
            }
            break;
          case State::String:
          case State::Char: {
            // Char literal contents land in lit_value too; it is
            // reset by the next begin_literal and never recorded.
            const char quote = state == State::String ? '"' : '\'';
            if (c == '\\' && next != '\0' && next != '\n') {
                put(' ', c);
                put(' ', next);
                lit_value += c;
                lit_value += next;
                ++i;
            } else if (c == quote) {
                state = State::Code;
                put(c, c);
                if (quote == '"')
                    end_literal();
            } else {
                put(' ', c);
                lit_value += c;
            }
            break;
          }
          case State::RawString: {
            // Close only on )delim" — otherwise blank the content.
            const std::string close = ")" + raw_delim + "\"";
            if (c == ')' &&
                content.compare(i, close.size(), close) == 0) {
                put('"', '"');
                i += close.size() - 1;
                state = State::Code;
                end_literal();
            } else {
                put(' ', c);
                lit_value += c;
            }
            break;
          }
        }
    }
    if (!code_line.empty() || !comment_line.empty())
        flush_line();
    return unit;
}

// ---------------------------------------------------------------- //
// Structural parser                                                //
// ---------------------------------------------------------------- //

namespace
{

/**
 * Replace every span of @p s that @p spanEnd accepts with one space,
 * scanning left to right. @p spanEnd returns the end of the span
 * starting at the given index, or npos when none starts there.
 */
template <typename SpanEnd>
std::string
blankSpans(const std::string &s, SpanEnd spanEnd)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size();) {
        const size_t end = spanEnd(s, i);
        if (end == std::string::npos) {
            out += s[i++];
        } else {
            out += ' ';
            i = end;
        }
    }
    return out;
}

/** End of the `(...)` group (no nested parens) opening at @p i. */
size_t
flatParenEnd(const std::string &s, size_t i)
{
    if (i >= s.size() || s[i] != '(')
        return std::string::npos;
    const size_t close = s.find_first_of("()", i + 1);
    return close != std::string::npos && s[close] == ')'
        ? close + 1
        : std::string::npos;
}

/**
 * Remove constructs that confuse statement classification: [[...]]
 * attributes, alignas(...), and UPPER_CASE macro invocations (thread-
 * safety annotations like DORA_GUARDED_BY(mu_), test macros).
 */
std::string
stripDeclNoise(const std::string &s)
{
    std::string out = blankSpans(s, [](const std::string &t, size_t i) {
        if (t.compare(i, 2, "[[") != 0)
            return std::string::npos;
        const size_t close = t.find(']', i + 2);
        return close != std::string::npos && close + 1 < t.size() &&
                t[close + 1] == ']'
            ? close + 2
            : std::string::npos;
    });
    out = blankSpans(out, [](const std::string &t, size_t i) {
        if ((i > 0 && wordChar(t[i - 1])) ||
            t.compare(i, 7, "alignas") != 0)
            return std::string::npos;
        return flatParenEnd(t, skipWs(t, i + 7));
    });
    // UPPER_CASE macro calls, repeated for nested arguments (rare,
    // bounded).
    auto macro_end = [](const std::string &t, size_t i) {
        if (!isUpper(t[i]) || (i > 0 && wordChar(t[i - 1])))
            return std::string::npos;
        size_t end = i + 1;
        while (end < t.size() &&
               (isUpper(t[end]) || isDigit(t[end]) || t[end] == '_'))
            ++end;
        return end - i < 3 ? std::string::npos
                           : flatParenEnd(t, skipWs(t, end));
    };
    for (std::string prev; prev != out;) {
        prev = out;
        out = blankSpans(out, macro_end);
    }
    return out;
}

/** Drop leading `template <...>` headers (possibly repeated). */
std::string
stripTemplateHeader(std::string s)
{
    for (;;) {
        if (s.rfind("template", 0) != 0)
            return s;
        size_t i = 8;
        while (i < s.size() && isSpace(s[i]))
            ++i;
        if (i >= s.size() || s[i] != '<')
            return s;
        int depth = 0;
        for (; i < s.size(); ++i) {
            if (s[i] == '<')
                ++depth;
            else if (s[i] == '>' && --depth == 0) {
                ++i;
                break;
            }
        }
        while (i < s.size() && isSpace(s[i]))
            ++i;
        s = s.substr(i);
    }
}

std::string
firstToken(const std::string &s)
{
    size_t b = 0;
    while (b < s.size() && !wordChar(s[b]))
        ++b;
    size_t e = b;
    while (e < s.size() && wordChar(s[e]))
        ++e;
    return s.substr(b, e - b);
}

/** True when s[i] starts the word "operator" read backwards from i. */
bool
endsWithOperatorKeyword(const std::string &s, size_t end)
{
    size_t k = end;
    while (k > 0 && isSpace(s[k - 1]))
        --k;
    return k >= 8 && s.compare(k - 8, 8, "operator") == 0 &&
        (k == 8 || !wordChar(s[k - 9]));
}

/**
 * First '(' at template-angle depth 0. "operator<"-style tokens do
 * not open an angle scope.
 */
size_t
findDeclParen(const std::string &s)
{
    int angle = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(' && angle == 0)
            return i;
        if (c == '<') {
            if (!endsWithOperatorKeyword(s, i) &&
                (i + 1 >= s.size() || s[i + 1] != '<') &&
                (i == 0 || s[i - 1] != '<'))
                ++angle;
        } else if (c == '>' && angle > 0) {
            --angle;
        }
    }
    return std::string::npos;
}

/**
 * Position of the first top-level plain `=` (an initializer), or
 * npos. Comparison/compound operators and `operator=` do not count.
 */
size_t
findInitEq(const std::string &s)
{
    int paren = 0, angle = 0, bracket = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
        else if (c == '<' && !endsWithOperatorKeyword(s, i))
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        else if (c == '=' && paren == 0 && angle == 0 && bracket == 0) {
            const char prev = i > 0 ? s[i - 1] : '\0';
            const char next = i + 1 < s.size() ? s[i + 1] : '\0';
            if (next == '=' ||
                std::string("=!<>+-*/%|&^").find(prev) !=
                    std::string::npos) {
                ++i;  // skip the operator pair
                continue;
            }
            if (endsWithOperatorKeyword(s, i))
                continue;
            return i;
        }
    }
    return std::string::npos;
}

/**
 * Trailing (possibly qualified) declarator name of @p s: `foo`,
 * `Class::foo`, `~Foo`, `Outer::operator==`. Empty when the tail is
 * not a name.
 */
std::string
trailingName(std::string s)
{
    while (!s.empty() && isSpace(s.back()))
        s.pop_back();
    if (s.empty())
        return "";
    const size_t end = s.size();
    size_t i = s.size();
    if (!wordChar(s[i - 1])) {
        // Possibly operator+, operator==, operator() ...
        size_t j = i;
        while (j > 0 && !wordChar(s[j - 1]) && !isSpace(s[j - 1]))
            --j;
        if (!endsWithOperatorKeyword(s, j))
            return "";
        size_t k = j;
        while (k > 0 && isSpace(s[k - 1]))
            --k;
        i = k - 8;
    } else {
        while (i > 0 && wordChar(s[i - 1]))
            --i;
        if (i > 0 && s[i - 1] == '~')
            --i;
        if (i < s.size() &&
            std::isdigit(static_cast<unsigned char>(s[i])))
            return "";
    }
    // Absorb leading Qualifier:: chains.
    while (i >= 2 && s[i - 1] == ':' && s[i - 2] == ':') {
        size_t j = i - 2;
        while (j > 0 && wordChar(s[j - 1]))
            --j;
        if (j == i - 2)
            break;
        i = j;
    }
    std::string name = s.substr(i, end - i);
    name.erase(std::remove_if(name.begin(), name.end(), isSpace),
               name.end());
    static const std::set<std::string> keywords = {
        "if",     "for",   "while", "switch", "catch", "return",
        "sizeof", "new",   "delete", "do",    "else",  "throw",
    };
    if (keywords.count(lastComponent(name)))
        return "";
    return name;
}

/** Text after the last top-level ')' of @p s ("" when no parens). */
std::string
tailAfterParams(const std::string &s)
{
    int depth = 0;
    size_t last_close = std::string::npos;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            last_close = i;
    }
    if (last_close == std::string::npos)
        return "";
    return collapseWs(s.substr(last_close + 1));
}

/** True when @p tail can legally follow a function's parameters. */
bool
validFunctionTail(const std::string &tail)
{
    if (tail.empty())
        return true;
    if (tail[0] == ':' || tail.rfind("->", 0) == 0)
        return true;
    std::istringstream in(tail);
    std::string tok;
    while (in >> tok)
        if (tok != "const" && tok != "noexcept" && tok != "override" &&
            tok != "final" && tok != "&" && tok != "&&")
            return false;
    return true;
}

/**
 * Start of the trailing `[..]` array extents of @p s (with the
 * whitespace before them), or s.size() when it has none.
 */
size_t
trailingExtents(const std::string &s)
{
    for (size_t start = 0; start < s.size(); ++start) {
        bool extent = false;
        for (size_t i = skipWs(s, start); i < s.size();
             i = skipWs(s, i)) {
            const size_t close =
                s[i] == '[' ? s.find(']', i + 1) : std::string::npos;
            extent = close != std::string::npos;
            if (!extent)
                break;
            i = close + 1;
        }
        if (extent)
            return start;
    }
    return s.size();
}

/** Split on top-level commas (outside (), <>, []). */
std::vector<std::string>
splitTopLevel(const std::string &s)
{
    std::vector<std::string> out;
    int paren = 0, angle = 0, bracket = 0;
    std::string cur;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
        else if (c == '<' && !endsWithOperatorKeyword(s, i))
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        if (c == ',' && paren == 0 && angle == 0 && bracket == 0) {
            out.push_back(cur);
            cur.clear();
            continue;
        }
        cur += c;
    }
    out.push_back(cur);
    return out;
}

struct ParseScope
{
    enum Kind
    {
        Namespace,  //!< namespace / extern "C" block
        Struct,     //!< struct/class body: members are parsed
        Function,   //!< function body: text captured verbatim
        Init,       //!< brace initializer: skipped, statement kept
        Block,      //!< enum / unknown block: skipped and cleared
    };
    Kind kind;
    size_t index = 0;  //!< structs[] / functions[] slot
    int braces = 1;
};

/** Per-unit structural pass: fills model.structs / model.functions. */
void
parseUnit(const ScannedUnit &unit, TreeModel &model)
{
    std::vector<ParseScope> stack;
    std::string stmt;
    int stmt_line = 1;
    std::string body, body_text;
    int body_line = 1;
    std::string pending_class, pending_name;
    bool preprocessor = false;

    auto enclosingStruct = [&]() -> StructDecl * {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            if (it->kind == ParseScope::Struct)
                return &model.structs[it->index];
        return nullptr;
    };

    auto classifyBrace = [&]() {
        const std::string s = collapseWs(
            stripTemplateHeader(collapseWs(stripDeclNoise(stmt))));
        const std::string tok = firstToken(s);
        StructDecl *outer = enclosingStruct();
        if (tok == "namespace" || tok == "extern") {
            stack.push_back({ParseScope::Namespace, 0, 1});
            stmt.clear();
            return;
        }
        if (tok == "enum" || tok == "union") {
            stack.push_back({ParseScope::Block, 0, 1});
            stmt.clear();
            return;
        }
        // `struct Name` / `class Name` at the very start (s is
        // whitespace-collapsed).
        const size_t name_at = tok.size() + 1;
        if ((tok == "struct" || tok == "class") &&
            s.compare(0, name_at, tok + " ") == 0 && name_at < s.size() &&
            wordChar(s[name_at]) && !isDigit(s[name_at])) {
            const std::string name =
                s.substr(name_at, wordEnd(s, name_at) - name_at);
            StructDecl decl;
            decl.name = outer ? outer->name + "::" + name : name;
            decl.path = unit.path;
            decl.line = stmt_line;
            model.structs.push_back(std::move(decl));
            stack.push_back(
                {ParseScope::Struct, model.structs.size() - 1, 1});
            stmt.clear();
            return;
        }
        if (findInitEq(s) != std::string::npos) {
            stack.push_back({ParseScope::Init, 0, 1});
            return;  // keep stmt: the declarator precedes the braces
        }
        const size_t paren = findDeclParen(s);
        if (paren != std::string::npos) {
            const std::string name = trailingName(s.substr(0, paren));
            if (!name.empty() && validFunctionTail(tailAfterParams(s))) {
                pending_name = lastComponent(name);
                pending_class = name.size() > pending_name.size()
                    ? name.substr(0,
                                  name.size() - pending_name.size() - 2)
                    : (outer ? outer->name : "");
                if (outer)
                    outer->methods.insert(pending_name);
                body.clear();
                body_text.clear();
                body_line = stmt_line;
                stack.push_back({ParseScope::Function, 0, 1});
                stmt.clear();
                return;
            }
        }
        if (outer) {
            stack.push_back({ParseScope::Init, 0, 1});
            return;  // NSDMI without '=': keep the declarator
        }
        stack.push_back({ParseScope::Block, 0, 1});
        stmt.clear();
    };

    auto finishFunction = [&]() {
        FunctionDef def;
        def.className = pending_class;
        def.name = pending_name;
        def.path = unit.path;
        def.line = body_line;
        def.body = body;
        def.bodyText = body_text;
        model.functions.push_back(std::move(def));
        body.clear();
        body_text.clear();
    };

    auto classifyStructStatement = [&](StructDecl &decl, int end_line) {
        std::string s = collapseWs(stripDeclNoise(stmt));
        if (s.empty())
            return;
        const std::string tok = firstToken(s);
        static const std::set<std::string> skip = {
            "using",  "typedef", "friend", "static", "template",
            "struct", "class",   "enum",   "union",  "extern",
            "public", "private", "protected",
        };
        if (skip.count(tok))
            return;
        for (std::string chunk : splitTopLevel(s)) {
            const size_t eq = findInitEq(chunk);
            if (eq != std::string::npos)
                chunk = chunk.substr(0, eq);
            const size_t paren = findDeclParen(chunk);
            if (paren != std::string::npos) {
                const std::string name =
                    trailingName(chunk.substr(0, paren));
                if (!name.empty())
                    decl.methods.insert(lastComponent(name));
                continue;
            }
            // Strip trailing array extents and bitfield widths.
            chunk.resize(trailingExtents(chunk));
            int angle = 0;
            for (size_t i = 0; i < chunk.size(); ++i) {
                const char c = chunk[i];
                if (c == '<')
                    ++angle;
                else if (c == '>' && angle > 0)
                    --angle;
                else if (c == ':' && angle == 0 &&
                         (i + 1 >= chunk.size() || chunk[i + 1] != ':') &&
                         (i == 0 || chunk[i - 1] != ':')) {
                    chunk = chunk.substr(0, i);
                    break;
                }
            }
            // The declarator: the last identifier (digits do not
            // start one).
            size_t end = chunk.size();
            while (end > 0 && isSpace(chunk[end - 1]))
                --end;
            size_t begin = end;
            while (begin > 0 && wordChar(chunk[begin - 1]))
                --begin;
            while (begin < end && isDigit(chunk[begin]))
                ++begin;
            if (begin == end)
                continue;
            decl.members.push_back(MemberDecl{
                chunk.substr(begin, end - begin), stmt_line, end_line});
        }
    };

    for (size_t li = 0; li < unit.code.size(); ++li) {
        const std::string &line = unit.code[li];
        const std::string &tline = unit.text[li];
        const int line_no = static_cast<int>(li) + 1;

        if (!preprocessor) {
            const size_t first = line.find_first_not_of(" \t");
            if (first != std::string::npos && line[first] == '#') {
                preprocessor = !line.empty() && line.back() == '\\';
                continue;
            }
        } else {
            preprocessor = !line.empty() && line.back() == '\\';
            continue;
        }

        for (size_t ci = 0; ci < line.size(); ++ci) {
            const char c = line[ci];
            ParseScope *top = stack.empty() ? nullptr : &stack.back();

            if (top && top->kind == ParseScope::Function) {
                if (c == '{') {
                    ++top->braces;
                } else if (c == '}') {
                    if (--top->braces == 0) {
                        finishFunction();
                        stack.pop_back();
                        continue;
                    }
                }
                body += c;
                body_text += ci < tline.size() ? tline[ci] : c;
                continue;
            }
            if (top && (top->kind == ParseScope::Init ||
                        top->kind == ParseScope::Block)) {
                if (c == '{')
                    ++top->braces;
                else if (c == '}' && --top->braces == 0)
                    stack.pop_back();
                continue;
            }

            if (c == '{') {
                classifyBrace();
            } else if (c == '}') {
                if (!stack.empty())
                    stack.pop_back();
                stmt.clear();
            } else if (c == ';') {
                if (top && top->kind == ParseScope::Struct)
                    classifyStructStatement(model.structs[top->index],
                                            line_no);
                stmt.clear();
            } else if (c == ':' && top &&
                       top->kind == ParseScope::Struct) {
                const std::string s = collapseWs(stmt);
                if (s == "public" || s == "private" || s == "protected")
                    stmt.clear();
                else
                    stmt += c;
            } else {
                if (!isSpace(c) && collapseWs(stmt).empty())
                    stmt_line = line_no;
                stmt += c;
            }
        }
        ParseScope *top = stack.empty() ? nullptr : &stack.back();
        if (top && top->kind == ParseScope::Function) {
            body += '\n';
            body_text += '\n';
        } else {
            stmt += ' ';
        }
    }
}

} // namespace

TreeModel
buildModel(std::vector<ScannedUnit> units)
{
    TreeModel model;
    model.units = std::move(units);
    for (const ScannedUnit &unit : model.units)
        if (anyPrefix(unit.path, {"src/", "bench/", "tools/"}))
            parseUnit(unit, model);
    return model;
}

// ---------------------------------------------------------------- //
// Serialized layouts                                               //
// ---------------------------------------------------------------- //

namespace
{

std::string
qualifiedName(const FunctionDef &f)
{
    return f.className.empty() ? f.name : f.className + "::" + f.name;
}

/**
 * Ordered serialization calls of a writer body: beginSection / put*
 * with whitespace-normalized arguments. Receiver objects (`w.`) are
 * dropped so renaming the writer variable is not a layout change.
 */
std::vector<std::string>
serializationOps(const std::string &body_text)
{
    std::vector<std::string> ops;
    for (size_t at = 0; at < body_text.size(); ++at) {
        if (at > 0 && wordChar(body_text[at - 1]))
            continue;
        const size_t name_end = wordEnd(body_text, at);
        const std::string name = body_text.substr(at, name_end - at);
        const bool is_op = name == "beginSection" ||
            (name.size() > 3 && name.compare(0, 3, "put") == 0 &&
             isUpper(name[3]));
        const size_t paren = skipWs(body_text, name_end);
        if (!is_op || paren >= body_text.size() ||
            body_text[paren] != '(')
            continue;
        const size_t arg_start = paren + 1;
        at = paren;
        int depth = 1;
        bool in_str = false, in_chr = false;
        size_t end = std::string::npos;
        for (size_t i = arg_start; i < body_text.size(); ++i) {
            const char c = body_text[i];
            if (in_str) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    in_str = false;
                continue;
            }
            if (in_chr) {
                if (c == '\\')
                    ++i;
                else if (c == '\'')
                    in_chr = false;
                continue;
            }
            if (c == '"')
                in_str = true;
            else if (c == '\'')
                in_chr = true;
            else if (c == '(')
                ++depth;
            else if (c == ')' && --depth == 0) {
                end = i;
                break;
            }
        }
        if (end == std::string::npos)
            continue;
        ops.push_back(
            name + "(" +
            collapseWs(body_text.substr(arg_start, end - arg_start)) +
            ")");
    }
    return ops;
}

/** Statement-level fingerprint for function-anchored formats. */
std::vector<std::string>
statementOps(const std::string &body_text)
{
    std::vector<std::string> out;
    std::string cur;
    bool in_str = false, in_chr = false;
    for (size_t i = 0; i < body_text.size(); ++i) {
        const char c = body_text[i];
        if (in_str || in_chr) {
            cur += c;
            if (c == '\\' && i + 1 < body_text.size())
                cur += body_text[++i];
            else if (in_str && c == '"')
                in_str = false;
            else if (in_chr && c == '\'')
                in_chr = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '\'')
            in_chr = true;
        else if (c == ';') {
            const std::string s = collapseWs(cur);
            if (!s.empty())
                out.push_back(s);
            cur.clear();
            continue;
        }
        cur += c;
    }
    const std::string s = collapseWs(cur);
    if (!s.empty())
        out.push_back(s);
    return out;
}

/** Formats not written through SnapshotWriter sections. */
struct AnchoredFormat
{
    const char *name;
    const char *file;          //!< the writer's TU
    const char *function;      //!< qualified writer name
    const char *versionFile;   //!< where the version constants live
    std::vector<const char *> versionConstants;  //!< `NAME = value;`
};

const std::vector<AnchoredFormat> &
anchoredFormats()
{
    static const std::vector<AnchoredFormat> table = {
        {"wire-frame", "src/exec/proc/wire.cc", "encodeFrame",
         "src/exec/proc/wire.cc", {"kMagic"}},
        {"journal-header", "src/exec/proc/journal.cc", "encodeHeader",
         "src/exec/proc/journal.cc",
         {"kJournalMagic", "kJournalVersion"}},
        {"journal-record", "src/exec/proc/journal.cc", "encodeRecord",
         "src/exec/proc/journal.cc", {"kRecordMagic"}},
        {"model-bundle", "src/dora/model_bundle.cc",
         "ModelBundle::serialize", "src/dora/model_bundle.hh",
         {"kFormatVersion"}},
    };
    return table;
}

/**
 * The value of the first `NAME = value;` in @p text, whitespace-
 * collapsed (the value may span lines). False when there is none.
 */
bool
constantValue(const std::string &text, const std::string &name,
              std::string *value)
{
    for (size_t pos = text.find(name); pos != std::string::npos;
         pos = text.find(name, pos + 1)) {
        const size_t eq = skipWs(text, pos + name.size());
        if (eq >= text.size() || text[eq] != '=')
            continue;
        const size_t semi = text.find(';', eq + 1);
        if (semi == std::string::npos)
            return false;
        if (semi == eq + 1)
            continue;
        *value = collapseWs(text.substr(eq + 1, semi - eq - 1));
        return true;
    }
    return false;
}

const ScannedUnit *
findUnit(const TreeModel &model, const std::string &path)
{
    for (const ScannedUnit &u : model.units)
        if (u.path == path)
            return &u;
    return nullptr;
}

std::string
joinedText(const ScannedUnit &unit)
{
    std::string out;
    for (const std::string &line : unit.text) {
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace

std::vector<LayoutRecord>
computeLayouts(const TreeModel &model, std::vector<Finding> *problems)
{
    std::vector<LayoutRecord> records;

    // Auto-discovered snapshot-section writers: a function calling
    // beginSection("tag", v) plus at least one put* is a writer (the
    // matching reader calls beginSection with get*s and is skipped).
    for (const FunctionDef &f : model.functions) {
        if (!hasPrefix(f.path, "src/"))
            continue;
        const std::vector<std::string> ops = serializationOps(f.bodyText);
        bool writes = false;
        for (const std::string &op : ops)
            if (op.rfind("put", 0) == 0)
                writes = true;
        if (!writes)
            continue;
        for (const std::string &op : ops) {
            if (op.rfind("beginSection(", 0) != 0)
                continue;
            const size_t q1 = op.find('"');
            const size_t q2 =
                q1 == std::string::npos ? q1 : op.find('"', q1 + 1);
            if (q2 == std::string::npos)
                continue;
            LayoutRecord rec;
            rec.name = "section:" + op.substr(q1 + 1, q2 - q1 - 1);
            rec.file = f.path;
            rec.function = qualifiedName(f);
            const size_t comma = op.find(',', q2);
            rec.version = comma == std::string::npos
                ? ""
                : collapseWs(op.substr(comma + 1,
                                       op.size() - comma - 2));
            rec.layout = ops;
            rec.line = f.line;
            records.push_back(std::move(rec));
        }
    }

    // Table-anchored formats (wire frames, journal, model bundle).
    // An anchor only applies when its TU is part of the scanned tree
    // (fixture trees do not contain them).
    for (const AnchoredFormat &fmt : anchoredFormats()) {
        const ScannedUnit *tu = findUnit(model, fmt.file);
        if (!tu)
            continue;
        LayoutRecord rec;
        rec.name = fmt.name;
        rec.file = fmt.file;
        rec.function = fmt.function;
        rec.line = 1;
        bool found = false;
        for (const FunctionDef &f : model.functions) {
            if (f.path != fmt.file || qualifiedName(f) != fmt.function)
                continue;
            const std::vector<std::string> ops =
                statementOps(f.bodyText);
            rec.layout.insert(rec.layout.end(), ops.begin(),
                              ops.end());
            rec.line = f.line;
            found = true;
        }
        if (!found) {
            if (problems)
                problems->push_back(Finding{
                    fmt.file, 1, "dora-ser-version",
                    std::string("anchored serialized format '") +
                        fmt.name + "': writer function " +
                        fmt.function +
                        " not found; update the anchor table in "
                        "tools/analyze/analyze_engine.cc"});
            continue;
        }
        const ScannedUnit *vu = findUnit(model, fmt.versionFile);
        const std::string vtext = vu ? joinedText(*vu) : "";
        std::string version;
        for (const char *constant : fmt.versionConstants) {
            std::string value;
            if (vu && constantValue(vtext, constant, &value)) {
                if (!version.empty())
                    version += "|";
                version += value;
            } else if (problems) {
                problems->push_back(Finding{
                    fmt.versionFile, 1, "dora-ser-version",
                    std::string("anchored serialized format '") +
                        fmt.name + "': version constant '" + constant +
                        " = ...;' not found in " + fmt.versionFile});
            }
        }
        rec.version = version;
        records.push_back(std::move(rec));
    }

    // Disambiguate duplicate names (same tag written by two
    // functions) so manifest keys stay stable.
    std::map<std::string, int> name_count;
    for (const LayoutRecord &rec : records)
        ++name_count[rec.name];
    for (LayoutRecord &rec : records)
        if (name_count[rec.name] > 1)
            rec.name += "#" + rec.function;

    std::sort(records.begin(), records.end(),
              [](const LayoutRecord &a, const LayoutRecord &b) {
                  return a.name < b.name;
              });
    return records;
}

// ---------------------------------------------------------------- //
// Manifest rendering / parsing                                     //
// ---------------------------------------------------------------- //

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** A parsed JSON value: strings and scalars keep their text. */
struct JsonValue
{
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;
};

/** Recursive-descent JSON reader for the manifest. */
struct JsonCursor
{
    const std::string &s;
    size_t i = 0;
    std::string err;

    bool fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(i);
        return false;
    }
    void ws()
    {
        while (i < s.size() && isSpace(s[i]))
            ++i;
    }
    bool expect(char c)
    {
        ws();
        if (i >= s.size() || s[i] != c)
            return fail(std::string("expected '") + c + "'");
        ++i;
        return true;
    }
    bool peek(char c)
    {
        ws();
        return i < s.size() && s[i] == c;
    }
    bool parseString(std::string *out)
    {
        if (!expect('"'))
            return false;
        std::string value;
        while (i < s.size() && s[i] != '"') {
            char c = s[i++];
            if (c == '\\' && i < s.size()) {
                const char e = s[i++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u': {
                    if (i + 4 > s.size())
                        return fail("truncated \\u escape");
                    c = static_cast<char>(
                        std::stoul(s.substr(i, 4), nullptr, 16) & 0xff);
                    i += 4;
                    break;
                  }
                  default: c = e; break;
                }
            }
            value += c;
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i;
        if (out)
            *out = std::move(value);
        return true;
    }
    bool parseValue(JsonValue *out)
    {
        ws();
        if (i >= s.size())
            return fail("unexpected end of input");
        const char c = s[i];
        if (c == '"')
            return parseString(&out->text);
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++i;
            if (peek(close)) {
                ++i;
                return true;
            }
            for (;;) {
                std::string key;
                JsonValue value;
                if (c == '{' && (!parseString(&key) || !expect(':')))
                    return false;
                if (!parseValue(&value))
                    return false;
                if (c == '{')
                    out->members.emplace_back(key, std::move(value));
                else
                    out->items.push_back(std::move(value));
                if (!peek(','))
                    return expect(close);
                ++i;
            }
        }
        // number / true / false / null
        const size_t start = i;
        while (i < s.size() && (wordChar(s[i]) || s[i] == '-' ||
                                s[i] == '+' || s[i] == '.'))
            ++i;
        out->text = s.substr(start, i - start);
        return i > start || fail("unexpected character");
    }
};

} // namespace

std::string
renderManifest(const std::vector<LayoutRecord> &records)
{
    std::vector<LayoutRecord> sorted = records;
    std::sort(sorted.begin(), sorted.end(),
              [](const LayoutRecord &a, const LayoutRecord &b) {
                  return a.name < b.name;
              });
    std::ostringstream out;
    out << "{\n  \"format\": \"dora-serialized-layouts-v1\",\n"
        << "  \"formats\": [\n";
    for (size_t r = 0; r < sorted.size(); ++r) {
        const LayoutRecord &rec = sorted[r];
        out << "    {\n"
            << "      \"name\": \"" << jsonEscape(rec.name) << "\",\n"
            << "      \"file\": \"" << jsonEscape(rec.file) << "\",\n"
            << "      \"function\": \"" << jsonEscape(rec.function)
            << "\",\n"
            << "      \"version\": \"" << jsonEscape(rec.version)
            << "\",\n"
            << "      \"layout\": [";
        for (size_t i = 0; i < rec.layout.size(); ++i)
            out << (i ? ",\n                 " : "\n                 ")
                << "\"" << jsonEscape(rec.layout[i]) << "\"";
        out << "\n      ]\n    }" << (r + 1 < sorted.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

bool
parseManifest(const std::string &json,
              std::vector<LayoutRecord> *records, std::string *error)
{
    JsonCursor cur{json, 0, {}};
    JsonValue root;
    records->clear();
    if (!cur.peek('{') || !cur.parseValue(&root)) {
        if (error)
            *error = cur.err.empty() ? "malformed manifest" : cur.err;
        return false;
    }
    for (const auto &[key, formats] : root.members) {
        if (key != "formats")
            continue;
        for (const JsonValue &format : formats.items) {
            LayoutRecord rec;
            for (const auto &[field, value] : format.members) {
                if (field == "name")
                    rec.name = value.text;
                else if (field == "file")
                    rec.file = value.text;
                else if (field == "function")
                    rec.function = value.text;
                else if (field == "version")
                    rec.version = value.text;
                else if (field == "layout")
                    for (const JsonValue &op : value.items)
                        rec.layout.push_back(op.text);
            }
            records->push_back(std::move(rec));
        }
    }
    return true;
}

// ---------------------------------------------------------------- //
// Line rules: one file's code view at a time                       //
// ---------------------------------------------------------------- //

namespace
{

bool
fileMentions(const ScannedUnit &u, const char *token)
{
    for (const auto &line : u.code)
        if (line.find(token) != std::string::npos)
            return true;
    return false;
}

/**
 * True when one of @p names is called in @p s: the name, optional
 * whitespace, then '(', not glued to a preceding identifier character
 * (nor to a '.' unless @p member_calls, so `x.time()` is not `time()`).
 */
bool
callsAny(const std::string &s, std::initializer_list<const char *> names,
         bool member_calls = true)
{
    for (const char *name : names) {
        const size_t len = std::strlen(name);
        for (size_t pos = s.find(name); pos != std::string::npos;
             pos = s.find(name, pos + 1)) {
            if (pos > 0 && (wordChar(s[pos - 1]) ||
                            (!member_calls && s[pos - 1] == '.')))
                continue;
            const size_t paren = skipWs(s, pos + len);
            if (paren < s.size() && s[paren] == '(')
                return true;
        }
    }
    return false;
}

bool
inSimulationCode(const ScannedUnit &u)
{
    return hasPrefix(u.path, "src/") &&
        !anyPrefix(u.path, {"src/exec/", "src/obs/"});
}

bool
inSrcOrBench(const ScannedUnit &u)
{
    return anyPrefix(u.path, {"src/", "bench/"});
}

bool
readsWallClock(const std::string &s)
{
    return containsAny(s, {"system_clock", "steady_clock",
                           "high_resolution_clock", "gettimeofday",
                           "clock_gettime", "timespec_get", "__DATE__",
                           "__TIME__", "__TIMESTAMP__"}) ||
        callsAny(s,
                 {"time", "clock", "localtime", "gmtime", "ctime",
                  "asctime", "strftime", "mktime"},
                 false);
}

/** `std::unordered_{map,set,multimap,multiset}` spelled out. */
bool
namesUnorderedContainer(const std::string &s)
{
    const std::string prefix = "std::unordered_";
    for (size_t pos = s.find(prefix); pos != std::string::npos;
         pos = s.find(prefix, pos + 1)) {
        const size_t b = pos + prefix.size();
        const std::string kind = s.substr(b, wordEnd(s, b) - b);
        if (kind == "map" || kind == "set" || kind == "multimap" ||
            kind == "multiset")
            return true;
    }
    return false;
}

/** A `g_name` definition: `g_x = ...`, `g_x{...}` or `g_x;`. */
bool
definesGlobal(const std::string &s)
{
    for (size_t pos = s.find("g_"); pos != std::string::npos;
         pos = s.find("g_", pos + 1)) {
        const size_t end = wordEnd(s, pos + 2);
        if ((pos > 0 && wordChar(s[pos - 1])) || end == pos + 2)
            continue;
        const size_t i = skipWs(s, end);
        if (i < s.size() &&
            (s[i] == '{' || s[i] == ';' ||
             (s[i] == '=' && i + 1 < s.size() && s[i + 1] != '=')))
            return true;
    }
    return false;
}

/** Position of `static` + whitespace not glued to a word, or npos. */
size_t
staticKeyword(const std::string &s)
{
    for (size_t pos = s.find("static"); pos != std::string::npos;
         pos = s.find("static", pos + 1))
        if ((pos == 0 || isSpace(s[pos - 1])) && pos + 6 < s.size() &&
            isSpace(s[pos + 6]))
            return pos;
    return std::string::npos;
}

/**
 * Mutable file-scope/static data defined on line @p i: a `static` or
 * `g_` definition that is not atomic, guarded, constant, thread-local,
 * a reference binding, or a function declaration.
 */
bool
definesMutableGlobal(const ScannedUnit &u, size_t i)
{
    // For `static` declarations analyze from the keyword onward (a
    // one-line function body may precede it); for g_ globals analyze
    // the whole line (the type, e.g. std::atomic, usually precedes
    // the name).
    const size_t keyword = staticKeyword(u.code[i]);
    if (keyword == std::string::npos && !definesGlobal(u.code[i]))
        return false;
    std::string stmt = u.code[i].substr(
        keyword == std::string::npos ? 0 : keyword);
    // Join continuation lines until the statement's shape is
    // decidable (`static Foo\n  bar(...);` spans two lines).
    for (size_t j = i + 1; j < u.code.size() && j < i + 4 &&
         stmt.find_first_of("(={;") == std::string::npos;
         ++j)
        stmt += " " + u.code[j];
    for (const char *word :
         {"const", "constexpr", "constinit", "thread_local", "once_flag"})
        if (referencesIdentifier(stmt, word))
            return false;
    if (containsAny(stmt, {"atomic", "mutex", "Mutex", "GUARDED_BY"}))
        return false;
    // `static T &name` binds a reference; it owns no state.
    for (size_t pos = stmt.find("static"); pos != std::string::npos;
         pos = stmt.find("static", pos + 1)) {
        const size_t stop = pos + 6 < stmt.size() && isSpace(stmt[pos + 6])
            ? stmt.find_first_of("=;(&", pos + 6)
            : std::string::npos;
        if (stop != std::string::npos && stmt[stop] == '&')
            return false;
    }
    // A '(' before any '=' marks a function declaration/definition
    // (`static Foo bar(...)`), not a data definition.
    const size_t paren = stmt.find('(');
    const size_t eq = stmt.find('=');
    return paren == std::string::npos ||
        (eq != std::string::npos && eq < paren);
}

/** A `[std::]mutex name;`-style member (or dora::Mutex). */
bool
declaresMutexMember(const std::string &s)
{
    static const char *const types[] = {
        "std::mutex",       "mutex",        "std::recursive_mutex",
        "recursive_mutex",  "std::shared_mutex", "shared_mutex",
        "std::timed_mutex", "timed_mutex",  "dora::Mutex",
        "Mutex",
    };
    for (size_t at = 0; at < s.size(); ++at) {
        if (at > 0 && !isSpace(s[at - 1]))
            continue;
        for (const char *type : types) {
            const size_t len = std::strlen(type);
            if (s.compare(at, len, type) != 0 || at + len >= s.size() ||
                !isSpace(s[at + len]))
                continue;
            const size_t name = skipWs(s, at + len);
            const size_t name_end = wordEnd(s, name);
            const size_t semi = skipWs(s, name_end);
            if (name_end > name && semi < s.size() && s[semi] == ';')
                return true;
        }
    }
    return false;
}

/**
 * A `catch (...)` on line @p i whose handler block neither rethrows,
 * captures nor logs the exception.
 */
bool
swallowsException(const ScannedUnit &u, size_t i)
{
    const std::string &s = u.code[i];
    size_t clause_end = std::string::npos;
    for (size_t pos = s.find("catch");
         pos != std::string::npos && clause_end == std::string::npos;
         pos = s.find("catch", pos + 1)) {
        const size_t open = skipWs(s, pos + 5);
        const size_t dots = skipWs(s, open + 1);
        const size_t close = skipWs(s, dots + 3);
        if (open < s.size() && s[open] == '(' &&
            s.compare(dots, 3, "...") == 0 && close < s.size() &&
            s[close] == ')')
            clause_end = close + 1;
    }
    if (clause_end == std::string::npos)
        return false;
    // Collect the handler block: everything from the catch up to the
    // brace that balances the handler's opening '{'.
    std::string block;
    int depth = 0;
    bool entered = false, closed = false;
    size_t k = clause_end;
    for (size_t j = i; j < u.code.size() && !closed; ++j, k = 0) {
        for (; k < u.code[j].size() && !closed; ++k) {
            const char c = u.code[j][k];
            block += c;
            if (c == '{') {
                ++depth;
                entered = true;
            } else if (c == '}' && entered && --depth <= 0) {
                closed = true;
            }
        }
        block += '\n';
    }
    return !referencesIdentifier(block, "throw") &&
        !containsAny(block, {"rethrow_exception", "current_exception",
                             "std::exit"}) &&
        !callsAny(block, {"warn", "fatal", "panic", "inform", "debugLog",
                          "abort"});
}

/**
 * Line @p i starts a statement with a try[A-Z]*() call, optionally
 * behind a `(void)` cast and an object/scope chain (`a.b->c::tryX(`).
 * Calls feeding if/return/assignments never start the statement.
 */
bool
discardsTryResult(const ScannedUnit &u, size_t i)
{
    const std::string &s = u.code[i];
    size_t at = skipWs(s, 0);
    if (at < s.size() && s[at] == '(') {
        const size_t v = skipWs(s, at + 1);
        const size_t close = skipWs(s, v + 4);
        if (s.compare(v, 4, "void") == 0 && close < s.size() &&
            s[close] == ')')
            at = skipWs(s, close + 1);
    }
    for (;;) {
        const size_t end = wordEnd(s, at);
        const size_t next = skipWs(s, end);
        if (end == at) {
            return false;
        } else if (s.compare(next, 2, "::") == 0 ||
                   s.compare(next, 2, "->") == 0) {
            at = skipWs(s, next + 2);
        } else if (next < s.size() && s[next] == '.') {
            at = skipWs(s, next + 1);
        } else if (end - at > 3 && s.compare(at, 3, "try") == 0 &&
                   isUpper(s[at + 3]) && next < s.size() &&
                   s[next] == '(') {
            break;
        } else {
            return false;
        }
    }
    // Only a statement-initial call discards the result: the previous
    // non-blank code line must have ended a statement or opened a
    // block/control body. This also skips function definitions (repo
    // style puts the return type on the line above the name).
    for (size_t j = i; j-- > 0;) {
        const size_t last = u.code[j].find_last_not_of(" \t");
        if (last != std::string::npos)
            return std::string(";{})").find(u.code[j][last]) !=
                std::string::npos;
    }
    return true;
}

/**
 * Cache-hostile access in a file with walk kernels: std::vector<bool>
 * anywhere, or `->` / `.at(` inside a marked region.
 */
bool
breaksWalkKernel(const ScannedUnit &u, size_t i)
{
    const std::string &s = u.code[i];
    for (size_t pos = s.find("std::vector<"); pos != std::string::npos;
         pos = s.find("std::vector<", pos + 1)) {
        const size_t b = skipWs(s, pos + 12);
        const size_t close = skipWs(s, b + 4);
        if (s.compare(b, 4, "bool") == 0 && close < s.size() &&
            s[close] == '>')
            return true;
    }
    if (i >= u.walkKernel.size() || !u.walkKernel[i])
        return false;
    if (s.find("->") != std::string::npos)
        return true;
    for (size_t dot = s.find('.'); dot != std::string::npos;
         dot = s.find('.', dot + 1)) {
        const size_t at = skipWs(s, dot + 1);
        const size_t paren = skipWs(s, at + 2);
        if (s.compare(at, 2, "at") == 0 && paren < s.size() &&
            s[paren] == '(')
            return true;
    }
    return false;
}

/**
 * A rule that flags single lines of one file. `applies` scopes it to
 * a file (the caller already limits files to src/, tests/, bench/ and
 * tools/fleet/); `flags` tests one line of the code view.
 */
struct LineRule
{
    const char *id;
    const char *summary;
    bool (*applies)(const ScannedUnit &u);
    bool (*flags)(const ScannedUnit &u, size_t line);
    const char *message;
};

const std::vector<LineRule> &
lineRules()
{
    using U = const ScannedUnit &;
    static const std::vector<LineRule> rules = {
        {"dora-det-rand",
         "no unseeded/global RNG (rand, srand, std::random_device)",
         [](U) { return true; },
         [](U u, size_t i) {
             return u.code[i].find("std::random_device") !=
                 std::string::npos ||
                 callsAny(u.code[i], {"rand", "srand", "drand48",
                                      "lrand48", "mrand48", "random"});
         },
         "unseeded/global randomness breaks bit-identical replay; "
         "derive a seeded stream from common/rng.hh"},
        // Timing the *host* is the purpose of the execution engine's
        // job metrics and the obs layer; simulated components must
        // derive all time from tick arithmetic.
        {"dora-det-wallclock",
         "no wall-clock reads in simulation code (allow: src/exec, "
         "src/obs)",
         inSimulationCode,
         [](U u, size_t i) { return readsWallClock(u.code[i]); },
         "wall-clock input in simulation code makes results "
         "machine/schedule-dependent; use simulated ticks "
         "(allowlisted: src/exec, src/obs)"},
        {"dora-det-unordered",
         "no std::unordered_* containers in result-producing code",
         inSimulationCode,
         [](U u, size_t i) { return namesUnorderedContainer(u.code[i]); },
         "unordered-container iteration order is "
         "implementation-defined; result-producing code must use "
         "std::map / sorted vectors (or justify with NOLINT)"},
        {"dora-det-confighash",
         "no wall-clock/date input in files feeding "
         "experiment/training config hashes",
         [](U u) { return inSrcOrBench(u) && fileMentions(u, "ConfigHash"); },
         [](U u, size_t i) { return readsWallClock(u.code[i]); },
         "wall-clock/date input in a file feeding "
         "experimentConfigHash/trainingConfigHash poisons cache keys "
         "and silently mixes incompatible runs"},
        {"dora-conc-global-state",
         "mutable static/global state must be atomic, mutex-guarded, "
         "or NOLINT-justified",
         [](U u) { return hasPrefix(u.path, "src/"); },
         definesMutableGlobal,
         "mutable file-scope/static state must be std::atomic, "
         "mutex-guarded (GUARDED_BY), or NOLINT-justified"},
        {"dora-conc-mutex-unannotated",
         "header mutex members need GUARDED_BY-annotated fields",
         [](U u) {
             return hasPrefix(u.path, "src/") &&
                 u.path.size() > 3 &&
                 u.path.compare(u.path.size() - 3, 3, ".hh") == 0 &&
                 !fileMentions(u, "GUARDED_BY");
         },
         [](U u, size_t i) { return declaresMutexMember(u.code[i]); },
         "mutex member declared but no field in this header is "
         "GUARDED_BY it; annotate the guarded state "
         "(common/thread_annotations.hh) so clang -Wthread-safety can "
         "check the locking discipline"},
        // The log sink is the one place that may write to stderr.
        {"dora-hyg-stream",
         "no direct console writes from library code (log sink only)",
         [](U u) {
             return hasPrefix(u.path, "src/") &&
                 u.path != "src/common/logging.cc";
         },
         [](U u, size_t i) {
             return containsAny(u.code[i],
                                {"std::cout", "std::cerr", "std::clog"}) ||
                 callsAny(u.code[i],
                          {"printf", "vprintf", "fprintf", "vfprintf",
                           "puts", "fputs", "putchar", "fputc"});
         },
         "library code must not write to the console directly; route "
         "through inform()/warn()/debugLog() (common/logging.hh) so "
         "output is serialized and rate-limited"},
        {"dora-hyg-catch-all",
         "no catch (...) that swallows without rethrow/log",
         inSrcOrBench, swallowsException,
         "catch (...) must rethrow, capture, or log the exception; "
         "silent swallowing hides injected faults and real bugs alike"},
        {"dora-hyg-assert",
         "no assert() guards (compiled out in Release); use "
         "fatal()/panic()",
         inSrcOrBench,
         [](U u, size_t i) { return callsAny(u.code[i], {"assert"}); },
         "assert() vanishes in Release builds (NDEBUG); invariant "
         "guards must use fatal()/panic() (common/logging.hh) so short "
         "sweeps and bad configs fail loudly everywhere"},
        // tryRestore/tryDeserialize follow the snapshot/journal
        // contract of common/snapshot.hh: failure is the return
        // value, never an exception.
        {"dora-rob-unchecked-try",
         "no discarded try*() results (tryRestore/tryDeserialize "
         "report failure by return value)",
         inSrcOrBench, discardsTryResult,
         "a try*() call reports failure through its return value; "
         "discarding it turns corrupt snapshots/journals into silent "
         "state divergence — check the result (or NOLINT with "
         "justification)"},
        // std::vector<bool> is a bit-packed proxy container, so the
        // walk kernel's scratch buffers stop being byte-addressable. The
        // kernels must read flat SoA arrays hoisted into locals before
        // the loop (DESIGN.md §5g): `->` re-loads through a pointer
        // the compiler cannot prove loop-invariant, and `.at()` adds
        // a branch per element.
        {"dora-perf-walk-alias",
         "no std::vector<bool> in walk-kernel files; no ->/.at() "
         "inside dora:walk-kernel regions",
         [](U u) {
             return inSrcOrBench(u) &&
                 std::count(u.walkKernel.begin(), u.walkKernel.end(), 1);
         },
         breaksWalkKernel,
         "std::vector<bool> in a walk-kernel file, or pointer member "
         "access (->) / bounds-checked indexing (.at) inside a "
         "walk-kernel region; use std::vector<uint8_t> or AlignedVec "
         "and hoist fields into flat local arrays before the loop so "
         "the kernel stays alias-free and vectorizable"},
    };
    return rules;
}

/** Every line rule over one unit of the line-rule scope. */
void
lintUnit(const ScannedUnit &u, std::vector<Finding> &out)
{
    if (!anyPrefix(u.path, {"src/", "tests/", "bench/", "tools/fleet/"}))
        return;
    for (const LineRule &rule : lineRules()) {
        if (!rule.applies(u))
            continue;
        for (size_t i = 0; i < u.code.size(); ++i)
            if (rule.flags(u, i))
                out.push_back(Finding{u.path, static_cast<int>(i + 1),
                                      rule.id, rule.message});
    }
}

} // namespace

// ---------------------------------------------------------------- //
// Model rules: the cross-TU structural model                       //
// ---------------------------------------------------------------- //

namespace
{

/** @p m carries annotation @p name on a line of its declaration. */
bool
memberAnnotated(const ScannedUnit *unit, const MemberDecl &m,
                const char *name)
{
    for (int line = m.line; unit && line <= m.endLine; ++line)
        if (unit->hasAnnotation(line, name))
            return true;
    return false;
}

void
rtrim(std::string &s)
{
    while (!s.empty() && isSpace(s.back()))
        s.pop_back();
}

/**
 * dora-cov-hash: every field of a config struct under a hash
 * contract must be referenced by its hash function(s) or annotated
 * `// dora:hash-exclude(<reason>)`.
 */
struct HashContract
{
    const char *structName;
    std::vector<const char *> hashFunctions;
};

const std::vector<HashContract> &
hashContracts()
{
    static const std::vector<HashContract> table = {
        {"ExperimentConfig", {"experimentConfigHash"}},
        {"FleetSpec", {"fleetSpecText", "fleetSpecHash"}},
        {"TrainerConfig", {"trainingConfigHash"}},
    };
    return table;
}

void
ruleCovHash(const TreeModel &model, std::vector<Finding> &out)
{
    for (const HashContract &contract : hashContracts()) {
        std::string bodies;
        std::string fn_names;
        for (const char *fn : contract.hashFunctions) {
            for (const FunctionDef &f : model.functions)
                if (f.name == fn)
                    bodies += f.body + "\n";
            if (!fn_names.empty())
                fn_names += "/";
            fn_names += fn;
        }
        for (const StructDecl &decl : model.structs) {
            if (lastComponent(decl.name) != contract.structName)
                continue;
            const ScannedUnit *unit = findUnit(model, decl.path);
            if (bodies.empty()) {
                out.push_back(Finding{
                    decl.path, decl.line, "dora-cov-hash",
                    std::string("hash function ") + fn_names +
                        "() for " + contract.structName +
                        " not found in the scanned tree"});
                continue;
            }
            for (const MemberDecl &m : decl.members) {
                if (referencesIdentifier(bodies, m.name))
                    continue;
                if (memberAnnotated(unit, m, "hash-exclude"))
                    continue;
                out.push_back(Finding{
                    decl.path, m.line, "dora-cov-hash",
                    "field '" + m.name + "' of " +
                        contract.structName +
                        " is not folded into " + fn_names +
                        "(); fold it or annotate '// "
                        "dora:hash-exclude(<reason>)' — un-hashed "
                        "fields silently reuse stale caches"});
            }
        }
    }
}

/**
 * dora-cov-snapshot: every data member of a class that defines both
 * snapshot() and tryRestore() must appear in both bodies or carry
 * `// dora:snapshot-exclude(<reason>)`.
 */
void
ruleCovSnapshot(const TreeModel &model, std::vector<Finding> &out)
{
    for (const StructDecl &decl : model.structs) {
        if (!hasPrefix(decl.path, "src/"))
            continue;
        const std::string cls = lastComponent(decl.name);
        std::string snap_body, restore_body;
        for (const FunctionDef &f : model.functions) {
            if (lastComponent(f.className) != cls)
                continue;
            if (f.name == "snapshot")
                snap_body += f.body + "\n";
            else if (f.name == "tryRestore")
                restore_body += f.body + "\n";
        }
        const bool declares_both = decl.methods.count("snapshot") &&
            decl.methods.count("tryRestore");
        if (!declares_both || snap_body.empty() ||
            restore_body.empty())
            continue;
        const ScannedUnit *unit = findUnit(model, decl.path);
        for (const MemberDecl &m : decl.members) {
            const bool in_snap =
                referencesIdentifier(snap_body, m.name);
            const bool in_restore =
                referencesIdentifier(restore_body, m.name);
            if (in_snap && in_restore)
                continue;
            if (memberAnnotated(unit, m, "snapshot-exclude"))
                continue;
            const char *where = (!in_snap && !in_restore)
                ? "snapshot() or tryRestore()"
                : (!in_snap ? "snapshot()" : "tryRestore()");
            out.push_back(Finding{
                decl.path, m.line, "dora-cov-snapshot",
                "member '" + m.name + "' of " + cls +
                    " does not appear in " + where +
                    "; serialize it in both or annotate '// "
                    "dora:snapshot-exclude(<reason>)' — missing "
                    "members break resume/replay bit-identity"});
        }
    }
}

/**
 * dora-det-streamtag: RNG stream-tag literals (first argument of
 * Rng(...), .fork(...), hashLabel(...)) used at more than one call
 * site correlate streams that must be independent.
 */
struct TagSite
{
    size_t unitIdx;
    int line;
};

void
ruleDetStreamtag(const TreeModel &model, std::vector<Finding> &out)
{
    std::map<std::string, std::vector<TagSite>> sites;
    for (size_t ui = 0; ui < model.units.size(); ++ui) {
        const ScannedUnit &unit = model.units[ui];
        if (!anyPrefix(unit.path, {"src/", "bench/", "tools/fleet/"}))
            continue;
        for (size_t li = 0; li < unit.text.size(); ++li) {
            for (const StringLit &lit : unit.strings[li]) {
                if (lit.value.empty() ||
                    static_cast<size_t>(lit.line) != li + 1)
                    continue;
                std::string before =
                    unit.text[li].substr(0, lit.col);
                if (collapseWs(before).empty() && li > 0)
                    before = unit.text[li - 1] + " " + before;
                rtrim(before);
                if (before.empty() || before.back() != '(')
                    continue;
                before.pop_back();
                rtrim(before);
                // Identifier immediately before the '('.
                size_t w = before.size();
                while (w > 0 && wordChar(before[w - 1]))
                    --w;
                const std::string callee = before.substr(w);
                std::string rest = before.substr(0, w);
                rtrim(rest);
                bool is_site = false;
                if (callee == "hashLabel" || callee == "Rng") {
                    is_site = true;
                } else if (callee == "fork" && !rest.empty() &&
                           (rest.back() == '.' ||
                            (rest.size() >= 2 &&
                             rest.compare(rest.size() - 2, 2, "->") ==
                                 0))) {
                    is_site = true;
                } else if (!callee.empty()) {
                    // Named constructor: `Rng name("tag" ...)`.
                    size_t w2 = rest.size();
                    while (w2 > 0 && wordChar(rest[w2 - 1]))
                        --w2;
                    if (rest.substr(w2) == "Rng")
                        is_site = true;
                }
                if (is_site)
                    sites[lit.value].push_back(
                        TagSite{ui, static_cast<int>(li + 1)});
            }
        }
    }
    for (const auto &[tag, tag_sites] : sites) {
        if (tag_sites.size() < 2)
            continue;
        for (size_t i = 0; i < tag_sites.size(); ++i) {
            const TagSite &site = tag_sites[i];
            const ScannedUnit &unit = model.units[site.unitIdx];
            if (unit.hasAnnotation(site.line, "stream-tag-shared"))
                continue;
            const TagSite &other = tag_sites[i == 0 ? 1 : 0];
            out.push_back(Finding{
                unit.path, site.line, "dora-det-streamtag",
                "RNG stream tag \"" + tag + "\" is seeded at " +
                    std::to_string(tag_sites.size()) +
                    " call sites (also " +
                    model.units[other.unitIdx].path + ":" +
                    std::to_string(other.line) +
                    "); shared tags correlate streams that must be "
                    "independent — use a distinct tag or annotate "
                    "'// dora:stream-tag-shared(<reason>)'"});
        }
    }
}

/**
 * dora-ser-version: diff recomputed layouts against the checked-in
 * manifest; a layout change without a version-token change is the
 * PR 9 bug class.
 */
void
ruleSerVersion(const TreeModel &model, const std::string *manifestJson,
               std::vector<Finding> &out)
{
    std::vector<LayoutRecord> computed = computeLayouts(model, &out);
    if (!manifestJson) {
        if (!computed.empty())
            out.push_back(Finding{
                manifestRelPath(), 1, "dora-ser-version",
                "serialized-layout manifest is missing but the tree "
                "contains " +
                    std::to_string(computed.size()) +
                    " serialized formats; run dora-analyze "
                    "--regen-manifest"});
        return;
    }
    std::vector<LayoutRecord> recorded;
    std::string error;
    if (!parseManifest(*manifestJson, &recorded, &error)) {
        out.push_back(Finding{manifestRelPath(), 1,
                              "dora-ser-version",
                              "manifest is malformed (" + error +
                                  "); run dora-analyze "
                                  "--regen-manifest"});
        return;
    }
    std::map<std::string, const LayoutRecord *> by_name;
    for (const LayoutRecord &rec : recorded)
        by_name[rec.name] = &rec;
    std::set<std::string> seen;
    for (const LayoutRecord &c : computed) {
        seen.insert(c.name);
        const auto it = by_name.find(c.name);
        if (it == by_name.end()) {
            out.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "serialized format '" + c.name + "' (version " +
                    c.version +
                    ") is not declared in the manifest; review the "
                    "layout and run dora-analyze --regen-manifest"});
            continue;
        }
        const LayoutRecord &m = *it->second;
        if (c.layout != m.layout && c.version == m.version) {
            out.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "layout of '" + c.name +
                    "' changed but its version token is still " +
                    c.version +
                    "; old readers would mis-parse the new bytes — "
                    "bump the version and run dora-analyze "
                    "--regen-manifest"});
        } else if (c.layout != m.layout) {
            out.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "layout and version of '" + c.name + "' changed (" +
                    m.version + " -> " + c.version +
                    "); run dora-analyze --regen-manifest to bless "
                    "the new layout"});
        } else if (c.version != m.version) {
            out.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "version token of '" + c.name + "' changed " +
                    m.version + " -> " + c.version +
                    " without a layout change; run dora-analyze "
                    "--regen-manifest"});
        }
    }
    for (const LayoutRecord &m : recorded)
        if (!seen.count(m.name))
            out.push_back(Finding{
                manifestRelPath(), 1, "dora-ser-version",
                "manifest entry '" + m.name +
                    "' no longer matches any writer in the tree; run "
                    "dora-analyze --regen-manifest"});
}

/**
 * dora-cli-flag, second half: a main() under bench/ or tools/ that
 * never calls cliCheckFlags() ignores a misspelled or unknown flag
 * and runs its defaults. tools/analyze/ is exempt: the checker links
 * no dora library and rejects unknown options itself.
 */
void
ruleCliFlagMain(const ScannedUnit &unit, std::vector<Finding> &out)
{
    if (!anyPrefix(unit.path, {"bench/", "tools/"}) ||
        hasPrefix(unit.path, "tools/analyze/"))
        return;
    int main_line = 0;
    for (size_t li = 0; li < unit.code.size(); ++li) {
        const std::string &code = unit.code[li];
        const std::string line = code.substr(skipWs(code, 0));
        if (line.find("cliCheckFlags(") != std::string::npos)
            return;
        if (main_line == 0 && (line.rfind("main(", 0) == 0 ||
                               line.rfind("int main(", 0) == 0))
            main_line = static_cast<int>(li + 1);
    }
    if (main_line > 0)
        out.push_back(Finding{
            unit.path, main_line, "dora-cli-flag",
            "main() never calls cliCheckFlags() (common/cli.hh), so a "
            "misspelled or unknown flag is silently ignored; declare "
            "the binary's flags there"});
}

/**
 * dora-cli-flag: a `--flag` literal in comparison position outside
 * the common/cli.hh helpers re-opens the silent-misconfiguration
 * class (missing values falling through to defaults).
 */
void
ruleCliFlag(const TreeModel &model, std::vector<Finding> &out)
{
    static const std::set<std::string> parse_callees = {
        "strcmp", "strncmp", "rfind", "find", "compare",
        "starts_with",
    };
    for (const ScannedUnit &unit : model.units) {
        ruleCliFlagMain(unit, out);
        if (!anyPrefix(unit.path, {"src/", "bench/", "tools/fleet/"}))
            continue;
        if (hasPrefix(unit.path, "src/common/cli."))
            continue;  // the helpers themselves
        for (size_t li = 0; li < unit.text.size(); ++li) {
            for (const StringLit &lit : unit.strings[li]) {
                if (lit.value.size() < 3 ||
                    lit.value.rfind("--", 0) != 0 ||
                    !std::isalpha(
                        static_cast<unsigned char>(lit.value[2])) ||
                    static_cast<size_t>(lit.line) != li + 1)
                    continue;
                const std::string &text = unit.text[li];
                std::string before = text.substr(0, lit.col);
                const size_t lit_end =
                    lit.col + lit.value.size() + 2;
                const std::string after = lit_end < text.size()
                    ? text.substr(skipWs(text, lit_end))
                    : "";
                rtrim(before);
                bool compared = false;
                if (before.size() >= 2 &&
                    (before.compare(before.size() - 2, 2, "==") == 0 ||
                     before.compare(before.size() - 2, 2, "!=") == 0))
                    compared = true;
                if (after.rfind("==", 0) == 0 ||
                    after.rfind("!=", 0) == 0)
                    compared = true;
                if (!compared) {
                    // Callee of the innermost unclosed call.
                    int depth = 0;
                    for (size_t i = before.size(); i-- > 0;) {
                        const char c = before[i];
                        if (c == ')') {
                            ++depth;
                        } else if (c == '(') {
                            if (depth > 0) {
                                --depth;
                                continue;
                            }
                            size_t w = i;
                            while (w > 0 && isSpace(before[w - 1]))
                                --w;
                            size_t b = w;
                            while (b > 0 && wordChar(before[b - 1]))
                                --b;
                            compared = parse_callees.count(
                                           before.substr(b, w - b)) >
                                0;
                            break;
                        }
                    }
                }
                if (!compared)
                    continue;
                out.push_back(Finding{
                    unit.path, static_cast<int>(li + 1),
                    "dora-cli-flag",
                    "flag \"" + lit.value +
                        "\" is parsed by hand; route it through "
                        "cliFlagValue()/cliHasFlag() (common/cli.hh) "
                        "so missing values stay a fatal diagnostic "
                        "instead of a silent default"});
            }
        }
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = [] {
        std::vector<RuleInfo> rules;
        for (const LineRule &rule : lineRules())
            rules.push_back({rule.id, rule.summary, true});
        rules.insert(rules.end(), {
        {"dora-cov-hash",
         "config struct fields must be folded into their hash "
         "function or annotated dora:hash-exclude(reason)",
         false},
        {"dora-cov-snapshot",
         "members of classes with snapshot()/tryRestore() must "
         "round-trip through both or be annotated "
         "dora:snapshot-exclude(reason)",
         false},
        {"dora-det-streamtag",
         "an RNG stream tag used at multiple call sites correlates "
         "streams; share only with dora:stream-tag-shared(reason)",
         false},
        {"dora-ser-version",
         "serialized layouts must match tools/analyze/"
         "serialized_layouts.json; layout changes require a version "
         "bump (--regen-manifest to bless)",
         false},
        {"dora-cli-flag",
         "--flag literals must be parsed via the common/cli.hh "
         "helpers, not by hand, and every bench/tool main() must "
         "call cliCheckFlags()",
         false},
        });
        return rules;
    }();
    return catalog;
}

std::vector<Finding>
analyzeModel(const TreeModel &model, const std::string *manifestJson)
{
    std::vector<Finding> raw;
    for (const ScannedUnit &unit : model.units)
        lintUnit(unit, raw);
    ruleCovHash(model, raw);
    ruleCovSnapshot(model, raw);
    ruleDetStreamtag(model, raw);
    ruleSerVersion(model, manifestJson, raw);
    ruleCliFlag(model, raw);

    std::map<std::string, const ScannedUnit *> by_path;
    for (const ScannedUnit &unit : model.units)
        by_path[unit.path] = &unit;

    std::vector<Finding> findings;
    for (Finding &finding : raw) {
        const auto it = by_path.find(finding.path);
        if (it != by_path.end()) {
            const size_t idx = static_cast<size_t>(finding.line) - 1;
            if (idx < it->second->nolint.size()) {
                const auto &suppressed = it->second->nolint[idx];
                if (suppressed.count("*") ||
                    suppressed.count(finding.rule))
                    continue;
            }
        }
        findings.push_back(std::move(finding));
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return findings;
}

// ---------------------------------------------------------------- //
// Tree entry points                                                //
// ---------------------------------------------------------------- //

const std::vector<std::string> &
defaultSubdirs()
{
    static const std::vector<std::string> dirs = {"src", "tests",
                                                  "bench", "tools"};
    return dirs;
}

const char *
manifestRelPath()
{
    return "tools/analyze/serialized_layouts.json";
}

TreeModel
loadTree(const std::string &repoRoot,
         const std::vector<std::string> &subdirs,
         std::vector<std::string> *scannedPaths)
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    for (const auto &subdir : subdirs) {
        const fs::path root = fs::path(repoRoot) / subdir;
        if (!fs::exists(root))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(root)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cc" && ext != ".hh")
                continue;
            std::string rel = entry.path()
                                  .lexically_relative(repoRoot)
                                  .generic_string();
            // Golden-test fixtures are deliberate violations.
            if (rel.find("fixtures/") != std::string::npos)
                continue;
            paths.push_back(std::move(rel));
        }
    }
    std::sort(paths.begin(), paths.end());

    std::vector<ScannedUnit> units;
    units.reserve(paths.size());
    for (const auto &rel : paths) {
        std::ifstream in(fs::path(repoRoot) / rel, std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        units.push_back(scanUnit(rel, content.str()));
    }
    if (scannedPaths)
        *scannedPaths = std::move(paths);
    return buildModel(std::move(units));
}

std::vector<Finding>
analyzeTree(const std::string &repoRoot,
            const std::vector<std::string> &subdirs,
            std::vector<std::string> *scannedPaths)
{
    const TreeModel model = loadTree(repoRoot, subdirs, scannedPaths);
    const std::filesystem::path manifest_path =
        std::filesystem::path(repoRoot) / manifestRelPath();
    std::string manifest;
    bool have_manifest = false;
    if (std::filesystem::exists(manifest_path)) {
        std::ifstream in(manifest_path, std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        manifest = content.str();
        have_manifest = true;
    }
    return analyzeModel(model, have_manifest ? &manifest : nullptr);
}

std::string
renderText(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const auto &f : findings)
        out << f.path << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
    return out.str();
}

std::string
renderJson(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "[\n";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << "  {\"file\": \"" << jsonEscape(f.path)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"}"
            << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

} // namespace dora::analyze
