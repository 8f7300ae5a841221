/**
 * @file
 * Internals shared by the lexical rule pass (rules.cc) and the
 * semantic pass (sema_rules.cc): token predicates, the inline-allow
 * aware finding sink, the serialize flavor names, the
 * serialized_state.txt parser, and the fatal() allowlist.  Not part of the public ablint API.
 */

#ifndef BIGLITTLE_TOOLS_ABLINT_SINK_HH
#define BIGLITTLE_TOOLS_ABLINT_SINK_HH

#include "ablint.hh"

#include <chrono>
#include <sstream>
#include <utility>

namespace biglittle::ablint::detail
{

inline bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::identifier && t.text == text;
}

inline bool
isPunct(const Token &t, char c)
{
    return t.kind == TokKind::punct && t.text.size() == 1 &&
           t.text[0] == c;
}

inline bool
lineAllows(const LexedFile &f, int line, const std::string &rule)
{
    const auto it = f.allows.find(line);
    return it != f.allows.end() && it->second.count(rule) > 0;
}

/**
 * Run @p fn, accumulating its wall time under @p name in @p profile
 * (in milliseconds) when a profile is requested.  Backs ablint's
 * --profile flag across all three passes.
 */
template <typename Fn>
void
timeRule(RuleProfile *profile, const char *name, Fn &&fn)
{
    if (profile == nullptr) {
        fn();
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    (*profile)[name] +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Collects findings, dropping (and recording, when @p uses is set)
 * the ones suppressed by an inline allow on their line.
 */
struct Sink
{
    std::vector<Finding> &out;
    AllowUse *uses = nullptr;

    void
    add(const LexedFile &f, int line, std::string rule,
        std::string message)
    {
        if (lineAllows(f, line, rule)) {
            if (uses != nullptr)
                (*uses)[{f.path, line}].insert(rule);
            return;
        }
        out.push_back(
            {f.path, line, std::move(rule), std::move(message)});
    }
};

/** The serialize methods a stateful class may define. */
inline constexpr const char *serializeFlavors[] = {
    "serialize",
    "serializeState",
    "serializePolicy",
};

/** One parsed line of serialized_state.txt. */
struct RegistryEntry
{
    std::string className;
    std::string cover;
    int line = 0;
};

inline std::vector<RegistryEntry>
parseRegistry(const std::string &text)
{
    std::vector<RegistryEntry> entries;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream fields(line);
        RegistryEntry e;
        e.line = line_no;
        if (fields >> e.className >> e.cover)
            entries.push_back(std::move(e));
    }
    return entries;
}

/**
 * Files whose fatal() calls are their documented contract: the
 * logging module defines it, and the by-name lookup helpers
 * (apps/spec/app_model) promise fatal() on an unknown name in their
 * headers - all pre-run, user-asked-for-the-impossible paths.
 * Shared by post-init-fatal (direct calls) and fatal-reach
 * (transitive reachability).
 */
inline bool
fatalAllowlisted(const std::string &path)
{
    static const char *const prefixes[] = {
        "base/logging.",
        "workload/apps.",
        "workload/spec.",
        "workload/app_model.",
    };
    for (const char *p : prefixes) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace biglittle::ablint::detail

#endif // BIGLITTLE_TOOLS_ABLINT_SINK_HH
