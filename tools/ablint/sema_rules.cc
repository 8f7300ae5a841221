/**
 * @file
 * absema: the semantic rule pass.  Reasoning over the entity model
 * (model.hh) instead of single lines, it proves the cross-declaration
 * invariants ablint's lexical rules cannot see:
 *
 *  - serialize-coverage  every plain-value data member of a class in
 *                        serialized_state.txt is referenced by its
 *                        serialize body (state capture is write-only:
 *                        resume re-executes and byte-compares);
 *  - schema-drift        the committed per-class field digests
 *                        (state_schema.txt) match the code, and field
 *                        changes come with a checkpointVersion bump;
 *  - fatal-reach         no un-excused fatal() is reachable through
 *                        the call graph from the post-init entry
 *                        points Experiment::runApp / Supervisor::runApp;
 *  - rng-stream          explicit Rng seeds trace to
 *                        deriveStreamSeed()/namedStream()/fork();
 *  - layer-cycle         the #include graph respects the src/ layer
 *                        ranks and is acyclic.
 *
 * Plus stale-allow, which reports inline directives that suppress
 * nothing, fed by the AllowUse ledger every pass maintains.
 */

#include "model.hh"

#include "sink.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <iomanip>
#include <sstream>
#include <tuple>

namespace biglittle::ablint
{

namespace
{

using detail::Sink;
using detail::isIdent;
using detail::isPunct;
using detail::lineAllows;

std::string
hex16(std::uint64_t v)
{
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << v;
    return out.str();
}

/* ------------------------------------------------------------------ */
/* serialize-coverage                                                  */
/* ------------------------------------------------------------------ */

/**
 * Members outside the wire contract: statics/constexpr, pointers and
 * references (wiring), const members (construction-time config),
 * std::function callbacks, and *Params / *Spec config structs (a
 * re-executed run rebuilds the component tree from the same
 * experiment config, so they cannot diverge on their own).
 */
bool
memberExempt(const Member &mem)
{
    if (mem.isStatic)
        return true;
    if (mem.type.find('*') != std::string::npos ||
        mem.type.find('&') != std::string::npos)
        return true;
    if (mem.type.find("function") != std::string::npos)
        return true;
    std::istringstream words(mem.type);
    std::string w;
    while (words >> w) {
        if (w == "const")
            return true;
        const auto ends = [&w](const char *suffix) {
            const std::string s(suffix);
            return w.size() >= s.size() &&
                   w.compare(w.size() - s.size(), s.size(), s) == 0;
        };
        if (ends("Params") || ends("Spec"))
            return true;
    }
    return false;
}

const FunctionDef *
classFn(const Model &m, const ClassInfo &cls, const std::string &name)
{
    const std::string want = cls.qualName + "::" + name;
    const auto it = m.functionsByName.find(name);
    if (it == m.functionsByName.end())
        return nullptr;
    for (const std::size_t idx : it->second) {
        if (m.functions[idx].qualName == want)
            return &m.functions[idx];
    }
    return nullptr;
}

bool
bodyReferences(const FunctionDef &fn, const std::string &name)
{
    const auto &toks = fn.file->tokens;
    for (std::size_t i = fn.bodyBegin;
         i < fn.bodyEnd && i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::identifier &&
            toks[i].text == name)
            return true;
    }
    return false;
}

void
serializeCoverage(const Model &m,
                  const std::vector<detail::RegistryEntry> &reg,
                  Sink &sink)
{
    for (const auto &entry : reg) {
        const ClassInfo *cls = m.findClass(entry.className);
        if (cls == nullptr || cls->file->isTest)
            continue;
        std::vector<const FunctionDef *> bodies;
        for (const char *flavor : detail::serializeFlavors) {
            if (const FunctionDef *fn = classFn(m, *cls, flavor))
                bodies.push_back(fn);
        }
        if (bodies.empty())
            continue;

        // An allow on the class line itself covers every member: a
        // digest-only serializer (EventQueue's) has no field list.
        const bool wholeClass =
            lineAllows(*cls->file, cls->line, "serialize-coverage");

        // Each plain-value member must be named by some serialize
        // body (base/derived flavors split the state between them).
        for (const Member &mem : cls->members) {
            if (memberExempt(mem))
                continue;
            const bool written = std::any_of(
                bodies.begin(), bodies.end(),
                [&mem](const FunctionDef *fn) {
                    return bodyReferences(*fn, mem.name);
                });
            if (written)
                continue;
            sink.add(*cls->file, wholeClass ? cls->line : mem.line,
                     "serialize-coverage",
                     "member '" + mem.name + "' of '" +
                         cls->qualName + "' is not written by " +
                         bodies[0]->name +
                         "(); serialize it (and bump "
                         "checkpointVersion) or justify with an "
                         "inline allow");
        }
    }
}

/* ------------------------------------------------------------------ */
/* schema-drift                                                        */
/* ------------------------------------------------------------------ */

constexpr const char *schemaPathName =
    "tools/ablint/state_schema.txt";

struct Manifest
{
    bool present = false;
    bool hasVersion = false;
    std::uint64_t version = 0;
    int versionLine = 0;

    /** class name -> (hex digest, manifest line). */
    std::map<std::string, std::pair<std::string, int>> digests;
};

Manifest
parseManifest(const std::string &text)
{
    Manifest man;
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream fields(line);
        std::string a, b;
        if (!(fields >> a))
            continue;
        man.present = true;
        if (a == "version") {
            if (fields >> b) {
                man.hasVersion = true;
                man.version = std::stoull(b);
                man.versionLine = lineNo;
            }
            continue;
        }
        if (fields >> b)
            man.digests[a] = {b, lineNo};
    }
    return man;
}

/**
 * The field-schema digest of one registered class: fnv1a64 over the
 * declaration-ordered name:type lines of its wire members (the same
 * set serialize-coverage polices: plain-value members without an
 * inline serialize-coverage allow).
 */
std::uint64_t
classDigest(const ClassInfo &cls)
{
    std::string text = cls.qualName + "\n";
    for (const Member &mem : cls.members) {
        if (memberExempt(mem))
            continue;
        if (lineAllows(*cls.file, mem.line, "serialize-coverage"))
            continue;
        text += mem.name + ":" + mem.type + "\n";
    }
    return fnv1a64(text);
}

/** Digests of every registry class the model can see. */
std::map<std::string, std::pair<std::uint64_t, const ClassInfo *>>
computeDigests(const Model &m,
               const std::vector<detail::RegistryEntry> &reg)
{
    std::map<std::string, std::pair<std::uint64_t, const ClassInfo *>>
        out;
    for (const auto &entry : reg) {
        const ClassInfo *cls = m.findClass(entry.className);
        if (cls == nullptr || cls->file->isTest)
            continue;
        out[entry.className] = {classDigest(*cls), cls};
    }
    return out;
}

/** checkpointVersion from src/snapshot/checkpoint.hh, or -1. */
long long
findCheckpointVersion(const ScanInput &in)
{
    for (const LexedFile &f : in.files) {
        if (f.path.find("snapshot/checkpoint.hh") ==
            std::string::npos)
            continue;
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (isIdent(toks[i], "checkpointVersion") &&
                isPunct(toks[i + 1], '=') &&
                toks[i + 2].kind == TokKind::number)
                return std::stoll(toks[i + 2].text);
        }
    }
    return -1;
}

void
schemaDrift(const ScanInput &in, const Model &m,
            const std::vector<detail::RegistryEntry> &reg,
            Sink &sink, std::vector<Finding> &out)
{
    const auto digests = computeDigests(m, reg);
    if (digests.empty())
        return; // nothing serialized in this input
    const Manifest man = parseManifest(in.schemaText);
    if (!man.present) {
        out.push_back({schemaPathName, 1, "schema-drift",
                       "missing or empty state_schema.txt; generate "
                       "it with `ablint --write-schema`"});
        return;
    }
    const long long version = findCheckpointVersion(in);
    if (version >= 0 && man.hasVersion &&
        man.version != static_cast<std::uint64_t>(version)) {
        std::ostringstream msg;
        msg << "manifest was written at checkpointVersion "
            << man.version << " but src/snapshot/checkpoint.hh says "
            << version << "; rerun `ablint --write-schema`";
        out.push_back({schemaPathName, man.versionLine,
                       "schema-drift", msg.str()});
        return; // per-class diffs would only repeat the story
    }
    for (const auto &[name, entry] : digests) {
        const auto &[digest, cls] = entry;
        const auto it = man.digests.find(name);
        if (it == man.digests.end()) {
            sink.add(*cls->file, cls->line, "schema-drift",
                     "serialized class '" + name +
                         "' has no digest in state_schema.txt; run "
                         "`ablint --write-schema`");
            continue;
        }
        if (it->second.first != hex16(digest)) {
            sink.add(*cls->file, cls->line, "schema-drift",
                     "field schema of '" + name +
                         "' changed (digest " + hex16(digest) +
                         ", manifest has " + it->second.first +
                         ") without a checkpointVersion bump; bump "
                         "checkpointVersion in "
                         "src/snapshot/checkpoint.hh, then run "
                         "`ablint --write-schema`");
        }
    }
    for (const auto &[name, entry] : man.digests) {
        if (digests.count(name) == 0) {
            out.push_back(
                {schemaPathName, entry.second, "schema-drift",
                 "stale manifest entry '" + name +
                     "' (class gone or unregistered); run `ablint "
                     "--write-schema`"});
        }
    }
}

/* ------------------------------------------------------------------ */
/* fatal-reach                                                         */
/* ------------------------------------------------------------------ */

void
fatalReach(const Model &m, Sink &sink)
{
    static const char *const entryPoints[] = {
        "Experiment::runApp",
        "Supervisor::runApp",
    };
    std::deque<std::size_t> queue;
    std::vector<std::size_t> parent(m.functions.size(),
                                    static_cast<std::size_t>(-1));
    std::vector<char> visited(m.functions.size(), 0);
    for (std::size_t i = 0; i < m.functions.size(); ++i) {
        for (const char *entry : entryPoints) {
            if (m.functions[i].qualName == entry) {
                visited[i] = 1;
                queue.push_back(i);
            }
        }
    }
    if (queue.empty())
        return;
    while (!queue.empty()) {
        const std::size_t at = queue.front();
        queue.pop_front();
        for (const std::string &callee : m.functions[at].calls) {
            const auto it = m.functionsByName.find(callee);
            if (it == m.functionsByName.end())
                continue;
            for (const std::size_t next : it->second) {
                if (visited[next] ||
                    m.functions[next].file->isTest)
                    continue;
                visited[next] = 1;
                parent[next] = at;
                queue.push_back(next);
            }
        }
    }
    for (std::size_t i = 0; i < m.functions.size(); ++i) {
        if (!visited[i])
            continue;
        const FunctionDef &fn = m.functions[i];
        if (fn.file->isTest ||
            detail::fatalAllowlisted(fn.file->path))
            continue;
        const auto &toks = fn.file->tokens;
        for (std::size_t t = fn.bodyBegin;
             t + 1 < fn.bodyEnd && t + 1 < toks.size(); ++t) {
            if (!isIdent(toks[t], "fatal") ||
                !isPunct(toks[t + 1], '('))
                continue;
            // A site already justified for the direct-call rule
            // (post-init-fatal) is justified for reachability too.
            if (lineAllows(*fn.file, toks[t].line,
                           "post-init-fatal"))
                continue;
            std::vector<std::string> chain;
            for (std::size_t c = i;
                 c != static_cast<std::size_t>(-1); c = parent[c])
                chain.push_back(m.functions[c].qualName);
            std::string path;
            for (auto it = chain.rbegin(); it != chain.rend();
                 ++it) {
                if (!path.empty())
                    path += " -> ";
                path += *it;
            }
            sink.add(*fn.file, toks[t].line, "fatal-reach",
                     "fatal() is reachable from a post-init entry "
                     "point (" + path + "); return a Status / rely "
                     "on checkpoint rollback instead, or justify "
                     "with an inline allow");
        }
    }
}

/* ------------------------------------------------------------------ */
/* rng-stream                                                          */
/* ------------------------------------------------------------------ */

bool
blessedSeedIdent(const Token &t)
{
    return t.kind == TokKind::identifier &&
           (t.text == "deriveStreamSeed" ||
            t.text == "namedStream" || t.text == "fork");
}

/**
 * Does @p name get assigned (`name = ...;`) from a blessed seed
 * derivation somewhere in @p f?  Single-file, flow-insensitive - the
 * rule's documented approximation.
 */
bool
identTracesToBlessed(const LexedFile &f, const std::string &name)
{
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], name.c_str()) ||
            !isPunct(toks[i + 1], '='))
            continue;
        if (i + 2 < toks.size() && isPunct(toks[i + 2], '='))
            continue; // ==
        for (std::size_t j = i + 2;
             j < toks.size() && !isPunct(toks[j], ';'); ++j) {
            if (blessedSeedIdent(toks[j]))
                return true;
        }
    }
    return false;
}

void
rngStream(const ScanInput &in, Sink &sink)
{
    for (const LexedFile &f : in.files) {
        if (f.isTest ||
            f.path.find("base/random.") != std::string::npos)
            continue;
        const auto &toks = f.tokens;
        const std::size_t n = toks.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (!isIdent(toks[i], "Rng"))
                continue;
            if (i > 0 && (isIdent(toks[i - 1], "class") ||
                          isIdent(toks[i - 1], "struct")))
                continue;
            // `biglittle::Rng` qualification, not a ternary ':'.
            if (i > 1 && isPunct(toks[i - 1], ':') &&
                isPunct(toks[i - 2], ':'))
                continue;
            if (i + 1 < n && isPunct(toks[i + 1], ':'))
                continue; // Rng::something
            // `Rng(args)` (temporary) or `Rng name(args)` /
            // `Rng name{args}` (declaration with initializer).
            std::size_t open = static_cast<std::size_t>(-1);
            if (i + 1 < n && (isPunct(toks[i + 1], '(') ||
                              isPunct(toks[i + 1], '{')))
                open = i + 1;
            else if (i + 2 < n &&
                     toks[i + 1].kind == TokKind::identifier &&
                     (isPunct(toks[i + 2], '(') ||
                      isPunct(toks[i + 2], '{')))
                open = i + 2;
            if (open == static_cast<std::size_t>(-1))
                continue;
            const char oc = toks[open].text[0];
            const char cc = oc == '(' ? ')' : '}';
            std::vector<std::size_t> args;
            int depth = 0;
            std::size_t j = open;
            for (; j < n; ++j) {
                if (isPunct(toks[j], oc)) {
                    ++depth;
                } else if (isPunct(toks[j], cc)) {
                    if (--depth == 0)
                        break;
                } else if (depth > 0) {
                    args.push_back(j);
                }
            }
            if (args.empty())
                continue; // default-constructed: no seed chosen
            bool blessed = false;
            for (const std::size_t a : args)
                blessed = blessed || blessedSeedIdent(toks[a]);
            if (!blessed && args.size() == 1 &&
                toks[args[0]].kind == TokKind::identifier)
                blessed = identTracesToBlessed(
                    f, toks[args[0]].text);
            if (!blessed) {
                sink.add(f, toks[i].line, "rng-stream",
                         "Rng seeded from an expression not derived "
                         "via deriveStreamSeed()/namedStream()/"
                         "fork(); ad-hoc seeds fork the determinism "
                         "contract (docs/DETERMINISM.md)");
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* layer-cycle                                                         */
/* ------------------------------------------------------------------ */

/** Layer rank of a src/ directory; -1 when unranked. */
int
layerRank(const std::string &dir)
{
    static const std::map<std::string, int> ranks = {
        {"base", 0},     {"sim", 10},      {"snapshot", 20},
        {"platform", 20}, {"sched", 30},    {"governor", 30},
        {"trace", 40},   {"workload", 40}, {"fault", 40},
        {"core", 50},    {"fuzz", 60},     {"supervise", 60},
    };
    const auto it = ranks.find(dir);
    return it == ranks.end() ? -1 : it->second;
}

/** "src/sched/hmp.hh" -> "sched"; "" when not a src/ subdir path. */
std::string
srcDirOf(const std::string &path)
{
    const std::string prefix = "src/";
    const auto at = path.rfind(prefix, 0) == 0
                        ? prefix.size()
                        : std::string::npos;
    if (at == std::string::npos)
        return "";
    const auto slash = path.find('/', at);
    if (slash == std::string::npos)
        return "";
    return path.substr(at, slash - at);
}

void
layerCycle(const ScanInput &in, const Model &m, Sink &sink)
{
    // Back/cross-edges against the layer ranks.
    for (const IncludeEdge &e : m.includes) {
        if (e.file->isTest)
            continue;
        const std::string from = srcDirOf(e.file->path);
        const auto slash = e.target.find('/');
        if (slash == std::string::npos)
            continue;
        const std::string to = e.target.substr(0, slash);
        const int fromRank = layerRank(from);
        const int toRank = layerRank(to);
        if (fromRank < 0 || toRank < 0 || from == to ||
            toRank < fromRank)
            continue;
        std::ostringstream msg;
        msg << "include of \"" << e.target << "\" (layer '" << to
            << "', rank " << toRank << ") from layer '" << from
            << "' (rank " << fromRank
            << ") is a layering back-edge; the order is base < sim "
               "< {snapshot,platform} < {sched,governor} < "
               "{trace,workload,fault} < core < {fuzz,supervise} "
               "(docs/STATIC_ANALYSIS.md)";
        sink.add(*e.file, e.line, "layer-cycle", msg.str());
    }

    // File-level include cycles (catches same-layer loops the rank
    // check cannot).
    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < in.files.size(); ++i) {
        if (!in.files[i].isTest)
            byPath[in.files[i].path] = i;
    }
    struct Edge
    {
        std::size_t to;
        int line;
        std::string target;
    };
    std::vector<std::vector<Edge>> adj(in.files.size());
    for (const IncludeEdge &e : m.includes) {
        if (e.file->isTest)
            continue;
        const auto self = byPath.find(e.file->path);
        const auto tgt = byPath.find("src/" + e.target);
        if (self == byPath.end() || tgt == byPath.end())
            continue;
        adj[self->second].push_back(
            {tgt->second, e.line, e.target});
    }
    std::vector<char> color(in.files.size(), 0); // 0 w, 1 g, 2 b
    std::vector<std::size_t> stack;
    // Iterative DFS carrying the gray stack for path reconstruction.
    std::function<void(std::size_t)> dfs = [&](std::size_t at) {
        color[at] = 1;
        stack.push_back(at);
        for (const Edge &e : adj[at]) {
            if (color[e.to] == 1) {
                std::string path;
                bool seen = false;
                for (const std::size_t s : stack) {
                    if (s == e.to)
                        seen = true;
                    if (!seen)
                        continue;
                    if (!path.empty())
                        path += " -> ";
                    path += in.files[s].path;
                }
                path += " -> " + in.files[e.to].path;
                sink.add(in.files[at], e.line, "layer-cycle",
                         "include cycle: " + path);
            } else if (color[e.to] == 0) {
                dfs(e.to);
            }
        }
        stack.pop_back();
        color[at] = 2;
    };
    for (std::size_t i = 0; i < in.files.size(); ++i) {
        if (color[i] == 0 && !in.files[i].isTest)
            dfs(i);
    }
}

} // namespace

/* ------------------------------------------------------------------ */
/* pass entry points                                                   */
/* ------------------------------------------------------------------ */

std::vector<Finding>
runSemaRules(const ScanInput &in, AllowUse *uses,
             RuleProfile *profile)
{
    std::vector<Finding> out;
    Sink sink{out, uses};
    Model m;
    detail::timeRule(profile, "sema-model-build",
                     [&] { m = buildModel(in.files); });
    const auto reg = detail::parseRegistry(in.registryText);
    detail::timeRule(profile, "serialize-coverage",
                     [&] { serializeCoverage(m, reg, sink); });
    detail::timeRule(profile, "schema-drift",
                     [&] { schemaDrift(in, m, reg, sink, out); });
    detail::timeRule(profile, "fatal-reach",
                     [&] { fatalReach(m, sink); });
    detail::timeRule(profile, "rng-stream",
                     [&] { rngStream(in, sink); });
    detail::timeRule(profile, "layer-cycle",
                     [&] { layerCycle(in, m, sink); });
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule,
                                  a.message) <
                         std::tie(b.file, b.line, b.rule,
                                  b.message);
              });
    return out;
}

std::vector<Finding>
staleAllowFindings(const ScanInput &in, const AllowUse &uses)
{
    std::vector<Finding> out;
    const auto &known = ruleNames();
    for (const LexedFile &f : in.files) {
        for (const AllowDirective &d : f.directives) {
            for (const std::string &rule : d.rules) {
                if (std::find(known.begin(), known.end(), rule) ==
                    known.end()) {
                    out.push_back(
                        {f.path, d.line, "stale-allow",
                         "unknown rule '" + rule +
                             "' in ablint:allow directive"});
                    continue;
                }
                bool used = false;
                for (const int l : {d.line, d.line + 1}) {
                    const auto it = uses.find({f.path, l});
                    used = used ||
                           (it != uses.end() &&
                            it->second.count(rule) > 0);
                }
                if (!used) {
                    out.push_back(
                        {f.path, d.line, "stale-allow",
                         "ablint:allow(" + rule +
                             ") suppresses nothing; remove the "
                             "stale directive"});
                }
            }
        }
    }
    return out;
}

std::vector<Finding>
runAllRules(const ScanInput &in, RuleProfile *profile)
{
    AllowUse uses;
    std::vector<Finding> out = runRules(in, &uses, profile);
    const auto sema = runSemaRules(in, &uses, profile);
    out.insert(out.end(), sema.begin(), sema.end());
    const auto flow = runFlowRules(in, &uses, profile);
    out.insert(out.end(), flow.begin(), flow.end());
    const auto stale = staleAllowFindings(in, uses);
    out.insert(out.end(), stale.begin(), stale.end());
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule,
                                  a.message) <
                         std::tie(b.file, b.line, b.rule,
                                  b.message);
              });
    return out;
}

std::string
renderSchemaManifest(const ScanInput &in)
{
    const Model m = buildModel(in.files);
    const auto reg = detail::parseRegistry(in.registryText);
    const auto digests = computeDigests(m, reg);
    const long long version = findCheckpointVersion(in);
    std::ostringstream out;
    out << "# ablint state-schema manifest - regenerate with: "
           "ablint --write-schema\n"
        << "# One fnv1a64 digest per serialized class, over its "
           "declaration-ordered\n"
        << "# name:type wire-field list.  A digest change without a "
           "checkpointVersion\n"
        << "# bump is a schema-drift finding "
           "(docs/STATIC_ANALYSIS.md).\n"
        << "version " << (version < 0 ? 0 : version) << "\n";
    for (const auto &[name, entry] : digests)
        out << name << " " << hex16(entry.first) << "\n";
    return out.str();
}

std::string
schemaRegenBlocked(const ScanInput &in)
{
    const Manifest man = parseManifest(in.schemaText);
    if (!man.present || !man.hasVersion)
        return ""; // first generation is always fine
    const long long version = findCheckpointVersion(in);
    if (version < 0 ||
        man.version != static_cast<std::uint64_t>(version))
        return ""; // version was bumped: regen is the point
    const Model m = buildModel(in.files);
    const auto reg = detail::parseRegistry(in.registryText);
    const auto digests = computeDigests(m, reg);
    std::string changed;
    for (const auto &[name, entry] : digests) {
        const auto it = man.digests.find(name);
        if (it != man.digests.end() &&
            it->second.first != hex16(entry.first)) {
            if (!changed.empty())
                changed += ", ";
            changed += name;
        }
    }
    if (changed.empty())
        return "";
    return "state_schema.txt: field digests changed for {" +
           changed + "} but checkpointVersion is still " +
           std::to_string(version) +
           "; bump checkpointVersion in src/snapshot/checkpoint.hh "
           "before regenerating";
}

} // namespace biglittle::ablint
