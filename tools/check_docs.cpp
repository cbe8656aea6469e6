// check_docs: deterministic cross-reference linter for the prose docs.
//
// Documentation rots by reference: a file gets renamed, an env var gets
// dropped, a metric changes its name, and the prose that cites it keeps
// compiling because prose always compiles. This tool makes the citations
// themselves CI-checked. It scans the maintained documents (README.md,
// DESIGN.md, EXPERIMENTS.md, ROADMAP.md and everything under docs/) and
// verifies four classes of backtick-quoted reference against the tree:
//
//   paths     `src/control/service.hpp`, `tests/test_obs.cpp`, bare
//             header names like `flight.hpp` — must name a file that
//             exists (repo-relative, src/-relative, or by unique path
//             suffix). Generated artifacts (telemetry_*.json,
//             trace_*.json, flight_*.json, build/ paths) are exempt:
//             they exist only after a run.
//   env vars  `PRESS_*` — must appear in a source file (src/, tools/,
//             bench/, tests/, .github/), so a documented knob is one the
//             code actually reads.
//   metrics   dotted names rooted at core./control./service./obs. —
//             the literal (after stripping a trailing `.*` wildcard)
//             must appear in a source string; dynamic segments like
//             `control.batch.worker.0.busy_s` fall back to the longest
//             literal dot-prefix.
//   binaries  `./build/<dir>/<name>` invocations — <name> must be an
//             add_executable() target in some CMakeLists.txt.
//
// Exit 0 when every reference resolves; exit 1 listing each dangling
// reference otherwise. `--self-test` plants one known-dangling reference
// of every class plus matching known-good ones and exits 0 only if the
// checker flags exactly the planted defects — the linter lints itself.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Reference {
    std::string doc;    ///< document the token was found in
    std::size_t line;   ///< 1-based line number
    std::string token;  ///< the quoted text
    std::string kind;   ///< path | env | metric | binary
};

/// Everything the checks resolve against, loaded once from the tree.
struct Tree {
    std::set<std::string> files;        ///< repo-relative paths, '/' seps
    std::string source_blob;            ///< concatenated source text
    std::set<std::string> cmake_targets;
};

bool skip_dir(const std::string& name) {
    return name == ".git" || name == ".claude" ||
           name.rfind("build", 0) == 0 || name == "related";
}

bool source_like(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
           ext == ".yml" || ext == ".yaml" || ext == ".cmake" ||
           p.filename() == "CMakeLists.txt";
}

Tree load_tree(const fs::path& root) {
    Tree tree;
    std::vector<fs::path> stack{root};
    while (!stack.empty()) {
        const fs::path dir = stack.back();
        stack.pop_back();
        for (const auto& entry : fs::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (entry.is_directory()) {
                if (!skip_dir(name)) stack.push_back(entry.path());
                continue;
            }
            if (!entry.is_regular_file()) continue;
            std::string rel =
                fs::relative(entry.path(), root).generic_string();
            tree.files.insert(rel);
            // The linter's own source never certifies a reference: it
            // contains the self-test's planted defects as literals.
            if (rel == "tools/check_docs.cpp") continue;
            if (source_like(entry.path())) {
                std::ifstream in(entry.path());
                std::stringstream ss;
                ss << in.rdbuf();
                tree.source_blob += ss.str();
                tree.source_blob += '\n';
            }
        }
    }
    // add_executable(<target> ...) across every CMakeLists.txt, plus the
    // repo's one-liner wrappers (press_example(x) etc.) that expand to
    // add_executable(${name} ${name}.cpp).
    static const std::regex target_re(
        R"((?:add_executable|press_example|press_bench|press_test)\(\s*([A-Za-z0-9_]+))");
    for (auto it = std::sregex_iterator(tree.source_blob.begin(),
                                        tree.source_blob.end(), target_re);
         it != std::sregex_iterator(); ++it)
        tree.cmake_targets.insert((*it)[1].str());
    tree.cmake_targets.erase("name");  // the wrapper definitions themselves
    return tree;
}

/// Generated-at-runtime artifacts the docs legitimately name.
bool generated_artifact(const std::string& token) {
    const std::string base =
        fs::path(token).filename().generic_string();
    return token.rfind("build/", 0) == 0 ||
           token.find("/build/") != std::string::npos ||
           base.rfind("telemetry_", 0) == 0 ||
           base.rfind("trace_", 0) == 0 ||
           base.rfind("flight_", 0) == 0 ||
           base.rfind("baseline", 0) == 0;
}

bool path_resolves(const Tree& tree, const std::string& token) {
    if (generated_artifact(token)) return true;
    if (tree.files.count(token) != 0) return true;
    if (tree.files.count("src/" + token) != 0) return true;
    // Suffix match: `control/service.hpp` or a bare `flight.hpp` names a
    // file anywhere in the tree.
    const std::string suffix = "/" + token;
    for (const std::string& f : tree.files) {
        if (f.size() >= suffix.size() &&
            f.compare(f.size() - suffix.size(), suffix.size(), suffix) == 0)
            return true;
    }
    return false;
}

bool env_resolves(const Tree& tree, const std::string& token) {
    return tree.source_blob.find(token) != std::string::npos;
}

/// Metric roots the telemetry registry actually uses; a dotted token
/// outside these roots is prose (e.g. `foo.bar` in an example), not a
/// metric citation.
bool metric_root(const std::string& token) {
    static const char* roots[] = {"core.",    "control.", "service.",
                                  "obs.",     "em.",      "sdr.",
                                  "phy.",     "fault.",   "press."};
    for (const char* r : roots)
        if (token.rfind(r, 0) == 0) return true;
    return false;
}

bool metric_resolves(const Tree& tree, std::string token) {
    // Strip a trailing wildcard segment: `control.multilink.*`.
    if (token.size() >= 2 && token.compare(token.size() - 2, 2, ".*") == 0)
        token.resize(token.size() - 2);
    while (true) {
        if (tree.source_blob.find(token) != std::string::npos) return true;
        // Dynamic tail segments (worker indices, link ids): retry on the
        // longest literal dot-prefix, but never shallower than two
        // segments — `control.` alone proves nothing.
        const std::size_t dot = token.find_last_of('.');
        if (dot == std::string::npos || token.find('.') == dot)
            return false;
        token.resize(dot);
    }
}

bool binary_resolves(const Tree& tree, const std::string& token) {
    const std::string name = fs::path(token).filename().string();
    return tree.cmake_targets.count(name) != 0;
}

/// Pulls every checkable reference out of one document's text.
std::vector<Reference> extract(const std::string& doc,
                               const std::string& text) {
    std::vector<Reference> refs;
    static const std::regex quoted_re("`([^`\\n]+)`");
    static const std::regex path_re(
        R"(^[A-Za-z0-9_./-]+\.(md|cpp|hpp|h|json|yml|txt|cmake)$)");
    static const std::regex env_re(R"(PRESS_[A-Z][A-Z0-9_]*)");
    static const std::regex metric_re(
        R"(^[a-z]+(\.[a-z0-9_]+)+(\.\*)?$)");
    static const std::regex binary_re(R"(\./build/[A-Za-z0-9_/]+)");

    std::size_t line = 1;
    std::istringstream stream(text);
    std::string buf;
    while (std::getline(stream, buf)) {
        for (auto it = std::sregex_iterator(buf.begin(), buf.end(),
                                            quoted_re);
             it != std::sregex_iterator(); ++it) {
            const std::string token = (*it)[1].str();
            if (std::regex_match(token, path_re) &&
                token.find('.') != 0) {
                refs.push_back({doc, line, token, "path"});
            } else if (std::regex_match(token, metric_re) &&
                       metric_root(token)) {
                refs.push_back({doc, line, token, "metric"});
            }
        }
        // Env vars and binary invocations appear both inside and outside
        // backticks (shell blocks), so they scan the raw line.
        for (auto it =
                 std::sregex_iterator(buf.begin(), buf.end(), env_re);
             it != std::sregex_iterator(); ++it)
            refs.push_back({doc, line, it->str(), "env"});
        for (auto it =
                 std::sregex_iterator(buf.begin(), buf.end(), binary_re);
             it != std::sregex_iterator(); ++it)
            refs.push_back({doc, line, it->str(), "binary"});
        ++line;
    }
    return refs;
}

std::vector<Reference> dangling(const Tree& tree,
                                const std::vector<Reference>& refs) {
    std::vector<Reference> bad;
    for (const Reference& r : refs) {
        bool ok = true;
        if (r.kind == "path") ok = path_resolves(tree, r.token);
        else if (r.kind == "env") ok = env_resolves(tree, r.token);
        else if (r.kind == "metric") ok = metric_resolves(tree, r.token);
        else if (r.kind == "binary") ok = binary_resolves(tree, r.token);
        if (!ok) bad.push_back(r);
    }
    return bad;
}

std::vector<std::string> doc_set(const fs::path& root) {
    std::vector<std::string> docs = {"README.md", "DESIGN.md",
                                     "EXPERIMENTS.md", "ROADMAP.md"};
    if (fs::exists(root / "docs"))
        for (const auto& entry : fs::directory_iterator(root / "docs"))
            if (entry.path().extension() == ".md")
                docs.push_back(
                    fs::relative(entry.path(), root).generic_string());
    std::sort(docs.begin(), docs.end());
    return docs;
}

/// The linter lints itself: plant one dangling and one resolving
/// reference of every class, and require exactly the planted defects to
/// be flagged.
int self_test(const Tree& tree) {
    const std::string synthetic =
        "Good: `src/core/system.hpp` and `control/objective.hpp` and\n"
        "`flight.hpp`; knob PRESS_THREADS; metric `core.link_cache.hits`\n"
        "and dynamic `control.batch.worker.0.busy_s` and wildcard\n"
        "`control.multilink.*`; run ./build/tools/bench_diff; generated\n"
        "`flight_service.json` and\n"
        "`build/bench/telemetry_perf_snapshot.json`.\n"
        "Bad: `src/core/warp_drive.hpp`; knob PRESS_FLUX_CAPACITOR;\n"
        "metric `control.warp.engaged`; run ./build/tools/warp_console.\n";
    const std::vector<Reference> refs = extract("<self-test>", synthetic);
    const std::vector<Reference> bad = dangling(tree, refs);
    const std::set<std::string> expected = {
        "src/core/warp_drive.hpp", "PRESS_FLUX_CAPACITOR",
        "control.warp.engaged", "./build/tools/warp_console"};
    std::set<std::string> flagged;
    for (const Reference& r : bad) flagged.insert(r.token);
    if (flagged == expected) {
        std::printf("check_docs --self-test: ok (%zu planted defects "
                    "flagged, %zu good references resolved)\n",
                    expected.size(), refs.size() - bad.size());
        return 0;
    }
    for (const std::string& t : expected)
        if (flagged.count(t) == 0)
            std::fprintf(stderr,
                         "self-test FAIL: planted dangling reference "
                         "not flagged: %s\n",
                         t.c_str());
    for (const std::string& t : flagged)
        if (expected.count(t) == 0)
            std::fprintf(stderr,
                         "self-test FAIL: good reference wrongly "
                         "flagged: %s\n",
                         t.c_str());
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    fs::path root = ".";
    bool run_self_test = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--self-test") == 0)
            run_self_test = true;
        else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc)
            root = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: check_docs [--root <repo>] [--self-test]\n");
            return 2;
        }
    }
    if (!fs::exists(root / "README.md")) {
        std::fprintf(stderr,
                     "check_docs: %s does not look like the repo root "
                     "(no README.md); pass --root\n",
                     root.string().c_str());
        return 2;
    }

    const Tree tree = load_tree(root);
    if (run_self_test) return self_test(tree);

    std::size_t checked = 0;
    std::vector<Reference> bad;
    for (const std::string& doc : doc_set(root)) {
        std::ifstream in(root / doc);
        if (!in) {
            std::fprintf(stderr, "check_docs: cannot read %s\n",
                         doc.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const std::vector<Reference> refs = extract(doc, ss.str());
        checked += refs.size();
        const std::vector<Reference> doc_bad = dangling(tree, refs);
        bad.insert(bad.end(), doc_bad.begin(), doc_bad.end());
    }
    if (!bad.empty()) {
        for (const Reference& r : bad)
            std::fprintf(stderr,
                         "check_docs: %s:%zu: dangling %s reference "
                         "`%s`\n",
                         r.doc.c_str(), r.line, r.kind.c_str(),
                         r.token.c_str());
        std::fprintf(stderr, "check_docs: %zu dangling reference(s)\n",
                     bad.size());
        return 1;
    }
    std::printf("check_docs: ok (%zu references across %zu documents)\n",
                checked, doc_set(root).size());
    return 0;
}
