#include "lint/graph.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/lexer.h"
#include "metrics/json_writer.h"

namespace spnet {
namespace lint {
namespace {

const std::set<std::string>& TreeRoots() {
  static const std::set<std::string> kRoots = {"src", "tools", "tests",
                                              "bench", "examples"};
  return kRoots;
}

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string part;
  for (const char c : path) {
    if (c == '/' || c == '\\') {
      if (!part.empty()) parts.push_back(part);
      part.clear();
    } else {
      part.push_back(c);
    }
  }
  if (!part.empty()) parts.push_back(part);
  return parts;
}

/// Extracts the quoted path from an `#include "..."` directive token, or
/// empty for any other directive (including angle-bracket includes, which
/// are system headers and never graph edges).
std::string QuotedIncludeTarget(const std::string& directive) {
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < directive.size() &&
           (directive[i] == ' ' || directive[i] == '\t')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= directive.size() || directive[i] != '#') return "";
  ++i;
  skip_ws();
  if (directive.compare(i, 7, "include") != 0) return "";
  i += 7;
  skip_ws();
  if (i >= directive.size() || directive[i] != '"') return "";
  const size_t close = directive.find('"', i + 1);
  if (close == std::string::npos) return "";
  return directive.substr(i + 1, close - i - 1);
}

}  // namespace

bool LayeringManifest::Allows(const std::string& from,
                              const std::string& to) const {
  if (from == to) return true;
  if (unrestricted_.count(from) > 0) return true;
  const auto it = allowed_.find(from);
  return it != allowed_.end() && it->second.count(to) > 0;
}

bool LayeringManifest::Knows(const std::string& module) const {
  return allowed_.count(module) > 0 || unrestricted_.count(module) > 0;
}

bool LayeringManifest::IsUnrestricted(const std::string& module) const {
  return unrestricted_.count(module) > 0;
}

Result<LayeringManifest> ParseLayeringManifest(const std::string& text) {
  LayeringManifest manifest;
  std::vector<std::pair<std::string, std::vector<std::string>>> entries;
  std::string line;
  int line_no = 0;
  std::string remaining = text;
  remaining.push_back('\n');
  for (size_t pos = 0; pos < remaining.size();) {
    const size_t eol = remaining.find('\n', pos);
    line = remaining.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    // Tokenize on whitespace; the first token must end with ':'.
    std::vector<std::string> words;
    std::string word;
    line.push_back(' ');
    for (const char c : line) {
      if (c == ' ' || c == '\t' || c == '\r') {
        if (!word.empty()) words.push_back(word);
        word.clear();
      } else {
        word.push_back(c);
      }
    }
    if (words.empty()) continue;
    if (words[0].size() < 2 || words[0].back() != ':') {
      return Status::InvalidArgument(
          "layering manifest line " + std::to_string(line_no) +
          ": expected 'module: dep dep ...', got '" + words[0] + "'");
    }
    const std::string module = words[0].substr(0, words[0].size() - 1);
    entries.emplace_back(module,
                         std::vector<std::string>(words.begin() + 1,
                                                  words.end()));
  }
  // Register modules first so dependency references can be validated.
  for (const auto& [module, deps] : entries) {
    (void)deps;
    if (manifest.allowed_.count(module) > 0) {
      return Status::InvalidArgument("layering manifest: duplicate module '" +
                                     module + "'");
    }
    manifest.allowed_[module] = {};
  }
  for (const auto& [module, deps] : entries) {
    for (const std::string& dep : deps) {
      if (dep == "*") {
        if (deps.size() != 1) {
          return Status::InvalidArgument(
              "layering manifest: module '" + module +
              "' mixes '*' with named dependencies");
        }
        manifest.unrestricted_.insert(module);
        continue;
      }
      if (dep == module) {
        return Status::InvalidArgument(
            "layering manifest: module '" + module +
            "' lists itself (self-dependency is implicit)");
      }
      if (manifest.allowed_.count(dep) == 0) {
        return Status::InvalidArgument("layering manifest: module '" + module +
                                       "' depends on undeclared module '" +
                                       dep + "'");
      }
      manifest.allowed_[module].insert(dep);
    }
  }
  // The declared edges must form a DAG (unrestricted modules are leaves of
  // the policy and excluded): a cyclic policy could never be satisfied and
  // is always a manifest bug.
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::function<Status(const std::string&)> visit =
      [&](const std::string& module) -> Status {
    state[module] = 1;
    for (const std::string& dep : manifest.allowed_[module]) {
      if (state[dep] == 1) {
        return Status::InvalidArgument(
            "layering manifest: dependency cycle through '" + module +
            "' and '" + dep + "'");
      }
      if (state[dep] == 0) {
        const Status s = visit(dep);
        if (!s.ok()) return s;
      }
    }
    state[module] = 2;
    return Status::Ok();
  };
  for (const auto& [module, deps] : manifest.allowed_) {
    (void)deps;
    if (state[module] == 0) {
      const Status s = visit(module);
      if (!s.ok()) return s;
    }
  }
  return manifest;
}

const char* DefaultLayeringManifestText() {
  // Keep in lockstep with LAYERING.md (lint_test pins the two together).
  // Low layers first; a module may include itself plus exactly the listed
  // modules. `*` marks the leaf binary trees that may use everything.
  return "common:\n"
         "metrics: common\n"
         "faultinject: common\n"
         "sparse: common faultinject\n"
         "gpusim: common metrics\n"
         "datasets: common sparse\n"
         "spgemm: common metrics sparse gpusim faultinject\n"
         "core: common sparse gpusim spgemm faultinject\n"
         "engine: common metrics sparse datasets gpusim spgemm core\n"
         "verify: common sparse datasets gpusim spgemm core engine "
         "faultinject\n"
         "serve: common metrics sparse engine faultinject\n"
         "lint: common metrics\n"
         "tools: *\n"
         "tests: *\n"
         "bench: *\n"
         "examples: *\n";
}

const LayeringManifest& DefaultLayeringManifest() {
  static const LayeringManifest* kManifest = [] {
    auto parsed = ParseLayeringManifest(DefaultLayeringManifestText());
    if (!parsed.ok()) {
      std::fprintf(stderr, "built-in layering manifest is invalid: %s\n",
                   parsed.status().ToString().c_str());
      std::abort();
    }
    // spnet-lint: allow(raw-new-delete) — intentionally leaked singleton.
    return new LayeringManifest(std::move(parsed).value());
  }();
  return *kManifest;
}

std::string RepoRelativeId(const std::string& path) {
  const std::vector<std::string> parts = SplitPath(path);
  size_t root = parts.size();
  for (size_t i = 0; i < parts.size(); ++i) {
    // The final component is a filename, never a tree root.
    if (i + 1 < parts.size() && TreeRoots().count(parts[i]) > 0) root = i;
  }
  if (root == parts.size()) return "";
  std::string id;
  for (size_t i = root; i < parts.size(); ++i) {
    if (!id.empty()) id.push_back('/');
    id += parts[i];
  }
  return id;
}

std::string ModuleForId(const std::string& id) {
  const std::vector<std::string> parts = SplitPath(id);
  if (parts.size() < 2) return "";
  if (parts[0] == "src") {
    if (parts.size() < 3) return "";
    if (parts[1] == "verify" && parts[2].rfind("fault_injection.", 0) == 0) {
      return "faultinject";
    }
    return parts[1];
  }
  if (TreeRoots().count(parts[0]) > 0) return parts[0];
  return "";
}

ProjectGraph ProjectGraph::Build(const std::vector<SourceFile>& sources) {
  ProjectGraph graph;
  std::set<std::string> seen_ids;
  for (const SourceFile& source : sources) {
    FileNode node;
    node.display_path = source.path;
    node.id = RepoRelativeId(source.path);
    if (node.id.empty() || !seen_ids.insert(node.id).second) continue;
    node.module = ModuleForId(node.id);
    const std::vector<Token> tokens = Tokenize(source.content);
    node.suppressions = SuppressionIndex(tokens);
    for (const Token& token : tokens) {
      if (token.kind != TokenKind::kPreproc) continue;
      const std::string target = QuotedIncludeTarget(token.text);
      if (target.empty()) continue;
      IncludeRef ref;
      ref.target = target;
      ref.line = token.line;
      node.includes.push_back(std::move(ref));
    }
    graph.files_.push_back(std::move(node));
  }
  std::sort(graph.files_.begin(), graph.files_.end(),
            [](const FileNode& a, const FileNode& b) { return a.id < b.id; });
  // Resolve include targets now that the file set is final: `a/b.h`
  // matches `src/a/b.h` (the library include convention) or `a/b.h`
  // directly (tests/test_util.h, bench/bench_util.h).
  for (FileNode& node : graph.files_) {
    for (IncludeRef& ref : node.includes) {
      const std::string src_candidate = "src/" + ref.target;
      if (seen_ids.count(src_candidate) > 0) {
        ref.resolved = src_candidate;
      } else if (seen_ids.count(ref.target) > 0) {
        ref.resolved = ref.target;
      }
    }
  }
  return graph;
}

const FileNode* ProjectGraph::FindFile(const std::string& id) const {
  const auto it = std::lower_bound(
      files_.begin(), files_.end(), id,
      [](const FileNode& node, const std::string& key) {
        return node.id < key;
      });
  return it != files_.end() && it->id == id ? &*it : nullptr;
}

std::map<std::pair<std::string, std::string>, int> ProjectGraph::ModuleEdges()
    const {
  std::map<std::pair<std::string, std::string>, int> edges;
  for (const FileNode& node : files_) {
    if (node.module.empty()) continue;
    for (const IncludeRef& ref : node.includes) {
      if (ref.resolved.empty()) continue;
      const std::string to = ModuleForId(ref.resolved);
      if (to.empty() || to == node.module) continue;
      ++edges[{node.module, to}];
    }
  }
  return edges;
}

std::vector<std::vector<std::string>> ProjectGraph::IncludeCycles() const {
  // Tarjan's SCC over the resolved include graph. Indices follow files_,
  // which is sorted by id, so discovery order (and output) is stable.
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < files_.size(); ++i) index_of[files_[i].id] = i;
  std::vector<std::vector<size_t>> adjacency(files_.size());
  for (size_t i = 0; i < files_.size(); ++i) {
    for (const IncludeRef& ref : files_[i].includes) {
      if (ref.resolved.empty()) continue;
      adjacency[i].push_back(index_of.at(ref.resolved));
    }
  }

  std::vector<int> index(files_.size(), -1);
  std::vector<int> lowlink(files_.size(), 0);
  std::vector<bool> on_stack(files_.size(), false);
  std::vector<size_t> stack;
  int next_index = 0;
  std::vector<std::vector<std::string>> cycles;

  std::function<void(size_t)> strongconnect = [&](size_t v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (const size_t w : adjacency[v]) {
      if (index[w] < 0) {
        strongconnect(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w]) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] != index[v]) return;
    std::vector<size_t> component;
    while (true) {
      const size_t w = stack.back();
      stack.pop_back();
      on_stack[w] = false;
      component.push_back(w);
      if (w == v) break;
    }
    bool is_cycle = component.size() > 1;
    if (!is_cycle) {
      for (const size_t w : adjacency[component[0]]) {
        if (w == component[0]) is_cycle = true;  // self-include
      }
    }
    if (!is_cycle) return;
    std::vector<std::string> ids;
    ids.reserve(component.size());
    for (const size_t w : component) ids.push_back(files_[w].id);
    std::sort(ids.begin(), ids.end());
    cycles.push_back(std::move(ids));
  };
  for (size_t v = 0; v < files_.size(); ++v) {
    if (index[v] < 0) strongconnect(v);
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

std::string ProjectGraph::ToJson(const LayeringManifest& manifest) const {
  struct ModuleInfo {
    int files = 0;
    std::set<std::string> deps;
  };
  std::map<std::string, ModuleInfo> modules;
  for (const FileNode& node : files_) {
    if (node.module.empty()) continue;
    ++modules[node.module].files;
  }
  const auto edges = ModuleEdges();
  int violations = 0;
  for (const auto& [edge, count] : edges) {
    (void)count;
    modules[edge.first].deps.insert(edge.second);
    if (!manifest.Knows(edge.first) ||
        !manifest.Allows(edge.first, edge.second)) {
      ++violations;
    }
  }

  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("tool").String("spnet_lint");
  w.Key("modules").BeginArray();
  for (const auto& [name, info] : modules) {
    w.BeginObject();
    w.Key("name").String(name);
    w.Key("files").Int(info.files);
    w.Key("deps").BeginArray();
    for (const std::string& dep : info.deps) w.String(dep);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("manifest").BeginObject();
  for (const auto& [module, deps] : manifest.allowed()) {
    w.Key(module).BeginArray();
    if (manifest.IsUnrestricted(module)) {
      w.String("*");
    } else {
      for (const std::string& dep : deps) w.String(dep);
    }
    w.EndArray();
  }
  w.EndObject();
  w.Key("module_edges").BeginArray();
  for (const auto& [edge, count] : edges) {
    w.BeginObject();
    w.Key("from").String(edge.first);
    w.Key("to").String(edge.second);
    w.Key("includes").Int(count);
    w.Key("allowed").Bool(manifest.Knows(edge.first) &&
                          manifest.Allows(edge.first, edge.second));
    w.EndObject();
  }
  w.EndArray();
  w.Key("include_cycles").BeginArray();
  for (const std::vector<std::string>& cycle : IncludeCycles()) {
    w.BeginArray();
    for (const std::string& id : cycle) w.String(id);
    w.EndArray();
  }
  w.EndArray();
  w.Key("layering_violations").Int(violations);
  w.Key("files").BeginArray();
  for (const FileNode& node : files_) {
    w.BeginObject();
    w.Key("path").String(node.id);
    w.Key("module").String(node.module);
    w.Key("includes").BeginArray();
    for (const IncludeRef& ref : node.includes) {
      if (!ref.resolved.empty()) w.String(ref.resolved);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::vector<Diagnostic> CheckProjectGraph(const ProjectGraph& graph,
                                          const LayeringManifest& manifest) {
  std::vector<Diagnostic> diagnostics;
  for (const FileNode& node : graph.files()) {
    if (node.module.empty()) continue;
    for (const IncludeRef& ref : node.includes) {
      if (ref.resolved.empty()) continue;
      const std::string to = ModuleForId(ref.resolved);
      if (to.empty() || to == node.module) continue;
      if (node.suppressions.Allows("layering-violation", ref.line)) continue;
      if (!manifest.Knows(node.module)) {
        diagnostics.push_back(
            {node.display_path, ref.line, "layering-violation",
             "module '" + node.module +
                 "' is not in the layering manifest; add it to LAYERING.md "
                 "and the built-in table in src/lint/graph.cc"});
        continue;
      }
      if (!manifest.Allows(node.module, to)) {
        diagnostics.push_back(
            {node.display_path, ref.line, "layering-violation",
             "include of '" + ref.target + "' creates module edge '" +
                 node.module + " -> " + to +
                 "' which the layering manifest does not allow (see "
                 "LAYERING.md)"});
      }
    }
  }
  for (const std::vector<std::string>& cycle : graph.IncludeCycles()) {
    // Anchor the diagnostic on the first member's include into the cycle.
    const FileNode* anchor = graph.FindFile(cycle.front());
    if (anchor == nullptr) continue;
    const std::set<std::string> members(cycle.begin(), cycle.end());
    int line = 1;
    for (const IncludeRef& ref : anchor->includes) {
      if (!ref.resolved.empty() && members.count(ref.resolved) > 0) {
        line = ref.line;
        break;
      }
    }
    if (anchor->suppressions.Allows("include-cycle", line)) continue;
    std::string path;
    for (const std::string& id : cycle) {
      if (!path.empty()) path += " -> ";
      path += id;
    }
    path += " -> " + cycle.front();
    diagnostics.push_back({anchor->display_path, line, "include-cycle",
                           "include cycle: " + path +
                               "; break it with a forward declaration or by "
                               "moving shared types down a layer"});
  }
  return diagnostics;
}

}  // namespace lint
}  // namespace spnet
