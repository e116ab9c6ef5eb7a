#include "lint/runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "lint/graph.h"
#include "metrics/json_writer.h"

namespace spnet {
namespace lint {
namespace {

namespace fs = std::filesystem;

bool HasSuffix(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// Directories the recursive walk never descends into.
bool IsSkippedDirectory(const std::string& name) {
  if (!name.empty() && name[0] == '.') return true;  // .git, .cache, ...
  if (name.rfind("build", 0) == 0) return true;      // build, build-asan, ...
  return name == "third_party" || name == "lint_fixtures";
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kIoError, "cannot open " + path);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

Status CollectFiles(const std::string& root, std::vector<std::string>* out) {
  std::error_code ec;
  const fs::file_status status = fs::status(root, ec);
  if (ec || status.type() == fs::file_type::not_found) {
    return Status(StatusCode::kNotFound, "no such file or directory: " + root);
  }
  if (!fs::is_directory(status)) {
    out->push_back(root);
    return Status::Ok();
  }
  fs::recursive_directory_iterator it(
      root, fs::directory_options::skip_permission_denied, ec);
  if (ec) {
    return Status(StatusCode::kIoError,
                  "cannot walk " + root + ": " + ec.message());
  }
  for (const fs::recursive_directory_iterator end; it != end;
       it.increment(ec)) {
    if (ec) {
      return Status(StatusCode::kIoError,
                    "cannot walk " + root + ": " + ec.message());
    }
    const fs::directory_entry& entry = *it;
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && IsSkippedDirectory(name)) {
      it.disable_recursion_pending();
      continue;
    }
    if (entry.is_regular_file() && IsLintableFile(name)) {
      out->push_back(entry.path().generic_string());
    }
  }
  return Status::Ok();
}

}  // namespace

bool IsLintableFile(const std::string& path) {
  return HasSuffix(path, ".h") || HasSuffix(path, ".hpp") ||
         HasSuffix(path, ".cc") || HasSuffix(path, ".cpp") ||
         HasSuffix(path, ".cxx") || HasSuffix(path, ".cu") ||
         HasSuffix(path, ".cuh");
}

namespace {

Result<std::vector<SourceFile>> LoadSources(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    const Status collected = CollectFiles(path, &files);
    if (!collected.ok()) return collected;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (std::string& file : files) {
    Result<std::string> content = ReadFileToString(file);
    if (!content.ok()) return content.status();
    sources.push_back({std::move(file), *std::move(content)});
  }
  return sources;
}

}  // namespace

Result<RunSummary> LintPaths(const std::vector<std::string>& paths) {
  Result<std::vector<SourceFile>> sources = LoadSources(paths);
  if (!sources.ok()) return sources.status();

  RunSummary summary;
  for (const SourceFile& source : *sources) {
    std::vector<Diagnostic> diagnostics =
        LintSource(source.path, source.content);
    ++summary.files_linted;
    for (Diagnostic& diagnostic : diagnostics) {
      summary.diagnostics.push_back(std::move(diagnostic));
    }
  }

  // Project-graph tier: needs the whole file set at once.
  const LayeringManifest& manifest = DefaultLayeringManifest();
  const ProjectGraph graph = ProjectGraph::Build(*sources);
  for (Diagnostic& diagnostic : CheckProjectGraph(graph, manifest)) {
    summary.diagnostics.push_back(std::move(diagnostic));
  }
  summary.graph_json = graph.ToJson(manifest);

  std::sort(summary.diagnostics.begin(), summary.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  summary.errors = static_cast<int>(summary.diagnostics.size());
  return summary;
}

Result<ProjectGraph> BuildProjectGraph(const std::vector<std::string>& paths) {
  Result<std::vector<SourceFile>> sources = LoadSources(paths);
  if (!sources.ok()) return sources.status();
  return ProjectGraph::Build(*sources);
}

std::string FormatDiagnostic(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << diagnostic.file << ':' << diagnostic.line << ": error: "
      << diagnostic.message << " [" << diagnostic.rule << ']';
  return out.str();
}

std::string FindingsJson(const RunSummary& summary) {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(2);
  w.Key("tool").String("spnet_lint");
  w.Key("files_linted").Int(summary.files_linted);
  w.Key("errors").Int(summary.errors);
  w.Key("findings").BeginArray();
  for (const Diagnostic& diagnostic : summary.diagnostics) {
    w.BeginObject();
    w.Key("file").String(diagnostic.file);
    w.Key("line").Int(diagnostic.line);
    w.Key("rule").String(diagnostic.rule);
    w.Key("message").String(diagnostic.message);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace lint
}  // namespace spnet
