#ifndef SPNET_LINT_RUNNER_H_
#define SPNET_LINT_RUNNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "lint/graph.h"
#include "lint/lint.h"

namespace spnet {
namespace lint {

/// Aggregate result of linting a set of paths.
struct RunSummary {
  int files_linted = 0;
  int errors = 0;
  /// Every finding (per-file rules plus the project-graph tier), ordered
  /// by file path, then line, then rule.
  std::vector<Diagnostic> diagnostics;
  /// The include-graph JSON (`ProjectGraph::ToJson` against the built-in
  /// manifest), ready for `--graph_out` / CI artifacts.
  std::string graph_json;
};

/// True for files the walker lints: C++ sources and headers by extension
/// (.h/.hpp/.cc/.cpp/.cxx and the CUDA spellings .cu/.cuh).
bool IsLintableFile(const std::string& path);

/// Lints each path: files directly, directories recursively, then runs the
/// project-graph rules (layering-violation, include-cycle) across the
/// whole file set against the built-in layering manifest. Skipped during
/// the walk: hidden directories, anything named `build*` or
/// `third_party`, and `lint_fixtures` (the test corpus violates rules on
/// purpose). NotFound if a path does not exist.
[[nodiscard]] Result<RunSummary> LintPaths(
    const std::vector<std::string>& paths);

/// Builds the include graph for the same file set LintPaths would lint,
/// without running any rules. Used by the repo self-check tests.
[[nodiscard]] Result<ProjectGraph> BuildProjectGraph(
    const std::vector<std::string>& paths);

/// gcc-style one-liner: `path:line: error: message [rule]`.
std::string FormatDiagnostic(const Diagnostic& diagnostic);

/// Machine-readable findings (`--json_out`): schema_version'd JSON with
/// the run counters and one entry per diagnostic.
std::string FindingsJson(const RunSummary& summary);

}  // namespace lint
}  // namespace spnet

#endif  // SPNET_LINT_RUNNER_H_
