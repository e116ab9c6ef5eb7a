#ifndef SPNET_LINT_LINT_H_
#define SPNET_LINT_LINT_H_

#include <string>
#include <vector>

namespace spnet {
namespace lint {

/// Diagnostic severity. Errors fail the run (exit 1); warnings are
/// advisory unless the CLI is invoked with --werror.
enum class Severity {
  kWarning,
  kError,
};

/// One finding: file, 1-based line, the rule that fired and a
/// human-readable message. Formatting (gcc-style `file:line: error: ...`)
/// lives in runner.h so tools and tests share it.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

/// Catalog entry for one rule; `Rules()` drives `--list-rules` and keeps
/// DESIGN.md honest.
struct RuleInfo {
  const char* name;
  Severity severity;
  const char* summary;
};

/// The full rule catalog, in diagnostic-stability order.
const std::vector<RuleInfo>& Rules();

/// Knobs for project-level policy. Allowlists are matched as substrings of
/// the (slash-normalized) file path, so they work for absolute and
/// relative invocations alike.
struct LintOptions {
  /// Files whose hot paths may use std::memory_order_relaxed. Defaults to
  /// the audited fast paths: pool statistics, metrics instruments, plan
  /// cache counters, the matrix's cached fingerprint and the
  /// fault-injector armed flag.
  std::vector<std::string> relaxed_atomic_allowlist;
  /// Files allowed to use raw new/delete (beyond inline suppressions).
  /// Empty by default: the repo's intentional leaky singletons carry
  /// inline `spnet-lint: allow(raw-new-delete)` markers instead, so every
  /// raw allocation is annotated where it happens.
  std::vector<std::string> raw_new_delete_allowlist;
  /// Layering manifest text for the project-graph rules (`module: dep ...`
  /// lines, see LAYERING.md). Empty selects the built-in table
  /// (graph.h's DefaultLayeringManifestText), which mirrors LAYERING.md.
  std::string layering_manifest;

  LintOptions();
};

/// Lints one translation unit. `path` is used for diagnostics, for the
/// header-only rules (by extension) and for allowlist matching; `content`
/// is the source text. Inline suppressions: a comment
/// `// spnet-lint: allow(rule-a, rule-b)` silences those rules on the
/// comment's line(s) and the line immediately after (so a marker can sit
/// on its own line above the finding).
std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content,
                                   const LintOptions& options);

}  // namespace lint
}  // namespace spnet

#endif  // SPNET_LINT_LINT_H_
