#ifndef SPNET_LINT_LINT_H_
#define SPNET_LINT_LINT_H_

#include <string>
#include <vector>

namespace spnet {
namespace lint {

/// One finding: file, 1-based line, the rule that fired and a
/// human-readable message. Every finding is an error. Formatting
/// (gcc-style `file:line: error: ...`) lives in runner.h so tools and
/// tests share it.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Catalog entry for one rule; `Rules()` drives `--list-rules` and keeps
/// DESIGN.md honest.
struct RuleInfo {
  const char* name;
  const char* summary;
};

/// The full rule catalog, in diagnostic-stability order.
const std::vector<RuleInfo>& Rules();

/// Lints one translation unit. `path` is used for diagnostics and for the
/// path-scoped rules (header-only rules by extension, the relaxed-atomic
/// fast-path files, the planner modules); `content` is the source text.
/// Inline suppressions: a comment `// spnet-lint: allow(rule-a, rule-b)`
/// silences those rules on the comment's line(s) and the line immediately
/// after (so a marker can sit on its own line above the finding).
std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content);

}  // namespace lint
}  // namespace spnet

#endif  // SPNET_LINT_LINT_H_
