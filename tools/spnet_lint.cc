// spnet_lint: the project's source linter.
//
// Tokenizes the C++ sources under the given paths with a real lexer
// (comments, string/char literals, raw strings and preprocessor lines are
// understood, so rules never fire inside them) and enforces the project
// rules described in DESIGN.md §9. Every finding is an error. Exit
// status: 0 when clean, 1 when any finding survives suppression, 2 on
// usage/IO problems, including any flag not listed below.
//
// Usage:
//   spnet_lint [--list-rules] [--json_out <path>] [--graph_out <path>]
//              <path>...
//
// Suppress a finding inline with `// spnet-lint: allow(<rule>)` on the
// same line or the line above.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "lint/lint.h"
#include "lint/runner.h"
#include "metrics/json_writer.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: spnet_lint [--list-rules] [--json_out <path>]\n"
      "                  [--graph_out <path>] <path>...\n"
      "  --list-rules        print the rule catalog and exit\n"
      "  --json_out <path>   write machine-readable findings JSON\n"
      "  --graph_out <path>  write the include-graph/layering JSON\n");
}

void PrintRules() {
  for (const spnet::lint::RuleInfo& rule : spnet::lint::Rules()) {
    std::printf("%-26s %s\n", rule.name, rule.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // FlagParser gives an unknown `--flag` the next token as its value, which
  // would silently drop a path from the run; refuse any flag not listed.
  const std::string unknown = spnet::FirstUnknownFlag(
      argc, argv, {"list-rules", "json_out", "graph_out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "spnet_lint: unknown flag %s\n", unknown.c_str());
    PrintUsage();
    return 2;
  }
  spnet::FlagParser flags;
  const spnet::Status parsed = flags.Parse(argc, argv, {"list-rules"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "spnet_lint: %s\n", parsed.ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (flags.GetBool("list-rules", false)) {
    PrintRules();
    return 0;
  }
  if (flags.positional().empty()) {
    PrintUsage();
    return 2;
  }

  auto summary = spnet::lint::LintPaths(flags.positional());
  if (!summary.ok()) {
    std::fprintf(stderr, "spnet_lint: %s\n",
                 summary.status().ToString().c_str());
    return 2;
  }
  for (const spnet::lint::Diagnostic& diagnostic : summary->diagnostics) {
    std::fprintf(stderr, "%s\n",
                 spnet::lint::FormatDiagnostic(diagnostic).c_str());
  }
  const std::string json_out = flags.GetString("json_out", "");
  if (!json_out.empty()) {
    const spnet::Status written = spnet::metrics::WriteTextFile(
        json_out, spnet::lint::FindingsJson(*summary) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "spnet_lint: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  const std::string graph_out = flags.GetString("graph_out", "");
  if (!graph_out.empty()) {
    const spnet::Status written = spnet::metrics::WriteTextFile(
        graph_out, summary->graph_json + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "spnet_lint: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  std::fprintf(stderr, "spnet_lint: %d file%s, %d error%s\n",
               summary->files_linted, summary->files_linted == 1 ? "" : "s",
               summary->errors, summary->errors == 1 ? "" : "s");
  return summary->errors > 0 ? 1 : 0;
}
