// Tests for the spnet_lint analyzer: the lexer's literal/comment
// handling, each rule firing on a violating fixture, staying quiet on a
// clean one and honoring inline suppressions — plus the self-check that
// keeps the repo's own sources lint-clean.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/graph.h"
#include "lint/lexer.h"
#include "lint/lint.h"
#include "lint/runner.h"

#include "gtest/gtest.h"

namespace spnet {
namespace lint {
namespace {

RunSummary LintFixtureTree(const std::string& name) {
  const std::string path = std::string(SPNET_LINT_FIXTURE_DIR) + "/" + name;
  auto summary = LintPaths({path});
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  return summary.ok() ? *std::move(summary) : RunSummary{};
}

std::vector<Diagnostic> LintFixture(const std::string& name) {
  RunSummary summary = LintFixtureTree(name);
  EXPECT_EQ(summary.files_linted, 1) << name;
  return std::move(summary.diagnostics);
}

int CountRule(const std::vector<Diagnostic>& diagnostics,
              const std::string& rule) {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&rule](const Diagnostic& d) { return d.rule == rule; }));
}

std::string Render(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += FormatDiagnostic(d) + "\n";
  }
  return out;
}

// --- lexer -----------------------------------------------------------------

std::vector<Token> CodeTokens(const std::string& source) {
  std::vector<Token> tokens = Tokenize(source);
  tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                              [](const Token& t) {
                                return t.kind == TokenKind::kComment;
                              }),
               tokens.end());
  return tokens;
}

TEST(LintLexerTest, TracksLinesAcrossTokenKinds) {
  const std::vector<Token> tokens =
      Tokenize("int a = 1;\n// note\nfloat b;\n");
  ASSERT_EQ(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[5].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[5].line, 2);
  EXPECT_EQ(tokens[6].text, "float");
  EXPECT_EQ(tokens[6].line, 3);
}

TEST(LintLexerTest, StringsAndCharsSwallowTriggers) {
  const std::vector<Token> tokens =
      CodeTokens("const char* s = \"new delete\"; char q = '\\'';");
  for (const Token& t : tokens) {
    EXPECT_NE(t.text, "new");
    EXPECT_NE(t.text, "delete");
  }
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[5].kind, TokenKind::kString);
  EXPECT_EQ(tokens[5].text, "\"new delete\"");
}

TEST(LintLexerTest, RawStringsSpanLinesWithEndLine) {
  const std::vector<Token> tokens =
      CodeTokens("auto s = R\"tag(\nnew int;\n)tag\";\nint after = 2;");
  const auto raw =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kString;
      });
  ASSERT_NE(raw, tokens.end());
  EXPECT_EQ(raw->line, 1);
  EXPECT_EQ(raw->end_line, 3);
  const auto after =
      std::find_if(tokens.begin(), tokens.end(),
                   [](const Token& t) { return t.text == "after"; });
  ASSERT_NE(after, tokens.end());
  EXPECT_EQ(after->line, 4);
}

TEST(LintLexerTest, BlockCommentsAndPreprocAreSingleTokens) {
  const std::vector<Token> tokens = Tokenize(
      "#include <map> // why\n/* a\nb */ int x;\n#define F(a) \\\n  (a)\n");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kPreproc);
  EXPECT_EQ(tokens[0].text, "#include <map> ");
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[2].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[2].line, 2);
  EXPECT_EQ(tokens[2].end_line, 3);
  const auto define =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kPreproc && t.text.rfind("#define", 0) == 0;
      });
  ASSERT_NE(define, tokens.end());
  EXPECT_EQ(define->text, "#define F(a)    (a)");
  EXPECT_EQ(define->end_line, 5);
}

TEST(LintLexerTest, MultiCharPunctuatorsStayWhole) {
  const std::vector<Token> tokens = CodeTokens("a::b->c <<= 1;");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[1].text, "::");
  EXPECT_EQ(tokens[3].text, "->");
  EXPECT_EQ(tokens[5].text, "<<=");
}

TEST(LintLexerTest, RawStringDelimiterRoundTripsInTokenText) {
  // Regression: a non-empty delimiter used to be swallowed, leaving the
  // token text as `R"new int;)xyz"`.
  const std::vector<Token> tokens =
      CodeTokens("auto s = R\"xyz(new int;)xyz\";");
  const auto raw =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kString;
      });
  ASSERT_NE(raw, tokens.end());
  EXPECT_EQ(raw->text, "R\"xyz(new int;)xyz\"");
  // The body must not leak `new` as an identifier token.
  for (const Token& t : tokens) EXPECT_NE(t.text, "new");
}

TEST(LintLexerTest, DigitSeparatorsStayOneNumberToken) {
  const std::vector<Token> tokens =
      CodeTokens("long n = 1'000'000; int m = 0xFF'00 + 2;");
  std::vector<std::string> numbers;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
  }
  ASSERT_EQ(numbers.size(), 3u);
  EXPECT_EQ(numbers[0], "1'000'000");
  EXPECT_EQ(numbers[1], "0xFF'00");
  EXPECT_EQ(numbers[2], "2");
}

TEST(LintLexerTest, NumberDoesNotSwallowFollowingCharLiteral) {
  // `1,'x'` — the quote after the comma opens a character literal; the
  // pp-number scan must not treat a trailing `'` as a digit separator.
  const std::vector<Token> tokens = CodeTokens("f(1,'x');");
  const auto number =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kNumber;
      });
  ASSERT_NE(number, tokens.end());
  EXPECT_EQ(number->text, "1");
  const auto chr =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kCharacter;
      });
  ASSERT_NE(chr, tokens.end());
  EXPECT_EQ(chr->text, "'x'");
}

// --- per-rule fixtures -----------------------------------------------------

TEST(LintRuleTest, RawNewDeleteFiresOnBadFixture) {
  const auto diagnostics = LintFixture("raw_new_delete_bad.cc");
  EXPECT_EQ(CountRule(diagnostics, "raw-new-delete"), 2)
      << Render(diagnostics);
}

TEST(LintRuleTest, RawNewDeleteQuietOnCleanFixture) {
  const auto diagnostics = LintFixture("raw_new_delete_clean.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, RawNewDeleteHonorsSuppression) {
  const auto diagnostics = LintFixture("raw_new_delete_suppressed.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, CharCtypeFiresOnBadFixture) {
  const auto diagnostics = LintFixture("char_ctype_bad.cc");
  EXPECT_EQ(CountRule(diagnostics, "char-ctype"), 2) << Render(diagnostics);
}

TEST(LintRuleTest, CharCtypeQuietOnCleanFixture) {
  const auto diagnostics = LintFixture("char_ctype_clean.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, CharCtypeHonorsSuppression) {
  const auto diagnostics = LintFixture("char_ctype_suppressed.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, GlobalMutableStateFiresOnBadFixture) {
  const auto diagnostics = LintFixture("global_state_bad.cc");
  EXPECT_EQ(CountRule(diagnostics, "global-mutable-state"), 3)
      << Render(diagnostics);
}

TEST(LintRuleTest, GlobalMutableStateQuietOnCleanFixture) {
  const auto diagnostics = LintFixture("global_state_clean.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, GlobalMutableStateHonorsSuppression) {
  const auto diagnostics = LintFixture("global_state_suppressed.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, RelaxedAtomicErrorsOnBadFixture) {
  const RunSummary summary = LintFixtureTree("relaxed_atomic_bad.cc");
  ASSERT_EQ(CountRule(summary.diagnostics, "relaxed-atomic"), 1)
      << Render(summary.diagnostics);
  EXPECT_EQ(summary.errors, 1);
}

TEST(LintRuleTest, RelaxedAtomicQuietOnCleanFixture) {
  const auto diagnostics = LintFixture("relaxed_atomic_clean.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, RelaxedAtomicHonorsSuppression) {
  const auto diagnostics = LintFixture("relaxed_atomic_suppressed.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, RelaxedAtomicHonorsDefaultAllowlist) {
  // The same source that fails as a fixture is fine under an audited
  // fast-path file.
  const std::vector<Diagnostic> diagnostics = LintSource(
      "src/metrics/registry.cc",
      "void Touch() { g.fetch_add(1, std::memory_order_relaxed); }\n");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, IncludeIostreamFiresOnBadHeader) {
  const auto diagnostics = LintFixture("include_iostream_bad.h");
  EXPECT_EQ(CountRule(diagnostics, "include-iostream"), 1)
      << Render(diagnostics);
}

TEST(LintRuleTest, IncludeIostreamQuietOnCleanHeader) {
  const auto diagnostics = LintFixture("include_iostream_clean.h");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, IncludeIostreamHonorsSuppression) {
  const auto diagnostics = LintFixture("include_iostream_suppressed.h");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, IncludeIostreamIgnoresSourceFiles) {
  const std::vector<Diagnostic> diagnostics =
      LintSource("tool.cc", "#include <iostream>\n");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, LexerTrickyFixtureIsInert) {
  const auto diagnostics = LintFixture("lexer_tricky.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, LockDisciplineFiresOnBadFixture) {
  const auto diagnostics = LintFixture("lock_discipline_bad.cc");
  // Three std-primitive uses (lock_guard + its mutex argument, and the
  // std::mutex member) plus one unannotated Mutex member.
  EXPECT_EQ(CountRule(diagnostics, "lock-discipline"), 4)
      << Render(diagnostics);
}

TEST(LintRuleTest, LockDisciplineQuietOnCleanFixture) {
  const auto diagnostics = LintFixture("lock_discipline_clean.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, LockDisciplineHonorsSuppression) {
  const auto diagnostics = LintFixture("lock_discipline_suppressed.cc");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

TEST(LintRuleTest, LockDisciplineExemptsMutexHeader) {
  // The wrapper itself is the one sanctioned home of std::mutex.
  const std::vector<Diagnostic> diagnostics = LintSource(
      "src/common/mutex.h", "class M { std::mutex mu_; };\n");
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
}

// --- project-graph rules ---------------------------------------------------

TEST(LintGraphRuleTest, LayeringBadTreeFires) {
  const RunSummary summary = LintFixtureTree("layering_bad");
  EXPECT_EQ(CountRule(summary.diagnostics, "layering-violation"), 1)
      << Render(summary.diagnostics);
  EXPECT_EQ(CountRule(summary.diagnostics, "include-cycle"), 1)
      << Render(summary.diagnostics);
  // The violation is attributed to the offending include line in common/.
  for (const Diagnostic& d : summary.diagnostics) {
    if (d.rule == "layering-violation") {
      EXPECT_NE(d.file.find("common/alpha.h"), std::string::npos) << d.file;
      EXPECT_EQ(d.line, 5);
    }
  }
}

TEST(LintGraphRuleTest, LayeringCleanTreeIsQuiet) {
  const RunSummary summary = LintFixtureTree("layering_clean");
  EXPECT_TRUE(summary.diagnostics.empty()) << Render(summary.diagnostics);
}

TEST(LintGraphRuleTest, LayeringSuppressedTreeIsQuiet) {
  const RunSummary summary = LintFixtureTree("layering_suppressed");
  EXPECT_TRUE(summary.diagnostics.empty()) << Render(summary.diagnostics);
}

TEST(LintGraphTest, ModuleMapping) {
  EXPECT_EQ(ModuleForId("src/spgemm/functional.cc"), "spgemm");
  EXPECT_EQ(ModuleForId("src/common/mutex.h"), "common");
  EXPECT_EQ(ModuleForId("tests/lint_test.cc"), "tests");
  EXPECT_EQ(ModuleForId("bench/bench_util.h"), "bench");
  // The faultinject library is carved out of src/verify/.
  EXPECT_EQ(ModuleForId("src/verify/fault_injection.h"), "faultinject");
  EXPECT_EQ(ModuleForId("src/verify/fault_injection.cc"), "faultinject");
  EXPECT_EQ(ModuleForId("src/verify/differential.h"), "verify");
  EXPECT_EQ(ModuleForId("README.md"), "");
}

TEST(LintGraphTest, RepoRelativeIdTakesLastRootComponent) {
  EXPECT_EQ(RepoRelativeId("/home/u/repo/src/core/suite.h"),
            "src/core/suite.h");
  EXPECT_EQ(RepoRelativeId("tests/test_util.h"), "tests/test_util.h");
  // Fixture mini-repos nest src/ under tests/: the innermost root wins,
  // so fixture files get real-looking module identities.
  EXPECT_EQ(
      RepoRelativeId("repo/tests/lint_fixtures/layering_bad/src/common/a.h"),
      "src/common/a.h");
  EXPECT_EQ(RepoRelativeId("no/known/root.cc"), "");
}

TEST(LintGraphTest, DetectsSyntheticCycle) {
  const std::vector<SourceFile> sources = {
      {"src/common/a.h", "#include \"common/b.h\"\n"},
      {"src/common/b.h", "#include \"common/c.h\"\n"},
      {"src/common/c.h", "#include \"common/a.h\"\n"},
      {"src/common/leaf.h", "#include \"common/a.h\"\n"},
  };
  const ProjectGraph graph = ProjectGraph::Build(sources);
  const auto cycles = graph.IncludeCycles();
  ASSERT_EQ(cycles.size(), 1u);
  const std::vector<std::string> expected = {
      "src/common/a.h", "src/common/b.h", "src/common/c.h"};
  EXPECT_EQ(cycles[0], expected);
}

TEST(LintGraphTest, SelfIncludeIsACycle) {
  const std::vector<SourceFile> sources = {
      {"src/common/self.h", "#include \"common/self.h\"\n"},
  };
  const auto cycles = ProjectGraph::Build(sources).IncludeCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0],
            std::vector<std::string>{std::string("src/common/self.h")});
}

TEST(LintGraphTest, AcyclicGraphHasNoCycles) {
  const std::vector<SourceFile> sources = {
      {"src/common/a.h", ""},
      {"src/sparse/b.h", "#include \"common/a.h\"\n"},
      {"src/spgemm/c.h", "#include \"sparse/b.h\"\n#include <vector>\n"},
  };
  const ProjectGraph graph = ProjectGraph::Build(sources);
  EXPECT_TRUE(graph.IncludeCycles().empty());
  const auto edges = graph.ModuleEdges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ((edges.at({"sparse", "common"})), 1);
  EXPECT_EQ((edges.at({"spgemm", "sparse"})), 1);
}

TEST(LintGraphTest, UnresolvedIncludesAreExternal) {
  const std::vector<SourceFile> sources = {
      {"src/common/a.h",
       "#include <vector>\n#include \"third_party/x.h\"\n"},
  };
  const ProjectGraph graph = ProjectGraph::Build(sources);
  ASSERT_EQ(graph.files().size(), 1u);
  // Both includes are recorded, neither resolves to a graph node.
  ASSERT_EQ(graph.files()[0].includes.size(), 1u);  // quoted include only
  EXPECT_TRUE(graph.files()[0].includes[0].resolved.empty());
  EXPECT_TRUE(graph.ModuleEdges().empty());
}

TEST(LintGraphTest, GraphJsonHasSchemaAndInvariants) {
  const std::vector<SourceFile> sources = {
      {"src/common/a.h", ""},
      {"src/sparse/b.h", "#include \"common/a.h\"\n"},
  };
  const ProjectGraph graph = ProjectGraph::Build(sources);
  const std::string json = graph.ToJson(DefaultLayeringManifest());
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tool\":\"spnet_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"layering_violations\":0"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"include_cycles\":[]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"from\":\"sparse\""), std::string::npos) << json;
}

// --- layering manifest -----------------------------------------------------

TEST(LayeringManifestTest, ParsesModulesAndWildcard) {
  auto manifest = ParseLayeringManifest(
      "# comment\ncommon:\nsparse: common\ntools: *\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(manifest->Allows("sparse", "common"));
  EXPECT_FALSE(manifest->Allows("common", "sparse"));
  EXPECT_TRUE(manifest->Allows("sparse", "sparse"));  // self always allowed
  EXPECT_TRUE(manifest->Allows("tools", "sparse"));
  EXPECT_TRUE(manifest->IsUnrestricted("tools"));
  EXPECT_TRUE(manifest->Knows("common"));
  EXPECT_FALSE(manifest->Knows("engine"));
}

TEST(LayeringManifestTest, RejectsMalformedLine) {
  auto manifest = ParseLayeringManifest("common\n");
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);
}

TEST(LayeringManifestTest, RejectsDuplicateModule) {
  auto manifest = ParseLayeringManifest("a:\na:\n");
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("duplicate"),
            std::string::npos);
}

TEST(LayeringManifestTest, RejectsUnknownDependency) {
  auto manifest = ParseLayeringManifest("a: ghost\n");
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("undeclared"),
            std::string::npos);
}

TEST(LayeringManifestTest, RejectsSelfDependency) {
  auto manifest = ParseLayeringManifest("a: a\n");
  ASSERT_FALSE(manifest.ok());
}

TEST(LayeringManifestTest, RejectsCyclicPolicy) {
  auto manifest = ParseLayeringManifest("a: b\nb: a\n");
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("cycle"), std::string::npos);
}

TEST(LayeringManifestTest, RejectsWildcardMixedWithNames) {
  auto manifest = ParseLayeringManifest("b:\na: * b\n");
  ASSERT_FALSE(manifest.ok());
}

TEST(LayeringManifestTest, BuiltInManifestParses) {
  auto manifest = ParseLayeringManifest(DefaultLayeringManifestText());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(manifest->Allows("serve", "engine"));
  EXPECT_FALSE(manifest->Allows("sparse", "spgemm"));
}

TEST(LayeringManifestTest, LayeringMdMatchesBuiltIn) {
  // LAYERING.md is the reviewable policy; the built-in table is the
  // enforced one. This pin keeps them from drifting apart.
  std::ifstream in(std::string(SPNET_SOURCE_DIR) + "/LAYERING.md");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::string fence = "```\n";
  const size_t open = doc.find(fence);
  ASSERT_NE(open, std::string::npos);
  const size_t begin = open + fence.size();
  const size_t close = doc.find("```", begin);
  ASSERT_NE(close, std::string::npos);
  EXPECT_EQ(doc.substr(begin, close - begin), DefaultLayeringManifestText());
}

// --- diagnostics & catalog -------------------------------------------------

TEST(LintRunnerTest, FormatIsGccStyle) {
  const Diagnostic diagnostic{"src/a.cc", 12, "raw-new-delete", "boom"};
  EXPECT_EQ(FormatDiagnostic(diagnostic),
            "src/a.cc:12: error: boom [raw-new-delete]");
}

TEST(LintRunnerTest, CatalogCoversEveryEmittedRule) {
  const std::vector<const char*> expected = {
      "raw-new-delete",   "char-ctype",
      "global-mutable-state", "relaxed-atomic",
      "include-iostream", "lock-discipline",
      "layering-violation", "include-cycle"};
  ASSERT_EQ(Rules().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_STREQ(Rules()[i].name, expected[i]);
  }
}

TEST(LintRunnerTest, FindingsJsonCarriesSchemaAndDiagnostics) {
  RunSummary summary;
  summary.files_linted = 2;
  summary.errors = 1;
  summary.diagnostics.push_back(
      {"src/a.cc", 7, "lock-discipline", "a \"quoted\" message"});
  const std::string json = FindingsJson(summary);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tool\":\"spnet_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_linted\":2"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("a \\\"quoted\\\" message"), std::string::npos) << json;
}

TEST(LintRunnerTest, LintableExtensions) {
  EXPECT_TRUE(IsLintableFile("a.h"));
  EXPECT_TRUE(IsLintableFile("a.cc"));
  EXPECT_TRUE(IsLintableFile("kernels/a.cuh"));
  EXPECT_FALSE(IsLintableFile("a.md"));
  EXPECT_FALSE(IsLintableFile("CMakeLists.txt"));
}

TEST(LintRunnerTest, MissingPathIsNotFound) {
  auto summary = LintPaths({"definitely/not/a/path"});
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kNotFound);
}

// --- self-check ------------------------------------------------------------

// The acceptance gate: the repo's own sources are lint-clean — including
// the project-graph tier, which runs inside LintPaths. The walk skips
// lint_fixtures/ (this corpus violates rules on purpose).
TEST(LintSelfCheckTest, RepositoryIsLintClean) {
  const std::string root = SPNET_SOURCE_DIR;
  auto summary = LintPaths({root + "/src", root + "/tools", root + "/tests",
                            root + "/bench", root + "/examples"});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->files_linted, 100);
  EXPECT_EQ(summary->errors, 0) << Render(summary->diagnostics);
  EXPECT_NE(summary->graph_json.find("\"layering_violations\":0"),
            std::string::npos);
}

// The live include graph is acyclic and every cross-module edge is
// sanctioned by LAYERING.md — asserted directly on the graph so a failure
// names the offending cycle/edge rather than just a diagnostic count.
TEST(LintSelfCheckTest, RepositoryIncludeGraphIsLayeredAndAcyclic) {
  const std::string root = SPNET_SOURCE_DIR;
  auto graph = BuildProjectGraph({root + "/src", root + "/tools",
                                  root + "/tests", root + "/bench",
                                  root + "/examples"});
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const auto cycles = graph->IncludeCycles();
  std::string rendered;
  for (const auto& cycle : cycles) {
    for (const std::string& id : cycle) rendered += id + " -> ";
    rendered += "\n";
  }
  EXPECT_TRUE(cycles.empty()) << rendered;
  const LayeringManifest& manifest = DefaultLayeringManifest();
  for (const auto& [edge, count] : graph->ModuleEdges()) {
    EXPECT_TRUE(manifest.Knows(edge.first))
        << "module missing from manifest: " << edge.first;
    EXPECT_TRUE(manifest.Allows(edge.first, edge.second))
        << "unsanctioned module edge: " << edge.first << " -> "
        << edge.second << " (" << count << " includes)";
  }
  // Every file the walker linted landed in a known module.
  for (const FileNode& node : graph->files()) {
    EXPECT_FALSE(node.module.empty()) << node.display_path;
  }
}

}  // namespace
}  // namespace lint
}  // namespace spnet
