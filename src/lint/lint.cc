#include "lint/lint.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/suppression.h"

namespace spnet {
namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

const std::set<std::string>& CtypeNames() {
  // clang-format off
  static const std::set<std::string> kNames = {
      "isalnum", "isalpha", "isblank", "iscntrl", "isdigit", "isgraph",
      "islower", "isprint", "ispunct", "isspace", "isupper", "isxdigit",
      "tolower", "toupper",
  };
  // clang-format on
  return kNames;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool PathEndsWith(const std::string& path, const char* suffix) {
  const size_t n = std::string(suffix).size();
  return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
}

/// Index of the `)` matching the `(` at `open`, or kNpos. Only rounds are
/// tracked: rules use this on argument/parameter lists.
size_t MatchingParen(const std::vector<Token>& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code[i], "(")) ++depth;
    if (IsPunct(code[i], ")") && --depth == 0) return i;
  }
  return kNpos;
}

/// Shared state for one file's rule run: the comment-free token stream
/// (preprocessor directives retained — they are statement boundaries),
/// plus emission with suppression filtering.
class RuleContext {
 public:
  RuleContext(const std::string& path, const std::vector<Token>& tokens)
      : path_(path), suppressions_(tokens) {
    for (const Token& token : tokens) {
      if (token.kind != TokenKind::kComment) code_.push_back(token);
    }
  }

  const std::string& path() const { return path_; }
  const std::vector<Token>& code() const { return code_; }

  void Emit(const char* rule, int line, std::string message) {
    if (suppressions_.Allows(rule, line)) return;
    diagnostics_.push_back({path_, line, rule, std::move(message)});
  }

  std::vector<Diagnostic> TakeDiagnostics() {
    std::sort(diagnostics_.begin(), diagnostics_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(diagnostics_);
  }

 private:
  const std::string& path_;
  SuppressionIndex suppressions_;
  std::vector<Token> code_;
  std::vector<Diagnostic> diagnostics_;
};

// --- rule: raw-new-delete --------------------------------------------------

void CheckRawNewDelete(RuleContext* ctx) {
  const std::vector<Token>& code = ctx->code();
  for (size_t i = 0; i < code.size(); ++i) {
    const bool is_new = IsIdent(code[i], "new");
    const bool is_delete = IsIdent(code[i], "delete");
    if (!is_new && !is_delete) continue;
    if (i > 0) {
      const Token& prev = code[i - 1];
      // `= delete` declares a deleted function; `operator new/delete`
      // declarations customize allocation rather than performing it.
      if (is_delete && IsPunct(prev, "=")) continue;
      if (IsIdent(prev, "operator")) continue;
    }
    ctx->Emit("raw-new-delete", code[i].line,
              std::string("raw '") + (is_new ? "new" : "delete") +
                  "'; use std::make_unique / containers, or annotate an "
                  "intentional leak with spnet-lint: allow(raw-new-delete)");
  }
}

// --- rule: char-ctype ------------------------------------------------------

void CheckCharCtype(RuleContext* ctx) {
  const std::vector<Token>& code = ctx->code();
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    if (CtypeNames().count(code[i].text) == 0) continue;
    if (!IsPunct(code[i + 1], "(")) continue;
    const size_t close = MatchingParen(code, i + 1);
    if (close == kNpos || close == i + 2) continue;  // declaration-ish: skip
    bool has_unsigned_cast = false;
    for (size_t j = i + 2; j < close; ++j) {
      if (IsIdent(code[j], "unsigned")) {
        has_unsigned_cast = true;
        break;
      }
    }
    if (has_unsigned_cast) continue;
    ctx->Emit("char-ctype", code[i].line,
              "'" + code[i].text +
                  "' on a plain char is UB for negative values; cast the "
                  "argument to unsigned char first");
  }
}

// --- rule: global-mutable-state --------------------------------------------

/// Token-level scope classification. Only namespace-level accuracy
/// matters: scopes nested inside a function are never analyzed, so their
/// classification is irrelevant as long as braces stay balanced.
enum class ScopeKind { kNamespace, kType, kBlock, kInit };

bool RunContainsIdent(const std::vector<Token>& run, const char* text) {
  for (const Token& t : run) {
    if (IsIdent(t, text)) return true;
  }
  return false;
}

bool RunDeclaresGuardedOrImmutableState(const std::vector<Token>& run) {
  static const std::set<std::string> kExemptingIdents = {
      // Immutable / write-once.
      "const", "constexpr", "constinit",
      // Per-thread state is not shared.
      "thread_local",
      // Synchronized holders: the guard is the declaration itself.
      "atomic", "atomic_flag", "Mutex", "mutex", "shared_mutex",
      "once_flag", "CondVar", "condition_variable",
      // Clang thread-safety annotation: the variable names its lock.
      "GUARDED_BY", "PT_GUARDED_BY",
  };
  for (const Token& t : run) {
    if (t.kind == TokenKind::kIdentifier && kExemptingIdents.count(t.text)) {
      return true;
    }
  }
  return false;
}

void AnalyzeNamespaceScopeRun(RuleContext* ctx,
                              const std::vector<Token>& run) {
  if (run.empty()) return;
  // Not variable declarations: type/alias/template machinery.
  static const std::set<std::string> kNonVariableIdents = {
      "using", "typedef", "template", "static_assert", "friend",
      "namespace", "operator", "extern",
  };
  for (const Token& t : run) {
    if (t.kind == TokenKind::kIdentifier && kNonVariableIdents.count(t.text)) {
      return;
    }
  }
  const Token& first = run.front();
  if (IsIdent(first, "class") || IsIdent(first, "struct") ||
      IsIdent(first, "enum") || IsIdent(first, "union")) {
    return;  // forward declaration
  }
  if (RunDeclaresGuardedOrImmutableState(run)) return;
  // A `(` before any `=` means a function declaration (parameter list) or
  // a direct-init call — treat both as non-findings; direct-init of a
  // mutable global still trips on the missing const/guard exemptions
  // above only via `=`/brace forms, which covers this codebase's idiom.
  for (const Token& t : run) {
    if (IsPunct(t, "=")) break;
    if (IsPunct(t, "(")) return;
  }
  if (run.size() < 2) return;  // `;` noise, not a declaration
  ctx->Emit("global-mutable-state", first.line,
            "mutable namespace-scope state; make it const/constexpr, guard "
            "it with a Mutex (and GUARDED_BY), use std::atomic, or move it "
            "into a function-local static");
}

void CheckGlobalMutableState(RuleContext* ctx) {
  const std::vector<Token>& code = ctx->code();
  std::vector<ScopeKind> scopes;
  std::vector<Token> run;
  const auto at_namespace_scope = [&scopes] {
    for (const ScopeKind kind : scopes) {
      if (kind != ScopeKind::kNamespace) return false;
    }
    return true;
  };
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& token = code[i];
    if (token.kind == TokenKind::kPreproc) {
      if (at_namespace_scope()) run.clear();
      continue;
    }
    if (IsPunct(token, "{")) {
      ScopeKind kind = ScopeKind::kBlock;
      const bool ns = at_namespace_scope();
      if (ns) {
        const Token* prev = run.empty() ? nullptr : &run.back();
        if (RunContainsIdent(run, "namespace") ||
            (prev != nullptr && prev->kind == TokenKind::kString &&
             RunContainsIdent(run, "extern"))) {
          kind = ScopeKind::kNamespace;  // incl. extern "C" linkage blocks
        } else if (RunContainsIdent(run, "class") ||
                   RunContainsIdent(run, "struct") ||
                   RunContainsIdent(run, "union") ||
                   RunContainsIdent(run, "enum")) {
          kind = ScopeKind::kType;
        } else if (prev != nullptr && IsPunct(*prev, ")")) {
          kind = ScopeKind::kBlock;  // function body
        } else if (prev != nullptr &&
                   (IsPunct(*prev, "=") || IsPunct(*prev, ",") ||
                    prev->kind == TokenKind::kIdentifier)) {
          kind = ScopeKind::kInit;  // `= {...}` or `name{...}` initializer
        }
        if (kind != ScopeKind::kInit) run.clear();
      }
      scopes.push_back(kind);
      continue;
    }
    if (IsPunct(token, "}")) {
      const ScopeKind kind =
          scopes.empty() ? ScopeKind::kBlock : scopes.back();
      if (!scopes.empty()) scopes.pop_back();
      if (at_namespace_scope() && kind != ScopeKind::kInit) run.clear();
      continue;
    }
    if (!at_namespace_scope()) continue;
    if (IsPunct(token, ";")) {
      AnalyzeNamespaceScopeRun(ctx, run);
      run.clear();
      continue;
    }
    run.push_back(token);
  }
}

// --- rule: relaxed-atomic --------------------------------------------------

/// Files whose hot paths may use std::memory_order_relaxed, matched as
/// substrings of the slash-normalized path: pool statistics, metrics
/// instruments, plan cache counters, the matrix's cached fingerprint and
/// the fault-injector armed flag.
constexpr const char* kRelaxedAtomicFiles[] = {
    "src/common/parallel",    "src/engine/plan_cache",
    "src/metrics/registry",   "src/sparse/csr_matrix",
    "src/sparse/fingerprint", "src/verify/fault_injection",
};

void CheckRelaxedAtomic(RuleContext* ctx) {
  std::string normalized = ctx->path();
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  for (const char* file : kRelaxedAtomicFiles) {
    if (normalized.find(file) != std::string::npos) return;
  }
  for (const Token& token : ctx->code()) {
    if (IsIdent(token, "memory_order_relaxed")) {
      ctx->Emit("relaxed-atomic", token.line,
                "std::memory_order_relaxed outside the audited fast paths; "
                "default to sequential consistency or add this file to "
                "kRelaxedAtomicFiles in src/lint/lint.cc after review");
    }
  }
}

// --- rule: include-iostream ------------------------------------------------

void CheckIncludeIostream(RuleContext* ctx, const std::vector<Token>& tokens) {
  if (!PathEndsWith(ctx->path(), ".h") && !PathEndsWith(ctx->path(), ".hpp")) {
    return;
  }
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kPreproc) continue;
    std::string squeezed;
    for (const char c : token.text) {
      if (c != ' ' && c != '\t') squeezed.push_back(c);
    }
    if (squeezed.rfind("#include<iostream>", 0) == 0 ||
        squeezed.rfind("#include\"iostream\"", 0) == 0) {
      ctx->Emit("include-iostream", token.line,
                "<iostream> in a header drags static iostream initializers "
                "into every TU; include it in the .cc or use <ostream> / "
                "<cstdio>");
    }
  }
}

// --- rule: lock-discipline --------------------------------------------------

/// std components that bypass the annotated lock vocabulary. spnet::Mutex /
/// MutexLock / CondVar (common/mutex.h) are the only sanctioned spellings:
/// they carry CAPABILITY/SCOPED_CAPABILITY so Clang's thread-safety
/// analysis sees every acquisition.
const std::set<std::string>& ForbiddenStdLockNames() {
  static const std::set<std::string> kNames = {
      "mutex",        "recursive_mutex",
      "timed_mutex",  "recursive_timed_mutex",
      "shared_mutex", "shared_timed_mutex",
      "lock_guard",   "unique_lock",
      "scoped_lock",  "shared_lock",
      "condition_variable", "condition_variable_any",
  };
  return kNames;
}

void CheckLockDiscipline(RuleContext* ctx) {
  const std::vector<Token>& code = ctx->code();
  // Part (a): direct std lock primitives outside the wrapper itself.
  if (!PathEndsWith(ctx->path(), "common/mutex.h")) {
    for (size_t i = 0; i + 2 < code.size(); ++i) {
      if (!IsIdent(code[i], "std") || !IsPunct(code[i + 1], "::")) continue;
      if (code[i + 2].kind != TokenKind::kIdentifier) continue;
      if (ForbiddenStdLockNames().count(code[i + 2].text) == 0) continue;
      ctx->Emit("lock-discipline", code[i].line,
                "direct std::" + code[i + 2].text +
                    " bypasses thread-safety annotations; use spnet::Mutex / "
                    "MutexLock / CondVar from common/mutex.h");
    }
  }
  // Part (b): every class with Mutex members must GUARDED_BY something —
  // a lock protecting no declared data is either dead or undocumented.
  struct ClassScope {
    bool is_class = false;
    std::vector<std::pair<int, std::string>> mutex_members;  // line, name
    int guarded = 0;
  };
  std::vector<ClassScope> scopes;
  bool pending_class = false;
  const auto innermost_class = [&scopes]() -> ClassScope* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->is_class) return &*it;
    }
    return nullptr;
  };
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& token = code[i];
    if (token.kind == TokenKind::kIdentifier) {
      if ((token.text == "class" || token.text == "struct") &&
          (i == 0 || !IsIdent(code[i - 1], "enum"))) {
        pending_class = true;
      } else if (token.text == "GUARDED_BY" || token.text == "PT_GUARDED_BY") {
        ClassScope* cls = innermost_class();
        if (cls != nullptr) ++cls->guarded;
      } else if (token.text == "Mutex" && !scopes.empty() &&
                 scopes.back().is_class && i + 2 < code.size() &&
                 code[i + 1].kind == TokenKind::kIdentifier &&
                 (IsPunct(code[i + 2], ";") || IsPunct(code[i + 2], "{"))) {
        // Member pattern `Mutex name;` (`{...}` init included); `Mutex*` /
        // `Mutex&` parameters and locals inside method bodies don't match
        // because their enclosing scope is a block, not the class.
        scopes.back().mutex_members.emplace_back(code[i].line,
                                                 code[i + 1].text);
      }
      continue;
    }
    if (token.kind != TokenKind::kPunct) continue;
    if (token.text == ";" || token.text == "(" || token.text == ")" ||
        token.text == "=") {
      pending_class = false;  // forward decl / template param / expression
      continue;
    }
    if (token.text == "{") {
      ClassScope scope;
      scope.is_class = pending_class;
      pending_class = false;
      scopes.push_back(scope);
      continue;
    }
    if (token.text == "}") {
      if (scopes.empty()) continue;
      const ClassScope done = scopes.back();
      scopes.pop_back();
      if (!done.is_class || done.mutex_members.empty() || done.guarded > 0) {
        continue;
      }
      for (const auto& [line, name] : done.mutex_members) {
        ctx->Emit("lock-discipline", line,
                  "Mutex member '" + name +
                      "' protects nothing: no GUARDED_BY/PT_GUARDED_BY in "
                      "the class body names it (see "
                      "common/thread_annotations.h)");
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"raw-new-delete",
       "no raw new/delete; mark an intentional leak with an inline allow"},
      {"char-ctype", "<cctype> classifiers require an unsigned char cast"},
      {"global-mutable-state",
       "namespace-scope state must be immutable, atomic or mutex-guarded"},
      {"relaxed-atomic",
       "memory_order_relaxed only in audited fast-path files"},
      {"include-iostream", "headers must not include <iostream>"},
      {"lock-discipline",
       "std lock primitives only inside common/mutex.h; Mutex members need "
       "a GUARDED_BY in the class body"},
      {"layering-violation",
       "cross-module includes must follow the LAYERING.md allowed-edges "
       "manifest"},
      {"include-cycle", "the first-party include graph must stay acyclic"},
  };
  return kRules;
}

std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content) {
  const std::vector<Token> tokens = Tokenize(content);
  RuleContext ctx(path, tokens);
  CheckRawNewDelete(&ctx);
  CheckCharCtype(&ctx);
  CheckGlobalMutableState(&ctx);
  CheckRelaxedAtomic(&ctx);
  CheckIncludeIostream(&ctx, tokens);
  CheckLockDiscipline(&ctx);
  return ctx.TakeDiagnostics();
}

}  // namespace lint
}  // namespace spnet
