#ifndef SPNET_COMMON_FLAGS_H_
#define SPNET_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace spnet {

/// Minimal command-line flag parser for benches and examples.
///
/// Accepts `--name=value`, `--name value` and bare `--name` (boolean true).
/// Anything not starting with `--` is collected as a positional argument.
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on malformed input.
  Status Parse(int argc, const char* const* argv);

  /// Like Parse, but names in `boolean_flags` never consume the following
  /// token as a value (`--list-rules src` keeps `src` positional). Tools whose
  /// boolean switches precede positional paths must use this overload;
  /// `--name=value` still works for every flag.
  Status Parse(int argc, const char* const* argv,
               const std::set<std::string>& boolean_flags);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Returns the first `--name` or `--name=value` in argv (as `--name`) whose
/// name is not in `known`, or "" when every flag is known. FlagParser
/// accepts any name, and an unknown `--name value` takes the next token as
/// its value, so a tool that declares its flags checks argv with this
/// before it parses or runs anything.
std::string FirstUnknownFlag(int argc, const char* const* argv,
                             const std::set<std::string>& known);

/// Returns the first flag set in `flags` whose value does not parse to its
/// end as a number, as `--name=value`, or "" when every one does. Names
/// in `integers` must be base-10 integers, names in `reals` any strtod
/// number; a value out of range is malformed too. GetInt and GetDouble
/// stop at the first bad character (`--dim=5O` reads as 5), so a tool
/// checks its numeric flags with this before it runs anything.
std::string FirstMalformedNumber(const FlagParser& flags,
                                 const std::set<std::string>& integers,
                                 const std::set<std::string>& reals);

}  // namespace spnet

#endif  // SPNET_COMMON_FLAGS_H_
