#include "common/flags.h"

#include <cerrno>
#include <cstdlib>

namespace spnet {

Status FlagParser::Parse(int argc, const char* const* argv) {
  return Parse(argc, argv, {});
}

Status FlagParser::Parse(int argc, const char* const* argv,
                         const std::set<std::string>& boolean_flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {
      return Status::InvalidArgument("empty flag name");
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (boolean_flags.count(arg) > 0) {
      values_[arg] = "true";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string FirstUnknownFlag(int argc, const char* const* argv,
                             const std::set<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::string name = arg.substr(2, arg.find('=') - 2);
    if (known.count(name) == 0) return "--" + name;
  }
  return "";
}

std::string FirstMalformedNumber(const FlagParser& flags,
                                 const std::set<std::string>& integers,
                                 const std::set<std::string>& reals) {
  for (const auto* names : {&integers, &reals}) {
    for (const std::string& name : *names) {
      if (!flags.Has(name)) continue;
      const std::string value = flags.GetString(name, "");
      const char* text = value.c_str();
      char* end = nullptr;
      errno = 0;
      if (names == &integers) {
        std::strtoll(text, &end, 10);
      } else {
        std::strtod(text, &end);
      }
      if (value.empty() || *end != '\0' || errno == ERANGE) {
        return "--" + name + "=" + value;
      }
    }
  }
  return "";
}

}  // namespace spnet
