// Minimal command-line flag parser for bench/example binaries.
// Supports "--name value", "--name=value" and boolean "--name".
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tc::util {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  // The flag names given that are not in `known`, in name order, so a tool
  // can refuse a misspelt or retired flag instead of running on defaults.
  std::vector<std::string> unknown(
      std::initializer_list<std::string_view> known) const;

  // Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tc::util
