#include "src/util/flags.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace tc::util {

namespace {

// "-n" and "--name" are flags; "-3" and "-.5" are (negative-number)
// values and stay positional.
bool is_flag_token(const std::string& s) {
  if (s.size() < 2 || s[0] != '-') return false;
  const char c = s[1] == '-' ? (s.size() > 2 ? s[2] : '\0') : s[1];
  return std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.';
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag_token(arg)) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(arg[1] == '-' ? 2 : 1);
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && !is_flag_token(argv[i + 1])) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get_string(const std::string& name,
                              const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> Flags::unknown(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      out.push_back(name);
    }
  }
  return out;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace tc::util
