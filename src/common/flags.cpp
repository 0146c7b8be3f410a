#include "common/flags.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

namespace hamr {

namespace {

// Every "--name" token in the usage text.
std::set<std::string, std::less<>> documented_flags(std::string_view usage) {
  std::set<std::string, std::less<>> names;
  for (size_t pos = usage.find("--"); pos != std::string_view::npos;
       pos = usage.find("--", pos)) {
    pos += 2;
    size_t end = pos;
    while (end < usage.size() &&
           (std::isalnum(static_cast<unsigned char>(usage[end])) ||
            usage[end] == '_')) {
      ++end;
    }
    if (end > pos) names.emplace(usage.substr(pos, end - pos));
    pos = end;
  }
  return names;
}

}  // namespace

Flags::Flags(int argc, char** argv, const std::string& usage) {
  const auto known = documented_flags(usage);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s\n", usage.c_str());
      std::exit(0);
    }
    if (arg.substr(0, 2) != "--") {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s\n",
                   argv[i], usage.c_str());
      std::exit(2);
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (known.count(arg.substr(0, eq)) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n%s\n", argv[i], usage.c_str());
      std::exit(2);
    }
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // --name value  or bare boolean --name
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

std::string Flags::get_string(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::get_int(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace hamr
