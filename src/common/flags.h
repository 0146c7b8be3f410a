// Tiny command-line flag parser for the bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name. The
// usage string is also the flag list: a flag is known when its "--name"
// token appears in the usage. Unknown flags abort with the usage string so
// typos in bench sweeps fail loudly instead of silently benchmarking the
// default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace hamr {

class Flags {
 public:
  // Parses argv. On "--help" prints `usage` and exits 0; on a flag whose
  // "--name" does not appear in `usage` prints an error + usage and exits 2.
  Flags(int argc, char** argv, const std::string& usage);

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get_string(const std::string& name, const std::string& def) const;
  int64_t get_int(const std::string& name, int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace hamr
