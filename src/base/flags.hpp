// Minimal command-line flag parser shared by benches and examples.
//
// Supports --name=value and --name value forms plus --help. Unknown flags
// are an error so that typos in experiment sweeps fail loudly instead of
// silently benchmarking the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mgpusw::base {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description)
      : description_(std::move(program_description)) {}

  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_bool(const std::string& name, bool default_value,
                const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// A string flag restricted to an enumerated set of values. The value
  /// is validated at parse time (and the default at registration time),
  /// so an invalid choice fails loudly with the allowed set; usage()
  /// lists the choices. Read the value with get_string().
  void add_choice(const std::string& name, const std::string& default_value,
                  std::vector<std::string> choices, const std::string& help);

  /// Parses argv. Returns false (after printing usage) when --help was
  /// given. Throws InvalidArgument on unknown flags or malformed values.
  bool parse(int argc, char** argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString, kChoice };

  struct Flag {
    Kind kind;
    std::string help;
    std::string value;  // textual representation, parsed on get
    std::string default_value;
    std::vector<std::string> choices{};  // kChoice only
  };

  const Flag& find(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mgpusw::base
