// Tiny command-line flag parser for the example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags are an error; `--help` prints registered flags.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace diners::util {

/// Thrown by the typed accessors when a flag's value fails to parse or
/// range-check. Tools catch this to print the message and exit 2 (usage
/// error) instead of dying on an uncaught std::stoll exception.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  Flags& define(std::string name, std::string default_value,
                std::string help);

  /// Parses argv. Returns false (after printing usage) if `--help` was given
  /// or a flag was unrecognized/malformed.
  bool parse(int argc, const char* const* argv);

  // Typed accessors. The numeric ones parse the *whole* value strictly
  // (util/parse.hpp) and throw FlagError — naming the flag — on trailing
  // garbage ("123abc"), wrapped negatives, overflow, or range violations.
  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] std::int64_t i64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] std::uint64_t u64(
      const std::string& name, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] std::uint32_t u32(
      const std::string& name, std::uint32_t lo = 0,
      std::uint32_t hi = std::numeric_limits<std::uint32_t>::max()) const;
  [[nodiscard]] bool flag(const std::string& name) const;

  /// Non-flag positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_usage(const std::string& program) const;

 private:
  struct Entry {
    std::string value;
    std::string help;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace diners::util
