// Tiny command-line flag parser for the tools and example binaries, and
// the usage-error path the tools share.
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

/// Exit code of malformed user input; 1 is left for runtime failures.
inline constexpr int kUsageError = 2;

/// Malformed user input. run_tool prints it with a usage hint and exits
/// kUsageError.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Thrown by the typed accessors when a flag's value fails to parse or
/// range-check: a usage error naming the flag, instead of an uncaught
/// std::stoll exception.
struct FlagError : UsageError {
  using UsageError::UsageError;
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

/// Runs a tool's `run(flags)` and maps what it throws to the exit code all
/// tools share: a UsageError prints "error: ..." and a usage hint and
/// returns kUsageError; any other exception prints "error: ..." and
/// returns 1.
[[nodiscard]] int run_tool(int (*run)(const Flags&), const Flags& flags);

/// The value of flag `name`; throws UsageError unless it lies in [0, 1].
[[nodiscard]] double probability(const Flags& flags, const std::string& name);

/// Throws UsageError(`message` + path) unless `path` is empty or can be
/// created or appended to now, so a long run cannot end by discovering
/// that its report is unwritable. Leaves no trace if the file did not
/// already exist.
void require_writable(const std::string& path, const std::string& message);

}  // namespace diners::util
