// Escaping-correct streaming JSON emitter.
//
// Every machine-readable artifact of the repo (diners_mc and diners_sim
// --json, the diners_chaos campaign summary, the service SLO and load
// reports, the perfbench records) goes through this one writer, so a
// topology name containing '"' or '\' can never produce invalid JSON
// again. The writer is deliberately dumb: it tracks the open object/array
// stack for comma and indentation bookkeeping and escapes strings;
// structural correctness (key before value in objects) is asserted, not
// inferred.
//
// Numbers are formatted with std::to_chars: integers exactly, doubles with
// the shortest round-trip representation, both locale-independent — output
// is byte-identical across runs and machines for identical values (the
// chaos summary's determinism contract relies on this). Non-finite doubles
// have no JSON spelling and are emitted as null.
#pragma once

#include <cassert>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace diners::util {

/// Writes `text` as a JSON string literal (surrounding quotes included):
/// escapes '"', '\\', and control characters; everything else is passed
/// through byte-for-byte (UTF-8 stays UTF-8).
void write_json_string(std::ostream& os, std::string_view text);

/// Returns the JSON string literal for `text`, quotes included.
[[nodiscard]] std::string json_quoted(std::string_view text);

class JsonWriter {
 public:
  /// Pretty-prints with `indent` spaces per level; indent 0 keeps the
  /// structure on one line (still valid JSON).
  explicit JsonWriter(std::ostream& os, int indent = 2)
      : os_(os), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next begin_*/value call is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(static_cast<T&&>(v));
  }

  /// Closes any still-open containers and emits the trailing newline
  /// (top-level documents are newline-terminated). Idempotent.
  void finish();

 private:
  void before_value();
  void newline_indent();

  std::ostream& os_;
  int indent_;
  struct Level {
    bool array = false;
    bool empty = true;
  };
  std::vector<Level> stack_;
  bool pending_key_ = false;
  bool done_ = false;
};

}  // namespace diners::util
