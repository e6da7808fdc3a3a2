// Small command-line argument parser shared by the examples and bench
// binaries. Supports `--key value`, `--key=value`, and boolean `--flag`
// forms, with typed accessors and defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace reghd::util {

class Args {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input
  /// (e.g. a value token with no preceding option).
  Args(int argc, const char* const* argv);

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// True if the option was given at all (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Pointer to the option's value slot, or nullptr if the option was not
  /// given. The pointee is empty for a bare boolean flag.
  [[nodiscard]] const std::optional<std::string>* get(const std::string& key) const;

  /// Typed accessors with defaults. Throw std::invalid_argument on parse
  /// failure so misspelled numeric flags are loud.
  [[nodiscard]] std::string get_string(const std::string& key, std::string fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// The first given option (in name order) that is not in `known`, or
  /// nullopt when every option is known — lets a front end reject a
  /// mistyped flag instead of silently keeping the default it meant to set.
  [[nodiscard]] std::optional<std::string> first_unknown(
      std::span<const std::string_view> known) const;

  /// Positional (non-option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::string program_;
  std::map<std::string, std::optional<std::string>> options_;
  std::vector<std::string> positional_;
};

}  // namespace reghd::util
