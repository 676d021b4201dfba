// Minimal CLI option parsing shared by the bench harnesses and examples.
//
// Supports `--key=value` and bare `--flag` (boolean true), with
// environment-variable fallbacks (SWBPBC_<KEY>) so the harnesses can be
// reconfigured even when launched with no arguments. A program declares
// the flags it accepts through parse() / parse_or_exit(), so a misspelt
// or retired flag is an error rather than silently ignored.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace swbpbc::util {

class Options {
 public:
  /// Accepts every --name (no declared flag list).
  Options(int argc, char** argv);

  /// Parses argv and rejects any --name not in `known`: a typed
  /// kInvalidInput naming an unknown flag and the accepted ones.
  [[nodiscard]] static Expected<Options> parse(
      int argc, char** argv, std::initializer_list<std::string_view> known);

  /// parse() for a program's main: on an unknown flag, prints the status
  /// to stderr and exits with status 2.
  [[nodiscard]] static Options parse_or_exit(
      int argc, char** argv, std::initializer_list<std::string_view> known);

  /// True if --name was given (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --n=1024,2048,4096.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Positional (non --key) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// Raw lookup: CLI first, then SWBPBC_<NAME> env var; empty optional-like
  /// result is signalled via `found`.
  [[nodiscard]] std::string raw(const std::string& name, bool& found) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace swbpbc::util
