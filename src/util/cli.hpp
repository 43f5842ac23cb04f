// Tiny declarative command-line flag parser for the tools, examples and
// experiment binaries.  Supports `--name value`, `--name=value` and boolean
// `--name` flags, plus automatic --help text.  Flags that set a registered
// configuration parameter are generated from the ParamRegistry instead of
// being written by hand (add_param_flags / apply_param_flags).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/param_registry.hpp"

namespace es::util {

/// Declarative flag set.  Register flags bound to variables, then parse().
/// Registering the same option name twice is a precondition failure.
class CliParser {
 public:
  explicit CliParser(std::string program_description)
      : description_(std::move(program_description)) {}

  void add_flag(std::string name, std::string help, bool* target);
  void add_option(std::string name, std::string help, int* target);
  void add_option(std::string name, std::string help, double* target);
  void add_option(std::string name, std::string help, std::string* target);
  void add_option(std::string name, std::string help,
                  unsigned long long* target);

  /// Generates one `--<alias>` option for every dotless alias in `registry`
  /// (e.g. `--procs` for `engine.machine_procs`).  The help text is the
  /// param's doc plus its registry default; a bool param also accepts the
  /// bare `--flag` form.  parse() only records the typed text —
  /// apply_param_flags() assigns it.
  void add_param_flags(const ParamRegistry& registry);

  /// Assigns every typed param flag through registry.set(), in command-line
  /// order.  Call it after loading config files, so the precedence is
  /// CLI > file > defaults.  A rejected value throws ConfigError naming the
  /// param field, with the flag spelled in the message.
  void apply_param_flags(ParamRegistry& registry) const;

  /// Parses argv.  Returns false (after printing a message) on error or when
  /// --help was requested; positional arguments are collected in positional().
  bool parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  /// True when the named option appeared on the command line in the last
  /// parse().
  bool was_set(std::string_view name) const;

  /// Renders the --help text.
  std::string help(std::string_view program_name) const;

 private:
  struct Option {
    std::string name;
    std::string help;
    bool is_boolean = false;
    bool seen = false;
    std::function<bool(std::string_view)> assign;
    /// Canonical registry name for a generated param flag, else empty.
    std::string param;
  };
  /// One typed param flag, kept in command-line order.
  struct ParamValue {
    std::string flag;
    std::string param;
    std::string text;
  };

  Option& add(std::string name, std::string help);
  const Option* find(std::string_view name) const;
  Option* find(std::string_view name);

  std::string description_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
  std::vector<ParamValue> param_values_;
};

}  // namespace es::util
