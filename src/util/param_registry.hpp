#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace es::util {

/// Typed configuration error carrying the offending parameter name.
///
/// Thrown by ParamRegistry::set / load_file / finalize.  Callers that map
/// configuration problems to an exit code (simrun exits 2) catch this one
/// type and print `what()`, which always embeds the field name when one is
/// known.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::string field, std::string message)
      : std::runtime_error(field.empty() ? message : field + ": " + message),
        field_(std::move(field)),
        message_(std::move(message)) {}

  /// Dotted parameter name ("engine.granularity"), or empty when the error
  /// is not attributable to a single field (e.g. unreadable file).
  const std::string& field() const { return field_; }

  /// The message without the field prefix, for callers that re-wrap it.
  const std::string& message() const { return message_; }

 private:
  std::string field_;
  std::string message_;
};

/// Declarative parameter registry: every engine/algorithm knob is registered
/// once with its name, bound storage, default, range, aliases and doc string.
/// Registration drives the config-file loader, `--dump-config` /
/// `--list-params` generation and finalize-time cross-field validation —
/// the single configuration spine.
///
/// The registry binds to live storage (pointers into the config structs), so
/// `set()` writes through immediately and `dump()` reflects the current
/// values.  Instances are cheap and short-lived: build one, point it at a
/// config, load/overlay/finalize, throw it away.
class ParamRegistry {
 public:
  enum class Kind { kBool, kInt, kUInt64, kDouble, kString, kEnum };

  /// One registered parameter.  The fluent mutators are meant to be chained
  /// off the `add_*` call that created the param:
  ///
  ///   reg.add_int("engine.granularity", &config.granularity,
  ///               "allocation granularity in processors")
  ///       .range(1, 1 << 20)
  ///       .alias("engine.gran");
  class Param {
   public:
    /// Inclusive numeric range enforced on every assignment and re-checked
    /// at finalize().  Ignored for strings/bools.
    Param& range(double lo, double hi) {
      range_lo_ = lo;
      range_hi_ = hi;
      has_range_ = true;
      return *this;
    }

    /// Alternate key accepted by set()/config files; canonical name is still
    /// used for dump/list output.  A dotless alias is also the
    /// param's command-line spelling: CliParser::add_param_flags generates
    /// `--<alias>` for it.
    Param& alias(std::string name) {
      aliases_.push_back(std::move(name));
      return *this;
    }

    const std::string& name() const { return name_; }
    const std::string& doc() const { return doc_; }
    Kind kind() const { return kind_; }
    bool has_range() const { return has_range_; }
    double range_lo() const { return range_lo_; }
    double range_hi() const { return range_hi_; }
    const std::vector<std::string>& aliases() const { return aliases_; }
    /// Value captured at registration time, rendered with the same
    /// representation as current_value().
    const std::string& default_value() const { return default_repr_; }
    /// Current bound value rendered as config-file text (strings quoted).
    std::string current_value() const { return repr_(); }

   private:
    friend class ParamRegistry;

    std::string name_;
    std::string doc_;
    Kind kind_ = Kind::kString;
    bool has_range_ = false;
    double range_lo_ = 0;
    double range_hi_ = 0;
    std::vector<std::string> aliases_;
    std::string default_repr_;
    /// Parses `text` and writes through to bound storage; throws ConfigError.
    std::function<void(const std::string&)> assign_;
    /// Renders the bound value; exact round-trip for doubles (%.17g).
    std::function<std::string()> repr_;
    /// Numeric view of the bound value for range re-checks at finalize();
    /// null for non-numeric kinds.
    std::function<double()> numeric_;
    /// Human-readable type/choices column for list_params().
    std::string type_label_;
  };

  Param& add_bool(std::string name, bool* target, std::string doc);
  Param& add_int(std::string name, int* target, std::string doc);
  Param& add_int64(std::string name, std::int64_t* target, std::string doc);
  Param& add_uint64(std::string name, std::uint64_t* target, std::string doc);
  Param& add_size(std::string name, std::size_t* target, std::string doc);
  Param& add_double(std::string name, double* target, std::string doc);
  Param& add_string(std::string name, std::string* target, std::string doc);

  /// Enumerated parameter over named choices.  `values` maps the accepted
  /// (case-insensitive) spellings to integer codes; the first spelling for a
  /// code is the canonical one used when rendering.
  template <typename E>
  Param& add_enum(std::string name, E* target,
                  std::vector<std::pair<std::string, int>> values,
                  std::string doc) {
    return add_enum_raw(
        std::move(name), std::move(values), std::move(doc),
        [target](int code) { *target = static_cast<E>(code); },
        [target]() { return static_cast<int>(*target); });
  }

  /// Cross-field validation rule checked by finalize().  `check` returns an
  /// empty string when the rule holds, or a message; the failure is reported
  /// as ConfigError with `field` as the offending parameter name.
  void add_rule(std::string field, std::function<std::string()> check);

  /// Open-ended key family under `prefix` (e.g. "pool." for
  /// `pool.<name>.weight`).  `set` receives the suffix after the prefix and
  /// the raw value text; `dump` returns (full key, value text) pairs for
  /// dump_config() in a stable order.
  void add_dynamic(
      std::string prefix,
      std::function<void(const std::string&, const std::string&)> set,
      std::function<std::vector<std::pair<std::string, std::string>>()> dump);

  /// True when `key` names a registered param (canonical or alias).
  bool has(std::string_view key) const;

  /// Parses and assigns one value.  Resolves aliases, falls back to dynamic
  /// prefixes, and throws ConfigError (with a nearest-name suggestion) for
  /// unknown keys, malformed values, or out-of-range values.
  void set(const std::string& key, const std::string& value);

  /// Current value of a registered param as config-file text.
  std::string get(const std::string& key) const;

  /// Loads `key = value` lines from a file.  Supports `#` comments,
  /// `[section]` headers (section becomes a key prefix), and quoted string
  /// values — a TOML subset that TOML tools also accept.  Later lines win.
  void load_file(const std::string& path);

  /// Same parser over in-memory text; `origin` names the source in errors.
  void load_text(std::string_view text, const std::string& origin);

  /// Re-checks every range against the current (possibly programmatically
  /// mutated) values, then runs the cross-field rules in registration order.
  /// Throws ConfigError naming the first offending field.
  void finalize() const;

  /// Complete config-file text: every param in registration order with its
  /// doc as a comment, then dynamic entries.  Output is loadable by
  /// load_file and is the golden `--dump-config` surface.
  std::string dump_config() const;

  /// Human-oriented table for `--list-params`: name, type, default, range,
  /// aliases, doc.
  std::string list_params() const;

  /// Registration-order view of the registered params.
  const std::deque<Param>& params() const { return params_; }

  /// Current (full key, value text) entries of every dynamic family, in
  /// registration order then each family's own stable order.
  std::vector<std::pair<std::string, std::string>> dynamic_entries() const;

 private:
  struct Rule {
    std::string field;
    std::function<std::string()> check;
  };
  struct Dynamic {
    std::string prefix;
    std::function<void(const std::string&, const std::string&)> set;
    std::function<std::vector<std::pair<std::string, std::string>>()> dump;
  };

  Param& add_raw(std::string name, std::string doc, Kind kind,
                 std::string type_label);
  Param& add_enum_raw(std::string name,
                      std::vector<std::pair<std::string, int>> values,
                      std::string doc, std::function<void(int)> store,
                      std::function<int()> load);
  const Param* find(std::string_view key) const;
  Param* find(std::string_view key);
  /// Closest registered name by edit distance, or empty when nothing is
  /// near enough to be a plausible typo.
  std::string suggest(std::string_view key) const;

  std::deque<Param> params_;  // deque: fluent references survive later adds
  std::vector<Rule> rules_;
  std::vector<Dynamic> dynamics_;
};

}  // namespace es::util
