#include "util/param_registry.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

namespace es::util {
namespace {

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

/// Strips one layer of matching quotes; config strings may be quoted so that
/// values with spaces or '#' survive the comment stripper.
std::string unquote(std::string_view text) {
  if (text.size() >= 2 &&
      ((text.front() == '"' && text.back() == '"') ||
       (text.front() == '\'' && text.back() == '\'')))
    return std::string(text.substr(1, text.size() - 2));
  return std::string(text);
}

std::string quote(const std::string& text) { return "\"" + text + "\""; }

/// %.17g round-trips every double exactly, so dump → load → dump is stable
/// and fingerprint_into() hashes the precise value.
std::string repr_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::int64_t parse_int(const std::string& field, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw ConfigError(field, "expected an integer, got '" + text + "'");
  return value;
}

std::uint64_t parse_uint(const std::string& field, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  if (!text.empty() && text.front() == '-')
    throw ConfigError(field, "expected a non-negative integer, got '" + text +
                                 "'");
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw ConfigError(field, "expected an unsigned integer, got '" + text +
                                 "'");
  return value;
}

double parse_double(const std::string& field, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw ConfigError(field, "expected a number, got '" + text + "'");
  return value;
}

bool parse_bool(const std::string& field, const std::string& text) {
  const std::string low = lower(text);
  if (low == "true" || low == "1" || low == "yes" || low == "on") return true;
  if (low == "false" || low == "0" || low == "no" || low == "off")
    return false;
  throw ConfigError(field, "expected true/false, got '" + text + "'");
}

void check_range(const std::string& field, bool has_range, double lo,
                 double hi, double value) {
  if (!has_range) return;
  if (value < lo || value > hi) {
    std::ostringstream out;
    out << "value " << repr_double(value) << " out of range [" << repr_double(lo)
        << ", " << repr_double(hi) << "]";
    throw ConfigError(field, out.str());
  }
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

ParamRegistry::Param& ParamRegistry::add_raw(std::string name, std::string doc,
                                             Kind kind,
                                             std::string type_label) {
  params_.emplace_back();
  Param& param = params_.back();
  param.name_ = std::move(name);
  param.doc_ = std::move(doc);
  param.kind_ = kind;
  param.type_label_ = std::move(type_label);
  return param;
}

ParamRegistry::Param& ParamRegistry::add_bool(std::string name, bool* target,
                                              std::string doc) {
  Param& param = add_raw(std::move(name), std::move(doc), Kind::kBool, "bool");
  const std::string field = param.name_;
  param.assign_ = [field, target](const std::string& text) {
    *target = parse_bool(field, text);
  };
  param.repr_ = [target]() { return *target ? "true" : "false"; };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_int(std::string name, int* target,
                                             std::string doc) {
  Param& param = add_raw(std::move(name), std::move(doc), Kind::kInt, "int");
  const std::string field = param.name_;
  Param* self = &param;
  param.assign_ = [field, target, self](const std::string& text) {
    const std::int64_t value = parse_int(field, text);
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
      throw ConfigError(field, "integer '" + text + "' overflows int");
    check_range(field, self->has_range_, self->range_lo_, self->range_hi_,
                static_cast<double>(value));
    *target = static_cast<int>(value);
  };
  param.repr_ = [target]() { return std::to_string(*target); };
  param.numeric_ = [target]() { return static_cast<double>(*target); };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_int64(std::string name,
                                               std::int64_t* target,
                                               std::string doc) {
  Param& param = add_raw(std::move(name), std::move(doc), Kind::kInt, "int64");
  const std::string field = param.name_;
  Param* self = &param;
  param.assign_ = [field, target, self](const std::string& text) {
    const std::int64_t value = parse_int(field, text);
    check_range(field, self->has_range_, self->range_lo_, self->range_hi_,
                static_cast<double>(value));
    *target = value;
  };
  param.repr_ = [target]() { return std::to_string(*target); };
  param.numeric_ = [target]() { return static_cast<double>(*target); };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_uint64(std::string name,
                                                std::uint64_t* target,
                                                std::string doc) {
  Param& param =
      add_raw(std::move(name), std::move(doc), Kind::kUInt64, "uint64");
  const std::string field = param.name_;
  Param* self = &param;
  param.assign_ = [field, target, self](const std::string& text) {
    const std::uint64_t value = parse_uint(field, text);
    check_range(field, self->has_range_, self->range_lo_, self->range_hi_,
                static_cast<double>(value));
    *target = value;
  };
  param.repr_ = [target]() { return std::to_string(*target); };
  param.numeric_ = [target]() { return static_cast<double>(*target); };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_size(std::string name,
                                              std::size_t* target,
                                              std::string doc) {
  Param& param =
      add_raw(std::move(name), std::move(doc), Kind::kUInt64, "size");
  const std::string field = param.name_;
  Param* self = &param;
  param.assign_ = [field, target, self](const std::string& text) {
    const std::uint64_t value = parse_uint(field, text);
    check_range(field, self->has_range_, self->range_lo_, self->range_hi_,
                static_cast<double>(value));
    *target = static_cast<std::size_t>(value);
  };
  param.repr_ = [target]() { return std::to_string(*target); };
  param.numeric_ = [target]() { return static_cast<double>(*target); };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_double(std::string name,
                                                double* target,
                                                std::string doc) {
  Param& param =
      add_raw(std::move(name), std::move(doc), Kind::kDouble, "double");
  const std::string field = param.name_;
  Param* self = &param;
  param.assign_ = [field, target, self](const std::string& text) {
    const double value = parse_double(field, text);
    check_range(field, self->has_range_, self->range_lo_, self->range_hi_,
                value);
    *target = value;
  };
  param.repr_ = [target]() { return repr_double(*target); };
  param.numeric_ = [target]() { return *target; };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_string(std::string name,
                                                std::string* target,
                                                std::string doc) {
  Param& param =
      add_raw(std::move(name), std::move(doc), Kind::kString, "string");
  // Accept the renderer's quoted form too, so set(name, current_value())
  // is the identity for strings just like for every other kind.
  param.assign_ = [target](const std::string& text) {
    *target = unquote(text);
  };
  param.repr_ = [target]() { return quote(*target); };
  param.default_repr_ = param.repr_();
  return param;
}

ParamRegistry::Param& ParamRegistry::add_enum_raw(
    std::string name, std::vector<std::pair<std::string, int>> values,
    std::string doc, std::function<void(int)> store,
    std::function<int()> load) {
  std::string label = "enum{";
  for (std::size_t i = 0; i < values.size(); ++i)
    label += (i ? "|" : "") + values[i].first;
  label += "}";
  Param& param =
      add_raw(std::move(name), std::move(doc), Kind::kEnum, std::move(label));
  const std::string field = param.name_;
  auto shared =
      std::make_shared<std::vector<std::pair<std::string, int>>>(
          std::move(values));
  param.assign_ = [field, shared, store](const std::string& text) {
    const std::string low = lower(text);
    for (const auto& [spelling, code] : *shared) {
      if (lower(spelling) == low) {
        store(code);
        return;
      }
    }
    std::string choices;
    for (std::size_t i = 0; i < shared->size(); ++i)
      choices += (i ? "/" : "") + (*shared)[i].first;
    throw ConfigError(field,
                      "expected one of " + choices + ", got '" + text + "'");
  };
  param.repr_ = [shared, load]() -> std::string {
    const int code = load();
    for (const auto& [spelling, c] : *shared)
      if (c == code) return spelling;
    return std::to_string(code);
  };
  param.default_repr_ = param.repr_();
  return param;
}

void ParamRegistry::add_rule(std::string field,
                             std::function<std::string()> check) {
  rules_.push_back({std::move(field), std::move(check)});
}

void ParamRegistry::add_dynamic(
    std::string prefix,
    std::function<void(const std::string&, const std::string&)> set,
    std::function<std::vector<std::pair<std::string, std::string>>()> dump) {
  dynamics_.push_back({std::move(prefix), std::move(set), std::move(dump)});
}

const ParamRegistry::Param* ParamRegistry::find(std::string_view key) const {
  for (const Param& param : params_) {
    if (param.name_ == key) return &param;
    for (const std::string& alias : param.aliases_)
      if (alias == key) return &param;
  }
  return nullptr;
}

ParamRegistry::Param* ParamRegistry::find(std::string_view key) {
  return const_cast<Param*>(
      static_cast<const ParamRegistry*>(this)->find(key));
}

bool ParamRegistry::has(std::string_view key) const {
  return find(key) != nullptr;
}

std::string ParamRegistry::suggest(std::string_view key) const {
  std::string best;
  std::size_t best_distance = 4;  // anything farther is not a typo
  for (const Param& param : params_) {
    const std::size_t d = edit_distance(key, param.name_);
    if (d < best_distance) {
      best_distance = d;
      best = param.name_;
    }
    for (const std::string& alias : param.aliases_) {
      const std::size_t ad = edit_distance(key, alias);
      if (ad < best_distance) {
        best_distance = ad;
        best = alias;
      }
    }
  }
  return best;
}

void ParamRegistry::set(const std::string& key, const std::string& value) {
  if (Param* param = find(key)) {
    param->assign_(value);
    return;
  }
  for (const Dynamic& dynamic : dynamics_) {
    if (key.size() > dynamic.prefix.size() &&
        key.compare(0, dynamic.prefix.size(), dynamic.prefix) == 0) {
      dynamic.set(key.substr(dynamic.prefix.size()), value);
      return;
    }
  }
  std::string message = "unknown parameter";
  const std::string near = suggest(key);
  if (!near.empty()) message += " (did you mean '" + near + "'?)";
  throw ConfigError(key, message);
}

std::string ParamRegistry::get(const std::string& key) const {
  const Param* param = find(key);
  if (param == nullptr) throw ConfigError(key, "unknown parameter");
  return param->repr_();
}

void ParamRegistry::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw ConfigError("", "cannot open config file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  load_text(text.str(), path);
}

void ParamRegistry::load_text(std::string_view text,
                              const std::string& origin) {
  std::string prefix;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_number;

    // Strip comments, respecting quoted values.
    bool in_quote = false;
    char quote_char = 0;
    std::size_t cut = line.size();
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_quote) {
        if (c == quote_char) in_quote = false;
      } else if (c == '"' || c == '\'') {
        in_quote = true;
        quote_char = c;
      } else if (c == '#' || c == ';') {
        cut = i;
        break;
      }
    }
    line = trim(line.substr(0, cut));
    if (line.empty()) continue;

    const std::string where = origin + ":" + std::to_string(line_number);
    if (line.front() == '[') {
      if (line.back() != ']')
        throw ConfigError("", where + ": malformed section header '" +
                                  std::string(line) + "'");
      prefix = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      throw ConfigError("", where + ": expected 'key = value', got '" +
                                std::string(line) + "'");
    std::string key = std::string(trim(line.substr(0, eq)));
    if (key.empty())
      throw ConfigError("", where + ": empty key");
    if (!prefix.empty()) key = prefix + "." + key;
    const std::string value = unquote(trim(line.substr(eq + 1)));
    try {
      set(key, value);
    } catch (const ConfigError& error) {
      // what() already leads with the field name; an empty field here
      // avoids stuttering it twice in the re-prefixed message.
      throw ConfigError("", where + ": " + error.what());
    }
  }
}

void ParamRegistry::finalize() const {
  for (const Param& param : params_) {
    if (param.has_range_ && param.numeric_) {
      check_range(param.name_, true, param.range_lo_, param.range_hi_,
                  param.numeric_());
    }
  }
  for (const Rule& rule : rules_) {
    const std::string message = rule.check();
    if (!message.empty()) throw ConfigError(rule.field, message);
  }
}

std::string ParamRegistry::dump_config() const {
  std::ostringstream out;
  out << "# elastisched configuration (generated by --dump-config)\n";
  out << "# every line below is loadable via --config FILE\n";
  std::string section;
  for (const Param& param : params_) {
    const std::size_t dot = param.name_.rfind('.');
    const std::string param_section =
        dot == std::string::npos ? std::string() : param.name_.substr(0, dot);
    if (param_section != section) {
      section = param_section;
      out << "\n";
    }
    out << "# " << param.doc_ << "\n";
    out << param.name_ << " = " << param.repr_() << "\n";
  }
  const auto entries = dynamic_entries();
  if (!entries.empty()) out << "\n";
  for (const auto& [key, value] : entries) out << key << " = " << value << "\n";
  return out.str();
}

std::vector<std::pair<std::string, std::string>>
ParamRegistry::dynamic_entries() const {
  std::vector<std::pair<std::string, std::string>> entries;
  for (const Dynamic& dynamic : dynamics_) {
    for (auto& entry : dynamic.dump()) entries.push_back(std::move(entry));
  }
  return entries;
}

std::string ParamRegistry::list_params() const {
  std::ostringstream out;
  for (const Param& param : params_) {
    out << param.name_ << "  (" << param.type_label_
        << ", default " << param.default_repr_;
    if (param.has_range_)
      out << ", range [" << repr_double(param.range_lo_) << ", "
          << repr_double(param.range_hi_) << "]";
    for (const std::string& alias : param.aliases_)
      out << ", alias " << alias;
    out << ")\n    " << param.doc_ << "\n";
  }
  for (const Dynamic& dynamic : dynamics_) {
    out << dynamic.prefix << "*  (dynamic)\n";
  }
  return out.str();
}

void ParamRegistry::fingerprint_into(std::string& out) const {
  for (const Param& param : params_) {
    if (!param.fingerprint_) continue;
    out += param.name_;
    out += '=';
    out += param.repr_();
    out += '\n';
  }
  for (const auto& [key, value] : dynamic_entries()) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
}

}  // namespace es::util
