#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace es::util {
namespace {

template <typename T, typename Fn>
std::function<bool(std::string_view)> numeric_assign(T* target, Fn convert) {
  return [target, convert](std::string_view text) {
    std::string owned(text);
    char* end = nullptr;
    const auto value = convert(owned.c_str(), &end);
    if (end == owned.c_str() || *end != '\0') return false;
    *target = static_cast<T>(value);
    return true;
  };
}

}  // namespace

CliParser::Option& CliParser::add(std::string name, std::string help) {
  ES_EXPECTS_MSG(find(name) == nullptr, "duplicate option --%s",
                 name.c_str());
  Option& opt = options_.emplace_back();
  opt.name = std::move(name);
  opt.help = std::move(help);
  return opt;
}

void CliParser::add_flag(std::string name, std::string help, bool* target) {
  Option& opt = add(std::move(name), std::move(help));
  opt.is_boolean = true;
  opt.assign = [target](std::string_view text) {
    if (text.empty() || text == "true" || text == "1") {
      *target = true;
      return true;
    }
    if (text == "false" || text == "0") {
      *target = false;
      return true;
    }
    return false;
  };
}

void CliParser::add_option(std::string name, std::string help, int* target) {
  add(std::move(name), std::move(help)).assign =
      numeric_assign(target, [](const char* s, char** end) {
        return std::strtol(s, end, 10);
      });
}

void CliParser::add_option(std::string name, std::string help,
                           unsigned long long* target) {
  add(std::move(name), std::move(help)).assign =
      numeric_assign(target, [](const char* s, char** end) {
        return std::strtoull(s, end, 10);
      });
}

void CliParser::add_option(std::string name, std::string help,
                           double* target) {
  add(std::move(name), std::move(help)).assign = numeric_assign(
      target, [](const char* s, char** end) { return std::strtod(s, end); });
}

void CliParser::add_option(std::string name, std::string help,
                           std::string* target) {
  add(std::move(name), std::move(help)).assign =
      [target](std::string_view text) {
        *target = std::string(text);
        return true;
      };
}

void CliParser::add_param_flags(const ParamRegistry& registry) {
  for (const ParamRegistry::Param& param : registry.params()) {
    for (const std::string& alias : param.aliases()) {
      if (alias.find('.') != std::string::npos) continue;
      Option& opt = add(alias, param.doc() + " (default " +
                                   param.default_value() + ")");
      opt.is_boolean = param.kind() == ParamRegistry::Kind::kBool;
      // The registry parses the text in apply_param_flags(), so a malformed
      // value surfaces as a field-named ConfigError, not a parse failure.
      opt.assign = [](std::string_view) { return true; };
      opt.param = param.name();
    }
  }
}

void CliParser::apply_param_flags(ParamRegistry& registry) const {
  for (const ParamValue& value : param_values_) {
    try {
      registry.set(value.param, value.text);
    } catch (const ConfigError& error) {
      throw ConfigError(error.field(),
                        error.message() + " (from --" + value.flag + ")");
    }
  }
}

const CliParser::Option* CliParser::find(std::string_view name) const {
  for (const auto& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

CliParser::Option* CliParser::find(std::string_view name) {
  for (auto& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

bool CliParser::was_set(std::string_view name) const {
  const Option* opt = find(name);
  return opt != nullptr && opt->seen;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::optional<std::string_view> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    Option* opt = find(name);
    if (!opt) {
      std::fprintf(stderr, "unknown option --%.*s (try --help)\n",
                   static_cast<int>(name.size()), name.data());
      return false;
    }
    std::string_view value;
    if (inline_value) {
      value = *inline_value;
    } else if (!opt->is_boolean) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option --%s requires a value\n",
                     opt->name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!opt->assign(value)) {
      std::fprintf(stderr, "invalid value '%.*s' for option --%s\n",
                   static_cast<int>(value.size()), value.data(),
                   opt->name.c_str());
      return false;
    }
    opt->seen = true;
    if (!opt->param.empty())
      param_values_.push_back(
          {opt->name, opt->param,
           opt->is_boolean && !inline_value ? "true" : std::string(value)});
  }
  return true;
}

std::string CliParser::help(std::string_view program_name) const {
  std::string text;
  text += description_;
  text += "\n\nusage: ";
  text += program_name;
  text += " [options]\n\noptions:\n";
  for (const auto& opt : options_) {
    text += "  --" + opt.name;
    if (!opt.is_boolean) text += " <value>";
    text += "\n      " + opt.help + "\n";
  }
  return text;
}

}  // namespace es::util
