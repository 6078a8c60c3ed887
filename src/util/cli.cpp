#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace deflate::util {

namespace {

/// The whole of `text` as a finite number. strtod also accepts "nan",
/// "inf" and overflowing literals such as "1e999"; those are refused,
/// because every comparison with NaN is false (a range check would pass
/// it) and casting a non-finite value to an integer is undefined.
std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Compact bound rendering for error messages ("0", "-1", "0.35").
std::string bound(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e18) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::optional<double> value = parse_double(it->second);
  if (!value) {
    throw std::invalid_argument("flag --" + key +
                                ": expected a finite number, got '" +
                                it->second + "'");
  }
  return *value;
}

CliArgs parse_cli(int argc, const char* const* argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      const bool has_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      // A flag without a value is boolean. Moving in a built string rather
      // than assigning a literal keeps GCC 12's -O3 -Wrestrict false
      // positive out of the -Werror build.
      args.flags.insert_or_assign(key,
                                  std::string(has_value ? argv[++i] : "1"));
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

std::optional<double> CliValidator::parsed(const std::string& key) {
  const auto it = args_.flags.find(key);
  if (it == args_.flags.end()) return std::nullopt;
  const std::optional<double> value = parse_double(it->second);
  if (!value) {
    errors_.push_back("flag --" + key + ": expected a finite number, got '" +
                      it->second + "'");
  }
  return value;
}

CliValidator& CliValidator::allow_only(
    const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : args_.flags) {
    bool known = false;
    for (const std::string& candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) errors_.push_back("unknown flag --" + key);
  }
  return *this;
}

CliValidator& CliValidator::require_at_least(const std::string& key,
                                             double min) {
  if (const auto value = parsed(key); value && *value < min) {
    errors_.push_back("flag --" + key + ": must be >= " + bound(min) +
                      ", got " + args_.flags.at(key));
  }
  return *this;
}

CliValidator& CliValidator::require_in_range(const std::string& key,
                                             double min, double max) {
  if (const auto value = parsed(key); value && (*value < min || *value > max)) {
    errors_.push_back("flag --" + key + ": must be in [" + bound(min) + ", " +
                      bound(max) + "], got " + args_.flags.at(key));
  }
  return *this;
}

CliValidator& CliValidator::require_integer_in_range(const std::string& key,
                                                     double min, double max) {
  const auto value = parsed(key);
  if (!value) return *this;
  if (*value != std::floor(*value)) {
    errors_.push_back("flag --" + key + ": must be a whole number, got " +
                      args_.flags.at(key));
    return *this;
  }
  return require_in_range(key, min, max);
}

CliValidator& CliValidator::require_together(const std::string& key,
                                             const std::string& requires_key,
                                             const std::string& detail) {
  if (args_.has(key) && !args_.has(requires_key)) {
    errors_.push_back("flag --" + key + " requires --" + requires_key + " (" +
                      detail + ")");
  }
  return *this;
}

CliValidator& CliValidator::check(bool ok, const std::string& error) {
  if (!ok) errors_.push_back(error);
  return *this;
}

}  // namespace deflate::util
