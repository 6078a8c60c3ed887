// Command-line flag parsing and validation shared by the tools
// (tools/deflatectl.cpp) and unit-testable on its own.
//
// Flags are `--key value` pairs (`--key` alone is a boolean `"1"`).
// Validation is strict where silence used to hide mistakes: numeric flags
// that fail to parse, values outside their documented range, flags the
// subcommand does not know, and conflicting combinations all produce a
// one-line error instead of silently falling back to a default.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace deflate::util {

/// Upper bounds of the tools' numeric flags: far past any useful run, and
/// small enough that every cast a flag reaches is defined. Every integer
/// flag is bounded above, because a finite huge value cast to an integer
/// is undefined behaviour.
namespace flag_limits {
/// SimTime's int64 microseconds hold it.
inline constexpr double kMaxHours = 1e5;
inline constexpr double kMaxVms = 1e8;
inline constexpr double kMaxServers = 1e6;
inline constexpr double kMaxMarkets = 1e3;
/// 2^53: every whole number up to it is exact as a double.
inline constexpr double kMaxSeed = 9007199254740992.0;
inline constexpr double kMaxUint32 = 4294967295.0;
}  // namespace flag_limits

struct CliArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// Parses the flag as a double; throws std::invalid_argument with a
  /// one-line message naming the flag on a malformed value.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.count(key) > 0;
  }
};

[[nodiscard]] CliArgs parse_cli(int argc, const char* const* argv);

/// One-line validation errors, accumulated across checks so the user sees
/// every problem at once; empty = the flag set is valid.
class CliValidator {
 public:
  explicit CliValidator(const CliArgs& args) : args_(args) {}

  /// Flags outside `allowed` are an error ("unknown flag --x"): a typo'd
  /// flag must not silently become a default.
  CliValidator& allow_only(const std::vector<std::string>& allowed);
  /// Numeric flag must parse and satisfy value >= min.
  CliValidator& require_at_least(const std::string& key, double min);
  /// Numeric flag must parse and satisfy min <= value <= max.
  CliValidator& require_in_range(const std::string& key, double min,
                                 double max);
  /// Numeric flag must parse to a whole number in [min, max]. There is no
  /// unbounded variant: see flag_limits.
  CliValidator& require_integer_in_range(const std::string& key, double min,
                                         double max);
  /// `key` only makes sense together with `requires_key` ("--correlation
  /// requires --markets"); `detail` explains why.
  CliValidator& require_together(const std::string& key,
                                 const std::string& requires_key,
                                 const std::string& detail);
  /// Free-form check: record `error` when `ok` is false.
  CliValidator& check(bool ok, const std::string& error);

  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  [[nodiscard]] bool ok() const noexcept { return errors_.empty(); }

 private:
  /// Parses flag `key` if present; records an error and returns nullopt on
  /// a malformed value.
  [[nodiscard]] std::optional<double> parsed(const std::string& key);

  const CliArgs& args_;
  std::vector<std::string> errors_;
};

}  // namespace deflate::util
